"""Self-test of the benchmark harness at desk scale, (K, N) = (2, 16).

    python3 perfbench/selftest.py

Records desk-scale references in memory, then shows that:
  - every workload, untraced and traced, emits exactly the metrics that
    BENCHMARK.json names, each with its unit, and counts no failure;
  - a corrupted reference digest (state, SVG, query answer) is counted as a
    failed operation and makes the result incorrect.
Exits 0 when every statement holds.
"""

from __future__ import annotations

import copy
import json

import harness

SECONDS = 1


def emitted(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def corrupt_first_answer(refs: dict) -> None:
    """Corrupt the answer of the first query the seed-1 stream draws."""
    first = harness.query_stream(refs["pool"], 1, 1)[0]
    refs["pool"][first]["answer"] = "0" * 16


def main() -> int:
    failures: list[str] = []

    def claim(ok: bool, text: str) -> None:
        print(("ok    " if ok else "FAIL  ") + text)
        if not ok:
            failures.append(text)

    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    claim(sorted(workloads) == sorted(harness.FULL), "BENCHMARK.json names the harness's workloads")
    refs = {name: harness.record(name, "desk") for name in harness.DESK}
    for name in harness.DESK:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = harness.run(name, 1, SECONDS, trace, "desk", copy.deepcopy(refs[name]))
            claim(emitted(result) == {m["name"]: m["unit"] for m in bench[section]},
                  f"{name} trace={int(trace)} emits every {section} metric with its unit")
            claim(result["correct"] and result["failed"] == 0,
                  f"{name} trace={int(trace)} counts no failure in {result['attempted']} operations")

    corruptions = (
        ("exact-k4", lambda r: r.update(state_sha256="0" * 64), "state digest"),
        ("fan-k3", lambda r: r.update({"svg_sha256.fan": "0" * 64}), "fan SVG digest"),
        ("diag-k4t", corrupt_first_answer, "query answer digest"),
    )
    for name, corrupt, what in corruptions:
        bad = copy.deepcopy(refs[name])
        corrupt(bad)
        result = harness.run(name, 1, SECONDS, False, "desk", bad)
        claim(result["failed"] >= 1 and not result["correct"],
              f"{name}: a corrupted {what} counts as failed ({result['failed']} of {result['attempted']})")
    print(f"selftest: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
