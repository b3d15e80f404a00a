"""Record the references the benchmark compares every output with.

    python3 perfbench/record.py

Run from the repository root at a commit whose outputs are known good. It
writes `perfbench/ref/full.json`: per workload the digests of the state,
report and SVG files, the check records, the work counters and, for
diag-k4t, the query pool with the digest of every answer. A later change
that alters an output on purpose re-records and says why.
"""

from __future__ import annotations

import json

import harness


def main() -> int:
    refs = {name: harness.record(name, "full") for name in harness.FULL}
    path = harness.BENCH_DIR / "ref" / "full.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, ref in refs.items():
        statuses = [r["status"] for r in ref["report_checks"]]
        print(f"{name}: {statuses.count('pass')} pass, {statuses.count('fail')} fail, "
              f"counters {ref['counters']}")
    print(f"wrote {path.relative_to(harness.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
