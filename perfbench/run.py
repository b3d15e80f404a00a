"""Run one fanforge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact-k4 --seed 1 --seconds 40 --trace 0

Run from the repository root. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`, the end-to-end
metrics with `--trace 0` and the per-layer metrics with `--trace 1`.
`--workload all` runs every workload in turn and names each metric
`<workload>.<metric>` in one combined result. Exits
with status 2, printing no result, when the program or the references are
missing.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def main() -> int:
    parser = argparse.ArgumentParser(description="fanforge benchmark")
    parser.add_argument("--workload", required=True, choices=[*harness.FULL, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(harness.FULL) if args.workload == "all" else [args.workload]
    try:
        results = {name: harness.run(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except harness.HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
