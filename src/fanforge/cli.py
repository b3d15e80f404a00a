"""Command-line front end: build, verify, trace, render.

The single state file (fanforge-state-v1 JSON) is the only contract between
commands. Rationals cross the boundary as "p/q" strings in both directions;
no floating point is accepted as input anywhere. `verify` takes the state,
the check selection and the report path alone: the epsilon-connectivity
cloud and thresholds are fixed in `connectivity`. Each command imports only
what it runs: `verify`, `trace` and `render` load their modules inside
their commands.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import tiling
from .catalog import FIGURE_KINDS, KNOWN_CHECKS
from .errors import FanforgeError
from .exact import rational_from_str, rational_to_str


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanforge",
        description="Exact finite models of the Cantor-fan construction: "
        "build, verify, trace, and render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a construction state file")
    p_build.add_argument("--depth", type=int, required=True, help="number of stages beyond stage 0")
    p_build.add_argument("--jumps", type=int, required=True, help="truncation: realized jump count")
    p_build.add_argument("--out", required=True, help="output state file (fanforge-state-v1)")

    p_verify = sub.add_parser("verify", help="run verification checks against a state file")
    p_verify.add_argument("--state", required=True)
    p_verify.add_argument(
        "--checks",
        help="comma list of checks (name or name=<level>); default: all "
        f"({', '.join(KNOWN_CHECKS)})",
    )
    p_verify.add_argument("--out", help="write the JSON report here")

    p_trace = sub.add_parser("trace", help="crossing heights of one vertical line")
    p_trace.add_argument("--state", required=True)
    p_trace.add_argument("--c", required=True, help='column as a rational "p/q"')
    p_trace.add_argument("--lo", help="lower height bound (rational)")
    p_trace.add_argument("--hi", help="upper height bound (rational)")
    p_trace.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_render = sub.add_parser("render", help="emit deterministic SVG figures")
    p_render.add_argument("--state", required=True)
    p_render.add_argument("--figure", required=True, choices=FIGURE_KINDS)
    p_render.add_argument("--out", help="output file; default: figure-<kind>-K<k>-N<n>.svg")

    return parser


def cmd_build(args: argparse.Namespace) -> int:
    state = tiling.build(args.depth, args.jumps)
    tiling.save_state(state, args.out)
    print(f"stages: {len(state.stages)}, copies: {len(state.copies)}")
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    state = tiling.load_state(args.state)
    # None runs all; "" selects none
    report = verify.run_all(state, checks=args.checks and args.checks.split(","))
    sys.stdout.write(report.to_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.out}")
    return 0 if report.passed else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from .query import vertical_trace

    state = tiling.load_state(args.state)
    c = rational_from_str(args.c)
    lo = rational_from_str(args.lo) if args.lo else None
    hi = rational_from_str(args.hi) if args.hi else None
    crossings = vertical_trace(state, c, lo, hi)
    lo = state.range_low if lo is None else lo
    hi = state.range_high if hi is None else hi
    rows = []
    cursor = lo
    for h, cid in crossings:
        rows.append(
            {
                "height": rational_to_str(h),
                "copy": state.copies[cid].key,
                "gap_below": rational_to_str(h - cursor),
            }
        )
        cursor = h
    if args.json:
        print(json.dumps({"c": rational_to_str(c), "crossings": rows}, sort_keys=True))
        return 0
    print(f"trace of column c = {rational_to_str(c)} over [{rational_to_str(lo)}, {rational_to_str(hi)}]")
    for row in rows:
        print(f"  {row['height']:>16}  copy {row['copy']:>8}  gap below: {row['gap_below']}")
    print(f"  gap above last crossing: {rational_to_str(hi - cursor)}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from . import render

    state = tiling.load_state(args.state)
    lines = render.figure_lines(state, args.figure)
    out = args.out or render.figure_filename(args.figure, state.depth, state.n_jumps)
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print(f"wrote {out}")
    return 0


def _signed_values(argv: list[str]) -> list[str]:
    """argv with "--c -1/2" (and --lo, --hi) joined as "--c=-1/2": argparse
    takes a value that starts with "-" for an option unless it is a plain
    integer or decimal."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--c", "--lo", "--hi") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_signed_values(sys.argv[1:] if argv is None else argv))
    commands = {"build": cmd_build, "verify": cmd_verify, "trace": cmd_trace, "render": cmd_render}
    try:
        return commands[args.command](args)
    except FanforgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
