"""Command-line front end: build, verify, trace, render.

The single state file (fanforge-state-v1 JSON) is the only contract between
commands. Rationals cross the boundary as "p/q" strings in both directions;
no floating point is accepted as input anywhere.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import render, tiling, verify
from .errors import FanforgeError
from .exact import rational_from_str, rational_to_str


@dataclass
class Config:
    """Everything that determines a run."""

    command: str
    depth: int | None = None
    jumps: int | None = None
    out: str | None = None
    state: str | None = None
    checks: list[str] | None = None
    figure: str | None = None
    c: str | None = None
    lo: str | None = None
    hi: str | None = None
    grid_depth: int | None = None
    fibers: int = 3
    epsilon: list[float] = field(default_factory=list)
    as_json: bool = False


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
        f"({', '.join(verify.KNOWN_CHECKS)})",
    )
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.add_argument("--grid-depth", type=int, dest="grid_depth")
    p_verify.add_argument("--fibers", type=int, default=3)
    p_verify.add_argument("--epsilon", action="append", type=float, default=[])

    p_trace = sub.add_parser("trace", help="crossing heights of one vertical line")
    p_trace.add_argument("--state", required=True)
    p_trace.add_argument("--c", required=True, help='column as a rational "p/q"')
    p_trace.add_argument("--lo", help="lower height bound (rational)")
    p_trace.add_argument("--hi", help="upper height bound (rational)")
    p_trace.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_render = sub.add_parser("render", help="emit deterministic SVG figures")
    p_render.add_argument("--state", required=True)
    p_render.add_argument("--figure", required=True, choices=render.FIGURE_KINDS)
    p_render.add_argument("--out", help="output file; default: figure-<kind>-K<k>-N<n>.svg")

    return parser


def cmd_build(cfg: Config) -> int:
    state = tiling.build(cfg.depth, cfg.jumps)
    tiling.save_state(state, cfg.out)
    print(f"stages: {len(state.stages)}, copies: {len(state.copies)}")
    print(f"wrote {cfg.out}")
    return 0


def cmd_verify(cfg: Config) -> int:
    state = tiling.load_state(cfg.state)
    checks = cfg.checks
    report = verify.run_all(
        state,
        checks=checks,
        grid_depth=cfg.grid_depth,
        fiber_count=cfg.fibers,
        epsilons=cfg.epsilon,
    )
    sys.stdout.write(report.to_text())
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {cfg.out}")
    return 0 if report.passed else 1


def cmd_trace(cfg: Config) -> int:
    state = tiling.load_state(cfg.state)
    c = rational_from_str(cfg.c)
    lo = rational_from_str(cfg.lo) if cfg.lo else None
    hi = rational_from_str(cfg.hi) if cfg.hi else None
    crossings = tiling.vertical_trace(state, c, lo, hi)
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
    if cfg.as_json:
        print(json.dumps({"c": rational_to_str(c), "crossings": rows}, sort_keys=True))
        return 0
    print(f"trace of column c = {rational_to_str(c)} over [{rational_to_str(lo)}, {rational_to_str(hi)}]")
    for row in rows:
        print(f"  {row['height']:>16}  copy {row['copy']:>8}  gap below: {row['gap_below']}")
    print(f"  gap above last crossing: {rational_to_str(hi - cursor)}")
    return 0


def cmd_render(cfg: Config) -> int:
    state = tiling.load_state(cfg.state)
    doc = render.render_figure(state, cfg.figure)
    out = cfg.out or render.figure_filename(cfg.figure, state.depth, state.n_jumps)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(doc)
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    cfg = Config(
        command=args.command,
        depth=getattr(args, "depth", None),
        jumps=getattr(args, "jumps", None),
        out=getattr(args, "out", None),
        state=getattr(args, "state", None),
        checks=args.checks.split(",") if getattr(args, "checks", None) else None,
        figure=getattr(args, "figure", None),
        c=getattr(args, "c", None),
        lo=getattr(args, "lo", None),
        hi=getattr(args, "hi", None),
        grid_depth=getattr(args, "grid_depth", None),
        fibers=getattr(args, "fibers", 3),
        epsilon=list(getattr(args, "epsilon", []) or []),
        as_json=bool(getattr(args, "json", False)),
    )
    try:
        if cfg.command == "build":
            return cmd_build(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        if cfg.command == "trace":
            return cmd_trace(cfg)
        if cfg.command == "render":
            return cmd_render(cfg)
    except FanforgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
