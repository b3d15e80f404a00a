"""Program side of the benchmark: fanforge library calls in a fresh process.

`harness.py` starts this script as a child process and never imports
fanforge itself. Each step writes one JSON result (spans included) to the
file named by `--result`:

  build   mirror of `fanforge build`, one span per library call
  verify  mirror of `fanforge verify`, one span per check; the
          epsilon-connectivity check is replayed through its public parts
  render  mirror of `fanforge render`
  setup   the diag-k4t set-up alone: build, save, load, assemble
  diag    the diag-k4t session: set-up, run_all, then the query stream
  pool    candidate diag-k4t queries with their answer digests (used only
          when references are recorded)

The mirrors exist for the traced run only; the untraced run times the real
CLI. With `--trace 0` no span is recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import random
import resource
import time
from contextlib import nullcontext
from fractions import Fraction


class Tracer:
    """Spans kept in memory as [name, parent index or -1, start, end]."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else nullcontext()


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        t.spans.append([self.name, t._open[-1] if t._open else -1, time.perf_counter(), None])
        t._open.append(len(t.spans) - 1)

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[t._open.pop()][3] = time.perf_counter()
        return False


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_checks(ff, tracer: Tracer, state, checks: list[str], out: dict) -> list[dict]:
    """One span per check; epsilon-connectivity is replayed part by part."""
    records: list[dict] = []
    for check in checks:
        if check == "epsilon-connectivity":
            out["eps"] = replay_epsilon_connectivity(ff, tracer, state, out)
            records.append({"name": check, "replayed": True})
            continue
        with tracer.span("verify." + check.replace("-", "_")):
            report = ff.verify.run_all(state, checks=[check])
        records.extend(r.to_json_obj() for r in report.records)
    return records


def replay_epsilon_connectivity(ff, tracer: Tracer, state, out: dict) -> dict:
    """The public calls behind the CLI's default epsilon-connectivity check."""
    with tracer.span("verify.check_epsilon_connectivity"):
        with tracer.span("spaceset.assemble"):
            model = ff.spaceset.assemble(state)
        with tracer.span("spaceset.sample_points"):
            cloud = ff.spaceset.sample_points(model, state.depth, 3)
        coords = cloud.coordinates()
        rss_before = maxrss_mb()
        with tracer.span("verify.mst_max_edge"):
            eps_star = ff.verify.mst_max_edge(coords)
        with tracer.span("verify.epsilon_connectivity"):
            at_star = ff.verify.epsilon_connectivity(coords, eps_star)
        with tracer.span("verify.epsilon_connectivity"):
            at_half = ff.verify.epsilon_connectivity(coords, eps_star / 2)
        out["mst_rss_delta_mb"] = maxrss_mb() - rss_before
    return {
        "cloud_size": len(coords),
        "eps_star": f"{eps_star:.9f}",
        "components_at_star": at_star,
        "components_at_half": at_half,
    }


def setup(ff, tracer: Tracer, args) -> tuple:
    with tracer.span("tiling.build"):
        built = ff.tiling.build(args.depth, args.jumps, strict=not args.tolerant)
    with tracer.span("tiling.save_state"):
        ff.tiling.save_state(built, args.state)
    with tracer.span("tiling.load_state"):
        state = ff.tiling.load_state(args.state)
    with tracer.span("spaceset.assemble"):
        model = ff.spaceset.assemble(state)
    return state, model


def parse_query(q: dict) -> tuple:
    kind = q["kind"]
    if kind == "claim5":
        return kind, (q["copy"], q["level"], q["loop"])
    if kind == "trace":
        return kind, (Fraction(q["c"]),)
    return kind, ((Fraction(q["c"]), Fraction(q["h"])),)


QUERY_SPANS = {
    "trace": "tiling.vertical_trace",
    "classify-q": "spaceset.classify",
    "classify-p": "spaceset.classify",
    "classify-on": "spaceset.classify",
    "claim5": "decomp.claim5_regions",
}


def answer_text(kind: str, result) -> str:
    """Canonical text of a query answer; its digest is what gets compared."""
    if kind == "trace":
        return ";".join(f"{h}@{cid}" for h, cid in result)
    if kind == "claim5":
        return ",".join(
            str(v)
            for v in (
                result.column,
                result.above_copy_id,
                result.below_copy_id,
                result.boundary_ok,
                result.distance_above,
                result.distance_below,
                len(result.upper_region.boundary),
                len(result.lower_region.boundary),
            )
        )
    return result


def query_callers(ff, state, model) -> dict:
    return {
        "trace": lambda c: ff.tiling.vertical_trace(state, c),
        "classify-q": model.classify,
        "classify-p": model.classify,
        "classify-on": model.classify,
        "claim5": lambda cid, level, loop: ff.decomp.claim5_regions(model, cid, level, loop),
    }


def run_queries(ff, tracer: Tracer, state, model, queries: list[dict], out: dict) -> None:
    """Closed loop: each query starts after the previous one returned."""
    calls = query_callers(ff, state, model)
    parsed = [parse_query(q) for q in queries]
    results = []
    times = []
    for kind, qargs in parsed:
        call = calls[kind]
        with tracer.span(QUERY_SPANS[kind]):
            t0 = time.perf_counter()
            result = call(*qargs)
            times.append((t0, time.perf_counter()))
        results.append(result)
    out["queries"] = times
    out["answers"] = [digest(answer_text(kind, r)) for (kind, _), r in zip(parsed, results)]
    out["claim5_ok"] = [r.boundary_ok for (kind, _), r in zip(parsed, results) if kind == "claim5"]


def step_diag(ff, tracer: Tracer, args, out: dict) -> None:
    with open(args.queries, encoding="utf-8") as fh:
        queries = json.load(fh)
    t0 = time.perf_counter()
    state, model = setup(ff, tracer, args)
    t1 = time.perf_counter()
    if tracer.enabled:
        out["records"] = run_checks(ff, tracer, state, args.checks, out)
    else:
        report = ff.verify.run_all(state, checks=args.checks)
        out["records"] = [r.to_json_obj() for r in report.records]
        out["report_sha256"] = hashlib.sha256(report.to_json().encode()).hexdigest()
    t2 = time.perf_counter()
    run_queries(ff, tracer, state, model, queries, out)
    out.update(setup=(t0, t1), verify=(t1, t2))


def cantor_endpoints(ff, depth: int) -> list[Fraction]:
    ends = set()
    for bits in itertools.product((0, 1), repeat=depth):
        sigma = ff.exact.Address(bits)
        ends.add(ff.exact.endpoint_zero(sigma))
        ends.add(ff.exact.endpoint_one(sigma))
    return sorted(ends)


def step_pool(ff, args, out: dict) -> None:
    """Candidate queries per kind, drawn once from a fixed seed, with answers."""
    state = ff.tiling.build(args.depth, args.jumps, strict=not args.tolerant)
    model = ff.spaceset.assemble(state)
    rng = random.Random(args.pool_seed)
    columns = cantor_endpoints(ff, state.depth + 3)
    copies = state.copies
    pool: list[dict] = []

    rational = ff.exact.rational_to_str

    def trace_at(c):
        return ff.tiling.vertical_trace(state, c)

    for _ in range(args.per_kind):
        pool.append({"kind": "trace", "c": rational(rng.choice(columns))})
    for _ in range(args.per_kind):
        c, h = copies[rng.randrange(len(copies))].midpoint_global(rng.randrange(state.n_jumps))
        pool.append({"kind": "classify-q", "c": rational(c), "h": rational(h)})
    for _ in range(args.per_kind):
        c = rng.choice(columns)
        heights = [state.range_low] + [h for h, _ in trace_at(c)] + [state.range_high]
        gaps = [(lo, hi) for lo, hi in zip(heights, heights[1:]) if hi > lo]
        lo, hi = rng.choice(gaps)
        pool.append({"kind": "classify-p", "c": rational(c), "h": rational((lo + hi) / 2)})
    for i in range(args.per_kind):
        if i % 2 == 0:  # a plateau crossing at a Cantor endpoint
            c = rng.choice(columns)
            h = rng.choice(trace_at(c))[0]
        else:  # a jump segment point off its midpoint
            copy = copies[rng.randrange(len(copies))]
            c, lo, hi = copy.jump_global(rng.randrange(state.n_jumps))
            h = lo + (hi - lo) / 4
        pool.append({"kind": "classify-on", "c": rational(c), "h": rational(h)})
    deep = [cid for cid, cp in enumerate(copies) if cp.stage < state.depth]
    while sum(q["kind"] == "claim5" for q in pool) < args.per_kind:
        cid = rng.choice(deep)
        level = rng.randrange(state.depth - copies[cid].stage)
        query = {"kind": "claim5", "copy": cid, "level": level, "loop": rng.randrange(state.n_jumps)}
        try:
            ff.decomp.claim5_regions(model, cid, level, query["loop"])
        except ff.errors.FanforgeError:
            continue  # the stream only holds inputs where claim5 is defined
        pool.append(query)
    run_queries(ff, Tracer(False), state, model, pool, out)
    for query, answer in zip(pool, out.pop("answers")):
        query["answer"] = answer
    out["pool"] = pool


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("build", "verify", "render", "setup", "diag", "pool"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--depth", type=int)
    parser.add_argument("--jumps", type=int)
    parser.add_argument("--tolerant", action="store_true")
    parser.add_argument("--state")
    parser.add_argument("--checks", type=lambda s: s.split(","))
    parser.add_argument("--figure")
    parser.add_argument("--out")
    parser.add_argument("--queries")
    parser.add_argument("--per-kind", type=int, dest="per_kind")
    parser.add_argument("--pool-seed", type=int, dest="pool_seed", default=0)
    args = parser.parse_args()

    tracer = Tracer(bool(args.trace))
    with tracer.span("cli.import"):
        ff = importlib.import_module("fanforge")
        for name in ("cli", "decomp", "errors", "exact", "render", "spaceset", "tiling", "verify"):
            importlib.import_module(f"fanforge.{name}")
    out: dict = {}
    if args.step == "build":
        with tracer.span("tiling.build"):
            state = ff.tiling.build(args.depth, args.jumps)
        with tracer.span("tiling.save_state"):
            ff.tiling.save_state(state, args.state)
    elif args.step == "verify":
        with tracer.span("tiling.load_state"):
            state = ff.tiling.load_state(args.state)
        out["records"] = run_checks(ff, tracer, state, args.checks, out)
    elif args.step == "render":
        with tracer.span("tiling.load_state"):
            state = ff.tiling.load_state(args.state)
        if args.figure == "earring":
            with tracer.span("spaceset.assemble"):
                model = ff.spaceset.assemble(state)
            with tracer.span("decomp.collapse_E"):
                earring = ff.decomp.collapse_E(model, 0)
            with tracer.span("render.earring"):
                doc = ff.render.render_earring(earring)
        else:
            with tracer.span(f"render.{args.figure}"):
                doc = ff.render.render_figure(state, args.figure)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    elif args.step == "setup":
        t0 = time.perf_counter()
        setup(ff, tracer, args)
        out["setup"] = (t0, time.perf_counter())
    elif args.step == "diag":
        step_diag(ff, tracer, args, out)
    else:
        step_pool(ff, args, out)
    out["spans"] = tracer.spans
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
