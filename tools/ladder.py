"""Time the package import, `build`, each `run_all` check, `save_state`,
`load_state`, a fixed query set and the tiling and fan renders in-process
over the fixed ladder.

The ladder is (2,16), (3,16), (4,32), tolerant (4,16), (5,48) and (6,96).
Each measurement runs in a fresh interpreter that imports fanforge from one
source tree and builds the state. Inside it each step runs up to RUNS
times, fewer once its runs have taken RUN_BUDGET seconds, and its time is
the best of those runs, so that one slow phase of the host does not move a
step. Every check of `verify.KNOWN_CHECKS` runs on its own `run_all` call,
each time on a fresh placement of the built state's rects, so a per-level
check includes its own sweeps and no check reads what another run left in
the copies. Then it saves the state to a temporary directory with
`save_state`, loads it back with `load_state`, and answers a fixed,
seed-free query set on a freshly loaded state (`query_set`:
`vertical_trace`, `SpaceModel.classify` and `claim5_regions` calls), so the
`queries` time includes building whatever the first query builds. Then it
runs the `render` command there through `cli.main` for the tiling and the
fan figure, so a render time includes loading the state file and writing
the SVG as the command does. The `import` entry is the fixed cost every
command pays first: `import fanforge.cli, fanforge.verify` timed inside
one more fresh interpreter per run. The renders come last so that the
memory they leave behind cannot move the check times. Untimed, it counts
`diameters_measured`: the exact copy diameters `stage_fan_diameters` takes
(calls of `floats.copy_fan_diameter`) on the built state, so each tree
must have the `floats` module.
The (6,96) rung, where the state's height scale is widest, takes most of
the time and memory: its epsilon-connectivity samples 2.3 M points.
Each rung is measured REPEATS times per tree, the trees alternating, and
the JSON on stdout holds the best, first quartile, median and third
quartile of each time per tree, so that a noisy rung shows its spread and
a slow phase of the host, which moves the quartiles of whichever tree it
meets, can be told from a change, which moves the best too. It also holds
each step's median `peak_mb`, the process's peak RSS right after the step:
a step shows there only where it needs more memory than every step before
it, as epsilon-connectivity does among the checks. Every tree must
give the same copy count, the same digest of the query answers and the
same `diameters_measured`.

    python tools/ladder.py --tree parent=../parent/src --tree change=src > BENCH.json

With no --tree the tree is this checkout's src/, named "change".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

LADDER = [(2, 16, True), (3, 16, True), (4, 32, True), (4, 16, False), (5, 48, True), (6, 96, True)]
REPEATS = 5
RUNS = 3  # runs of a step inside one interpreter; its best is kept
RUN_BUDGET = 5.0  # seconds; a step runs again only while its runs have taken less
RENDERS = ("tiling", "fan")
IMPORT = "import time; t = time.perf_counter(); import fanforge.cli, fanforge.verify; print(time.perf_counter() - t)"


def query_set(state) -> list[tuple]:
    """(kind, args) of the fixed queries on a state, read off the state
    alone. A trace at the left end of every depth-(K+1) column; a classify
    at its middle crossing and at the midpoint of the gap above it; and,
    for about 64 copies spread over the ids, a classify at the midpoint of
    one jump and a quarter of the way up it, and, where defined, the level-0
    `claim5_regions` of that loop."""
    from fanforge import decomp, errors, exact, spaceset, tiling

    model = spaceset.assemble(state)
    queries = []
    for sigma in exact.addresses_of_length(state.depth + 1):
        c = exact.endpoint_zero(sigma)
        heights = [h for h, _ in tiling.vertical_trace(state, c)] + [state.range_high]
        mid = (len(heights) - 1) // 2
        gap = (heights[mid] + heights[mid + 1]) / 2
        queries += [("trace", (c,)), ("classify", ((c, heights[mid]),)), ("classify", ((c, gap),))]
    n = state.n_jumps
    for cid in range(0, len(state.copies), -(-len(state.copies) // 64)):
        copy = state.copies[cid]
        c, low, high = copy.jump_global(copy.jump_pos(cid % n))
        queries += [("classify", ((c, (low + high) / 2),)), ("classify", ((c, low + (high - low) / 4),))]
        if copy.stage < state.depth:
            try:
                decomp.claim5_regions(model, cid, 0, cid % n)
            except errors.FanforgeError:
                continue
            queries.append(("claim5", (cid, 0, cid % n)))
    return queries


def answer_text(kind: str, answer) -> str:
    """A query answer as text; a claim 5 result without its model."""
    if kind == "claim5":
        fields = ("column", "above_copy_id", "below_copy_id", "distance_above", "distance_below")
        regions = (answer.upper_region.boundary, answer.lower_region.boundary)
        return " ".join(str(getattr(answer, f)) for f in fields) + f" {regions}"
    return str(answer)


def time_queries(state, queries: list[tuple]) -> tuple[float, str]:
    """Seconds for the queries on a state that has answered none, and a
    digest of the answers."""
    from fanforge import decomp, spaceset, tiling

    model = spaceset.assemble(state)
    calls = {
        "trace": lambda c: tiling.vertical_trace(state, c),
        "classify": model.classify,
        "claim5": lambda cid, level, loop: decomp.claim5_regions(model, cid, level, loop),
    }
    start = time.perf_counter()
    answers = [calls[kind](*args) for kind, args in queries]
    seconds = time.perf_counter() - start
    text = "\n".join(answer_text(kind, a) for (kind, _), a in zip(queries, answers))
    return seconds, hashlib.sha256(text.encode()).hexdigest()[:16]


def timed(fn, *args) -> tuple[float, object]:
    """Seconds for fn(*args), and its result."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def best_of(run) -> tuple[float, object]:
    """The least seconds of up to RUNS calls of `run`, which returns
    (seconds, result), fewer once they have taken RUN_BUDGET seconds; and
    the last call's result."""
    times = []
    while len(times) < RUNS and sum(times) < RUN_BUDGET:
        seconds, result = run()
        times.append(seconds)
    return min(times), result


def diameters_measured(state) -> int:
    """The number of exact copy diameters `stage_fan_diameters` takes."""
    from fanforge import floats

    with mock.patch.object(floats, "copy_fan_diameter", wraps=floats.copy_fan_diameter) as counted:
        floats.stage_fan_diameters(state)
    return counted.call_count


def time_rung(depth: int, jumps: int, strict: bool) -> dict:
    """Best seconds for the import, the build, each check, the save, the
    load, the query set and each render, the peak RSS after each of them,
    plus the copy count, the answers' digest and `diameters_measured`."""
    from fanforge import cli, tiling, verify

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def imported() -> tuple[float, None]:
        out = subprocess.run([sys.executable, "-c", IMPORT], env=env, capture_output=True, text=True, check=True)
        return float(out.stdout), None

    def placed() -> tiling.ConstructionState:
        return tiling.ConstructionState(depth, jumps, strict, [stage.rects for stage in state.stages])

    def rendered(kind: str, path: str, out: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["render", "--state", path, "--figure", kind, "--out", out])
        if code != 0:
            raise SystemExit(f"render {kind} exited {code} at ({depth},{jumps})")

    times: dict[str, float] = {}
    peak_mb: dict[str, float] = {}

    def step(key: str, run):
        """best_of(run) as the time of `key`, and the process's peak RSS after it."""
        times[key], result = best_of(run)
        peak_mb[key] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        return result

    step("import", imported)
    state = step("build", lambda: timed(tiling.build, depth, jumps, strict))
    for check in verify.KNOWN_CHECKS:
        step(check, lambda: timed(lambda s: verify.run_all(s, checks=[check]), placed()))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        step("save_state", lambda: timed(tiling.save_state, state, path))
        step("load_state", lambda: timed(tiling.load_state, path))
        queries = query_set(state)
        answers = step("queries", lambda: time_queries(tiling.load_state(path), queries))
        for kind in RENDERS:
            out = os.path.join(tmp, f"{kind}.svg")
            step(f"render {kind}", lambda: timed(rendered, kind, path, out))
    return {
        "copies": len(state.copies),
        "answers": answers,
        "diameters_measured": diameters_measured(state),
        "seconds": times,
        "peak_mb": peak_mb,
    }


def spread(runs: list[dict]) -> dict:
    """Each time's least value, first quartile, median and third quartile
    over the runs."""
    out = {}
    for key in runs[0]["seconds"]:
        times = [run["seconds"][key] for run in runs]
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        out[key] = {"best": round(min(times), 6), "q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}
    return out


def peaks(runs: list[dict]) -> dict:
    """Each step's median peak RSS over the runs, in MB."""
    return {key: round(statistics.median(run["peak_mb"][key] for run in runs), 1) for key in runs[0]["peak_mb"]}


def measure(src: str, rung: tuple[int, int, bool]) -> dict:
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    args = [sys.executable, __file__, "--rung", *(str(int(x)) for x in rung)]
    out = subprocess.run(args, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[], help="NAME=SRC_DIR, repeatable")
    parser.add_argument("--rung", nargs=3, type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.rung:
        print(json.dumps(time_rung(args.rung[0], args.rung[1], bool(args.rung[2]))))
        return 0
    default = str(Path(__file__).resolve().parents[1] / "src")
    trees = dict(t.split("=", 1) for t in args.tree) or {"change": default}
    rungs = []
    for rung in LADDER:
        runs: dict[str, list[dict]] = {name: [] for name in trees}
        for r in range(REPEATS):
            names = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for name in names:
                runs[name].append(measure(trees[name], rung))
        for key in ("copies", "answers", "diameters_measured"):
            values = {run[key] for name in trees for run in runs[name]}
            if len(values) != 1:
                raise SystemExit(f"trees disagree on the {key} at {rung}: {sorted(values)}")
        first = runs[next(iter(trees))][0]
        rungs.append(
            {
                "depth": rung[0],
                "jumps": rung[1],
                "strict": rung[2],
                "copies": first["copies"],
                "answers": first["answers"],
                "diameters_measured": first["diameters_measured"],
                "seconds": {name: spread(runs[name]) for name in trees},
                "peak_mb": {name: peaks(runs[name]) for name in trees},
            }
        )
        print(f"({rung[0]},{rung[1]}{'' if rung[2] else ' tolerant'}) done", file=sys.stderr)
    doc = {
        "tool": "tools/ladder.py",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "repeats": REPEATS,
        "runs": RUNS,
        "run_budget_s": RUN_BUDGET,
        "trees": list(trees),
        "rungs": rungs,
    }
    sys.stdout.write(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
