"""tools/ladder.py, loaded in process: a rename in the package that the
ladder calls fails here, not only when a BENCH_*.json is next written."""

import importlib.util
from pathlib import Path

from fanforge.verify import KNOWN_CHECKS


def load_tool(name: str):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_times_the_build_and_each_check_of_a_rung():
    rung = load_tool("ladder").time_rung(2, 16, True)
    assert rung["copies"] == 78
    assert rung["diameters_measured"] == 6
    assert list(rung["seconds"]) == [
        "import", "build", *KNOWN_CHECKS, "save_state", "load_state", "queries", "render tiling", "render fan"
    ]
    assert len(rung["answers"]) == 16 and int(rung["answers"], 16) >= 0
    assert all(isinstance(t, float) and t >= 0 for t in rung["seconds"].values())
    peaks = list(rung["peak_mb"].values())
    assert list(rung["peak_mb"]) == list(rung["seconds"]) and 0 < peaks[0] and peaks == sorted(peaks)


def test_spread_writes_the_quartiles_next_to_each_median():
    runs = [{"seconds": {"build": t, "coverage": 2 * t}} for t in (0.5, 0.1, 0.4, 0.2, 0.3)]
    assert load_tool("ladder").spread(runs) == {
        "build": {"best": 0.1, "q1": 0.2, "median": 0.3, "q3": 0.4},
        "coverage": {"best": 0.2, "q1": 0.4, "median": 0.6, "q3": 0.8},
    }


def test_best_of_keeps_the_least_time_of_at_most_runs_calls():
    ladder = load_tool("ladder")
    runs = iter([(0.3, "a"), (0.1, "b"), (0.2, "c"), (0.05, "d")])
    assert ladder.RUNS == 3 and ladder.best_of(lambda: next(runs)) == (0.1, "c")
    # a step whose runs have taken the budget runs no more
    slow = iter([(ladder.RUN_BUDGET, "x"), (0.0, "y")])
    assert ladder.best_of(lambda: next(slow)) == (ladder.RUN_BUDGET, "x")
