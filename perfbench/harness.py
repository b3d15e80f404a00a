"""Benchmark harness for fanforge: workloads, timing, correctness and metrics.

The harness never imports fanforge. The untraced run times the real CLI
(`python -m fanforge ...`) and, for diag-k4t, a library session in a child
process (`session.py diag`). The traced run replays the same steps through
`session.py`, which records a span around every library call it makes.

Each workload is a closed loop with one client: a step starts only after the
previous one returned, and every child runs with its thread variables set
to 1. Every output is compared with the references in `ref/<scale>.json`;
each operation with a mismatch counts as failed.

The host's speed drifts within seconds and between minutes: on a 2-vCPU VM
a fixed piece of interpreter work took from 8 to 25 ms. So times are
given at a reference speed. The harness, its children and `calibrator.py`
share one CPU. Every SLICE_S a running child is stopped while the
calibrator times a chunk of fixed work, and a step's time, less its stops,
is rescaled by the chunks timed during and around it to the speed at which
a chunk takes CAL_REF_S.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrator import RESULT as CHUNK_RESULT

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SESSION = BENCH_DIR / "session.py"
CALIBRATOR = BENCH_DIR / "calibrator.py"

RUN_LIMIT_S = 170  # a run must end within 180 s, whatever --seconds says
SETUP_REPEATS = 2  # standalone set-ups before each untraced pass, besides its own
SLICE_S = 0.15  # a running child is stopped for one calibration chunk this often
CAL_REF_S = 0.011  # a chunk's time at the reference speed the metrics are given in
CAL_WINDOW_S = 1.0  # the chunks that set a step's speed lie within this of it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "FANFORGE_THREADS")

EXACT_CHECKS = (
    "conditions-i-ii",
    "partial-tiling",
    "disjointness",
    "coverage",
    "condition-v",
    "max-gap",
)
DIAG_CHECKS = EXACT_CHECKS + ("null-sequence",)
ALL_CHECKS = DIAG_CHECKS + ("epsilon-connectivity",)
FIGURES = ("fan", "tiling", "earring")


@dataclass(frozen=True)
class Workload:
    depth: int
    jumps: int
    checks: tuple[str, ...]
    cli: bool = True  # False: a library session in one process
    strict: bool = True
    figures: tuple[str, ...] = ()
    queries: int = 0  # queries per pass, drawn from the reference pool
    pool_per_kind: int = 0


FULL = {
    "exact-k4": Workload(4, 24, EXACT_CHECKS),
    "fan-k3": Workload(3, 32, ALL_CHECKS, figures=FIGURES),
    "diag-k4t": Workload(
        4, 16, DIAG_CHECKS, cli=False, strict=False, queries=1000, pool_per_kind=200
    ),
}
# Desk scale runs every code path of the harness in seconds; selftest.py uses it.
DESK = {
    "exact-k4": Workload(2, 16, EXACT_CHECKS),
    "fan-k3": Workload(2, 16, ALL_CHECKS, figures=FIGURES),
    "diag-k4t": Workload(2, 16, DIAG_CHECKS, cli=False, strict=False, queries=100, pool_per_kind=20),
}
SCALES = {"full": FULL, "desk": DESK}

END_TO_END = {"setup_s": "s", "verify_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
# Printed by every untraced run; they apply to one workload each, so the
# JSON result carries them among the per-layer metrics.
WORKLOAD_E2E = {"render_s": "s", "query_p50_ms": "ms", "query_p99_ms": "ms"}

SPAN_SECONDS = (
    "cli.import",
    "tiling.build",
    "tiling.save_state",
    "tiling.load_state",
    "verify.disjointness",
    "verify.coverage",
    "verify.condition_v",
    "verify.max_gap",
    "verify.null_sequence",
    "verify.mst_max_edge",
    "verify.epsilon_connectivity",
    "spaceset.assemble",
    "spaceset.sample_points",
    "render.tiling",
    "render.fan",
    "render.earring",
)
SPAN_MS = ("tiling.vertical_trace", "spaceset.classify", "decomp.claim5_regions")
COUNTERS = {
    "tiling.copies": "count",
    "tiling.state_bytes": "bytes",
    "verify.pairs_checked": "count",
    "verify.gaps_checked": "count",
    "spaceset.cloud_points": "count",
    "render.svg_bytes": "bytes",
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_SECONDS},
    **{f"{name}_ms": "ms" for name in SPAN_MS},
    **COUNTERS,
    "verify.mst_rss_delta_mb": "MB",
    "decomp.claim5_ok_ratio": "ratio",
    **WORKLOAD_E2E,
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}


class HarnessError(Exception):
    """The benchmark cannot run here (no program, no references)."""


@dataclass
class Proc:
    rc: int
    wall_s: float  # at the reference speed, stops excluded
    rss_mb: float
    start: float
    end: float


@dataclass
class Pass:
    traced: bool
    setup_s: float = 0.0
    verify_s: float = 0.0
    render_s: float = 0.0
    total_s: float = 0.0
    peak_rss_mb: float = 0.0
    query_ms: list[float] = field(default_factory=list)
    claim5_ok: list[bool] = field(default_factory=list)
    mst_rss_delta_mb: float = 0.0
    span_ids: list[int] = field(default_factory=list)

    def add(self, proc: Proc) -> None:
        self.total_s += proc.wall_s
        self.peak_rss_mb = max(self.peak_rss_mb, proc.rss_mb)


def pin_to_one_cpu() -> None:
    """Run the harness, its children and the calibrator on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_refs(scale: str) -> dict:
    path = BENCH_DIR / "ref" / f"{scale}.json"
    if not path.is_file():
        raise HarnessError(f"no reference file {path.relative_to(ROOT)}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def query_stream(pool: list[dict], seed: int, count: int) -> list[int]:
    """Pool indices: each query's kind, then its entry, drawn from the seed."""
    by_kind: dict[str, list[int]] = {}
    for i, query in enumerate(pool):
        by_kind.setdefault(query["kind"], []).append(i)
    kinds = sorted(by_kind)
    rng = random.Random(seed)
    return [rng.choice(by_kind[rng.choice(kinds)]) for _ in range(count)]


class Run:
    """One benchmark run of one workload; `refs=None` records references."""

    def __init__(self, workload: str, seed: int, scale: str = "full", refs: dict | None = None):
        if not (SRC / "fanforge" / "__init__.py").is_file():
            raise HarnessError(f"no fanforge package under {SRC}")
        self.name = workload
        self.seed = seed
        self.spec = SCALES[scale][workload]
        self.recording = refs is None
        self.refs = {} if refs is None else refs
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + RUN_LIMIT_S
        self.work = OUT / f"{workload}-s{seed}-p{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.env.update({var: "1" for var in THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self.expected_answers: list[str] = []
        self.chunks: list[tuple[float, float]] = []  # (midpoint, seconds) of each calibration chunk
        self.stops: list[tuple[float, float]] = []  # intervals a child was stopped for a chunk
        self.calibrator: subprocess.Popen | None = None

    # -- correctness ---------------------------------------------------------

    def expect(self, problems: list[str], key: str, value) -> None:
        """Compare with the reference, or store it while recording."""
        if self.recording:
            self.refs[key] = value
        elif self.refs.get(key) != value:
            want = json.dumps(self.refs.get(key))[:120]
            problems.append(f"{key}: got {json.dumps(value)[:120]}, expected {want}")

    def finish_op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"mismatch in {self.name} {label}: {problem}", file=sys.stderr)

    def expect_state(self, problems: list[str], path: Path) -> None:
        if not path.is_file():
            problems.append(f"no state file {path.name}")
            return
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        per_stage = [len(stage["rects"]) for stage in doc["stages"]]
        self.expect(problems, "state_sha256", sha256_file(path))
        self.expect(problems, "copies_per_stage", per_stage)
        self.counters["tiling.copies"] = sum(per_stage)
        self.counters["tiling.state_bytes"] = path.stat().st_size

    def expect_records(self, problems: list[str], records: list[dict], eps: dict | None) -> None:
        """Check records; a replayed epsilon-connectivity record carries only `eps`."""
        if self.recording:
            self.refs["report_checks"] = records
        want = self.refs["report_checks"]
        if len(records) != len(want):
            problems.append(f"{len(records)} check records, expected {len(want)}")
        observed = []
        for got, ref in zip(records, want):
            if got.get("replayed"):
                got = dict(ref, metrics={**ref["metrics"], **(eps or {})})
            if got != ref:
                problems.append(f"record {ref['name']} ({ref['scope']}) differs: {json.dumps(got)[:200]}")
            observed.append(got)

        def total(check: str, metric: str) -> int:
            return sum(r["metrics"].get(metric, 0) for r in observed if r["name"] == check)

        self.counters["verify.pairs_checked"] = total("disjointness", "pairs_checked")
        self.counters["verify.gaps_checked"] = total("condition-v", "gaps_checked")
        self.counters["spaceset.cloud_points"] = total("epsilon-connectivity", "cloud_size")

    # -- timing --------------------------------------------------------------

    def calibrate(self) -> None:
        """Have the calibrator time one chunk."""
        self.calibrator.stdin.write(b"c")
        self.calibrator.stdin.flush()
        reply = self.calibrator.stdout.read(CHUNK_RESULT.size)
        if len(reply) != CHUNK_RESULT.size:
            raise HarnessError(f"{CALIBRATOR.name} ended")
        start, took = CHUNK_RESULT.unpack(reply)
        self.chunks.append((start + took / 2, took))

    def ref_seconds(self, start: float, end: float) -> float:
        """Seconds a child ran within [start, end], at the reference speed.

        The work done is the running time times the mean speed, so the
        chunks' speeds are averaged, not their times.
        """
        stopped = sum(max(0.0, min(end, e) - max(start, s)) for s, e in self.stops)
        speeds = [CAL_REF_S / took for mid, took in self.chunks
                  if start - CAL_WINDOW_S <= mid <= end + CAL_WINDOW_S]
        return (end - start - stopped) * statistics.fmean(speeds)

    # -- processes -----------------------------------------------------------

    def child(self, argv: list[str], tag: str) -> Proc:
        """Run one child to completion; its own peak RSS comes from wait4.

        A chunk is timed just before and just after it, and one every
        SLICE_S while it runs, with the child stopped (SIGSTOP, SIGCONT).
        """
        self.calibrate()
        with open(self.work / f"{tag}.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=log, stderr=subprocess.STDOUT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], SLICE_S)[0]:
                if time.perf_counter() > self.deadline:
                    proc.kill()
                    continue
                os.kill(proc.pid, signal.SIGSTOP)
                info = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                if info.si_code != os.CLD_STOPPED:
                    break  # it ended before it stopped
                stopped = time.perf_counter()
                try:
                    self.calibrate()
                finally:
                    resumed = time.perf_counter()
                    os.kill(proc.pid, signal.SIGCONT)
                self.stops.append((stopped, resumed))
            end = time.perf_counter()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.calibrate()
        return Proc(proc.returncode, self.ref_seconds(start, end), usage.ru_maxrss / 1024, start, end)

    def cli(self, *args: str, tag: str) -> Proc:
        return self.child([sys.executable, "-m", "fanforge", *map(str, args)], tag)

    def session(self, step: str, traced: bool, *args: str) -> tuple[Proc, dict]:
        result = self.work / f"{step}.result.json"
        result.unlink(missing_ok=True)
        argv = [sys.executable, str(SESSION), step, "--result", str(result), "--trace", str(int(traced))]
        proc = self.child(argv + [str(a) for a in args], step)
        out: dict = {}
        if result.is_file():
            with open(result, encoding="utf-8") as fh:
                out = json.load(fh)
        return proc, out

    def add_spans(self, name: str, proc: Proc, parent: int, child_spans: list[list]) -> None:
        """Record the process span and re-parent the child's spans under it."""
        base = len(self.spans)
        self.spans.append({"id": base, "parent": parent, "name": name, "start": proc.start - self.t0,
                           "end": proc.end - self.t0, "ref_s": proc.wall_s})
        for i, (span_name, span_parent, start, end) in enumerate(child_spans):
            self.spans.append({"id": base + 1 + i, "parent": base if span_parent < 0 else base + 1 + span_parent,
                               "name": span_name, "start": start - self.t0, "end": end - self.t0,
                               "ref_s": self.ref_seconds(start, end)})

    # -- steps ---------------------------------------------------------------

    def build(self, p: Pass, pass_span: int) -> Proc:
        spec, state = self.spec, self.work / "state.json"
        state.unlink(missing_ok=True)
        if p.traced:
            proc, out = self.session("build", True, "--depth", spec.depth, "--jumps", spec.jumps, "--state", state)
            self.add_spans("proc.build", proc, pass_span, out.get("spans", []))
        else:
            proc = self.cli("build", "--depth", spec.depth, "--jumps", spec.jumps, "--out", state, tag="build")
        problems = [] if proc.rc == 0 else [f"build exit status {proc.rc}"]
        self.expect_state(problems, state)
        self.finish_op("build", problems)
        return proc

    def verify(self, p: Pass, pass_span: int) -> Proc:
        spec, state, report = self.spec, self.work / "state.json", self.work / "report.json"
        report.unlink(missing_ok=True)
        problems: list[str] = []
        if p.traced:
            proc, out = self.session("verify", True, "--state", state, "--checks", ",".join(spec.checks))
            self.add_spans("proc.verify", proc, pass_span, out.get("spans", []))
            if proc.rc != 0:
                problems.append(f"traced verify exit status {proc.rc}")
            self.expect_records(problems, out.get("records", []), out.get("eps"))
            p.mst_rss_delta_mb = out.get("mst_rss_delta_mb", 0.0)
        else:
            # ALL_CHECKS is the CLI's default set: run it as a user would, without --checks.
            checks = [] if spec.checks == ALL_CHECKS else ["--checks", ",".join(spec.checks)]
            proc = self.cli("verify", "--state", state, "--out", report, *checks, tag="verify")
            self.expect(problems, "verify_exit", proc.rc)
            if report.is_file():
                self.expect(problems, "report_sha256", sha256_file(report))
                with open(report, encoding="utf-8") as fh:
                    records = json.load(fh)["checks"]
            else:
                problems.append("no report file")
                records = []
            self.expect_records(problems, records, None)
        self.finish_op("verify", problems)
        return proc

    def render(self, p: Pass, pass_span: int, figure: str) -> Proc:
        svg = self.work / f"{figure}.svg"
        svg.unlink(missing_ok=True)
        if p.traced:
            proc, out = self.session("render", True, "--state", self.work / "state.json",
                                     "--figure", figure, "--out", svg)
            self.add_spans(f"proc.render.{figure}", proc, pass_span, out.get("spans", []))
        else:
            proc = self.cli("render", "--state", self.work / "state.json", "--figure", figure,
                            "--out", svg, tag=f"render-{figure}")
        problems = [] if proc.rc == 0 else [f"render exit status {proc.rc}"]
        if svg.is_file():
            self.expect(problems, f"svg_sha256.{figure}", sha256_file(svg))
            self.counters["render.svg_bytes"] += svg.stat().st_size
        else:
            problems.append(f"no {figure} SVG")
        self.finish_op(f"render {figure}", problems)
        return proc

    def diag(self, p: Pass, pass_span: int) -> Proc:
        spec, state = self.spec, self.work / "state.json"
        state.unlink(missing_ok=True)
        args = ["--depth", spec.depth, "--jumps", spec.jumps, "--state", state,
                "--checks", ",".join(spec.checks), "--queries", self.work / "queries.json"]
        proc, out = self.session("diag", p.traced, *args, *([] if spec.strict else ["--tolerant"]))
        self.add_spans("proc.diag", proc, pass_span, out.get("spans", []))
        problems = [] if proc.rc == 0 else [f"diag session exit status {proc.rc}"]
        self.expect_state(problems, state)
        self.finish_op("setup", problems)
        problems = []
        if not p.traced and "report_sha256" in out:
            self.expect(problems, "report_sha256", out["report_sha256"])
        self.expect_records(problems, out.get("records", []), out.get("eps"))
        self.finish_op("run_all", problems)
        answers = out.get("answers", [])
        for i, want in enumerate(self.expected_answers):
            got = answers[i] if i < len(answers) else None
            self.finish_op(f"query {i}", [] if got == want else [f"answer {got}, expected {want}"])
        p.setup_s = self.ref_seconds(*out["setup"]) if "setup" in out else 0.0
        p.verify_s = self.ref_seconds(*out["verify"]) if "verify" in out else 0.0
        p.query_ms = [self.ref_seconds(start, end) * 1e3 for start, end in out.get("queries", [])]
        p.claim5_ok = out.get("claim5_ok", [])
        return proc

    def setup_once(self) -> float:
        """One standalone set-up, checked like the one inside a pass."""
        if self.spec.cli:
            return self.build(Pass(traced=False), -1).wall_s
        spec, state = self.spec, self.work / "state.json"
        state.unlink(missing_ok=True)
        args = ["--depth", spec.depth, "--jumps", spec.jumps, "--state", state]
        proc, out = self.session("setup", False, *args, *([] if spec.strict else ["--tolerant"]))
        problems = [] if proc.rc == 0 else [f"setup exit status {proc.rc}"]
        self.expect_state(problems, state)
        self.finish_op("setup", problems)
        return self.ref_seconds(*out["setup"]) if "setup" in out else 0.0

    def one_pass(self, traced: bool) -> Pass:
        p = Pass(traced)
        pass_span = len(self.spans)
        self.spans.append({"id": pass_span, "parent": -1, "name": "pass.traced" if traced else "pass",
                           "start": time.perf_counter() - self.t0, "end": None})
        self.counters["render.svg_bytes"] = 0
        if self.spec.cli:
            b = self.build(p, pass_span)
            v = self.verify(p, pass_span)
            p.setup_s, p.verify_s = b.wall_s, v.wall_s
            for proc in (b, v):
                p.add(proc)
            for figure in self.spec.figures:
                r = self.render(p, pass_span, figure)
                p.render_s += r.wall_s
                p.add(r)
        else:
            p.add(self.diag(p, pass_span))
        self.spans[pass_span]["end"] = time.perf_counter() - self.t0
        p.span_ids = list(range(pass_span, len(self.spans)))
        problems: list[str] = []
        self.expect(problems, "counters", self.counters_snapshot())
        self.finish_op("counters", problems)
        return p

    def counters_snapshot(self) -> dict:
        return {name: self.counters.get(name, 0) for name in COUNTERS}

    # -- the run -------------------------------------------------------------

    def prepare(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        pin_to_one_cpu()
        self.calibrator = subprocess.Popen([sys.executable, str(CALIBRATOR)],
                                           stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        # Warm the bytecode and page caches once; a user's repeated commands find them warm.
        self.cli("--help", tag="warmup")
        if self.spec.cli:
            return
        if self.recording:
            self.record_pool()
        pool = self.refs["pool"]
        stream = query_stream(pool, self.seed, self.spec.queries)
        with open(self.work / "queries.json", "w", encoding="utf-8") as fh:
            json.dump([{k: v for k, v in pool[i].items() if k != "answer"} for i in stream], fh)
        self.expected_answers = [pool[i]["answer"] for i in stream]

    def record_pool(self) -> None:
        spec = self.spec
        args = ["--depth", spec.depth, "--jumps", spec.jumps, "--per-kind", spec.pool_per_kind]
        proc, out = self.session("pool", False, *args, *([] if spec.strict else ["--tolerant"]))
        if proc.rc != 0:
            raise HarnessError(f"query pool generation failed, see {self.work / 'pool.log'}")
        self.refs["pool"] = out["pool"]

    def measure(self, seconds: float, trace: bool) -> tuple[list[Pass], list[float]]:
        """Passes for about `seconds`, and the set-up times.

        An untraced run times set-up SETUP_REPEATS times before each pass
        besides the pass's own; a traced run alternates untraced and traced
        passes, starting untraced. No pass starts once half of the last one
        would not fit, so runs average `seconds`.
        """
        self.prepare()
        setups: list[float] = []
        passes: list[Pass] = []
        while True:
            started = time.perf_counter()
            if not trace:
                setups.extend(self.setup_once() for _ in range(SETUP_REPEATS))
            passes.append(self.one_pass(traced=trace and len(passes) % 2 == 1))
            took = time.perf_counter() - started
            if trace and len(passes) < 2:
                continue
            if time.perf_counter() - self.t0 + took / 2 > min(seconds, RUN_LIMIT_S - took):
                break
        return passes, setups + [p.setup_s for p in passes]

    @staticmethod
    def e2e_metrics(passes: list[Pass], setups: list[float]) -> dict:
        return {
            "setup_s": statistics.median(setups),
            "verify_s": statistics.median(p.verify_s for p in passes),
            "total_s": statistics.median(p.total_s for p in passes),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        }

    @staticmethod
    def workload_e2e(passes: list[Pass]) -> dict:
        latencies = [ms for p in passes for ms in p.query_ms]
        return {
            "render_s": statistics.median(p.render_s for p in passes),
            "query_p50_ms": statistics.median(latencies) if latencies else 0.0,
            "query_p99_ms": percentile(latencies, 0.99) if latencies else 0.0,
        }

    def layer_metrics(self, passes: list[Pass]) -> dict:
        plain = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        busy: dict[str, list[float]] = {f"{name}_s": [] for name in SPAN_SECONDS}
        calls: dict[str, list[float]] = {f"{name}_ms": [] for name in SPAN_MS}
        for p in traced:
            sums = dict.fromkeys(busy, 0.0)
            for i in p.span_ids:
                span = self.spans[i]
                if f"{span['name']}_s" in sums:
                    sums[f"{span['name']}_s"] += span["ref_s"]
                if f"{span['name']}_ms" in calls:
                    calls[f"{span['name']}_ms"].append(span["ref_s"] * 1e3)
            for name, value in sums.items():
                busy[name].append(value)
        claim5 = [ok for p in passes for ok in p.claim5_ok]
        traced_total = statistics.median(p.total_s for p in traced)
        return {
            **{name: statistics.median(values) for name, values in busy.items()},
            **{name: statistics.median(values) if values else 0.0 for name, values in calls.items()},
            **self.counters_snapshot(),
            "verify.mst_rss_delta_mb": statistics.median(p.mst_rss_delta_mb for p in traced),
            "decomp.claim5_ok_ratio": sum(claim5) / len(claim5) if claim5 else 0.0,
            **self.workload_e2e(plain),
            "trace.total_s": traced_total,
            "trace.overhead_s": traced_total - statistics.median(p.total_s for p in plain),
        }

    def write_spans(self, metrics: dict) -> Path:
        path = OUT / f"spans-{self.name}-s{self.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.name, "seed": self.seed, "metrics": metrics,
                       "counters": self.counters_snapshot(), "spans": self.spans}, fh, indent=0)
        return path

    def close(self) -> None:
        if self.calibrator is not None:
            self.calibrator.communicate()  # it ends at the end of its input
        shutil.rmtree(self.work, ignore_errors=True)


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        refs: dict | None = None) -> dict:
    """Measure one workload; returns the result object the benchmark prints."""
    if refs is None:
        refs = load_refs(scale)[workload]
    bench = Run(workload, seed, scale, refs)
    try:
        passes, setups = bench.measure(seconds, trace)
        if trace:
            metrics, units = bench.layer_metrics(passes), PER_LAYER
            shown = metrics
            print(f"spans written to {bench.write_spans(metrics).relative_to(ROOT)}")
        else:
            metrics, units = bench.e2e_metrics(passes, setups), END_TO_END
            extra = bench.workload_e2e(passes)
            applies = {"render_s": bool(bench.spec.figures), "query_p50_ms": bool(bench.spec.queries),
                       "query_p99_ms": bool(bench.spec.queries)}
            shown = {**metrics, **{k: v for k, v in extra.items() if applies[k]}}
    finally:
        bench.close()
    error_rate = bench.failed / bench.attempted if bench.attempted else 1.0
    chunk_ms = [took * 1e3 for _, took in bench.chunks]
    print(f"{workload}: {len(passes)} passes, {len(setups)} set-ups, seed {seed}; {len(chunk_ms)} calibration "
          f"chunks of {min(chunk_ms):.1f}-{max(chunk_ms):.1f} ms (median {statistics.median(chunk_ms):.1f} ms, "
          f"reference {CAL_REF_S * 1e3:g} ms)")
    for i, p in enumerate(passes):
        print(f"  pass {i}{' (traced)' if p.traced else ''}: setup {p.setup_s:.3f} s, verify {p.verify_s:.3f} s, "
              f"render {p.render_s:.3f} s, total {p.total_s:.3f} s, peak {p.peak_rss_mb:.1f} MB")
    for name, value in shown.items():
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{workload} {name} = {text} {PER_LAYER.get(name) or END_TO_END[name]}")
    print(f"{workload} error_rate = {error_rate:.6g} ratio ({bench.failed} of {bench.attempted} operations)")
    return {
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def record(workload: str, scale: str) -> dict:
    """Run one untraced pass and return everything it produced as references."""
    bench = Run(workload, seed=0, scale=scale, refs=None)
    try:
        bench.prepare()
        bench.one_pass(traced=False)
    finally:
        bench.close()
    return bench.refs
