"""Exact verification of the tiling conditions plus quantitative diagnostics.

Everything quantified over "every point" or "every arc" is decided
exhaustively through a cell decomposition: a truncated copy is a finite
union of horizontal pieces and vertical segments, so each column of the
construction splits into finitely many c-intervals on which the set of
crossing copies, their crossing heights, and their order are all constant.
One integer sweep per (level, column) serves coverage, condition (v),
max-gap and, at level K, disjointness. Copies change their vertical order
only where they meet, so a column where no adjacent pair meets is decided
from its adjacent pairs alone (ColumnSweep.pair_gaps); the walk over its
cells (ColumnSweep.gaps) is taken where copies meet or a check fails, and
makes every witness. Floating point appears only in the fan-metric
diagnostics (null-sequence diameters, epsilon connectivity), which are
explicitly approximate. Null-sequence imports the float boundary
(`floats`) inside the check, and epsilon connectivity lives in
`connectivity`, which `run_all` imports only to run it and which alone
loads `spaceset`.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .catalog import KNOWN_CHECKS
from .errors import InvalidParameter
from .exact import addresses_of_length, pair_to_str, rational_to_str
from .tiling import ColumnSweep, ConstructionState, PlacedCopy, check_sampling

REPORT_SCHEMA = "fanforge-report-v1"


class CheckRecord:
    """One check's verdict; its report object lists the slots in order."""

    __slots__ = ("name", "scope", "status", "witness", "metrics")

    def __init__(
        self, name: str, scope: str, status: str, witness: dict | None = None, metrics: dict | None = None
    ):
        self.name, self.scope, self.status = name, scope, status  # status: pass | fail | skipped
        self.witness, self.metrics = witness, {} if metrics is None else metrics

    def to_json_obj(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


class VerificationReport:
    def __init__(self, state_params: dict):
        self.state_params = state_params
        self.records: list[CheckRecord] = []

    def add(self, record: CheckRecord) -> CheckRecord:
        self.records.append(record)
        return record

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def counts(self) -> tuple[int, int, int]:
        ok = sum(1 for r in self.records if r.status == "pass")
        bad = sum(1 for r in self.records if r.status == "fail")
        skipped = sum(1 for r in self.records if r.status == "skipped")
        return ok, bad, skipped

    def to_json_obj(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "state": self.state_params,
            "passed": self.passed,
            "checks": [r.to_json_obj() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":")) + "\n"

    def to_text(self) -> str:
        lines = ["fanforge verification report"]
        lines.append(
            "state: " + " ".join(f"{k}={v}" for k, v in sorted(self.state_params.items()))
        )
        for r in self.records:
            line = f"[{r.status.upper():7s}] {r.name} ({r.scope})"
            if r.metrics:
                line += "  " + " ".join(f"{k}={v}" for k, v in sorted(r.metrics.items()))
            if r.witness:
                line += f"  witness={json.dumps(r.witness, sort_keys=True)}"
            lines.append(line)
        ok, bad, skipped = self.counts()
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({ok} passed, {bad} failed, {skipped} skipped)")
        return "\n".join(lines) + "\n"


def _verdict(
    name: str, scope: str, witness: dict | None, metrics: dict | None = None
) -> CheckRecord:
    """A failing record when there is a witness, else a passing one."""
    return CheckRecord(name, scope, "fail" if witness else "pass", witness, metrics or {})


# ---------------------------------------------------------------------------
# conditions (i)-(ii) and the partial-tiling law


def check_conditions_i_ii(state: ConstructionState) -> list[CheckRecord]:
    """Addresses of length n and heights in (0, 1/(n+1)], exactly, per stage,
    on the copies' integer forms (a height is step * 2^N / den); a Fraction
    is made only for `max_height`, the tallest copy up to the witness."""
    scale, den = 2**state.n_jumps, state.den
    records = []
    for stage in state.stages:
        witness = None
        tallest = 0  # the step of the tallest copy so far
        limit = den // (scale * (stage.n + 1))  # step * 2^N / den <= 1/(n+1) iff step <= limit
        for i, copy in enumerate(stage.copies):
            tallest = max(tallest, copy.step)
            if len(copy.rect.address) != stage.n or not 0 < copy.step <= limit:
                rect = copy.rect
                witness = {
                    "index": i,
                    "address": str(rect.address),
                    "a": pair_to_str(rect.a),
                    "b": pair_to_str(rect.b),
                }
                break
        max_height = Fraction(tallest * scale, den)
        metrics = {"rects": len(stage.copies), "max_height": rational_to_str(max_height)}
        records.append(_verdict("conditions-i-ii", f"stage {stage.n}", witness, metrics))
    return records


def check_partial_tiling(state: ConstructionState) -> list[CheckRecord]:
    """Within a stage, same-column rectangles may share at most one height;
    a copy's rectangle, [base, base + step * 2^N] / den, is compared in ints."""
    scale = 2**state.n_jumps
    records = []
    for stage in state.stages:
        by_addr: dict[tuple[int, ...], list[PlacedCopy]] = {}
        for copy in stage.copies:
            by_addr.setdefault(copy.rect.address.bits, []).append(copy)
        witness = None
        for bits, copies in by_addr.items():
            copies.sort(key=lambda c: (c.base, c.step))  # by bottom, then by top
            for lower, upper in zip(copies, copies[1:]):
                if lower.base + lower.step * scale > upper.base:
                    a, b = lower.rect, upper.rect
                    witness = {
                        "address": "".join(map(str, bits)),
                        "first": [pair_to_str(a.a), pair_to_str(a.b)],
                        "second": [pair_to_str(b.a), pair_to_str(b.b)],
                    }
                    break
            if witness:
                break
        records.append(_verdict("partial-tiling", f"stage {stage.n}", witness))
    return records


# ---------------------------------------------------------------------------
# the column sweep (tiling.ColumnSweep): conditions (iii)-(v) from one pass per level


def _coverage_gap(col: ColumnSweep, den: int) -> int:
    """Measure of [-n, n+1] missed by the column's bands [first, last], over `den`."""
    covered, reach = 0, None
    for x, y in sorted(zip(col.first, col.last)):
        start = x if reach is None else max(x, reach)
        if y > start:
            covered += y - start
            reach = y
    return (2 * col.n + 1) * den - covered


def _problems(col: ColumnSweep, low: int | None, up: int | None, length: int, den: int) -> list[str]:
    """What condition (v) finds wrong with a gap of positive length, over
    `den`, between the copies at places low and up in `col.ids` (None: the
    boundary); `sweep_level` inlines the interior branch as its precheck,
    and `_pair_path` as its test of each adjacent pair."""
    n = col.n
    if low is None and up is None:
        return ["no crossings in column"]
    out = []
    if low is None or up is None:
        i = up if low is None else low
        if col.stages[i] != n:
            out.append(f"edge gap bounded by stage {col.stages[i]}")
        if low is None and col.bottoms[i] > -n * den:
            out.append("rect does not reach range bottom")
        if up is None and col.tops[i] < (n + 1) * den:
            out.append("rect does not reach range top")
        # length/den < 1/(n+1) + 3^-n, cross-multiplied
        if not length * (n + 1) * 3**n < den * (3**n + n + 1):
            out.append("edge gap exceeds distance bound")
    else:
        if col.stages[low] != n and col.stages[up] != n:
            out.append("no stage-n copy bounds the gap")
        if col.tops[low] < col.bottoms[up]:
            out.append("two rects do not cover the gap")
    return out


def _pair_path(col: ColumnSweep, den: int, widest: int) -> tuple[int, int] | None:
    """(gaps checked, widest gap) of a column, as the walk counts and
    measures them, from its adjacent pairs (ColumnSweep.pair_gaps);
    `widest` is the level's widest gap so far. None when the column needs
    the walk: it is empty, its initial order has a tie, its bottom
    crossing starts below the range or its top crossing ends at or above
    the range top (an edge gap could then have zero length after a
    breakpoint), condition (v) finds a problem, or an adjacent pair meets.

    With the order fixed, condition (v) is a question about each adjacent
    pair and the two edge gaps. The copies only rise, so the bottom edge
    gap is longest at the column's right end and the top one at its left
    end, and asking `_problems` about those two lengths is asking about
    every length the walk would see. Each edge gap is reported at the left
    end, if it is positive there, and after each of its copy's breakpoints.
    """
    n = col.n
    lo, hi = -n * den, (n + 1) * den
    order = col.adjacent_order()
    if order is None:
        return None
    bottom, top = order[0], order[-1]
    if col.first[bottom] < lo or col.last[top] >= hi:
        return None
    stages, tops, bottoms = col.stages, col.tops, col.bottoms
    for low, up in zip(order, order[1:]):
        if not ((stages[low] == n or stages[up] == n) and tops[low] >= bottoms[up]):
            return None
    rise, drop = col.last[bottom] - lo, hi - col.first[top]
    if (rise > 0 and _problems(col, None, bottom, rise, den)) or _problems(col, top, None, drop, den):
        return None
    pairs = col.pair_gaps(order, max(widest, rise, drop))
    if pairs is None:
        return None
    gaps, widest = pairs
    initial = (col.first[bottom] > lo) + 1  # the top edge gap is positive: first[top] < hi
    return initial + gaps + len(col.jumps(bottom)) + len(col.jumps(top)), widest


class LevelSweep(NamedTuple):
    """The finished per-level records of one pass, keyed by check name."""

    records: dict[str, CheckRecord]
    meeting: set[tuple[int, int]]  # copy id pairs (i < j) whose fibers share a point


def sweep_level(state: ConstructionState, n: int) -> LevelSweep:
    """Coverage, condition (v), max-gap and the pairs of copies that meet
    at level n <= depth, one sweep per column.

    Condition (iv), truncated: each column's uncovered measure is at most
    copies * 2^-N. Condition (v): every maximal vertical gap between
    consecutive crossings, or between a crossing and the range boundary
    [-n, n+1], must fit inside the union of its bounding copies' rectangles,
    at least one of which sits at stage n, and an edge gap must be shorter
    than 1/(n+1) + 3^-n. A gap between two crossings needs no distance
    test: the closed gap contains both bounding crossings, so its distance
    to either bounding copy is zero. Gaps are ints over the state's `den`
    in every column; a Fraction is made only for a metric or a witness.

    Each column first tries its adjacent pairs (`_pair_path`). A column
    that needs the walk, where copies meet or condition (v) fails, gets
    the per-gap loop below, which yields the same counts and maxima and
    alone makes a witness or a meeting pair.
    """
    scale, den = 2**state.n_jumps, state.den
    lo, hi = -n * den, (n + 1) * den
    worst = max_gap = gaps_seen = 0
    coverage_witness = v_witness = None
    meeting: set[tuple[int, int]] = set()
    for sigma in addresses_of_length(n):
        col = ColumnSweep(state, sigma)
        if coverage_witness is None:
            gap = _coverage_gap(col, den)
            worst = max(worst, gap)
            if gap * scale > len(col.ids) * den:  # gap / den > copies * 2^-N
                coverage_witness = {
                    "column": str(sigma),
                    "gap": rational_to_str(Fraction(gap, den)),
                    "budget": rational_to_str(Fraction(len(col.ids), scale)),
                }
        fast = _pair_path(col, den, max_gap)
        if fast is not None:
            checked, max_gap = fast
            gaps_seen += checked
            continue
        is_n = [s == n for s in col.stages]
        tops, bottoms = col.tops, col.bottoms
        walk = col.gaps()
        hs, order, m = col.hs, col.order, len(col.ids)
        for g in walk:
            lo_h = hs[g - 1] if g else lo
            hi_h = hs[g] if g < m else hi
            length = hi_h - lo_h
            if length <= 0:
                continue
            gaps_seen += 1
            if length > max_gap:
                max_gap = length
            low = order[g - 1] if g else None
            up = order[g] if g < m else None
            if 0 < g < m and (is_n[low] or is_n[up]) and tops[low] >= bottoms[up]:
                continue  # the interior branch of _problems(), inlined; it diagnoses the rest
            if v_witness is None and (problems := _problems(col, low, up, length, den)):
                v_witness = {
                    "column": str(sigma),
                    "gap": [rational_to_str(Fraction(x, den)) for x in (lo_h, hi_h)],
                    "lower": None if low is None else state.copies[col.ids[low]].key,
                    "upper": None if up is None else state.copies[col.ids[up]].key,
                    "problems": problems,
                }
        meeting |= col.meeting
    scope, gap_metric = f"n={n}", {"max_gap": rational_to_str(Fraction(max_gap, den))}
    coverage_metric = {"max_column_gap": rational_to_str(Fraction(worst, den))}
    records = [
        _verdict("coverage", scope, coverage_witness, coverage_metric),
        _verdict("condition-v", scope, v_witness, {"gaps_checked": gaps_seen, **gap_metric}),
        _verdict("max-gap", scope, None, gap_metric),
    ]
    return LevelSweep({r.name: r for r in records}, meeting)


# ---------------------------------------------------------------------------
# condition (iii): copy disjointness


def _pieces_in_window(
    copy: PlacedCopy, c_lo: int, c_hi: int, stage: int, h_lo: int, h_hi: int
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """(plateaus, jumps) of the copy meeting the closed window, in ints.

    Columns are over T * 3^stage (T the jump table's denominator), heights
    over `copy.den`. A plateau is (left, right, height), a jump
    (location, low, high). Value indices are filtered first by bisection
    against the height window, so only the few relevant pieces are made.
    """
    t_den, locations, values = copy.table.den, copy.table.locations, copy.table.values
    base, step = copy.base, copy.step

    def at(x: int) -> int:  # a local column coordinate over T, globally
        return (copy.origin * t_den + x) * 3 ** (stage - copy.stage)

    # plateaus j_lo <= j < j_hi have h_lo <= base + step * values[j] <= h_hi
    j_lo = bisect.bisect_left(values, -(-(h_lo - base) // step))
    j_hi = bisect.bisect_right(values, (h_hi - base) // step)
    bounds = [0, *locations, t_den]
    plateaus = []
    for j in range(j_lo, j_hi):
        left, right = at(bounds[j]), at(bounds[j + 1])
        if right >= c_lo and left <= c_hi:
            plateaus.append((left, right, base + step * values[j]))
    jumps = []
    # the jump at sorted pos spans values[pos] to values[pos + 1]: it meets the
    # height window exactly when j_lo - 1 <= pos < j_hi
    for pos in range(max(j_lo - 1, 0), min(j_hi, len(locations))):
        c = at(locations[pos])
        if c_lo <= c <= c_hi:
            jumps.append((c, base + step * values[pos], base + step * values[pos + 1]))
    return (plateaus, jumps)


def copies_intersect(a: PlacedCopy, b: PlacedCopy) -> dict | None:
    """Exact intersection test between two copy images; witness or None.

    Only pieces inside the shared column and the overlap of the two height
    extents can meet, so both copies are filtered down to those pieces
    before the pairwise predicates run. Everything is compared as ints:
    columns over T * 3^s (s the deeper stage), heights over the `den` the
    two copies share, their state's; `Fraction`s are made only for the
    witness. Jumps that meet at a column need no test of their own: the
    plateau at the higher low end ends there and lies on the other jump.
    """
    t_den, values = a.table.den, a.table.values
    stage = max(a.stage, b.stage)
    top = values[-1]
    h_lo = max(a.base, b.base)
    h_hi = min(a.base + a.step * top, b.base + b.step * top)
    if h_lo > h_hi:
        return None
    scales = [t_den * 3 ** (stage - copy.stage) for copy in (a, b)]  # columns over T * 3^stage
    c_lo = max(copy.origin * w for copy, w in zip((a, b), scales))
    c_hi = min((copy.origin + 1) * w for copy, w in zip((a, b), scales))
    if c_lo > c_hi:
        return None
    plats_a, jumps_a = _pieces_in_window(a, c_lo, c_hi, stage, h_lo, h_hi)
    plats_b, jumps_b = _pieces_in_window(b, c_lo, c_hi, stage, h_lo, h_hi)

    def c_str(x: int) -> str:
        return rational_to_str(Fraction(x, t_den * 3**stage))

    def h_str(x: int) -> str:
        return rational_to_str(Fraction(x, a.den))

    for alo, ahi, av in plats_a:
        for blo, bhi, bv in plats_b:
            if av == bv and max(alo, blo) <= min(ahi, bhi):
                return {"kind": "plateau-plateau", "value": h_str(av), "c": c_str(max(alo, blo))}
    for alo, ahi, av in plats_a:
        for jc, jlo, jhi in jumps_b:
            if alo <= jc <= ahi and jlo <= av <= jhi:
                return {"kind": "plateau-jump", "c": c_str(jc), "value": h_str(av)}
    for jc, jlo, jhi in jumps_a:
        for blo, bhi, bv in plats_b:
            if blo <= jc <= bhi and jlo <= bv <= jhi:
                return {"kind": "jump-plateau", "c": c_str(jc), "value": h_str(bv)}
    return None


def _candidate_ranks(state: ConstructionState) -> tuple[list[int], list[int]]:
    """(counts, starts): where each candidate pair falls in candidate order.

    The candidate pairs, the pairs whose columns nest, are enumerated copy
    by copy: for each copy the ids at each proper prefix of its address,
    shortest first, then the smaller ids at its own address. So copy c
    closes counts[c] = sum(len(ids_at_address(bits[:l])) for l < len(bits))
    pairs plus its index at its own address, and that same number is c's
    place in the list of every copy below it. The pair (i, j), j the deeper
    copy or on a tie the later id, has the 0-based rank starts[j] + counts[i],
    with starts the running sums of counts; starts[-1] counts every pair.
    """
    below: dict[tuple[int, ...], int] = {}  # per address, the next copy's count
    counts = []
    for copy in state.copies:
        bits = copy.rect.address.bits
        if bits not in below:
            below[bits] = sum(len(state.ids_at_address(bits[:length])) for length in range(len(bits)))
        counts.append(below[bits])
        below[bits] += 1
    return counts, [0, *itertools.accumulate(counts)]


def _disjointness(state: ConstructionState, meeting: set[tuple[int, int]]) -> CheckRecord:
    """Condition (iii), all copy images pairwise disjoint, exactly, from the
    level-K sweep's meeting pairs.

    Two copies can meet only inside the deeper one's column: its depth-K
    columns and the Cantor gaps between and inside them. Every copy spans
    each depth-K column it meets, so the level-K sweep decides the Cantor
    points (ColumnSweep.gaps). A gap needs no test of its own: no jump lies
    in it, so each copy is constant there and equal to its value at the
    gap's endpoints, which are Cantor points of depth-K columns.

    `pairs_checked` counts the candidate pairs on a pass. On a failure it
    is the 1-based rank of the first meeting pair in candidate order
    (_candidate_ranks), and the exact test `copies_intersect` makes that
    pair's witness. Copy ids number the copies stage by stage, so the
    deeper copy of a pair is its later id.
    """
    counts, starts = _candidate_ranks(state)
    if not meeting:
        metrics = {"pairs_checked": starts[-1], "copies": len(state.copies)}
        return _verdict("disjointness", "all stages", None, metrics)
    rank, i, j = min((starts[j] + counts[i], i, j) for i, j in meeting)
    witness = copies_intersect(state.copies[i], state.copies[j])
    if witness is None:
        raise RuntimeError(f"the sweep saw copies {i} and {j} meet, copies_intersect did not")
    witness["copies"] = [state.copies[i].key, state.copies[j].key]
    return _verdict("disjointness", "all stages", witness, {"pairs_checked": rank + 1})


# ---------------------------------------------------------------------------
# fan-metric diagnostics (floating)


def check_null_sequence(state: ConstructionState) -> CheckRecord:
    """Null-sequence diagnostic: fan diameters must shrink from stage 1 to K.

    Below depth 2 there is no later stage to compare stage 1 with. A stage
    without copies has largest diameter 0.0.
    """
    if state.depth < 2:
        return CheckRecord(
            "null-sequence", "stages", "skipped", None, {"reason": "needs depth >= 2"}
        )
    from .floats import stage_fan_diameters

    profile = stage_fan_diameters(state)
    first, last = profile.get(1, 0.0), profile.get(state.depth, 0.0)
    ok = last < first
    return CheckRecord(
        "null-sequence",
        "stages",
        "pass" if ok else "fail",
        None if ok else {"stage_1": first, "stage_K": last},
        {f"stage_{n}": f"{d:.6f}" for n, d in sorted(profile.items())},
    )


# ---------------------------------------------------------------------------
# orchestration

LEVELLED_CHECKS = ("coverage", "condition-v", "max-gap")


def run_all(
    state: ConstructionState,
    checks: Sequence[str] | None = None,
    grid_depth: int | None = None,
    fiber_count: int = 3,
    epsilons: Sequence[float] = (),
) -> VerificationReport:
    """Run the selected checks (all by default) into one report.

    A selector is either a check name or "name=<n>" to pin the stage level
    of the per-level checks (coverage, condition-v, max-gap), n a
    non-negative integer; levels above the built depth produce skipped
    records. Each level is swept once, for all of its checks and, at level
    K, for disjointness too. An empty selection, a level on any other
    check, a level that is not such an integer, an epsilon that is NaN,
    infinite or negative, a grid depth below the state's depth and a
    negative fiber count raise InvalidParameter before any check runs.
    """
    report = VerificationReport({"depth": state.depth, "jumps": state.n_jumps, "strict": state.strict})
    selected: list[tuple[str, int | None]] = []
    for item in checks if checks is not None else KNOWN_CHECKS:
        name, eq, level = item.partition("=")
        if name not in KNOWN_CHECKS:
            raise ValueError(f"unknown check {name!r} (known: {', '.join(KNOWN_CHECKS)})")
        if eq and name not in LEVELLED_CHECKS:
            raise InvalidParameter(f"check selector {item!r}: only {', '.join(LEVELLED_CHECKS)} take a level")
        if eq and not (level.isascii() and level.isdigit()):
            raise InvalidParameter(f"check selector {item!r}: the level must be an integer >= 0")
        selected.append((name, int(level) if eq else None))
    if not selected:
        raise InvalidParameter("no check selected")
    for eps in epsilons:
        if not (math.isfinite(eps) and eps >= 0):
            raise InvalidParameter(f"epsilon must be finite and >= 0, got {eps}")
    check_sampling(state, state.depth if grid_depth is None else grid_depth, fiber_count)
    sweeps: dict[int, LevelSweep] = {}

    def swept(n: int) -> LevelSweep:
        if n not in sweeps:
            sweeps[n] = sweep_level(state, n)
        return sweeps[n]

    for name, level in selected:
        levels = [level] if level is not None else list(range(state.depth + 1))
        if name == "conditions-i-ii":
            report.records.extend(check_conditions_i_ii(state))
        elif name == "partial-tiling":
            report.records.extend(check_partial_tiling(state))
        elif name == "disjointness":
            report.add(_disjointness(state, swept(state.depth).meeting))
        elif name in LEVELLED_CHECKS:
            for n in levels:
                if n > state.depth:
                    report.add(CheckRecord(name, f"n={n}", "skipped", None, {"reason": "n exceeds depth"}))
                else:
                    report.add(swept(n).records[name])
        elif name == "null-sequence":
            report.add(check_null_sequence(state))
        elif name == "epsilon-connectivity":
            from .connectivity import check_epsilon_connectivity

            report.records.extend(check_epsilon_connectivity(state, grid_depth, fiber_count, epsilons))
    return report


def __getattr__(name: str):
    """`mst_max_edge` and `epsilon_connectivity`, which live in
    `connectivity`, still read as this module's (PEP 562); the first read
    binds each here."""
    if name in ("mst_max_edge", "epsilon_connectivity"):
        from . import connectivity

        value = globals()[name] = getattr(connectivity, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
