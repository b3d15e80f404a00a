"""Exact verification of the tiling conditions plus quantitative diagnostics.

Everything quantified over "every point" or "every arc" is decided
exhaustively through a cell decomposition: a truncated copy is a finite
union of horizontal pieces and vertical segments, so each column of the
construction splits into finitely many c-intervals on which the set of
crossing copies, their crossing heights, and their order are all constant.
Checks over cells are exact rational predicates; floating point appears
only in the fan-metric diagnostics (null-sequence diameters, epsilon
connectivity) which are explicitly approximate.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import CrossingNotFound
from .exact import Address, addresses_of_length, endpoint_one, endpoint_zero, rational_to_str
from .spaceset import fan_point
from .tiling import ConstructionState, PlacedCopy

REPORT_SCHEMA = "fanforge-report-v1"


@dataclass
class CheckRecord:
    name: str
    scope: str
    status: str  # pass | fail | skipped
    witness: dict | None = None
    metrics: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "scope": self.scope,
            "status": self.status,
            "witness": self.witness,
            "metrics": self.metrics,
        }


class VerificationReport:
    def __init__(self, state_params: dict):
        self.state_params = state_params
        self.records: list[CheckRecord] = []

    def add(self, record: CheckRecord) -> CheckRecord:
        self.records.append(record)
        return record

    def extend(self, records: Sequence[CheckRecord]) -> None:
        self.records.extend(records)

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


def _state_params(state: ConstructionState) -> dict:
    return {"depth": state.depth, "jumps": state.n_jumps, "strict": state.strict}


def _rect_witness(state: ConstructionState, copy: PlacedCopy) -> dict:
    return {
        "copy": copy.key,
        "address": str(copy.rect.address),
        "a": rational_to_str(copy.rect.bottom),
        "b": rational_to_str(copy.rect.top),
    }


# ---------------------------------------------------------------------------
# conditions (i)-(ii) and the partial-tiling law


def check_conditions_i_ii(state: ConstructionState) -> list[CheckRecord]:
    """Addresses of length n and heights in (0, 1/(n+1)], exactly, per stage."""
    records = []
    for stage in state.stages:
        bound = Fraction(1, stage.n + 1)
        witness = None
        max_height = Fraction(0)
        for i, rect in enumerate(stage.rects):
            max_height = max(max_height, rect.height)
            if len(rect.address) != stage.n or not (0 < rect.height <= bound):
                witness = {
                    "index": i,
                    "address": str(rect.address),
                    "a": rational_to_str(rect.bottom),
                    "b": rational_to_str(rect.top),
                }
                break
        records.append(
            CheckRecord(
                "conditions-i-ii",
                f"stage {stage.n}",
                "fail" if witness else "pass",
                witness,
                {"rects": len(stage.rects), "max_height": rational_to_str(max_height)},
            )
        )
    return records


def check_partial_tiling(state: ConstructionState) -> list[CheckRecord]:
    """Within a stage, same-column rectangles may share at most one height."""
    records = []
    for stage in state.stages:
        by_addr: dict[tuple[int, ...], list] = {}
        for rect in stage.rects:
            by_addr.setdefault(rect.address.bits, []).append(rect)
        witness = None
        for bits, rects in by_addr.items():
            rects = sorted(rects, key=lambda r: (r.bottom, r.top))
            for a, b in zip(rects, rects[1:]):
                if min(a.top, b.top) > max(a.bottom, b.bottom):
                    witness = {
                        "address": "".join(map(str, bits)),
                        "first": [rational_to_str(a.bottom), rational_to_str(a.top)],
                        "second": [rational_to_str(b.bottom), rational_to_str(b.top)],
                    }
                    break
            if witness:
                break
        records.append(
            CheckRecord(
                "partial-tiling",
                f"stage {stage.n}",
                "fail" if witness else "pass",
                witness,
            )
        )
    return records


# ---------------------------------------------------------------------------
# condition (iii): exhaustive pairwise copy disjointness


def copies_intersect(a: PlacedCopy, b: PlacedCopy) -> dict | None:
    """Exact intersection test between two copy images; witness or None.

    Only pieces inside the shared column and the overlap of the two height
    extents can meet, so both copies are filtered down to those pieces
    before the pairwise rational predicates run.
    """
    deep = a if a.stage >= b.stage else b
    c_lo, c_hi = deep.col_left, deep.col_right
    h_lo = max(a.rect.bottom, b.rect.bottom)
    h_hi = min(a.max_height, b.max_height)
    if h_lo > h_hi:
        return None
    plats_a, jumps_a = a.pieces_in_window(c_lo, c_hi, h_lo, h_hi)
    plats_b, jumps_b = b.pieces_in_window(c_lo, c_hi, h_lo, h_hi)
    for alo, ahi, av in plats_a:
        for blo, bhi, bv in plats_b:
            if av == bv and max(alo, blo) <= min(ahi, bhi):
                return {
                    "kind": "plateau-plateau",
                    "value": rational_to_str(av),
                    "c": rational_to_str(max(alo, blo)),
                }
    for alo, ahi, av in plats_a:
        for jc, jlo, jhi in jumps_b:
            if alo <= jc <= ahi and jlo <= av <= jhi:
                return {"kind": "plateau-jump", "c": rational_to_str(jc), "value": rational_to_str(av)}
    for jc, jlo, jhi in jumps_a:
        for blo, bhi, bv in plats_b:
            if blo <= jc <= bhi and jlo <= bv <= jhi:
                return {"kind": "jump-plateau", "c": rational_to_str(jc), "value": rational_to_str(bv)}
        for kc, klo, khi in jumps_b:
            if jc == kc and max(jlo, klo) <= min(jhi, khi):
                return {"kind": "jump-jump", "c": rational_to_str(jc)}
    return None


def _candidate_pairs(state: ConstructionState) -> Iterator[tuple[int, int]]:
    for cid, copy in enumerate(state.copies):
        bits = copy.rect.address.bits
        for length in range(len(bits)):
            for other in state.ids_at_address(bits[:length]):
                yield (other, cid)
        for other in state.ids_at_address(bits):
            if other < cid:
                yield (other, cid)


def check_disjointness(state: ConstructionState) -> CheckRecord:
    """Condition (iii): all copy images pairwise disjoint, exactly."""
    pairs = 0
    for i, j in _candidate_pairs(state):
        pairs += 1
        witness = copies_intersect(state.copies[i], state.copies[j])
        if witness:
            witness["copies"] = [state.copies[i].key, state.copies[j].key]
            return CheckRecord(
                "disjointness", "all stages", "fail", witness, {"pairs_checked": pairs}
            )
    return CheckRecord(
        "disjointness",
        "all stages",
        "pass",
        None,
        {"pairs_checked": pairs, "copies": len(state.copies)},
    )


# ---------------------------------------------------------------------------
# condition (iv): truncated coverage per column


def coverage_gap_for_column(state: ConstructionState, n: int, sigma: Address) -> tuple[Fraction, int]:
    """(uncovered measure within [-n, n+1], number of contributing copies)."""
    left, right = endpoint_zero(sigma), endpoint_one(sigma)
    ids = state.chain_ids(sigma, max_stage=n)
    bands = sorted(state.copies[cid].band(left, right) for cid in ids)
    lo_bound, hi_bound = Fraction(-n), Fraction(n + 1)
    covered = Fraction(0)
    cur_lo: Fraction | None = None
    cur_hi: Fraction | None = None
    for x, y in bands:
        if cur_lo is None:
            cur_lo, cur_hi = x, y
        elif x > cur_hi:
            covered += cur_hi - cur_lo
            cur_lo, cur_hi = x, y
        else:
            cur_hi = max(cur_hi, y)
    if cur_lo is not None:
        covered += cur_hi - cur_lo
    return (hi_bound - lo_bound) - covered, len(ids)


def check_coverage(state: ConstructionState, n: int) -> CheckRecord:
    """Condition (iv), truncated: per-column gap at most copies * 2^-N."""
    if n > state.depth:
        return CheckRecord("coverage", f"n={n}", "skipped", None, {"reason": "n exceeds depth"})
    budget_unit = Fraction(1, 2 ** state.n_jumps)
    worst = Fraction(0)
    witness = None
    for sigma in addresses_of_length(n):
        gap, count = coverage_gap_for_column(state, n, sigma)
        worst = max(worst, gap)
        if gap > count * budget_unit:
            witness = {
                "column": str(sigma),
                "gap": rational_to_str(gap),
                "budget": rational_to_str(count * budget_unit),
            }
            break
    return CheckRecord(
        "coverage",
        f"n={n}",
        "fail" if witness else "pass",
        witness,
        {"max_column_gap": rational_to_str(worst)},
    )


# ---------------------------------------------------------------------------
# cell decomposition and condition (v)

Crossing = tuple[Fraction, int]  # (height, copy id)
GapHandler = Callable[
    [Crossing | None, Crossing | None], None
]  # lower, upper; None marks the range boundary


@dataclass(frozen=True)
class Cell:
    """One maximal c-interval of constant crossing pattern inside a column."""

    c_left: Fraction
    c_right: Fraction
    crossings: tuple[Crossing, ...]


class CellDecomposition:
    """Cells of a single column against copies of stages <= max_stage.

    Every relevant copy spans the whole column (copy columns at stages up to
    the column depth are prefix columns), so the only breakpoints are scaled
    jump locations; they are never column endpoints.
    """

    def __init__(self, state: ConstructionState, sigma: Address, max_stage: int | None = None):
        self.state = state
        self.sigma = sigma
        self.max_stage = state.depth if max_stage is None else max_stage
        self.left = endpoint_zero(sigma)
        self.right = endpoint_one(sigma)
        self.ids = state.chain_ids(sigma, max_stage=self.max_stage)
        events: dict[Fraction, list[tuple[int, int]]] = {}
        for cid in self.ids:
            copy = state.copies[cid]
            for pos in copy.jump_positions_between(self.left, self.right):
                c = copy.to_global_c(copy.dset.table.locations[pos])
                events.setdefault(c, []).append((cid, pos))
        self.breakpoints: list[Fraction] = sorted(events)
        self._events = events

    def sweep(self, on_gap: GapHandler | None = None, collect_cells: bool = False) -> list[Cell]:
        """Walk cells left to right, reporting each maximal vertical gap once.

        Gaps are reported when they first appear (at the initial cell or
        right after a jump changes a crossing); a gap spanning several cells
        is identical across all of them, so a single report is exhaustive.
        """
        state = self.state
        heights: dict[int, Fraction] = {}
        cross: list[Crossing] = []
        for cid in self.ids:
            h = state.copies[cid].trace_at(self.left)
            heights[cid] = h
            cross.append((h, cid))
        cross.sort()
        cells: list[Cell] = []
        if on_gap is not None:
            bounded: list[Crossing | None] = [None, *cross, None]
            for lower, upper in zip(bounded, bounded[1:]):
                on_gap(lower, upper)
        prev_c = self.left
        for c in self.breakpoints:
            if collect_cells:
                cells.append(Cell(prev_c, c, tuple(cross)))
            moved: list[Crossing] = []
            for cid, pos in self._events[c]:
                copy = state.copies[cid]
                old = heights.get(cid)
                new = copy.to_global_h(copy.dset.table.values[pos + 1])
                idx = len(cross) if old is None else bisect.bisect_left(cross, (old, cid))
                if idx == len(cross) or cross[idx] != (old, cid):
                    raise CrossingNotFound(f"copy {copy.key} jumps at c={c} without a crossing")
                cross.pop(idx)
                bisect.insort(cross, (new, cid))
                heights[cid] = new
                moved.append((new, cid))
            if on_gap is not None:
                seen: set[tuple[Crossing | None, Crossing | None]] = set()
                for entry in moved:
                    idx = bisect.bisect_left(cross, entry)
                    lower = cross[idx - 1] if idx > 0 else None
                    upper = cross[idx + 1] if idx + 1 < len(cross) else None
                    for pair in ((lower, entry), (entry, upper)):
                        if pair not in seen:
                            seen.add(pair)
                            on_gap(*pair)
            prev_c = c
        if collect_cells:
            cells.append(Cell(prev_c, self.right, tuple(cross)))
        return cells

    def cells(self) -> list[Cell]:
        return self.sweep(collect_cells=True)


def check_condition_v(state: ConstructionState, n: int) -> CheckRecord:
    """Condition (v), exhaustively over cells at depth n.

    Every maximal vertical gap between consecutive crossings (or between a
    crossing and the range boundary) must fit inside the union of its
    bounding copies' rectangles, at least one of which sits at stage n, and
    the gap's distance to a bounding copy (zero: the closed gap touches its
    bounding crossing, certified by same-column vertical distance) must beat
    1/(n+1) + 3^-n.
    """
    if n > state.depth:
        return CheckRecord("condition-v", f"n={n}", "skipped", None, {"reason": "n exceeds depth"})
    lo_bound, hi_bound = Fraction(-n), Fraction(n + 1)
    bound = Fraction(1, n + 1) + Fraction(1, 3**n)
    failures: list[dict] = []
    gaps_seen = 0
    max_gap = Fraction(0)

    for sigma in addresses_of_length(n):
        decomp = CellDecomposition(state, sigma, max_stage=n)

        def on_gap(lower: Crossing | None, upper: Crossing | None, _sigma=sigma) -> None:
            nonlocal gaps_seen, max_gap
            lo_h = lo_bound if lower is None else lower[0]
            hi_h = hi_bound if upper is None else upper[0]
            length = hi_h - lo_h
            if length <= 0:
                return
            gaps_seen += 1
            max_gap = max(max_gap, length)
            problems = []
            if lower is None and upper is None:
                problems.append("no crossings in column")
            elif lower is None or upper is None:
                crossing = upper if lower is None else lower
                copy = state.copies[crossing[1]]
                if copy.stage != n:
                    problems.append(f"edge gap bounded by stage {copy.stage}")
                if lower is None and copy.rect.bottom > lo_bound:
                    problems.append("rect does not reach range bottom")
                if upper is None and copy.rect.top < hi_bound:
                    problems.append("rect does not reach range top")
                if not length < bound:
                    problems.append("edge gap exceeds distance bound")
            else:
                low_copy = state.copies[lower[1]]
                up_copy = state.copies[upper[1]]
                if low_copy.stage != n and up_copy.stage != n:
                    problems.append("no stage-n copy bounds the gap")
                if low_copy.rect.top < up_copy.rect.bottom:
                    problems.append("two rects do not cover the gap")
                # distance certificate: the closed gap touches both bounding
                # crossings, so its distance to either copy is zero < bound
                if not Fraction(0) < bound:
                    problems.append("distance bound not positive")
            if problems:
                failures.append(
                    {
                        "column": str(_sigma),
                        "gap": [rational_to_str(lo_h), rational_to_str(hi_h)],
                        "lower": None if lower is None else state.copies[lower[1]].key,
                        "upper": None if upper is None else state.copies[upper[1]].key,
                        "problems": problems,
                    }
                )

        decomp.sweep(on_gap=on_gap)

    status = "fail" if failures else "pass"
    return CheckRecord(
        "condition-v",
        f"n={n}",
        status,
        failures[0] if failures else None,
        {"gaps_checked": gaps_seen, "max_gap": rational_to_str(max_gap)},
    )


def max_vertical_gap(state: ConstructionState, n: int) -> CheckRecord:
    """Exact maximum vertical gap over all cells at depth n inside [-n, n+1]."""
    if n > state.depth:
        return CheckRecord("max-gap", f"n={n}", "skipped", None, {"reason": "n exceeds depth"})
    lo_bound, hi_bound = Fraction(-n), Fraction(n + 1)
    best = Fraction(0)

    for sigma in addresses_of_length(n):
        def on_gap(lower: Crossing | None, upper: Crossing | None) -> None:
            nonlocal best
            lo_h = lo_bound if lower is None else lower[0]
            hi_h = hi_bound if upper is None else upper[0]
            if hi_h - lo_h > best:
                best = hi_h - lo_h

        CellDecomposition(state, sigma, max_stage=n).sweep(on_gap=on_gap)
    return CheckRecord("max-gap", f"n={n}", "pass", None, {"max_gap": rational_to_str(best)})


# ---------------------------------------------------------------------------
# fan-metric diagnostics (floating)


def minimum_spanning_edges(points: Sequence[tuple[float, float]]) -> np.ndarray:
    """Edge lengths of the Euclidean minimum spanning tree, m-1 of them.

    The EMST is a subgraph of the Delaunay triangulation (Shamos & Hoey,
    1975). Edges are weighted by the rank of their squared length: same
    order, and a length that underflows to 0 is not read as a missing edge.
    Duplicates add zero-length edges; a collinear or tiny cloud, which
    Qhull refuses, is spanned by the path through its sorted points.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree
    from scipy.spatial import Delaunay, QhullError

    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    uniq = np.unique(pts, axis=0)
    duplicates = np.zeros(len(pts) - len(uniq))
    try:
        tri = Delaunay(uniq) if len(uniq) >= 3 else None
    except QhullError:
        tri = None
    if tri is None:
        d = uniq[1:] - uniq[:-1]
        return np.concatenate([np.sqrt((d**2).sum(axis=1)), duplicates])
    s = tri.simplices  # near-duplicates Qhull leaves out join their nearest vertex
    pairs = np.concatenate([s[:, [0, 1]], s[:, [1, 2]], s[:, [0, 2]], tri.coplanar[:, [0, 2]]])
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)
    d = uniq[pairs[:, 0]] - uniq[pairs[:, 1]]
    lengths2, rank = np.unique((d**2).sum(axis=1), return_inverse=True)
    graph = coo_matrix((rank + 1.0, (pairs[:, 0], pairs[:, 1])), shape=(len(uniq),) * 2)
    tree = minimum_spanning_tree(graph)
    return np.concatenate([np.sqrt(lengths2[tree.data.astype(np.intp) - 1]), duplicates])


def mst_max_edge(points: Sequence[tuple[float, float]]) -> float:
    """Largest Euclidean MST edge: the connectivity threshold of the cloud."""
    edges = minimum_spanning_edges(points)
    return float(edges.max()) if len(edges) else 0.0


def _components(mst_edges: np.ndarray, eps: float) -> int:
    """Single linkage (Gower & Ross, 1969): each MST edge longer than eps splits once."""
    return 1 + int(np.count_nonzero(mst_edges > eps))


def epsilon_connectivity(points: Sequence[tuple[float, float]], eps: float) -> int:
    """Number of epsilon-chain components (pairs within eps are linked)."""
    if len(points) == 0:
        raise ValueError("epsilon_connectivity needs a nonempty cloud")
    return _components(minimum_spanning_edges(points), eps)


def copy_fan_diameter(copy: PlacedCopy) -> float:
    """Euclidean diameter of the copy's fan image (piece endpoints suffice)."""
    pts = []
    for lo, hi, v in copy.plateaus_global():
        pts.append(fan_point((lo, v)))
        pts.append(fan_point((hi, v)))
    for c, lo, hi in copy.jumps_global():
        pts.append(fan_point((c, lo)))
        pts.append(fan_point((c, hi)))
    arr = np.asarray(pts)
    diff = arr[:, None, :] - arr[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=-1).max()))


def stage_fan_diameters(state: ConstructionState) -> dict[int, float]:
    """Max fan-coordinate copy diameter per stage."""
    out: dict[int, float] = {}
    for copy in state.copies:
        d = copy_fan_diameter(copy)
        if d > out.get(copy.stage, 0.0):
            out[copy.stage] = d
    return out


def check_null_sequence(state: ConstructionState) -> CheckRecord:
    """Null-sequence diagnostic: fan diameters must shrink from stage 1 to K."""
    if state.depth < 1:
        return CheckRecord(
            "null-sequence", "stages", "skipped", None, {"reason": "needs depth >= 1"}
        )
    profile = stage_fan_diameters(state)
    ok = profile[state.depth] < profile[1]
    return CheckRecord(
        "null-sequence",
        "stages",
        "pass" if ok else "fail",
        None if ok else {"stage_1": profile[1], "stage_K": profile[state.depth]},
        {f"stage_{n}": f"{d:.6f}" for n, d in sorted(profile.items())},
    )


def check_epsilon_connectivity(
    state: ConstructionState,
    grid_depth: int | None = None,
    fiber_count: int = 3,
    epsilons: Sequence[float] = (),
) -> list[CheckRecord]:
    """Connectivity analogue: one component at the MST threshold, more below.

    One MST serves every count. By the single-linkage identity
    `components_at_star` is always 1, so the independent cross-check against
    all-pairs union-find lives in the oracle tests.
    """
    from .spaceset import assemble, sample_points

    model = assemble(state)
    gd = state.depth if grid_depth is None else grid_depth
    cloud = sample_points(model, gd, fiber_count)
    coords = cloud.coordinates()
    mst = minimum_spanning_edges(coords)
    eps_star = float(mst.max()) if len(mst) else 0.0
    if eps_star == 0.0:
        return [
            CheckRecord(
                "epsilon-connectivity",
                f"grid_depth={gd}",
                "skipped",
                None,
                {"reason": "degenerate cloud", "cloud_size": len(coords)},
            )
        ]
    at_star = _components(mst, eps_star)
    at_half = _components(mst, eps_star / 2)
    ok = at_star == 1 and at_half >= 2
    records = [
        CheckRecord(
            "epsilon-connectivity",
            f"grid_depth={gd}",
            "pass" if ok else "fail",
            None if ok else {"components_at_star": at_star, "components_at_half": at_half},
            {
                "cloud_size": len(coords),
                "eps_star": f"{eps_star:.9f}",
                "components_at_star": at_star,
                "components_at_half": at_half,
            },
        )
    ]
    for eps in epsilons:
        records.append(
            CheckRecord(
                "epsilon-connectivity",
                f"grid_depth={gd} eps={eps:g}",
                "pass",
                None,
                {"components": _components(mst, eps)},
            )
        )
    return records


# ---------------------------------------------------------------------------
# orchestration

KNOWN_CHECKS = (
    "conditions-i-ii",
    "partial-tiling",
    "disjointness",
    "coverage",
    "condition-v",
    "max-gap",
    "null-sequence",
    "epsilon-connectivity",
)


def run_all(
    state: ConstructionState,
    checks: Sequence[str] | None = None,
    grid_depth: int | None = None,
    fiber_count: int = 3,
    epsilons: Sequence[float] = (),
) -> VerificationReport:
    """Run the selected checks (all by default) into one report.

    A selector is either a check name or "name=<n>" to pin the stage level
    of the per-level checks (coverage, condition-v, max-gap); levels above
    the built depth produce skipped records.
    """
    report = VerificationReport(_state_params(state))
    selected: list[tuple[str, int | None]] = []
    for item in checks if checks is not None else KNOWN_CHECKS:
        name, _, level = item.partition("=")
        if name not in KNOWN_CHECKS:
            raise ValueError(f"unknown check {name!r} (known: {', '.join(KNOWN_CHECKS)})")
        selected.append((name, int(level) if level else None))
    for name, level in selected:
        levels = [level] if level is not None else list(range(state.depth + 1))
        if name == "conditions-i-ii":
            report.extend(check_conditions_i_ii(state))
        elif name == "partial-tiling":
            report.extend(check_partial_tiling(state))
        elif name == "disjointness":
            report.add(check_disjointness(state))
        elif name == "coverage":
            for n in levels:
                report.add(check_coverage(state, n))
        elif name == "condition-v":
            for n in levels:
                report.add(check_condition_v(state, n))
        elif name == "max-gap":
            for n in levels:
                report.add(max_vertical_gap(state, n))
        elif name == "null-sequence":
            report.add(check_null_sequence(state))
        elif name == "epsilon-connectivity":
            report.extend(
                check_epsilon_connectivity(state, grid_depth, fiber_count, epsilons)
            )
    return report
