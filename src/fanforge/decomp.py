"""Quotient bookkeeping: earring collapse, nested regions, and the P/Q split.

Collapsing a copy's graph-closure part to a point turns each jump segment
into a loop through the collapsed base class; the loop family is kept
combinatorially (base class plus indexed loops with exact pre-collapse
geometry), never as a metric identification space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DepthInsufficient, UnknownCopy
from .exact import (
    Address,
    basic_interval_inside,
    endpoint_zero,
    locate,
    rational_to_str,
)
from .debski import integer_table
from .spaceset import Region, SpaceModel, fan_point, region_between
from .tiling import ColumnSweep, ConstructionState


@dataclass(frozen=True)
class Loop:
    """One pre-collapse jump segment of the owning copy."""

    jump_index: int
    location: Fraction
    low: Fraction
    high: Fraction
    fan_diameter: float

    @property
    def height(self) -> Fraction:
        return self.high - self.low


@dataclass(frozen=True)
class Earring:
    """A copy with its graph closure collapsed to the single base class."""

    copy_key: str
    base_label: str
    loops: tuple[Loop, ...]

    def to_json_obj(self) -> dict:
        return {
            "copy": self.copy_key,
            "base": self.base_label,
            "loops": [
                {
                    "jump": loop.jump_index,
                    "c": rational_to_str(loop.location),
                    "low": rational_to_str(loop.low),
                    "high": rational_to_str(loop.high),
                    "fan_diameter": f"{loop.fan_diameter:.12f}",
                }
                for loop in self.loops
            ],
        }


def collapse_E(model: SpaceModel, copy_id: int) -> Earring:
    """Collapse the copy's closure part; one loop per jump, by jump index.

    Loop heights are (b - a) * 2^-(m+1), strictly decreasing in the jump
    index, so the loop family is a null-sequence ordered by index. The
    operation is idempotent: rebuilding from the same copy yields an equal
    earring.
    """
    try:
        copy = model.state.copies[copy_id]
    except IndexError as exc:
        raise UnknownCopy(f"no copy with id {copy_id}") from exc
    loops = []
    for m in range(copy.dset.n_jumps):
        jump = copy.dset.table.jump_by_index(m)
        c = copy.to_global_c(jump.location)
        lo = copy.to_global_h(jump.low)
        hi = copy.to_global_h(jump.high)
        p, q = fan_point((c, lo)), fan_point((c, hi))
        loops.append(Loop(m, c, lo, hi, ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) ** 0.5))
    return Earring(copy.key, f"e[{copy.key}]", tuple(loops))


def earring_check(earring: Earring) -> tuple[bool, dict]:
    """Null-sequence and single-base-point predicates for one earring.

    True when loop heights strictly decrease along the index order and the
    loops meet pairwise only through the base class, i.e. their pre-collapse
    segments are pairwise disjoint.
    """
    heights = [loop.height for loop in earring.loops]
    strictly_decreasing = all(a > b for a, b in zip(heights, heights[1:]))
    locations_distinct = len({loop.location for loop in earring.loops}) == len(earring.loops)
    ratios = {str(b / a) for a, b in zip(heights, heights[1:])}
    metrics = {
        "loops": len(earring.loops),
        "strictly_decreasing": strictly_decreasing,
        "pairwise_base_only": locations_distinct,
        "height_ratios": sorted(ratios),
    }
    return strictly_decreasing and locations_distinct, metrics


@dataclass(frozen=True)
class Claim5Result:
    """The nested diagnostic region around one loop of one copy."""

    copy_key: str
    level: int
    loop_index: int
    column: Address
    above_copy_id: int
    below_copy_id: int
    upper_region: Region
    lower_region: Region
    loop_interior: tuple[Fraction, Fraction, Fraction]  # (c, low, high) without endpoints
    boundary_ok: bool
    boundary_failures: tuple[str, ...]
    distance_above: Fraction
    distance_below: Fraction


def _envelope_failures(state: ConstructionState, column: Address, trio: list[int]) -> list[str]:
    """Where the trio (below, owner, above) is out of order over the column.

    The column's sweep of the three gives their heights as ints at its left
    end and after each breakpoint; each copy is constant between breakpoints.
    Samples run left to right: the left end, each cell (with the heights
    just right of its left cut) and the breakpoint closing it, the right
    end. A cell's sample, a Cantor point inside it, is found only for a
    failure message.
    """
    col = ColumnSweep(state, column, len(column), trio)
    t_den = integer_table(state.n_jumps)[0]
    unit = t_den * 3 ** len(column)  # breakpoints are ints over unit
    failures: list[str] = []

    def check(u: int, w: int, below_hi: int, owner_lo: int, owner_hi: int, above_lo: int) -> None:
        # the sample is the column u over unit when w == u, else a Cantor point in (u, w)
        if below_hi < owner_lo <= owner_hi < above_lo:
            return
        lo, hi = Fraction(u, unit), Fraction(w, unit)
        at = lo if u == w else endpoint_zero(basic_interval_inside(lo, hi))
        b, o_lo, o_hi, a = (Fraction(x, col.den) for x in (below_hi, owner_lo, owner_hi, above_lo))
        failures.append(f"boundary envelopes out of order at c={at}: {b} < {o_lo} <= {o_hi} < {a}")

    left = int(endpoint_zero(column) * unit)
    below, owner, above = col.first
    check(left, left, below, owner, owner, above)
    cut = left
    for x in [*col.breakpoints, left + t_den]:  # then the right end, where nothing jumps
        check(cut, x, below, owner, owner, above)
        after = [below, owner, above]
        for i, new in col.events.get(x, ()):
            after[i] = new
        check(x, x, after[0], owner, after[1], above)
        (below, owner, above), cut = after, x
    return failures


def claim5_regions(model: SpaceModel, copy_id: int, level: int, loop_index: int) -> Claim5Result:
    """Select the tightest deeper rectangles around a loop and verify them.

    For a copy from stage k and a level n, stage k+1+n must exist; among its
    rectangles over the loop's column the lowest one above the loop and the
    highest one below it are chosen (both unique by the partial tiling), and
    the region between each and the owning copy is formed. The boundary of
    the combined open set is confirmed cell by cell to lie on the two chosen
    copies and the owner.
    """
    state = model.state
    try:
        owner = state.copies[copy_id]
    except IndexError as exc:
        raise UnknownCopy(f"no copy with id {copy_id}") from exc
    if level < 0:
        raise DepthInsufficient(f"level must be >= 0, got {level}")
    target = owner.stage + 1 + level
    if target > state.depth:
        raise DepthInsufficient(
            f"level {level} needs stage {target}, but depth is {state.depth}"
        )
    jump = owner.dset.table.jump_by_index(loop_index)
    c_j = owner.to_global_c(jump.location)
    seg_lo = owner.to_global_h(jump.low)
    seg_hi = owner.to_global_h(jump.high)
    column = locate(c_j, target)
    # the stage-target rects over the column against the loop, as ints over den
    rects = [cid for cid in state.ids_at_address(column.bits) if state.copies[cid].stage == target]
    den = math.lcm(owner.den, *(state.copies[cid].den for cid in rects))
    pos = owner.dset.table.pos_of_index[loop_index]
    seg_bottom, seg_top = (owner.height(k) * (den // owner.den) for k in (pos, pos + 1))
    above, below = [], []  # (rect bottom, id) and (minus rect top, id)
    for cid in rects:
        copy = state.copies[cid]
        bottom, top = (x * (den // copy.den) for x in (copy.base, copy.base + copy.step * 2**state.n_jumps))
        if bottom >= seg_top:
            above.append((bottom, cid))
        elif top <= seg_bottom:
            below.append((-top, cid))
    if not above or not below:
        raise DepthInsufficient(
            f"loop {loop_index} of copy {owner.key} lacks stage-{target} rects "
            f"{'above' if not above else 'below'} it over column {column}"
        )
    above_id, below_id = min(above)[1], min(below)[1]
    upper = region_between(model, copy_id, above_id, column)
    lower = region_between(model, below_id, copy_id, column)
    failures = _envelope_failures(state, column, [below_id, copy_id, above_id])
    return Claim5Result(
        copy_key=owner.key,
        level=level,
        loop_index=loop_index,
        column=column,
        above_copy_id=above_id,
        below_copy_id=below_id,
        upper_region=upper,
        lower_region=lower,
        loop_interior=(c_j, seg_lo, seg_hi),
        boundary_ok=not failures,
        boundary_failures=tuple(failures),
        distance_above=state.copies[above_id].fiber(c_j)[1] - seg_hi,
        distance_below=seg_lo - state.copies[below_id].fiber(c_j)[2],
    )


@dataclass(frozen=True)
class DecompositionSummary:
    earring_count: int
    loops_per_earring: int
    countable_part_size: int
    punctiform_note: str

    def to_json_obj(self) -> dict:
        return {
            "earrings": self.earring_count,
            "loops_per_earring": self.loops_per_earring,
            "countable_part_size": self.countable_part_size,
            "punctiform_note": self.punctiform_note,
        }


def suslinian_report(state: ConstructionState) -> DecompositionSummary:
    """Counts for the punctiform-plus-countable split at this truncation.

    The countable part is represented by the collapsed base classes plus all
    jump midpoints; the punctiform part stays symbolic (the complement of
    the copy images). Representatives are finite here; density of the
    countable part inside each earring is a limit statement.
    """
    copies = len(state.copies)
    return DecompositionSummary(
        earring_count=copies,
        loops_per_earring=state.n_jumps,
        countable_part_size=copies + copies * state.n_jumps,
        punctiform_note=(
            "punctiform part is the complement of all copy images; "
            "countable part listed by finitely many representatives"
        ),
    )
