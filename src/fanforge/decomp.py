"""Quotient bookkeeping: earring collapse and nested regions.

Collapsing a copy's graph-closure part to a point turns each jump segment
into a loop through the collapsed base class; the loop family is kept
combinatorially (base class plus indexed loops with exact pre-collapse
geometry), never as a metric identification space.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DepthInsufficient
from .exact import Address, locate
from .spaceset import Region, SpaceModel, region_between


class Loop(NamedTuple):
    """One pre-collapse jump segment of the owning copy."""

    jump_index: int
    location: Fraction
    low: Fraction
    high: Fraction

    @property
    def height(self) -> Fraction:
        return self.high - self.low


class Earring(NamedTuple):
    """A copy with its graph closure collapsed to the single base class."""

    copy_key: str
    loops: tuple[Loop, ...]


def collapse_E(model: SpaceModel, copy_id: int) -> Earring:
    """Collapse the copy's closure part; one loop per jump, by jump index.

    Loop heights are (b - a) * 2^-(m+1), strictly decreasing in the jump
    index, so the loop family is a null-sequence ordered by index. The
    operation is idempotent: rebuilding from the same copy yields an equal
    earring.
    """
    copy = model.state.copy_at(copy_id)
    loops = (Loop(m, *copy.jump_global(pos)) for m, pos in enumerate(copy.table.pos_of_index))
    return Earring(copy.key, tuple(loops))


class Claim5Result(NamedTuple):
    """The nested diagnostic region around one loop of one copy.

    `boundary_ok` is always True. Its condition, below's top < owner's
    bottom <= owner's top < above's bottom at every Cantor point of the
    column, is what the two `region_between` calls check on the pairs
    (below, owner) and (owner, above); they raise NotOrdered before a
    result exists when it fails. The field stays for callers that read it.
    """

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
    distance_above: Fraction
    distance_below: Fraction


def claim5_regions(model: SpaceModel, copy_id: int, level: int, loop_index: int) -> Claim5Result:
    """Select the tightest deeper rectangles around a loop and verify them.

    For a copy from stage k and a level n, stage k+1+n must exist; among its
    rectangles over the loop's column the lowest one above the loop and the
    highest one below it are chosen (both unique by the partial tiling), and
    the region between each and the owning copy is formed. Forming them
    confirms that the owner lies strictly between the two chosen copies
    over the whole column (NotOrdered otherwise), so the boundary of the
    combined open set lies on the two chosen copies and the owner.
    """
    state = model.state
    owner = state.copy_at(copy_id)
    if level < 0:
        raise DepthInsufficient(f"level must be >= 0, got {level}")
    target = owner.stage + 1 + level
    if target > state.depth:
        raise DepthInsufficient(
            f"level {level} needs stage {target}, but depth is {state.depth}"
        )
    pos = owner.jump_pos(loop_index)
    c_j, seg_lo, seg_hi = owner.jump_global(pos)
    column = locate(c_j, target)
    # the rects over the column, all of stage target, against the loop, as ints over the state's den
    seg_bottom, seg_top = owner.height(pos), owner.height(pos + 1)
    above, below = [], []  # (rect bottom, id) and (minus rect top, id)
    for cid in state.ids_at_address(column.bits):
        copy = state.copies[cid]
        bottom, top = copy.base, copy.base + copy.step * 2**state.n_jumps
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
        boundary_ok=True,
        distance_above=state.copies[above_id].fiber(c_j)[1] - seg_hi,
        distance_below=seg_lo - state.copies[below_id].fiber(c_j)[2],
    )
