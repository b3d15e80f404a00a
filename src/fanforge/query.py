"""Point queries on a construction state: the copies over a Cantor point.

Neither the builder nor the exact checks ask which copies the vertical
line at a point meets, so this read side lives apart from `tiling`: the
`trace` command and `SpaceModel.classify` load it, and `build`, `verify`
and the tiling and fan figures do not. Its column index is built on a
state's first query and kept as the state's `query_index`, which
`ConstructionState.add_stage` drops.
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction
from typing import Iterator

from .errors import InvertedWindow, JumpHit
from .exact import locate
from .tiling import ConstructionState


def _column_index(
    state: ConstructionState,
) -> dict[tuple[int, ...], tuple[int, list[int], list[int], list[int], list[int]]]:
    """Per address: its lowest copy id, its copy ids by increasing base
    (ties by id), their bases, their tops height(N), and the running
    maximum of those tops."""
    top, copies = state.n_jumps, state.copies
    columns = {}
    for bits, ids in state._by_address.items():
        ranked = sorted(ids, key=lambda cid: copies[cid].base)
        bases = [copies[cid].base for cid in ranked]
        tops = [copies[cid].height(top) for cid in ranked]
        columns[bits] = (ids[0], ranked, bases, tops, list(itertools.accumulate(tops, max)))
    state.query_index = columns
    return columns


def fibers_through(
    state: ConstructionState, c: Fraction, lo: Fraction, hi: Fraction
) -> Iterator[tuple[int, int, int, list[int]]]:
    """(lowest id, k, k_hi, ids) per address on the path of the Cantor
    point c that holds copies, shallowest first (NotInCantor from
    `locate` for c outside C). (k, k_hi) is the fiber at c of the
    address's copies, as in PlacedCopy.fiber_span, found before any
    filter; ids are exactly the copies whose heights meet the window,
    height(0) <= hi and lo <= height(N), since a fiber at c meets it only
    on such a copy.
    The copies with base <= hi are a prefix of the column index, found
    by bisection; it is walked from its end while the running maximum
    of its tops still reaches lo, since no copy before that place does.
    So the answer is exact for any rects, overlapping or listed out of
    height order."""
    bits = locate(c, state.depth).bits
    columns = state.query_index if state.query_index is not None else _column_index(state)
    hi_floor = hi.numerator * state.den // hi.denominator  # base <= hi iff base <= hi_floor
    lo_ceil = -(-lo.numerator * state.den // lo.denominator)  # top >= lo iff top >= lo_ceil
    for length in range(len(bits) + 1):
        column = columns.get(bits[:length])
        if column is None:
            continue
        lowest, ids, bases, tops, reach = column
        k, k_hi = state.copies[lowest].fiber_span(c)
        reached = []
        j = bisect.bisect_right(bases, hi_floor) - 1
        while j >= 0 and reach[j] >= lo_ceil:
            if tops[j] >= lo_ceil:
                reached.append(ids[j])
            j -= 1
        yield lowest, k, k_hi, reached


def vertical_trace(
    state: ConstructionState,
    c: Fraction,
    lo: Fraction | None = None,
    hi: Fraction | None = None,
) -> list[tuple[Fraction, int]]:
    """Crossing heights of the vertical at c with all spanning copies,
    read from the column index (`fibers_through`).

    Each spanning copy meets the line in one point as long as c is not one
    of its scaled jump locations (JumpHit otherwise, in the window or not;
    Cantor endpoints are always safe because jump images are never
    endpoints). The heights are compared and sorted as ints over the
    state's `den`, and each returned height is the copy's shared
    `exact_height`. An inverted window is refused before a c outside C.
    """
    lo = state.range_low if lo is None else lo
    hi = state.range_high if hi is None else hi
    if lo > hi:
        raise InvertedWindow(f"height window [{lo}, {hi}] has lo > hi")
    lo_ceil = -(-lo.numerator * state.den // lo.denominator)  # lo <= h/den iff lo_ceil <= h
    hi_floor = hi.numerator * state.den // hi.denominator
    out: list[tuple[int, int, int]] = []
    for lowest, k, k_hi, ids in fibers_through(state, c, lo, hi):
        if k_hi != k:
            raise JumpHit(f"column {c} is a jump location of copy {state.copies[lowest].key}")
        for cid in ids:
            h = state.copies[cid].height(k)
            if lo_ceil <= h <= hi_floor:
                out.append((h, cid, k))
    out.sort()
    return [(state.copies[cid].exact_height(k), cid) for _, cid, k in out]
