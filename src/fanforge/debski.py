"""The truncated Debski step function and its graph-plus-jumps set D.

The function is the monotone pure-jump map on the Cantor set with jump
2^-(n+1) at the n-th member of a canonical dense sequence of non-endpoints.
A truncation keeps the first N jumps; the resulting set is a finite union of
closed horizontal plateau pieces and closed vertical jump segments, all with
exact rational coordinates. Its one form is the integer jump table
(`jump_table`): plateau j runs from jump location j-1 to jump location j (0
and 1 at the ends) at values[j], and the jump at sorted position j is the
segment from values[j] to values[j+1] over location j. The plateaus share
their ends with the jump segments, so their union is the graph's closure.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .exact import addresses_length_lex, endpoint_zero


def _quarter_points() -> Iterator[Fraction]:
    """The canonical sequence, without end: 0(sigma) + (1/4) 3^-|sigma| over
    the addresses in length-lex order, each value at its first proposal."""
    seen: set[Fraction] = set()
    for sigma in addresses_length_lex():
        v = endpoint_zero(sigma) + Fraction(1, 4 * 3 ** len(sigma))
        if v not in seen:
            seen.add(v)
            yield v


def jump_points(n_jumps: int) -> list[Fraction]:
    """First `n_jumps` members of the canonical dense non-endpoint sequence.

    Enumerate addresses in length-lex order, propose the quarter-offset point
    0(sigma) + (1/4) 3^-|sigma| of each basic interval, and skip proposals
    equal to an earlier accepted value. Quarter-offset points have ternary
    tail 0202..., so they are always non-endpoint members of C.
    """
    if n_jumps < 1:
        raise ValueError("n_jumps must be >= 1")
    return list(itertools.islice(_quarter_points(), n_jumps))


def min_jumps_for_depth(depth: int) -> int:
    """The jump count a depth-`depth` build needs. From depth 2 on it is the
    smallest N such that every depth-`depth` basic interval holds one of the
    first N jumps, 3 * 2^(depth-1), which strict trace interleaving needs.
    Depth 1 gives stage one's floor, 2, not that count: the jumps 1/4 and
    1/12 leave [2/3, 1] empty, and covering takes 3. Depth <= 0 gives 1.
    """
    if depth <= 0:
        return 1
    if depth == 1:
        return 2
    return 3 * 2 ** (depth - 1)


class JumpTable(NamedTuple):
    """The first N jumps sorted by location, in ints.

    `locations[j]` is the j-th jump location left to right over `den` (T,
    the lcm of their denominators), and `values[j]` the value of the
    truncated function just left of it over 2^N. `values` has length N+1:
    values[0] = 0 and values[N] = 2^N - 1 is the value right of every jump.
    `index_at[j]` is the canonical index of the jump at sorted position j,
    and `pos_of_index` maps an index back to its position.
    """

    n_jumps: int
    den: int
    locations: list[int]
    values: list[int]
    index_at: list[int]
    pos_of_index: list[int]


@lru_cache(maxsize=None)
def jump_table(n_jumps: int) -> JumpTable:
    """The jump table of the truncated set with the first `n_jumps` jumps.

    Jump m has width 2^-(m+1), which is 2^(N-1-m) over 2^N.
    """
    pts = jump_points(n_jumps)
    order = sorted(range(n_jumps), key=pts.__getitem__)
    den = math.lcm(*(q.denominator for q in pts))
    return JumpTable(
        n_jumps,
        den,
        [pts[m].numerator * (den // pts[m].denominator) for m in order],
        [0, *itertools.accumulate(2 ** (n_jumps - 1 - m) for m in order)],
        order,
        sorted(range(n_jumps), key=order.__getitem__),  # the inverse of order
    )
