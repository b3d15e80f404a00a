"""The truncated Debski step function and its graph-plus-jumps set.

The function is the monotone pure-jump map on the Cantor set with jump
2^-(n+1) at the n-th member of a canonical dense sequence of non-endpoints.
A truncation keeps the first N jumps; the resulting set is a finite union of
horizontal plateau pieces and closed vertical jump segments, all with exact
rational coordinates.

Plateau pieces are stored as *closed* c-intervals. The extra endpoints this
adds coincide with jump-segment endpoints of the same set, so the union of
pieces equals the true point set exactly; it also makes every piece-vs-piece
intersection a pure rational-interval predicate.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .exact import (
    ZERO,
    ONE,
    addresses_length_lex,
    cantor_member,
    endpoint_zero,
    locate,
    rational_to_str,
)
from .errors import AtJumpLocation, IndexOutOfRange, NotInCantor


def _quarter_points() -> Iterator[Fraction]:
    """The canonical sequence, without end: 0(sigma) + (1/4) 3^-|sigma| over
    the addresses in length-lex order, each value at its first proposal."""
    seen: set[Fraction] = set()
    for sigma in addresses_length_lex():
        v = endpoint_zero(sigma) + Fraction(1, 4 * 3 ** len(sigma))
        if v not in seen:
            seen.add(v)
            yield v


@lru_cache(maxsize=None)
def _jump_points_cached(n_jumps: int) -> tuple[Fraction, ...]:
    return tuple(itertools.islice(_quarter_points(), n_jumps))


def jump_points(n_jumps: int) -> list[Fraction]:
    """First `n_jumps` members of the canonical dense non-endpoint sequence.

    Enumerate addresses in length-lex order, propose the quarter-offset point
    0(sigma) + (1/4) 3^-|sigma| of each basic interval, and skip proposals
    equal to an earlier accepted value. Quarter-offset points have ternary
    tail 0202..., so they are always non-endpoint members of C.
    """
    if n_jumps < 1:
        raise ValueError("n_jumps must be >= 1")
    return list(_jump_points_cached(n_jumps))


@lru_cache(maxsize=None)
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
    missing = set(itertools.product((0, 1), repeat=depth))
    for count, v in enumerate(_quarter_points(), 1):
        missing.discard(locate(v, depth).bits)
        if not missing:
            return count


@dataclass(frozen=True)
class Jump:
    """One jump: index in the canonical sequence, location, and [low, high]."""

    index: int
    location: Fraction
    low: Fraction
    high: Fraction

    @property
    def width(self) -> Fraction:
        return self.high - self.low

    @property
    def midpoint(self) -> Fraction:
        return (self.low + self.high) / 2


class JumpTable:
    """The first N jumps, sorted by location, with cumulative jump mass.

    `locations[j]` is the j-th jump location left to right, `values[j]` the
    constant value of the truncated function just left of it; `values` has
    length N+1 and `values[N]` = 1 - 2^-N is the value right of every jump.
    """

    def __init__(self, n_jumps: int):
        if n_jumps < 1:
            raise ValueError("n_jumps must be >= 1")
        pts = jump_points(n_jumps)
        order = sorted(range(n_jumps), key=lambda m: pts[m])
        self.n_jumps = n_jumps
        self.locations: list[Fraction] = [pts[m] for m in order]
        self.index_at: list[int] = order
        self.values: list[Fraction] = [ZERO]
        for m in order:
            self.values.append(self.values[-1] + Fraction(1, 2 ** (m + 1)))
        self.pos_of_index = {m: j for j, m in enumerate(order)}

    def jump_at_pos(self, pos: int) -> Jump:
        return Jump(self.index_at[pos], self.locations[pos], self.values[pos], self.values[pos + 1])

    def jump_by_index(self, index: int) -> Jump:
        if not 0 <= index < self.n_jumps:
            raise IndexOutOfRange(f"jump index {index} not in [0, {self.n_jumps})")
        return self.jump_at_pos(self.pos_of_index[index])

    def jumps(self) -> list[Jump]:
        return [self.jump_at_pos(j) for j in range(self.n_jumps)]

    def value_left_of(self, c: Fraction) -> Fraction:
        """Value of the truncated function at c when c is not a jump location."""
        i = bisect.bisect_left(self.locations, c)
        return self.values[i]

    def pos_if_jump(self, c: Fraction) -> int | None:
        i = bisect.bisect_left(self.locations, c)
        if i < self.n_jumps and self.locations[i] == c:
            return i
        return None


@dataclass(frozen=True)
class Plateau:
    """A maximal horizontal piece: constant value over a closed c-interval."""

    left: Fraction
    right: Fraction
    value: Fraction


class DebskiSet:
    """The truncated set: N closed jump segments plus N+1 plateau pieces."""

    def __init__(self, n_jumps: int):
        self.n_jumps = n_jumps
        self.table = JumpTable(n_jumps)
        t = self.table
        bounds = [ZERO] + t.locations + [ONE]
        self.plateaus: list[Plateau] = [
            Plateau(bounds[j], bounds[j + 1], t.values[j]) for j in range(n_jumps + 1)
        ]

    @property
    def max_value(self) -> Fraction:
        return self.table.values[-1]

    def coverage_gap(self) -> Fraction:
        """Length of [0,1] missed by the vertical projection of the set."""
        return ONE - self.max_value

    def fiber(self, c: Fraction) -> tuple[str, Fraction, Fraction]:
        """Intersection with the vertical line at c (c must be in C).

        Returns ("point", v, v) or ("segment", low, high).
        """
        pos = self.table.pos_if_jump(c)
        if pos is not None:
            j = self.table.jump_at_pos(pos)
            return ("segment", j.low, j.high)
        v = self.table.value_left_of(c)
        return ("point", v, v)

    def to_json_obj(self) -> dict:
        return {
            "N": self.n_jumps,
            "jumps": [
                {
                    "n": j.index,
                    "d": rational_to_str(j.location),
                    "r": rational_to_str(j.low),
                    "s": rational_to_str(j.high),
                }
                for j in self.table.jumps()
            ],
            "plateaus": [
                {
                    "left": rational_to_str(p.left),
                    "right": rational_to_str(p.right),
                    "value": rational_to_str(p.value),
                }
                for p in self.plateaus
            ],
        }


@lru_cache(maxsize=None)
def build_D(n_jumps: int) -> DebskiSet:
    """The truncated Debski set with the first `n_jumps` jumps realized."""
    if n_jumps < 1:
        raise ValueError("n_jumps must be >= 1")
    return DebskiSet(n_jumps)


@lru_cache(maxsize=None)
def integer_table(n_jumps: int) -> tuple[int, list[int], list[int]]:
    """(T, T * locations, 2^N * values) of the jump table, all ints."""
    table = build_D(n_jumps).table
    den = math.lcm(*(q.denominator for q in table.locations))
    scale = 2**n_jumps
    return (
        den,
        [q.numerator * (den // q.denominator) for q in table.locations],
        [v.numerator * (scale // v.denominator) for v in table.values],
    )


def f_value(c: Fraction, n_jumps: int) -> Fraction:
    """Truncated function value: sum of 2^-(n+1) over jumps n with d_n < c.

    Raises AtJumpLocation when c is itself a jump location; use
    jump_interval there instead.
    """
    if not (0 <= c <= 1) or not cantor_member(c):
        raise NotInCantor(f"{c} is not in the Cantor set")
    table = build_D(n_jumps).table
    pos = table.pos_if_jump(c)
    if pos is not None:
        raise AtJumpLocation(f"{c} is jump {table.index_at[pos]}; use jump_interval")
    return table.value_left_of(c)


def jump_interval(n: int, n_jumps: int) -> tuple[Fraction, Fraction]:
    """(r_n, s_n): the value interval of jump n; s_n - r_n = 2^-(n+1)."""
    j = build_D(n_jumps).table.jump_by_index(n)
    return (j.low, j.high)


def classify_point(dset: DebskiSet, point: tuple[Fraction, Fraction]) -> str:
    """'below' / 'on' / 'above' relative to the truncated set."""
    c, h = point
    if not (0 <= c <= 1) or not cantor_member(c):
        raise NotInCantor(f"{c} is not in the Cantor set")
    kind, lo, hi = dset.fiber(c)
    if lo <= h <= hi:
        return "on"
    return "below" if h < lo else "above"


def midpoints(n_jumps: int) -> list[tuple[Fraction, Fraction]]:
    """Centers of the jump segments, listed by jump index."""
    table = build_D(n_jumps).table
    return [
        (j.location, j.midpoint) for j in (table.jump_by_index(m) for m in range(n_jumps))
    ]


@dataclass(frozen=True)
class EClosure:
    """Closure of the graph: the plateau pieces with the jump end points."""

    n_jumps: int
    plateaus: tuple[Plateau, ...]
    jump_bottoms: tuple[tuple[Fraction, Fraction], ...]
    jump_tops: tuple[tuple[Fraction, Fraction], ...]


def graph_closure_E(n_jumps: int) -> EClosure:
    """The truncated set minus the open parts of its jump segments.

    With closed plateau pieces the jump bottom and top points are exactly
    the shared plateau endpoints, so the union of plateaus *is* the closure.
    """
    dset = build_D(n_jumps)
    jumps = dset.table.jumps()
    return EClosure(
        n_jumps,
        tuple(dset.plateaus),
        tuple((j.location, j.low) for j in jumps),
        tuple((j.location, j.high) for j in jumps),
    )
