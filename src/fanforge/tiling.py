"""Partial tilings of C x R and the recursive stage construction.

Stage 0 is the unit square over the whole Cantor set; stage 1 is a fixed
list of twelve rectangles; stage n >= 2 traces the two boundary verticals of
every depth-n column, pairs the crossing heights by owning copy, and tiles
the complementary strips with uniform stacks of rectangles, placing a scaled
copy of the truncated Debski set in every rectangle.

A build is *strict* by default: the paired crossings must strictly
interleave, and any coincidence raises TruncationTooCoarse (the truncated
function can produce flat crossings that the untruncated one cannot).
A tolerant build accepts degenerate or touching bands as strip boundaries
and skips zero-length strips; it exists so that diagnostics can run at
truncations below the strict threshold, at the documented cost that copy
images may touch.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import sys
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterator

from .debski import JumpTable, jump_table, min_jumps_for_depth
from .exact import (
    Address,
    ZERO,
    ONE,
    addresses_of_length,
    pair_to_str,
    rational_pair,
)
from .errors import (
    IndexOutOfRange,
    InvalidParameter,
    StateSchemaError,
    TraceOutOfRange,
    TruncationTooCoarse,
    UnknownCopy,
)

STATE_SCHEMA = "fanforge-state-v1"


class Rect:
    """B(sigma) x [a, b] with address length equal to its stage. Its bottom
    `a`, top `b` and height `h` = b - a are int pairs (p, q) in lowest terms,
    q > 0, so placing, saving and loading a rect does no Fraction arithmetic;
    `bottom`, `top` and `height` are their Fractions, made when asked for.
    Equality and hashing ignore the height. `Rect(address, bottom, top)`
    takes Fractions, `from_pairs` the pairs; `next_stage` sets the four
    fields of its rects itself, from pairs it has reduced."""

    __slots__ = ("address", "a", "b", "h")

    def __init__(self, address: Address, bottom: Fraction, top: Fraction):
        a, b = (bottom.numerator, bottom.denominator), (top.numerator, top.denominator)
        self.address, self.a, self.b, self.h = address, a, b, self._height(a, b)

    @classmethod
    def from_pairs(cls, address: Address, a: tuple[int, int], b: tuple[int, int]):
        """The rect over `address` from reduced pairs."""
        rect = cls.__new__(cls)
        rect.address, rect.a, rect.b, rect.h = address, a, b, cls._height(a, b)
        return rect

    @staticmethod
    def _height(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        """b - a in lowest terms; ValueError unless a < b. With g = gcd(q, s)
        it is num / (q*s/g), num = r*(q/g) - p*(s/g), where num has no factor
        of q/g or s/g, so only gcd(num, g) cancels (as in Fraction's _sub)."""
        (p, q), (r, s) = a, b
        g = math.gcd(q, s)
        q_g = q // g
        num = r * q_g - p * (s // g)
        if num <= 0:
            raise ValueError(f"rect needs bottom < top, got [{Fraction(p, q)}, {Fraction(r, s)}]")
        g = math.gcd(num, g)
        return (num // g, q_g * (s // g))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return (self.address, self.a, self.b) == (other.address, other.a, other.b)

    def __hash__(self) -> int:
        return hash((self.address, self.bottom, self.top))

    bottom = property(lambda self: Fraction(*self.a))
    top = property(lambda self: Fraction(*self.b))
    height = property(lambda self: Fraction(*self.h))


class PlacedCopy:
    """One scaled copy of the truncated Debski set, filling its rectangle.

    Piece coordinates are computed on demand from the shared jump table, so
    copies stay lightweight no matter how many the build places. The copy
    meets its rectangle's bottom edge exactly along the image of the
    leftmost (zero-value) plateau and stays strictly below the top edge by
    (b - a) * 2^-N, the truncation defect.

    The copy's integer form is its only placement: on a plateau of value
    k / 2^N (k as in `JumpTable.values`) its height a + h*k/2^N is
    (base + step*k) / den, over its state's `den` (ConstructionState), and
    its column's left end is origin / pow3, pow3 = 3^stage
    (`Address.origin`). base and step come from the rect's pairs `a` and `h`
    by integer division; a den that is not a multiple of den(a) and of
    den(h) * 2^N is refused. `fiber`, `jump_global` and `midpoint_global`
    return shared exact values: each plateau height (`exact_height`) and
    each jump midpoint is made a Fraction once, on first use, and kept. They do not depend on `den`, so
    a rescaled copy keeps them.
    """

    __slots__ = (
        "stage", "index", "rect", "table", "den", "base", "step", "origin", "pow3", "_heights", "_midpoints"
    )

    def __init__(self, stage: int, index: int, rect: Rect, table: JumpTable, den: int):
        self.stage = stage
        self.index = index
        self.rect = rect
        self.table = table
        self.pow3 = 3**stage
        (a, a_den), (h, h_den) = rect.a, rect.h
        a_unit, a_rest = divmod(den, a_den)
        h_unit, h_rest = divmod(den, h_den << table.n_jumps)
        if a_rest or h_rest:
            raise InvalidParameter(
                f"copy {stage}:{index}: den {den} is not a multiple of both "
                f"den({rect.bottom}) and den({rect.height}) * 2^{table.n_jumps}"
            )
        self.den = den
        self.base = a * a_unit
        self.step = h * h_unit
        self.origin = rect.address.origin
        self._heights: list[Fraction | None] | None = None  # by value index, made on first use
        self._midpoints: list[tuple[Fraction, Fraction] | None] | None = None  # by sorted position

    @property
    def key(self) -> str:
        return f"{self.stage}:{self.index}"

    def fiber_span(self, c: Fraction) -> tuple[int, int]:
        """The value indices of the fiber over the vertical at c, in ints.

        (k, k) when c meets the plateau of value index k, (k, k+1) when c is
        the jump at sorted position k; the heights are `height(k)`. For
        c = p/q the local position over T, the jump table's denominator, is
        Y/q with Y = (p*3^s - origin*q) * T. The plateau is the number of
        jump locations below Y/q, bisect_left(locations, ceil(Y/q)), and c
        is the jump there exactly when locations[k] = Y/q.
        """
        locations = self.table.locations
        q = c.denominator
        y = (c.numerator * self.pow3 - self.origin * q) * self.table.den
        k = bisect.bisect_left(locations, -(-y // q))
        if k < len(locations) and locations[k] * q == y:
            return (k, k + 1)
        return (k, k)

    def jumps_inside(self, origin: int, n: int) -> range:
        """Sorted positions of the jumps strictly inside the depth-n column
        [origin, origin + 1] / 3^n, which the copy spans."""
        t_den, locations = self.table.den, self.table.locations
        p = 3 ** (n - self.stage)
        offset = origin - p * self.origin  # the column is [offset, offset + 1] / p locally
        lo = bisect.bisect_right(locations, offset * t_den // p)
        return range(lo, bisect.bisect_left(locations, -(-(offset + 1) * t_den // p)))

    def height(self, k: int) -> int:
        """The height over `den` of the plateau with value index k."""
        return self.base + self.step * self.table.values[k]

    def exact_height(self, k: int) -> Fraction:
        """height(k) / den, the plateau of value index k, as a shared Fraction."""
        heights = self._heights
        if heights is None:
            heights = self._heights = [None] * (self.table.n_jumps + 1)
        value = heights[k]
        if value is None:
            value = heights[k] = Fraction(self.height(k), self.den)
        return value

    def fiber(self, c: Fraction) -> tuple[str, Fraction, Fraction]:
        """('point', v, v) or ('segment', low, high) over the vertical at c."""
        lo, hi = self.fiber_span(c)
        kind = "segment" if hi > lo else "point"
        return (kind, self.exact_height(lo), self.exact_height(hi))

    def jump_pos(self, index: int) -> int:
        """The sorted position of jump `index`; IndexOutOfRange outside [0, N)."""
        if not 0 <= index < self.table.n_jumps:
            raise IndexOutOfRange(f"jump index {index} not in [0, {self.table.n_jumps})")
        return self.table.pos_of_index[index]

    def _midpoint(self, pos: int) -> tuple[Fraction, Fraction]:
        """The jump at sorted position pos as a shared global (location,
        midpoint height); IndexOutOfRange outside [0, N)."""
        if not 0 <= pos < self.table.n_jumps:
            raise IndexOutOfRange(f"jump position {pos} not in [0, {self.table.n_jumps})")
        midpoints = self._midpoints
        if midpoints is None:
            midpoints = self._midpoints = [None] * self.table.n_jumps
        point = midpoints[pos]
        if point is None:
            t_den, values = self.table.den, self.table.values
            point = midpoints[pos] = (
                Fraction(self.origin * t_den + self.table.locations[pos], t_den * self.pow3),
                Fraction(2 * self.base + self.step * (values[pos] + values[pos + 1]), 2 * self.den),
            )
        return point

    def jump_global(self, pos: int) -> tuple[Fraction, Fraction, Fraction]:
        """Jump at sorted position pos as global (location, low, high)."""
        return (self._midpoint(pos)[0], self.exact_height(pos), self.exact_height(pos + 1))

    def midpoint_global(self, index: int) -> tuple[Fraction, Fraction]:
        """The midpoint of jump `index` as global (location, height)."""
        return self._midpoint(self.jump_pos(index))

    def midpoints_global(self, positions: range) -> list[tuple[Fraction, Fraction]]:
        """The midpoints of the jumps at the sorted positions `positions`, a
        subrange of [0, N), in jump-index order."""
        return [self._midpoint(pos) for pos in sorted(positions, key=self.table.index_at.__getitem__)]


class TilingStage:
    """One stage: its placed copies, in order."""

    __slots__ = ("n", "copies")

    def __init__(self, n: int, copies: list[PlacedCopy]):
        self.n, self.copies = n, copies

    @property
    def rects(self) -> list[Rect]:
        return [copy.rect for copy in self.copies]


class ConstructionState:
    """Stages 0..K with all placed copies; a pure function of (K, N, strict).

    `stages` lists each stage's `TilingStage` of placed copies, stage 0
    first; the constructor takes each stage's rects, whose addresses must
    be as long as their stage number. Copy ids number the copies stage by
    stage. The builder grows one state a stage at a time through
    `add_stage`, where a state's copies are placed. `to_json` writes the
    state document.

    `den`, the state's one height scale, is the lcm over its rects of
    lcm(den a, den h * 2^N) (bottom a, height h). Every copy's integer form
    is over it (PlacedCopy), so any two heights compare as ints.

    `query_index` holds the column index of the point queries (`query`),
    built on the first of them and dropped by `add_stage`;
    `ids_at_address` keeps id order, which the column walks rely on.
    """

    def __init__(self, depth: int, n_jumps: int, strict: bool, stages: list[list[Rect]]):
        self.depth = depth
        self.n_jumps = n_jumps
        self.strict = strict
        self.table = jump_table(n_jumps)
        self.den = 1
        self.stages: list[TilingStage] = []
        self.copies: list[PlacedCopy] = []
        self._by_address: dict[tuple[int, ...], list[int]] = {}
        self.query_index: dict | None = None
        for rects in stages:
            self.add_stage(rects)

    def add_stage(self, rects: list[Rect]) -> None:
        """Append the next stage n, placing, numbering and indexing its
        copies; InvalidParameter, with the state unchanged, for a rect whose
        address is not n long. Where its rects widen `den`, every placed copy
        is scaled to it."""
        n = len(self.stages)
        for i, rect in enumerate(rects):
            if len(rect.address.bits) != n:
                address = rect.address
                raise InvalidParameter(f"rect {i} of stage {n} has address '{address}' of length {len(address.bits)}")
        self.query_index = None
        den = math.lcm(self.den, *{r.a[1] for r in rects}, *{r.h[1] << self.n_jumps for r in rects})
        unit = den // self.den
        for copy in self.copies:
            copy.den, copy.base, copy.step = den, copy.base * unit, copy.step * unit
        self.den = den
        stage = TilingStage(n, [PlacedCopy(n, i, r, self.table, den) for i, r in enumerate(rects)])
        self.stages.append(stage)
        for copy in stage.copies:
            self._by_address.setdefault(copy.rect.address.bits, []).append(len(self.copies))
            self.copies.append(copy)

    @property
    def range_low(self) -> Fraction:
        return Fraction(-self.depth)

    @property
    def range_high(self) -> Fraction:
        return Fraction(self.depth + 1)

    def copy_at(self, cid: int) -> PlacedCopy:
        """The copy with id cid; UnknownCopy outside [0, len(copies)), so
        a negative id never counts from the end."""
        if not 0 <= cid < len(self.copies):
            raise UnknownCopy(f"no copy with id {cid}")
        return self.copies[cid]

    def ids_at_address(self, bits: tuple[int, ...]) -> list[int]:
        return self._by_address.get(bits, [])

    def chain_ids(self, sigma: Address) -> list[int]:
        """Ids of copies whose column contains B(sigma), increasing."""
        bits = sigma.bits
        return [cid for length in range(len(bits) + 1) for cid in self.ids_at_address(bits[:length])]

    def to_json(self) -> str:
        """The state document, written in one pass: the bytes of
        `json.dumps(doc, sort_keys=True, separators=(",", ":"))` and a
        newline. Keys are written in sorted order, and no value needs
        escaping: addresses are 0/1 words and bounds "p/q" texts. Each
        rect is one template filled from its bounds' texts, made once per
        distinct pair (the rects share most of their bounds)."""
        text = cache(pair_to_str)
        rect = '{"a":"%s","address":"%s","b":"%s"}'
        stages = ",".join(
            '{"n":%d,"rects":[%s]}'
            % (st.n, ",".join([rect % (text(c.rect.a), c.rect.address, text(c.rect.b)) for c in st.copies]))
            for st in self.stages
        )
        return '{"depth":%d,"jumps":%d,"schema":"%s","stages":[%s],"strict":%s}\n' % (
            self.depth, self.n_jumps, STATE_SCHEMA, stages, json.dumps(self.strict)
        )


class ColumnSweep:
    """One depth-n column, n = len(sigma), against its copies, in integers.

    Every such copy spans the whole column, so it crosses each vertical in
    one height, except at its own jumps strictly inside the column (the
    column endpoints are Cantor endpoints, never jump locations). Heights
    are read from the copies' integer forms as they are, ints over the
    state's `den` (PlacedCopy): on its plateau of value k/2^N a copy
    crosses at base + step*k. `first` and `last` hold the crossings at the
    column's left and right ends. Breakpoints are ints over T * 3^n, T the
    jump table's denominator, and are found only when first asked for.
    Per-copy lists are indexed by the copy's place in `ids`. By default
    `ids` lists every copy whose address is a prefix of sigma, increasing
    (the length-s prefix holds the stage-s copies, numbered stage by
    stage), so ties break as they would by copy id. `region_between`
    passes the ids of its two copies, each spanning the column, and reads
    their order from `adjacent_order` and `pair_gaps`.

    Two ways through the column answer the same questions. `pair_gaps`
    merges each adjacent pair of a strict initial order once, and
    returns None when a pair meets: where no adjacent pair meets, no pair
    does, and the order holds across the column. `gaps` walks every cell
    and finds every meeting pair; it is the way through a column where
    copies meet, and the cross-check of the other.
    """

    def __init__(self, state: ConstructionState, sigma: Address, ids: list[int] | None = None):
        t_den, values = state.table.den, state.table.values
        scale = 2**state.n_jumps
        self.n = n = len(sigma)
        self.table = state.table
        self.ids = state.chain_ids(sigma) if ids is None else ids
        origin = sigma.origin  # the column's left end is origin / 3^n
        self.stages: list[int] = []
        self.bottoms: list[int] = []
        self.tops: list[int] = []
        self.first: list[int] = []  # crossing heights at the column's left end
        self.last: list[int] = []  # and at its right end
        # per copy: its jump positions inside the column, p, origin * T, base, step
        self._inside: list[tuple[range, int, int, int, int]] = []
        for cid in self.ids:
            copy = state.copies[cid]
            inside = copy.jumps_inside(origin, n)
            self.stages.append(copy.stage)
            self.bottoms.append(copy.base)
            self.tops.append(copy.base + copy.step * scale)
            self.first.append(copy.base + copy.step * values[inside.start])
            self.last.append(copy.base + copy.step * values[inside.stop])
            self._inside.append((inside, 3 ** (n - copy.stage), copy.origin * t_den, copy.base, copy.step))

    @cached_property
    def events(self) -> dict[int, list[tuple[int, int]]]:
        """Breakpoint -> (place in ids, crossing just after it) per jumping copy."""
        locations, values = self.table.locations, self.table.values
        events: dict[int, list[tuple[int, int]]] = {}
        for i, (positions, p, origin, base, step) in enumerate(self._inside):
            for pos in positions:
                events.setdefault(p * (origin + locations[pos]), []).append(
                    (i, base + step * values[pos + 1])
                )
        return events

    @cached_property
    def breakpoints(self) -> list[int]:
        return sorted(self.events)

    def jumps(self, i: int) -> range:
        """The sorted positions of the jumps of the copy at place i inside
        the column (`jumps_inside`), one per breakpoint of the copy there."""
        return self._inside[i][0]

    def adjacent_order(self) -> list[int] | None:
        """The places in `ids`, bottom to top by their crossings at the
        column's left end; None when the column is empty or two of those
        crossings tie."""
        first = self.first
        order = sorted(range(len(first)), key=first.__getitem__)
        if not order or any(first[a] == first[b] for a, b in zip(order, order[1:])):
            return None
        return order

    def pair_gaps(self, order: list[int], widest: int) -> tuple[int, int] | None:
        """(gaps, widest) between the adjacent copies of `order`, a strict
        `adjacent_order()`, without the walk; None when an adjacent pair
        meets, and the column needs `gaps()`.

        A copy is a nondecreasing step function, so a lower copy l and the
        copy u above it meet exactly where l's height just after a
        breakpoint is >= u's height just before it. When no adjacent pair
        meets, no pair does: for l below m below u, l's fiber at a
        breakpoint ends below m's, which ends below where u's begins
        (l1 < m0 <= m1 < u0), so the order never changes. Then each
        adjacent pair bounds one gap that `gaps()` reports once at the
        left end and once per distinct breakpoint of the two copies; that
        count is `gaps`. The gap u - l is widest at the left end or just
        after one of u's breakpoints, and `widest` is the largest such gap
        or the given one. Only l's plateaus that reach first[u] can meet
        u, and only u's plateaus above widest + first[l] can widen, so a
        pair with last[l] < first[u] and last[u] - first[l] <= widest
        needs no merge. In one column each stage's copies share one
        address, so breakpoints and their union counts are kept per stage.
        """
        locations, values = self.table.locations, self.table.values
        first, last, inside, stages = self.first, self.last, self._inside, self.stages
        xs: dict[int, list[int]] = {}
        unions: dict[tuple[int, int], int] = {}

        def breakpoints(i: int) -> list[int]:
            s = stages[i]
            if s not in xs:
                positions, p, origin, _, _ = inside[i]
                xs[s] = [p * (origin + x) for x in locations[positions.start : positions.stop]]
            return xs[s]

        gaps = 0
        for low, up in zip(order, order[1:]):
            a, b = breakpoints(low), breakpoints(up)
            key = (stages[low], stages[up])
            if key not in unions:
                unions[key] = len(a) if a is b else len(set(a).union(b))
            gaps += 1 + unions[key]
            span_l, _, _, base_l, step_l = inside[low]
            span_u, _, _, base_u, step_u = inside[up]
            start_l, start_u = span_l.start, span_u.start
            if last[low] >= first[up]:
                # l's plateau v follows its breakpoint a[v - start_l - 1]
                k = bisect.bisect_left(values, -(-(first[up] - base_l) // step_l), start_l + 1, span_l.stop + 1)
                for v in range(k, span_l.stop + 1):
                    before = values[start_u + bisect.bisect_left(b, a[v - start_l - 1])]
                    if base_l + step_l * values[v] >= base_u + step_u * before:
                        return None
            if last[up] - first[low] > widest:
                widest = max(widest, first[up] - first[low])
                k = bisect.bisect_right(values, (widest + first[low] - base_u) // step_u, start_u + 1, span_u.stop + 1)
                for v in range(k, span_u.stop + 1):
                    under = values[start_l + bisect.bisect_right(a, b[v - start_u - 1])]
                    widest = max(widest, base_u + step_u * values[v] - base_l - step_l * under)
        return gaps, widest

    def gaps(self) -> Iterator[int]:
        """Each maximal vertical gap once, left to right, as its place g.

        The place index holds the cell's crossings in increasing order:
        `hs[p]` is the height at place p, `order[p]` the copy's place in
        `ids` (ties break by it). Gap g lies between places g - 1 and g, -1
        and len(ids) standing for the range boundary; read `hs` and `order`
        when g is yielded. A gap is reported when it first appears, in the
        initial cell or beside a crossing that has just jumped.

        On the way it collects in `meeting` every pair of copy ids whose
        fibers share a Cantor point of the column. Between breakpoints the
        fibers meet exactly in groups of equal crossings. At a breakpoint a
        jumper's fiber [old, new] meets every crossing whose height lies in
        it, found by walking up `hs` from the jumper's place (`pos`) while
        the batch's other jumpers still sit at their old heights, so two
        overlapping jumps are caught from the lower one. A pair level after
        a breakpoint meets at it too, so no pair is missed (Bentley &
        Ottmann, 1979). A jumper that meets nothing lands below the next
        place's old height, so only a batch with a meeting is re-sorted.
        """
        self.order = sorted(range(len(self.ids)), key=self.first.__getitem__)
        self.hs = [self.first[i] for i in self.order]
        self.meeting: set[tuple[int, int]] = set()
        return self._walk(self.hs, self.order, self.meeting)

    def _walk(self, hs: list[int], order: list[int], meeting: set[tuple[int, int]]) -> Iterator[int]:
        ids, events = self.ids, self.events
        m = len(hs)
        pos = sorted(range(m), key=order.__getitem__)  # the inverse of order
        for _, level in itertools.groupby(order, key=self.first.__getitem__):
            meeting.update(itertools.combinations([ids[i] for i in level], 2))
        yield from range(m + 1)
        reported = [-1] * (m + 1)  # per gap, the last batch that reported it
        for b, c in enumerate(self.breakpoints):
            batch = events[c]
            met = False
            for i, new in batch:
                k = pos[i]
                while k + 1 < m and hs[k + 1] <= new:
                    k += 1
                    a, o = ids[i], ids[order[k]]
                    meeting.add((a, o) if a < o else (o, a))
                    met = True
            for i, new in batch:
                hs[pos[i]] = new
            if met:
                hs[:], order[:] = zip(*sorted(zip(hs, order)))
                pos = sorted(range(m), key=order.__getitem__)
            for i, _ in batch:
                p = pos[i]
                for g in (p, p + 1):
                    if reported[g] != b:
                        reported[g] = b
                        yield g

def stage_zero() -> list[Rect]:
    """The single rectangle C x [0, 1], which carries the identity copy."""
    return [Rect(Address(), ZERO, ONE)]


def stage_one(n_jumps: int) -> list[Rect]:
    """Four split rectangles over the two halves plus the eight outer ones."""
    if n_jumps < 2:
        raise ValueError("stage one needs at least two jumps")
    table = jump_table(n_jumps)
    t_den, locations, values = table.den, table.locations, table.values
    # f(k/3) sums the jumps at the locations x / T < k/3, the ints x < ceil(kT/3)
    f13, f23 = (Fraction(values[bisect.bisect_left(locations, -(-k * t_den // 3))], 2**n_jumps) for k in (1, 2))
    a0, a1 = Address((0,)), Address((1,))
    rects = [
        Rect(a0, (f13 + 1) / 2, ONE),
        Rect(a0, f13, (f13 + 1) / 2),
        Rect(a1, f23 / 2, f23),
        Rect(a1, ZERO, f23 / 2),
    ]
    for sigma in (a0, a1):
        for a in (Fraction(-1), Fraction(-1, 2), Fraction(1), Fraction(3, 2)):
            rects.append(Rect(sigma, a, a + Fraction(1, 2)))
    return rects


def next_stage(state: ConstructionState) -> list[Rect]:
    """The rects of stage n = len(state.stages) >= 2: sweep, pair, and tile
    every depth-n column.

    Each earlier copy spans the column as the band from its left-end
    crossing to its right-end crossing (ColumnSweep's `first` and
    `last`, ints over the state's `den`). Strips are subdivided
    uniformly into ceil(length * (n+1)) pieces, which pins every new
    height at most 1/(n+1). A strip of `count` pieces has its ends as
    ints over den * count, each reduced by one gcd, and one height pair,
    which its rects share.
    """
    n, den = len(state.stages), state.den
    gcd, new = math.gcd, Rect.__new__
    rects: list[Rect] = []
    for sigma in addresses_of_length(n):
        col = ColumnSweep(state, sigma)
        for x, y in zip(col.first, col.last):
            if not ((1 - n) * den <= x <= y <= n * den):
                raise TraceOutOfRange(
                    f"trace outside [-n+1, n] at stage {n}, column {sigma}: "
                    f"{Fraction(x, den)}, {Fraction(y, den)}"
                )
        bands = sorted(zip(col.first, col.last, col.ids))
        prev_y: int | None = None
        for x, y, cid in bands:
            detail = None
            if state.strict and not (x < y and (prev_y is None or prev_y < x)):
                band = f"[{Fraction(x, den)}, {Fraction(y, den)}]"
                detail = f"trace band {band} of copy {state.copies[cid].key} breaks strict interleaving"
            elif prev_y is not None and prev_y > x:
                detail = f"trace bands overlap at copy {state.copies[cid].key}"
            if detail:
                raise TruncationTooCoarse(str(sigma), n, min_jumps_for_depth(state.depth), detail)
            prev_y = y
        lows = [-n * den, *(y for _, y, _ in bands)]
        highs = [*(x for x, _, _ in bands), (n + 1) * den]
        for s_lo, s_hi in zip(lows, highs):
            length = s_hi - s_lo
            if length <= 0:
                continue  # tolerant mode: touching bands leave empty strips
            count = -(-length * (n + 1) // den)
            whole = den * count  # each end is an int over whole, each height length / whole
            g = gcd(length, whole)
            height = (length // g, whole // g)
            ends = [(e // (g := gcd(e, whole)), whole // g) for e in range(s_lo * count, s_hi * count + 1, length)]
            for lo, hi in zip(ends, ends[1:]):
                rect = new(Rect)
                rect.address, rect.a, rect.b, rect.h = sigma, lo, hi, height
                rects.append(rect)
    return rects


def _too_many_jumps(n_jumps: int) -> str | None:
    """Why a state of n_jumps jumps could not be reported, or None, from N
    alone, before any table is made: its `den` is a multiple of 2^N, so N
    is refused unless 2^N < 10^digits (`_too_wide`)."""
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    limit = (10**digits).bit_length() - 1
    if not digits or n_jumps <= limit:
        return None
    return (
        f"{n_jumps} jumps exceed the limit of {limit}: 2^N would have more than "
        f"{digits} decimal digits, the interpreter's int-to-str limit"
    )


def _too_wide(state: ConstructionState) -> str | None:
    """Why the state's reports could not be written, or None. `verify`,
    `trace` and the state file write rationals in [-(2K+1), 2K+1] over
    divisors of `den`, so ints below (2K+1) * den, and the interpreter
    writes an int only below 10^digits (no limit where digits is 0)."""
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not digits or (2 * state.depth + 1) * state.den < 10**digits:
        return None
    return (
        f"{state.n_jumps} jumps at depth {state.depth} put heights over a {state.den.bit_length()}-bit "
        f"denominator: reports would write ints of more than {digits} decimal digits, the int-to-str limit"
    )


def build(depth: int, n_jumps: int, strict: bool = True) -> ConstructionState:
    """Build stages 0..depth; deterministic in (depth, n_jumps, strict).
    A state whose reports could not be written (`_too_many_jumps`, then
    `_too_wide` at each stage) is refused with InvalidParameter."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    floor = 2 if depth >= 1 else 1
    if n_jumps < floor:
        raise ValueError(f"depth {depth} needs at least {floor} jumps")
    if reason := _too_many_jumps(n_jumps):
        raise InvalidParameter(reason)
    state = ConstructionState(depth, n_jumps, strict, [stage_zero()])
    while True:
        if reason := _too_wide(state):
            raise InvalidParameter(reason)
        if len(state.stages) > depth:
            return state
        state.add_stage(stage_one(n_jumps) if len(state.stages) == 1 else next_stage(state))


def save_state(state: ConstructionState, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state.to_json())


def _require(obj: dict, key: str, location: str, kind: type):
    """obj[key], which must exist and be of JSON type `kind` (bools are not ints)."""
    if not isinstance(obj, dict):
        raise StateSchemaError("expected an object", location)
    if key not in obj:
        raise StateSchemaError(f"missing key {key!r}", location)
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise StateSchemaError(
            f"{key!r} must be {kind.__name__}, got {type(value).__name__}", f"{location}.{key}"
        )
    return value


def load_state(path: str) -> ConstructionState:
    """Load a fanforge-state-v1 document; copy images are recomputed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StateSchemaError(f"cannot read state file: {exc.strerror or exc}", path) from exc
    except UnicodeDecodeError as exc:
        raise StateSchemaError(f"not UTF-8: {exc}", path) from exc
    except json.JSONDecodeError as exc:
        raise StateSchemaError(f"not valid JSON: {exc}", path) from exc
    except RecursionError as exc:
        raise StateSchemaError(f"JSON nested too deeply: {exc}", path) from exc
    return state_from_json_obj(doc, location=path)


def state_from_json_obj(doc: dict, location: str = "<state>") -> ConstructionState:
    """The state of a fanforge-state-v1 document. The stacked rects share
    most of their texts, so each distinct address and rational text is
    parsed once per load, a rational into one reduced pair that its rects
    share, into caches dropped when it returns. A rect object of three good
    texts takes one type test and three lookups; any other rect is checked
    field by field, to say what is wrong."""
    if not isinstance(doc, dict):
        raise StateSchemaError("state document must be an object", location)
    schema = _require(doc, "schema", location, str)
    if schema != STATE_SCHEMA:
        raise StateSchemaError(f"unknown schema {schema!r}", f"{location}.schema")
    depth = _require(doc, "depth", location, int)
    n_jumps = _require(doc, "jumps", location, int)
    strict = _require(doc, "strict", location, bool)
    stages_doc = _require(doc, "stages", location, list)
    if depth < 0 or n_jumps < 1:
        raise StateSchemaError(f"needs depth >= 0 and jumps >= 1, got {depth}, {n_jumps}", location)
    if reason := _too_many_jumps(n_jumps):
        raise StateSchemaError(reason, f"{location}.jumps")
    if len(stages_doc) != depth + 1:
        raise StateSchemaError("stages must list exactly depth+1 entries", f"{location}.stages")
    address_of = cache(Address.parse)  # a text that does not parse raises, uncached
    pair_of = cache(rational_pair)
    stages: list[list[Rect]] = []
    for si, st in enumerate(stages_doc):
        loc = f"{location}.stages[{si}]"
        n = _require(st, "n", loc, int)
        if n != si:
            raise StateSchemaError(f"stage {si} labeled {n}", loc)
        rects = []
        for ri, rd in enumerate(_require(st, "rects", loc, list)):
            rect = None
            if type(rd) is dict:
                try:
                    rect = Rect.from_pairs(address_of(rd["address"]), pair_of(rd["a"]), pair_of(rd["b"]))
                except (KeyError, TypeError, ValueError):
                    pass
            if rect is None:
                rloc = f"{loc}.rects[{ri}]"
                texts = [_require(rd, key, rloc, str) for key in ("address", "a", "b")]
                try:
                    rect = Rect.from_pairs(address_of(texts[0]), pair_of(texts[1]), pair_of(texts[2]))
                except ValueError as exc:
                    raise StateSchemaError(str(exc), rloc) from exc
            if len(rect.address.bits) != n:
                raise StateSchemaError(f"address length {len(rect.address.bits)} at stage {n}", f"{loc}.rects[{ri}]")
            rects.append(rect)
        stages.append(rects)
    state = ConstructionState(depth, n_jumps, strict, stages)
    if reason := _too_wide(state):
        raise StateSchemaError(reason, f"{location}.jumps")
    return state


def __getattr__(name: str):
    """`vertical_trace`, which lives in `query`, still reads as this
    module's (PEP 562); the first read binds it here."""
    if name == "vertical_trace":
        from .query import vertical_trace

        globals()[name] = vertical_trace
        return vertical_trace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
