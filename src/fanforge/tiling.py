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
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .debski import DebskiSet, build_D, integer_table, min_jumps_for_depth
from .exact import (
    Address,
    ZERO,
    ONE,
    addresses_of_length,
    cantor_member,
    endpoint_one,
    endpoint_zero,
    locate,
    rational_from_str,
    rational_to_str,
)
from .errors import (
    JumpHit,
    NotInCantor,
    StageOrderViolation,
    StateSchemaError,
    TraceOutOfRange,
    TruncationTooCoarse,
)

STATE_SCHEMA = "fanforge-state-v1"


@dataclass(frozen=True)
class Rect:
    """B(sigma) x [a, b] with address length equal to its stage."""

    address: Address
    bottom: Fraction
    top: Fraction

    def __post_init__(self) -> None:
        if not self.bottom < self.top:
            raise ValueError(f"rect needs bottom < top, got [{self.bottom}, {self.top}]")

    @property
    def height(self) -> Fraction:
        return self.top - self.bottom

    @property
    def left(self) -> Fraction:
        return endpoint_zero(self.address)

    @property
    def right(self) -> Fraction:
        return endpoint_one(self.address)


class PlacedCopy:
    """One scaled copy of the truncated Debski set, filling its rectangle.

    Piece coordinates are computed on demand from the shared jump table, so
    copies stay lightweight no matter how many the build places. The copy
    meets its rectangle's bottom edge exactly along the image of the
    leftmost (zero-value) plateau and stays strictly below the top edge by
    (b - a) * 2^-N, the truncation defect.

    The copy's integer form: on a plateau of value k / 2^N (k as in
    `integer_table`) its height a + h*k/2^N is (base + step*k) / den, over
    the copy's own den = lcm(den a, den h * 2^N), and its column's left end
    is origin / 3^stage.
    """

    __slots__ = (
        "stage", "index", "rect", "dset", "den", "base", "step", "origin",
        "_x0", "_x1", "_pow3", "_a", "_h", "_top",
    )

    def __init__(self, stage: int, index: int, rect: Rect, dset: DebskiSet):
        self.stage = stage
        self.index = index
        self.rect = rect
        self.dset = dset
        self._x0 = rect.left
        self._x1 = rect.right
        self._pow3 = 3 ** stage
        self._a = a = rect.bottom
        self._h = h = rect.top - rect.bottom
        self._top = a + h * dset.max_value
        scale = 2**dset.n_jumps
        self.den = den = math.lcm(a.denominator, h.denominator * scale)
        self.base = a.numerator * (den // a.denominator)
        self.step = h.numerator * (den // (h.denominator * scale))
        self.origin = self._x0.numerator * (self._pow3 // self._x0.denominator)

    @property
    def key(self) -> str:
        return f"{self.stage}:{self.index}"

    @property
    def max_height(self) -> Fraction:
        """Largest second coordinate on the copy: a + (b-a)(1 - 2^-N) < b."""
        return self._top

    @property
    def col_left(self) -> Fraction:
        return self._x0

    @property
    def col_right(self) -> Fraction:
        return self._x1

    def spans(self, c: Fraction) -> bool:
        return self._x0 <= c <= self._x1

    def to_local_c(self, c: Fraction) -> Fraction:
        return (c - self._x0) * self._pow3

    def to_global_c(self, local: Fraction) -> Fraction:
        return self._x0 + local / self._pow3

    def to_local_h(self, h: Fraction) -> Fraction:
        return (h - self._a) / self._h

    def to_global_h(self, local: Fraction) -> Fraction:
        return self._a + self._h * local

    def fiber(self, c: Fraction) -> tuple[str, Fraction, Fraction]:
        """('point', v, v) or ('segment', low, high) over the vertical at c."""
        kind, lo, hi = self.dset.fiber(self.to_local_c(c))
        return (kind, self.to_global_h(lo), self.to_global_h(hi))

    def trace_at(self, c: Fraction) -> Fraction:
        kind, lo, hi = self.fiber(c)
        if kind == "segment":
            raise JumpHit(f"column {c} is a jump location of copy {self.key}")
        return lo

    def classify(self, point: tuple[Fraction, Fraction]) -> str:
        c, h = point
        kind, lo, hi = self.fiber(c)
        if lo <= h <= hi:
            return "on"
        return "below" if h < lo else "above"

    def jump_global(self, pos: int) -> tuple[Fraction, Fraction, Fraction]:
        """Jump at sorted position pos as global (location, low, high)."""
        t = self.dset.table
        return (
            self.to_global_c(t.locations[pos]),
            self.to_global_h(t.values[pos]),
            self.to_global_h(t.values[pos + 1]),
        )

    def jumps_global(self) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
        for pos in range(self.dset.n_jumps):
            yield self.jump_global(pos)

    def plateau_global(self, j: int) -> tuple[Fraction, Fraction, Fraction]:
        """Plateau j as global (left, right, value)."""
        p = self.dset.plateaus[j]
        return (self.to_global_c(p.left), self.to_global_c(p.right), self.to_global_h(p.value))

    def plateaus_global(self) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
        for j in range(self.dset.n_jumps + 1):
            yield self.plateau_global(j)

    def jump_positions_between(self, c_lo: Fraction, c_hi: Fraction) -> range:
        """Sorted positions of jumps with location strictly inside (c_lo, c_hi)."""
        t = self.dset.table
        lo = bisect.bisect_right(t.locations, self.to_local_c(c_lo))
        hi = bisect.bisect_left(t.locations, self.to_local_c(c_hi))
        return range(lo, hi)

    def midpoint_global(self, index: int) -> tuple[Fraction, Fraction]:
        j = self.dset.table.jump_by_index(index)
        return (self.to_global_c(j.location), self.to_global_h(j.midpoint))

    def midpoints_global(self) -> list[tuple[Fraction, Fraction]]:
        return [self.midpoint_global(m) for m in range(self.dset.n_jumps)]

    def pieces_in_window(
        self,
        c_lo: Fraction,
        c_hi: Fraction,
        h_lo: Fraction,
        h_hi: Fraction,
    ) -> tuple[list[tuple[Fraction, Fraction, Fraction]], list[tuple[Fraction, Fraction, Fraction]]]:
        """(plateaus, jumps) of this copy meeting the closed window.

        Filtering happens in the copy's local coordinates against the shared
        table, so only the few relevant pieces are materialized globally.
        """
        t = self.dset.table
        l_clo = self.to_local_c(max(c_lo, self._x0))
        l_chi = self.to_local_c(min(c_hi, self._x1))
        l_hlo = self.to_local_h(h_lo)
        l_hhi = self.to_local_h(h_hi)
        if l_clo > l_chi or l_hlo > l_hhi:
            return ([], [])
        plateaus = []
        lo_j = bisect.bisect_left(t.values, l_hlo)
        hi_j = bisect.bisect_right(t.values, l_hhi) - 1
        for j in range(max(lo_j, 0), min(hi_j, self.dset.n_jumps) + 1):
            p = self.dset.plateaus[j]
            if p.right >= l_clo and p.left <= l_chi:
                plateaus.append(self.plateau_global(j))
        jumps = []
        # jump at sorted pos j spans local values [values[j], values[j+1]]
        first = max(bisect.bisect_left(t.values, l_hlo) - 1, 0)
        last = min(bisect.bisect_right(t.values, l_hhi), self.dset.n_jumps) - 1
        for pos in range(first, last + 1):
            if t.values[pos + 1] < l_hlo or t.values[pos] > l_hhi:
                continue
            if l_clo <= t.locations[pos] <= l_chi:
                jumps.append(self.jump_global(pos))
        return (plateaus, jumps)


@dataclass
class TilingStage:
    """One stage: the ordered rectangles and their placed copies."""

    n: int
    rects: list[Rect]
    copies: list[PlacedCopy]


class ConstructionState:
    """Stages 0..K with all placed copies; a pure function of (K, N, strict).

    Copy ids number the copies stage by stage. The builder grows one state
    a stage at a time through `add_stage`.
    """

    def __init__(self, depth: int, n_jumps: int, strict: bool, stages: list[TilingStage]):
        self.depth = depth
        self.n_jumps = n_jumps
        self.strict = strict
        self.dset = build_D(n_jumps)
        self.stages: list[TilingStage] = []
        self.copies: list[PlacedCopy] = []
        self._by_address: dict[tuple[int, ...], list[int]] = {}
        for stage in stages:
            self.add_stage(stage)

    def add_stage(self, stage: TilingStage) -> None:
        """Append the next stage, numbering and indexing its copies."""
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

    def ids_at_address(self, bits: tuple[int, ...]) -> list[int]:
        return self._by_address.get(bits, [])

    def chain_ids(self, sigma: Address, max_stage: int | None = None) -> list[int]:
        """Ids of copies whose column contains B(sigma), optionally staged."""
        out: list[int] = []
        top = len(sigma) if max_stage is None else min(max_stage, len(sigma))
        for length in range(top + 1):
            for cid in self.ids_at_address(sigma.bits[:length]):
                if max_stage is None or self.copies[cid].stage <= max_stage:
                    out.append(cid)
        return out

    def spanning_ids(self, c: Fraction, max_stage: int | None = None) -> list[int]:
        """Ids of copies whose column contains the Cantor point c."""
        top = self.depth if max_stage is None else max_stage
        sigma = locate(c, top)
        return self.chain_ids(sigma, max_stage)

    def to_json_obj(self) -> dict:
        return {
            "schema": STATE_SCHEMA,
            "depth": self.depth,
            "jumps": self.n_jumps,
            "strict": self.strict,
            "stages": [
                {
                    "n": st.n,
                    "rects": [
                        {
                            "address": str(r.address),
                            "a": rational_to_str(r.bottom),
                            "b": rational_to_str(r.top),
                        }
                        for r in st.rects
                    ],
                }
                for st in self.stages
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":")) + "\n"


Crossing = tuple[int, int]  # (height over the column denominator, place in ids)


class ColumnSweep:
    """One depth-n column against the copies of stages <= n, in integers.

    Every such copy spans the whole column, so it crosses each vertical in
    one height, except at its own jumps strictly inside the column (the
    column endpoints are Cantor endpoints, never jump locations). Over the
    column denominator `den`, the lcm of the copies' own denominators
    (PlacedCopy's integer form), a copy's height on its plateau of value
    k/2^N is the int A + H*k. `first` and `last` hold the crossings at the
    column's left and right ends. Breakpoints are ints over T * 3^n, T the
    jump table's denominator, and are found only when first asked for.
    A crossing is (height, i) with i the copy's place in `ids`; `ids` is
    increasing (the length-s prefix holds the stage-s copies, numbered
    stage by stage), so ties break as they would by copy id.
    """

    def __init__(self, state: ConstructionState, sigma: Address, n: int):
        t_den, locations, values = integer_table(state.n_jumps)
        scale = 2**state.n_jumps
        self.n = n
        self.n_jumps = state.n_jumps
        self.ids = state.chain_ids(sigma, max_stage=n)
        copies = [state.copies[cid] for cid in self.ids]
        self.den = den = math.lcm(*(c.den for c in copies))
        origin = 0  # the column's left end is origin / 3^n
        for bit in sigma.bits:
            origin = 3 * origin + 2 * bit
        self.stages: list[int] = []
        self.bottoms: list[int] = []
        self.tops: list[int] = []
        self.first: list[int] = []  # crossing heights at the column's left end
        self.last: list[int] = []  # and at its right end
        # per copy: its jump positions inside the column, p, origin * T, base, step
        self._inside: list[tuple[range, int, int, int, int]] = []
        for copy in copies:
            unit = den // copy.den
            base, step = copy.base * unit, copy.step * unit
            p = 3 ** (n - copy.stage)
            offset = origin - p * copy.origin  # column = [offset, offset+1]/p locally
            lo = bisect.bisect_right(locations, offset * t_den // p)
            hi = bisect.bisect_left(locations, -(-(offset + 1) * t_den // p))
            self.stages.append(copy.stage)
            self.bottoms.append(base)
            self.tops.append(base + step * scale)
            self.first.append(base + step * values[lo])
            self.last.append(base + step * values[hi])
            self._inside.append((range(lo, hi), p, copy.origin * t_den, base, step))

    @cached_property
    def _events(self) -> dict[int, list[tuple[int, int]]]:
        """Breakpoint -> (place in ids, crossing just after it) per jumping copy."""
        _, locations, values = integer_table(self.n_jumps)
        events: dict[int, list[tuple[int, int]]] = {}
        for i, (positions, p, origin, base, step) in enumerate(self._inside):
            for pos in positions:
                events.setdefault(p * (origin + locations[pos]), []).append(
                    (i, base + step * values[pos + 1])
                )
        return events

    @cached_property
    def breakpoints(self) -> list[int]:
        return sorted(self._events)

    def coverage_gap(self) -> Fraction:
        """Measure of [-n, n+1] missed by the bands [first, last] of the copies."""
        covered, reach = 0, None
        for x, y in sorted(zip(self.first, self.last)):
            start = x if reach is None else max(x, reach)
            if y > start:
                covered += y - start
                reach = y
        return Fraction((2 * self.n + 1) * self.den - covered, self.den)

    def gaps(self) -> Iterator[tuple[Crossing | None, Crossing | None]]:
        """Each maximal vertical gap once, left to right, as (lower, upper).

        None stands for the range boundary. Gaps are reported when they
        first appear, in the initial cell or beside a crossing that has just
        jumped; a gap spanning several cells is the same in all of them.

        On the way it decides whether the copies' fibers are pairwise
        disjoint at every Cantor point of the column, and leaves the answer
        in `separated`. Heights are constant between breakpoints, so the
        fibers are disjoint there iff the crossing order is strict, and two
        fibers can first meet only where they are adjacent in that order
        (Bentley & Ottmann, 1979). At a breakpoint a jumping copy's fiber
        is [old, new]; if each jumper's `new` stays below the next
        crossing's bottom, the fibers are disjoint and the order after the
        breakpoint is strict again.
        """
        heights = list(self.first)
        cross = sorted(zip(heights, range(len(heights))))
        self.separated = all(x[0] < y[0] for x, y in zip(cross, cross[1:]))
        bounded: list[Crossing | None] = [None, *cross, None]
        yield from zip(bounded, bounded[1:])
        for c in self.breakpoints:
            batch = self._events[c]
            if self.separated:
                for i, new in batch:
                    j = bisect.bisect_left(cross, (heights[i], i)) + 1
                    if j < len(cross) and cross[j][0] <= new:
                        self.separated = False
            for i, new in batch:
                del cross[bisect.bisect_left(cross, (heights[i], i))]
                bisect.insort(cross, (new, i))
                heights[i] = new
            seen: set[tuple[Crossing | None, Crossing | None]] = set()
            for i, new in batch:
                j = bisect.bisect_left(cross, (new, i))
                lower = cross[j - 1] if j > 0 else None
                upper = cross[j + 1] if j + 1 < len(cross) else None
                for pair in ((lower, cross[j]), (cross[j], upper)):
                    if pair not in seen:
                        seen.add(pair)
                        yield pair

    def problems(self, lower: Crossing | None, upper: Crossing | None, length: int) -> list[str]:
        """What condition (v) finds wrong with one gap of positive length."""
        n = self.n
        if lower is None and upper is None:
            return ["no crossings in column"]
        out = []
        if lower is None or upper is None:
            i = (upper if lower is None else lower)[1]
            if self.stages[i] != n:
                out.append(f"edge gap bounded by stage {self.stages[i]}")
            if lower is None and self.bottoms[i] > -n * self.den:
                out.append("rect does not reach range bottom")
            if upper is None and self.tops[i] < (n + 1) * self.den:
                out.append("rect does not reach range top")
            # length/den < 1/(n+1) + 3^-n, cross-multiplied
            if not length * (n + 1) * 3**n < self.den * (3**n + n + 1):
                out.append("edge gap exceeds distance bound")
        else:
            low, up = lower[1], upper[1]
            if self.stages[low] != n and self.stages[up] != n:
                out.append("no stage-n copy bounds the gap")
            if self.tops[low] < self.bottoms[up]:
                out.append("two rects do not cover the gap")
        return out


def stage_zero(n_jumps: int) -> TilingStage:
    """The single rectangle C x [0, 1] carrying the identity copy."""
    rect = Rect(Address(), ZERO, ONE)
    return TilingStage(0, [rect], [PlacedCopy(0, 0, rect, build_D(n_jumps))])


def stage_one(n_jumps: int) -> TilingStage:
    """Four split rectangles over the two halves plus the eight outer ones."""
    if n_jumps < 2:
        raise ValueError("stage one needs at least two jumps")
    dset = build_D(n_jumps)
    f13 = dset.table.value_left_of(Fraction(1, 3))
    f23 = dset.table.value_left_of(Fraction(2, 3))
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
    copies = [PlacedCopy(1, i, r, dset) for i, r in enumerate(rects)]
    return TilingStage(1, rects, copies)


class Builder:
    """Stage-by-stage construction into one growing state; stages must be added in order."""

    def __init__(self, depth: int, n_jumps: int, strict: bool = True):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        floor = 2 if depth >= 1 else 1
        if n_jumps < floor:
            raise ValueError(f"depth {depth} needs at least {floor} jumps")
        self.state = ConstructionState(depth, n_jumps, strict, [])

    def stage_n(self, n: int) -> TilingStage:
        """Sweep, pair, and tile every depth-n column; n >= 2.

        Each earlier copy spans the column as the band from its left-end
        crossing to its right-end crossing (ColumnSweep's `first` and
        `last`, ints over the column denominator). Strips are subdivided
        uniformly into ceil(length * (n+1)) pieces, which pins every new
        height at most 1/(n+1).
        """
        state = self.state
        if n != len(state.stages):
            raise StageOrderViolation(f"stage {n} requested but {len(state.stages)} stages built")
        if n < 2:
            raise StageOrderViolation("stage_n handles n >= 2 only")
        rects: list[Rect] = []
        for sigma in addresses_of_length(n):
            col = ColumnSweep(state, sigma, n)
            den = col.den
            for x, y in zip(col.first, col.last):
                if not ((1 - n) * den <= x <= y <= n * den):
                    raise TraceOutOfRange(
                        f"trace outside [-n+1, n] at stage {n}, column {sigma}: "
                        f"{Fraction(x, den)}, {Fraction(y, den)}"
                    )
            bands = sorted(zip(col.first, col.last, col.ids))
            prev_y: int | None = None
            for x, y, cid in bands:
                if state.strict and not (x < y and (prev_y is None or prev_y < x)):
                    raise TruncationTooCoarse(
                        str(sigma),
                        n,
                        min_jumps_for_depth(state.depth),
                        f"trace band [{Fraction(x, den)}, {Fraction(y, den)}] of copy "
                        f"{state.copies[cid].key} breaks strict interleaving",
                    )
                if prev_y is not None and prev_y > x:
                    raise TruncationTooCoarse(
                        str(sigma),
                        n,
                        min_jumps_for_depth(state.depth),
                        f"trace bands overlap at copy {state.copies[cid].key}",
                    )
                prev_y = y
            lows = [-n * den, *(y for _, y, _ in bands)]
            highs = [*(x for x, _, _ in bands), (n + 1) * den]
            for s_lo, s_hi in zip(lows, highs):
                length = s_hi - s_lo
                if length <= 0:
                    continue  # tolerant mode: touching bands leave empty strips
                count = -(-length * (n + 1) // den)
                ends = [Fraction(s_lo * count + k * length, den * count) for k in range(count + 1)]
                rects.extend(Rect(sigma, lo, hi) for lo, hi in zip(ends, ends[1:]))
        stage = TilingStage(n, rects, [PlacedCopy(n, i, r, state.dset) for i, r in enumerate(rects)])
        state.add_stage(stage)
        return stage

    def run(self) -> ConstructionState:
        state = self.state
        state.add_stage(stage_zero(state.n_jumps))
        if state.depth >= 1:
            state.add_stage(stage_one(state.n_jumps))
        for n in range(2, state.depth + 1):
            self.stage_n(n)
        return state


def build(depth: int, n_jumps: int, strict: bool = True) -> ConstructionState:
    """Build stages 0..depth; deterministic in (depth, n_jumps, strict)."""
    return Builder(depth, n_jumps, strict).run()


def vertical_trace(
    state: ConstructionState,
    c: Fraction,
    lo: Fraction | None = None,
    hi: Fraction | None = None,
    max_stage: int | None = None,
) -> list[tuple[Fraction, int]]:
    """Crossing heights of the vertical at c with all spanning copies.

    Each spanning copy meets the line in one point as long as c is not one
    of its scaled jump locations (JumpHit otherwise; Cantor endpoints are
    always safe because jump images are never endpoints).
    """
    if not (0 <= c <= 1) or not cantor_member(c):
        raise NotInCantor(f"{c} is not in the Cantor set")
    lo = state.range_low if lo is None else lo
    hi = state.range_high if hi is None else hi
    out: list[tuple[Fraction, int]] = []
    for cid in state.spanning_ids(c, max_stage):
        h = state.copies[cid].trace_at(c)
        if lo <= h <= hi:
            out.append((h, cid))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def pointwise_below(
    a: PlacedCopy, b: PlacedCopy, left: Fraction, right: Fraction
) -> bool:
    """True when a's upper envelope stays strictly below b's lower envelope
    at every Cantor point of [left, right].

    Decided exactly by walking the jump breakpoints of both copies: between
    breakpoints both envelopes are constant; at a breakpoint the upper
    envelope of the jumping copy is its jump top and the lower envelope its
    jump bottom.
    """
    events: dict[Fraction, list[tuple[str, int]]] = {}
    for tag, copy in (("a", a), ("b", b)):
        for pos in copy.jump_positions_between(left, right):
            c = copy.to_global_c(copy.dset.table.locations[pos])
            events.setdefault(c, []).append((tag, pos))
    cur_a = a.trace_at(left)
    cur_b = b.trace_at(left)
    if not cur_a < cur_b:
        return False
    for c in sorted(events):
        a_hi, b_lo = cur_a, cur_b
        nxt_a, nxt_b = cur_a, cur_b
        for tag, pos in events[c]:
            copy = a if tag == "a" else b
            top = copy.to_global_h(copy.dset.table.values[pos + 1])
            if tag == "a":
                a_hi = top  # upper envelope at a jump column is the jump top
                nxt_a = top
            else:
                nxt_b = top  # lower envelope at a jump column is the jump bottom
        if not a_hi < b_lo:
            return False
        cur_a, cur_b = nxt_a, nxt_b
        if not cur_a < cur_b:
            return False
    return True


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
    except json.JSONDecodeError as exc:
        raise StateSchemaError(f"not valid JSON: {exc}", path) from exc
    return state_from_json_obj(doc, location=path)


def state_from_json_obj(doc: dict, location: str = "<state>") -> ConstructionState:
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
    if len(stages_doc) != depth + 1:
        raise StateSchemaError("stages must list exactly depth+1 entries", f"{location}.stages")
    dset = build_D(n_jumps)
    stages: list[TilingStage] = []
    for si, st in enumerate(stages_doc):
        loc = f"{location}.stages[{si}]"
        n = _require(st, "n", loc, int)
        if n != si:
            raise StateSchemaError(f"stage {si} labeled {n}", loc)
        rects = []
        for ri, rd in enumerate(_require(st, "rects", loc, list)):
            rloc = f"{loc}.rects[{ri}]"
            address_text = _require(rd, "address", rloc, str)
            a_text = _require(rd, "a", rloc, str)
            b_text = _require(rd, "b", rloc, str)
            try:
                address = Address.parse(address_text)
                a, b = rational_from_str(a_text), rational_from_str(b_text)
                rect = Rect(address, a, b)
            except ValueError as exc:
                raise StateSchemaError(str(exc), rloc) from exc
            if len(address) != n:
                raise StateSchemaError(f"address length {len(address)} at stage {n}", rloc)
            rects.append(rect)
        stages.append(
            TilingStage(n, rects, [PlacedCopy(n, i, r, dset) for i, r in enumerate(rects)])
        )
    return ConstructionState(depth, n_jumps, strict, stages)
