"""Independent brute-force oracles for expected values.

These deliberately avoid the package's internal representations: jump
sequences come from a list-scan enumeration, the truncated set's Fraction
table from those jumps alone, fibers from materializing every
piece of every copy, unions from sorting, column gaps from a Fraction cell
sweep and from a walk that re-finds each crossing by bisection, the
per-rectangle checks from Fraction bounds, the MST from a vectorised
quadratic Prim, connectivity from a plain disjoint-set union over all
pairs, the SVG copy images and
fan diameters from a walk over every piece in Fractions (each SVG
coordinate formatted where it is written), a copy's padded diameter bound
from its corners through `xi_float` and `fan_x` and a cloud's diameter
from every pair of `itertools.combinations`, and the stage
builder and the cloud's fiber gaps from per-copy Fraction traces, the
Q-points and their fiber isolation from each copy's Fraction midpoints, and
the disjointness record from the pairwise scan over every candidate pair,
a copy's placement and its earring from its rectangle in Fractions, a
Cantor point inside an open interval from a breadth-first search, and a
state document's load from parsing every rect's texts afresh into
Fractions, with its copies' integer forms and its text from those Fractions.
They exist to compute and to cross-check expected values, not to be fast.
"""

import bisect
import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from fanforge.debski import jump_table, min_jumps_for_depth
from fanforge.decomp import Claim5Result, Earring, Loop
from fanforge.errors import (
    DepthInsufficient,
    IndexOutOfRange,
    JumpHit,
    NotInCantor,
    NotOrdered,
    NotSpanning,
    StateSchemaError,
    TraceOutOfRange,
    TruncationTooCoarse,
)
from fanforge.exact import (
    Address,
    addresses_of_length,
    cantor_member,
    endpoint_one,
    endpoint_zero,
    locate,
    rational_to_str,
)
from fanforge.floats import fan_x, xi_float
from fanforge.render import CANTOR_DEPTH, HEAD, HEIGHT, MARGIN, STROKE_COPY, STROKE_RECT, TAIL, WIDTH
from fanforge.spaceset import Region, VERTEX
from fanforge.query import vertical_trace
from fanforge.tiling import (
    STATE_SCHEMA,
    ColumnSweep,
    ConstructionState,
    PlacedCopy,
    Rect,
    _require,
    stage_one,
    stage_zero,
)
from fanforge.verify import CheckRecord, _coverage_gap, _problems, copies_intersect


def fan_point(point: tuple[Fraction | float, Fraction | float]) -> tuple[float, float]:
    """The fan map after xi of one point, through `xi_float` and `fan_x`:
    the reference that the cloud's and the figures' int forms equal."""
    c, r = point
    y = xi_float(r)
    return (fan_x(float(c), y), y)


def cantor_member_oracle(q: Fraction, depth: int = 300) -> bool:
    """Membership by interval refinement: q must never fall in a middle gap.

    Sound for rationals whose digit pre-period plus period fits in `depth`,
    which covers every value these tests feed it.
    """
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(depth):
        w = (hi - lo) / 3
        if q <= lo + w:
            hi = lo + w
        elif q >= hi - w:
            lo = hi - w
        else:
            return False
    return True


def locate_oracle(q: Fraction, depth: int) -> Address:
    """The length-`depth` address of q by nested thirds in Fractions."""
    bits = []
    lo = Fraction(0)
    for k in range(depth):
        third = Fraction(1, 3 ** (k + 1))
        if q >= lo + 2 * third:
            bits.append(1)
            lo = lo + 2 * third
        elif q <= lo + third:
            bits.append(0)
        else:
            raise NotInCantor(f"{q} fell into a middle gap at depth {k + 1}")
    return Address(tuple(bits))


@cache  # the same Fraction sum, made once per address
def endpoint_zero_oracle(bits: tuple[int, ...]) -> Fraction:
    return sum((Fraction(2 * b, 3 ** (k + 1)) for k, b in enumerate(bits)), Fraction(0))


def endpoint_one_oracle(bits) -> Fraction:
    return endpoint_zero_oracle(bits) + Fraction(1, 3 ** len(bits))


def child(sigma: Address, bit: int) -> Address:
    return Address(sigma.bits + (bit,))


def basic_interval_inside(lo: Fraction, hi: Fraction, max_depth: int = 400) -> Address:
    """An address whose basic interval lies strictly inside the open (lo, hi).

    Breadth-first, so the result is the shallowest (then leftmost) such
    interval; used to produce concrete Cantor points inside open cells.
    Raises ValueError when (lo, hi) contains no Cantor point.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    frontier: list[Address] = [Address()]
    for _ in range(max_depth + 1):
        nxt: list[Address] = []
        for sigma in frontier:
            left, right = endpoint_zero(sigma), endpoint_one(sigma)
            if right <= lo or left >= hi:
                continue
            if left > lo and right < hi:
                return sigma
            nxt.extend((child(sigma, 0), child(sigma, 1)))
        if not nxt:
            raise ValueError(f"no Cantor point strictly inside ({lo}, {hi})")
        frontier = nxt
    raise ValueError("basic_interval_inside exceeded depth limit")


def words_length_lex(max_len):
    for n in range(max_len + 1):
        for bits in itertools.product((0, 1), repeat=n):
            yield bits


def jump_points_oracle(count: int) -> list[Fraction]:
    """Quarter-offset proposals, deduplicated with a list scan."""
    out: list[Fraction] = []
    for bits in words_length_lex(32):
        v = endpoint_zero_oracle(bits) + Fraction(1, 4) / 3 ** len(bits)
        if v not in out:
            out.append(v)
        if len(out) == count:
            return out
    raise AssertionError("not enough words")


def f_value_oracle(c: Fraction, count: int) -> Fraction:
    return sum(
        (Fraction(1, 2 ** (n + 1)) for n, d in enumerate(jump_points_oracle(count)) if d < c),
        Fraction(0),
    )


class FractionTable:
    """The truncated set in Fractions, from `jump_points_oracle` alone: the
    jump locations left to right, the value left of each (the last, 1 - 2^-N,
    right of every jump), the closed plateaus as (left, right, value), and
    the jumps by canonical index as (location, low, high)."""

    def __init__(self, count: int):
        pts = jump_points_oracle(count)
        order = sorted(range(count), key=lambda m: pts[m])
        self.n_jumps = count
        self.locations = [pts[m] for m in order]
        self.values = [Fraction(0)]
        for m in order:
            self.values.append(self.values[-1] + Fraction(1, 2 ** (m + 1)))
        bounds = [Fraction(0), *self.locations, Fraction(1)]
        self.plateaus = [(bounds[j], bounds[j + 1], self.values[j]) for j in range(count + 1)]
        self.jumps = [None] * count
        for j, m in enumerate(order):
            self.jumps[m] = (pts[m], self.values[j], self.values[j + 1])

    def fiber(self, u: Fraction) -> tuple[str, Fraction, Fraction]:
        """('point', v, v) or ('segment', low, high) over the local column u."""
        j = bisect.bisect_left(self.locations, u)
        if j < self.n_jumps and self.locations[j] == u:
            return ("segment", self.values[j], self.values[j + 1])
        return ("point", self.values[j], self.values[j])


@lru_cache(maxsize=None)
def fraction_table(count: int) -> FractionTable:
    return FractionTable(count)


def table_of(copy) -> FractionTable:
    """The Fraction table of the copy's truncation."""
    return fraction_table(copy.table.n_jumps)


def copy_pieces_oracle(copy, count: int):
    """(plateaus, jumps) of a placed copy, rebuilt from first principles."""
    t = fraction_table(count)
    x0 = endpoint_zero_oracle(copy.rect.address.bits)
    scale = Fraction(1, 3 ** copy.stage)
    a, h = copy.rect.bottom, copy.rect.top - copy.rect.bottom
    plateaus = [(x0 + lo * scale, x0 + hi * scale, a + h * v) for lo, hi, v in t.plateaus]
    jumps = [(x0 + c * scale, a + h * lo, a + h * hi) for c, lo, hi in sorted(t.jumps)]
    return plateaus, jumps


# ---------------------------------------------------------------------------
# a placed copy's pieces and fibers in Fractions, through its local
# coordinates: the reference for PlacedCopy's integer form


def to_global_c(copy, u: Fraction) -> Fraction:
    """The copy's placement of the local column u: 0(sigma) + u / 3^stage."""
    return endpoint_zero_oracle(copy.rect.address.bits) + u / 3**copy.stage


def own_den(rect, n_jumps: int) -> int:
    """The least den a copy in `rect` can be placed at: lcm(den a, den h * 2^N),
    with h = b - a in Fractions."""
    return math.lcm(rect.bottom.denominator, (rect.top - rect.bottom).denominator * 2**n_jumps)


def placement_oracle(state) -> list[tuple[int, int, int, int]]:
    """(den, base, step, origin) per copy from its rect in Fractions: den is
    the lcm of every rect's own_den, the bottom a is base / den and the
    height h is step * 2^N / den, and origin / 3^stage is the column's left
    end."""
    den = math.lcm(*(own_den(copy.rect, state.n_jumps) for copy in state.copies))
    out = []
    for copy in state.copies:
        a, b = copy.rect.bottom, copy.rect.top
        base, step = a * den, (b - a) * den / 2**state.n_jumps
        origin = endpoint_zero_oracle(copy.rect.address.bits) * 3**copy.stage
        assert base.denominator == step.denominator == origin.denominator == 1
        out.append((den, base.numerator, step.numerator, origin.numerator))
    return out


def state_json_oracle(state) -> str:
    """The state document with each rect's bounds written from Fractions."""
    stages = [
        {
            "n": stage.n,
            "rects": [
                {
                    "address": "".join(map(str, r.address.bits)),
                    "a": rational_to_str(r.bottom),
                    "b": rational_to_str(r.top),
                }
                for r in stage.rects
            ],
        }
        for stage in state.stages
    ]
    doc = {
        "schema": STATE_SCHEMA,
        "depth": state.depth,
        "jumps": state.n_jumps,
        "strict": state.strict,
        "stages": stages,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def to_global_h(copy, r: Fraction) -> Fraction:
    """The copy's placement of the local height r: a + r (b - a)."""
    return copy.rect.bottom + copy.rect.height * r


def max_height_oracle(copy) -> Fraction:
    """Largest second coordinate on the copy: a + (b-a)(1 - 2^-N) < b."""
    return to_global_h(copy, table_of(copy).values[-1])


def local_c(copy, c: Fraction) -> Fraction:
    return (c - endpoint_zero_oracle(copy.rect.address.bits)) * 3**copy.stage


def local_h(copy, h: Fraction) -> Fraction:
    return (h - copy.rect.bottom) / copy.rect.height


def fiber_oracle(copy, c: Fraction) -> tuple[str, Fraction, Fraction]:
    """('point', v, v) or ('segment', low, high) from the local Fraction fiber."""
    kind, lo, hi = table_of(copy).fiber(local_c(copy, c))
    return (kind, to_global_h(copy, lo), to_global_h(copy, hi))


def trace_at_oracle(copy, c: Fraction) -> Fraction:
    kind, lo, _ = fiber_oracle(copy, c)
    if kind == "segment":
        raise JumpHit(f"column {c} is a jump location of copy {copy.key}")
    return lo


def classify_on_copy_oracle(copy, point) -> str:
    """'below' / 'on' / 'above' relative to one copy's fiber."""
    c, h = point
    _, lo, hi = fiber_oracle(copy, c)
    if lo <= h <= hi:
        return "on"
    return "below" if h < lo else "above"


def plateau_global_oracle(copy, j: int) -> tuple[Fraction, Fraction, Fraction]:
    """Plateau j as global (left, right, value)."""
    left, right, value = table_of(copy).plateaus[j]
    return (to_global_c(copy, left), to_global_c(copy, right), to_global_h(copy, value))


def plateaus_global_oracle(copy) -> list[tuple[Fraction, Fraction, Fraction]]:
    return [plateau_global_oracle(copy, j) for j in range(copy.table.n_jumps + 1)]


def jump_global_oracle(copy, pos: int) -> tuple[Fraction, Fraction, Fraction]:
    """The jump at sorted position pos as global (location, low, high)."""
    t = table_of(copy)
    return (
        to_global_c(copy, t.locations[pos]),
        to_global_h(copy, t.values[pos]),
        to_global_h(copy, t.values[pos + 1]),
    )


def jumps_global_oracle(copy) -> list[tuple[Fraction, Fraction, Fraction]]:
    return [jump_global_oracle(copy, pos) for pos in range(copy.table.n_jumps)]


def jump_positions_between_oracle(copy, c_lo: Fraction, c_hi: Fraction) -> range:
    """Sorted positions of jumps with location strictly inside (c_lo, c_hi)."""
    t = table_of(copy)
    lo = bisect.bisect_right(t.locations, local_c(copy, c_lo))
    hi = bisect.bisect_left(t.locations, local_c(copy, c_hi))
    return range(lo, hi)


def pieces_in_window_oracle(copy, c_lo, c_hi, h_lo, h_hi):
    """(plateaus, jumps) of the copy meeting the closed window, in Fractions."""
    t = table_of(copy)
    n = t.n_jumps
    bits = copy.rect.address.bits
    l_clo = local_c(copy, max(c_lo, endpoint_zero_oracle(bits)))
    l_chi = local_c(copy, min(c_hi, endpoint_one_oracle(bits)))
    l_hlo, l_hhi = local_h(copy, h_lo), local_h(copy, h_hi)
    if l_clo > l_chi or l_hlo > l_hhi:
        return ([], [])
    plateaus = []
    lo_j = bisect.bisect_left(t.values, l_hlo)
    hi_j = bisect.bisect_right(t.values, l_hhi) - 1
    for j in range(max(lo_j, 0), min(hi_j, n) + 1):
        left, right, _ = t.plateaus[j]
        if right >= l_clo and left <= l_chi:
            plateaus.append(plateau_global_oracle(copy, j))
    jumps = []
    first = max(bisect.bisect_left(t.values, l_hlo) - 1, 0)
    last = min(bisect.bisect_right(t.values, l_hhi), n) - 1
    for pos in range(first, last + 1):
        if t.values[pos + 1] < l_hlo or t.values[pos] > l_hhi:
            continue
        if l_clo <= t.locations[pos] <= l_chi:
            jumps.append(jump_global_oracle(copy, pos))
    return (plateaus, jumps)


def copies_intersect_oracle(a, b) -> dict | None:
    """The pairwise disjointness test in Fractions; witness or None. As in
    `copies_intersect`, two jumps that meet need no test of their own: the
    plateau at the higher low end ends at their column and lies on the
    other jump."""
    deep = a if a.stage >= b.stage else b
    c_lo, c_hi = endpoint_zero_oracle(deep.rect.address.bits), endpoint_one_oracle(deep.rect.address.bits)
    h_lo = max(a.rect.bottom, b.rect.bottom)
    h_hi = min(max_height_oracle(a), max_height_oracle(b))
    if h_lo > h_hi:
        return None
    plats_a, jumps_a = pieces_in_window_oracle(a, c_lo, c_hi, h_lo, h_hi)
    plats_b, jumps_b = pieces_in_window_oracle(b, c_lo, c_hi, h_lo, h_hi)
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
    return None


def conditions_i_ii_oracle(state) -> list[CheckRecord]:
    """`verify.check_conditions_i_ii` on the rectangles' Fraction bounds;
    a state's addresses are as long as their stage (`add_stage`)."""
    records = []
    for stage in state.stages:
        bound = Fraction(1, stage.n + 1)
        witness = None
        tallest = Fraction(0)
        for i, rect in enumerate(stage.rects):
            tallest = max(tallest, rect.height)
            if not (0 < rect.height <= bound):
                witness = {
                    "index": i,
                    "address": str(rect.address),
                    "a": rational_to_str(rect.bottom),
                    "b": rational_to_str(rect.top),
                }
                break
        metrics = {"rects": len(stage.rects), "max_height": rational_to_str(tallest)}
        status = "fail" if witness else "pass"
        records.append(CheckRecord("conditions-i-ii", f"stage {stage.n}", status, witness, metrics))
    return records


def partial_tiling_oracle(state) -> list[CheckRecord]:
    """`verify.check_partial_tiling` on the rectangles' Fraction bounds."""
    records = []
    for stage in state.stages:
        by_addr: dict = {}
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
        status = "fail" if witness else "pass"
        records.append(CheckRecord("partial-tiling", f"stage {stage.n}", status, witness, {}))
    return records


def candidate_pairs(state):
    """The pairs (other, cid) whose columns nest, copy by copy: for each cid
    the ids at each proper prefix of its address, shortest first, then the
    smaller ids at its own address."""
    for cid, copy in enumerate(state.copies):
        bits = copy.rect.address.bits
        for length in range(len(bits)):
            for other in state.ids_at_address(bits[:length]):
                yield (other, cid)
        for other in state.ids_at_address(bits):
            if other < cid:
                yield (other, cid)


def disjointness_oracle(state) -> CheckRecord:
    """The disjointness record from the pairwise scan: copies_intersect on
    every candidate pair, in candidate order, up to the first witness."""
    pairs = 0
    for i, j in candidate_pairs(state):
        pairs += 1
        witness = copies_intersect(state.copies[i], state.copies[j])
        if witness:
            witness["copies"] = [state.copies[i].key, state.copies[j].key]
            return CheckRecord("disjointness", "all stages", "fail", witness, {"pairs_checked": pairs})
    metrics = {"pairs_checked": pairs, "copies": len(state.copies)}
    return CheckRecord("disjointness", "all stages", "pass", None, metrics)


@lru_cache(maxsize=None)
def envelope_oracle(copy, column: Address) -> tuple[Fraction, Fraction, dict]:
    """The copy over the column B(column) = [left, right] in Fractions: its
    crossings at left and at right, and its jump top at each jump location
    strictly inside. Cached, since a column's pairs share their copies."""
    left = endpoint_zero_oracle(column.bits)
    right = left + Fraction(1, 3 ** len(column))
    t = table_of(copy)
    tops = {
        to_global_c(copy, t.locations[pos]): to_global_h(copy, t.values[pos + 1])
        for pos in jump_positions_between_oracle(copy, left, right)
    }
    return trace_at_oracle(copy, left), trace_at_oracle(copy, right), tops


def pointwise_below_oracle(a, b, column: Address) -> bool:
    """a's upper envelope strictly below b's lower envelope on the column,
    by a walk over both copies' jump breakpoints in Fractions: at each, a's
    jump top against b's height before it. A copy is nondecreasing, so a
    pair whose crossings at the left end are out of order, or whose a
    crosses the right end below b's crossing at the left end, needs no
    walk."""
    a_left, a_right, a_tops = envelope_oracle(a, column)
    b_left, _, b_tops = envelope_oracle(b, column)
    if not a_left < b_left:
        return False
    if a_right < b_left:
        return True
    cur_a, cur_b = a_left, b_left
    for c in sorted(a_tops.keys() | b_tops.keys()):
        cur_a = a_tops.get(c, cur_a)
        if not cur_a < cur_b:
            return False
        cur_b = b_tops.get(c, cur_b)
    return True


@dataclass(frozen=True)
class QPoint:
    copy_id: int
    jump_index: int
    point: tuple[Fraction, Fraction]


def q_points(model) -> list[QPoint]:
    """Every copy's jump midpoints, copy by copy, by jump index."""
    return [
        QPoint(cid, m, copy.midpoint_global(m))
        for cid, copy in enumerate(model.state.copies)
        for m in range(model.state.n_jumps)
    ]


def fiber_isolation_witnesses(model) -> list[tuple[QPoint, str]]:
    """Violations of Q-point fiber isolation; empty on a sound strict build.

    For each Q-point the owning jump segment minus its midpoint must carry
    no Y-point: the owner's segment points are excluded from Y by
    construction, so the check is that no *other* copy meets the closed
    segment.
    """
    state = model.state
    bad: list[tuple[QPoint, str]] = []
    for qp in q_points(model):
        owner = state.copies[qp.copy_id]
        c = qp.point[0]
        _, low, high = table_of(owner).jumps[qp.jump_index]
        seg_lo, seg_hi = to_global_h(owner, low), to_global_h(owner, high)
        for cid in state.chain_ids(locate_oracle(c, state.depth)):
            if cid == qp.copy_id:
                continue
            kind, lo, hi = state.copies[cid].fiber(c)
            if hi >= seg_lo and lo <= seg_hi:
                bad.append((qp, f"copy {state.copies[cid].key} meets segment on {c}"))
    return bad


def region_boundary_oracle(state, lower_id: int, upper_id: int, column: Address) -> tuple:
    """The midpoints, in Fractions, of each copy's jumps strictly inside the
    column: the lower copy's, then the upper copy's, each in jump-index order."""
    left, right = endpoint_zero(column), endpoint_one(column)
    out = []
    for cid in (lower_id, upper_id):
        copy = state.copies[cid]
        for c, low, high in table_of(copy).jumps:
            if left < to_global_c(copy, c) < right:
                out.append((to_global_c(copy, c), to_global_h(copy, (low + high) / 2)))
    return tuple(out)


def q_set_oracle(state) -> dict:
    """Every copy's jump midpoints in Fractions, each mapped to its (copy id, jump index)."""
    out = {}
    for cid, copy in enumerate(state.copies):
        for m, (c, low, high) in enumerate(table_of(copy).jumps):
            out.setdefault((to_global_c(copy, c), to_global_h(copy, (low + high) / 2)), (cid, m))
    return out


def column_oracle(state, c: Fraction) -> tuple[set, list]:
    """Over the vertical at the Cantor point c, from the Fraction fiber of
    every copy whose rectangle spans it: the midpoint heights of the jumps
    at c, and each fiber as (low, high). Basic intervals of one length are
    disjoint, so a rectangle spans c exactly when its address is the prefix
    of c's nested-thirds address of its length."""
    if not (0 <= c <= 1) or not cantor_member(c):
        raise NotInCantor(f"{c} is not in the Cantor set")
    bits = locate_oracle(c, max(len(copy.rect.address) for copy in state.copies)).bits
    midpoints, fibers = set(), []
    for copy in state.copies:
        sigma = copy.rect.address.bits
        if sigma == bits[: len(sigma)]:
            kind, low, high = fiber_oracle(copy, c)
            if kind == "segment":
                midpoints.add((low + high) / 2)
            fibers.append((low, high))
    return midpoints, fibers


def classify_oracle(state, point, column=None) -> str:
    """'Q' when the point is a jump midpoint, else 'not-in-Y' when it lies on
    a copy, else 'P'. `column`, column_oracle(state, c), saves rebuilding it
    for each point over one vertical."""
    c, h = point
    midpoints, fibers = column_oracle(state, c) if column is None else column
    if h in midpoints:
        return "Q"
    return "not-in-Y" if any(low <= h <= high for low, high in fibers) else "P"


def fset_columns(model, band_lo: Fraction, band_hi: Fraction) -> list[Fraction]:
    """Columns whose whole fiber across the band is covered by one jump segment."""
    if not band_lo < band_hi:
        raise ValueError("need band_lo < band_hi")
    out: list[Fraction] = []
    for copy in model.state.copies:
        for c, lo, hi in jumps_global_oracle(copy):
            if lo <= band_lo and band_hi <= hi:
                out.append(c)
    return sorted(set(out))


def coverage_gap_for_column(state, sigma) -> tuple[Fraction, int]:
    """(uncovered measure within [-n, n+1], n = len(sigma), number of contributing copies)."""
    col = ColumnSweep(state, sigma)
    return Fraction(_coverage_gap(col, state.den), state.den), len(col.ids)


def region_between_oracle(model, lower_id: int, upper_id: int, column) -> Region:
    """region_between with the order decided by the Fraction walk."""
    state = model.state
    lower, upper = state.copies[lower_id], state.copies[upper_id]
    left, right = endpoint_zero(column), endpoint_one(column)
    for copy in (lower, upper):
        if not copy.rect.address.is_prefix_of(column):
            raise NotSpanning(f"copy {copy.key} does not span column {column}")
    if not pointwise_below_oracle(lower, upper, column):
        raise NotOrdered(f"copy {lower.key} is not strictly below copy {upper.key} over {column}")
    boundary = []
    for copy in (lower, upper):
        for location, low, high in table_of(copy).jumps:
            c = to_global_c(copy, location)
            if left <= c <= right:
                boundary.append((c, to_global_h(copy, (low + high) / 2)))
    return Region(column, (lower_id, upper_id), tuple(boundary))


def envelope_failures_oracle(state, column, trio) -> list[str]:
    """claim 5's boundary check, sampled at every breakpoint, at the column's
    ends and at one Cantor point inside every cell, in Fractions."""
    below_id, copy_id, above_id = trio
    left, right = endpoint_zero(column), endpoint_one(column)
    breakpoints: set[Fraction] = set()
    for cid in trio:
        copy = state.copies[cid]
        for pos in jump_positions_between_oracle(copy, left, right):
            breakpoints.add(to_global_c(copy, table_of(copy).locations[pos]))
    cuts = [left] + sorted(breakpoints) + [right]
    sample_columns = [left, right] + sorted(breakpoints)
    for u, w in zip(cuts, cuts[1:]):
        if w > u:
            sample_columns.append(endpoint_zero(basic_interval_inside(u, w)))
    failures = []
    for c in sorted(set(sample_columns)):
        below_hi = fiber_oracle(state.copies[below_id], c)[2]
        owner_lo = fiber_oracle(state.copies[copy_id], c)[1]
        owner_hi = fiber_oracle(state.copies[copy_id], c)[2]
        above_lo = fiber_oracle(state.copies[above_id], c)[1]
        if not (below_hi < owner_lo <= owner_hi < above_lo):
            failures.append(
                f"boundary envelopes out of order at c={c}: "
                f"{below_hi} < {owner_lo} <= {owner_hi} < {above_lo}"
            )
    return failures


def collapse_oracle(model, copy_id: int) -> Earring:
    """collapse_E with each loop placed by to_global_c and to_global_h."""
    copy = model.state.copies[copy_id]
    loops = []
    for m, (location, low, high) in enumerate(table_of(copy).jumps):
        c = to_global_c(copy, location)
        loops.append(Loop(m, c, to_global_h(copy, low), to_global_h(copy, high)))
    return Earring(copy.key, tuple(loops))


def claim5_oracle(model, copy_id: int, level: int, loop_index: int) -> Claim5Result:
    """claim5_regions walked in Fractions."""
    state = model.state
    owner = state.copies[copy_id]
    target = owner.stage + 1 + level
    if level < 0 or target > state.depth:
        raise DepthInsufficient(f"level {level} is not in [0, {state.depth - owner.stage - 1}]")
    if not 0 <= loop_index < owner.table.n_jumps:
        raise IndexOutOfRange(f"jump index {loop_index} not in [0, {owner.table.n_jumps})")
    location, low, high = table_of(owner).jumps[loop_index]
    c_j = to_global_c(owner, location)
    seg_lo, seg_hi = to_global_h(owner, low), to_global_h(owner, high)
    column = locate(c_j, target)
    above, below = [], []
    for cid, copy in enumerate(state.copies):
        if copy.stage != target or copy.rect.address != column:
            continue
        if copy.rect.bottom >= seg_hi:
            above.append(cid)
        elif copy.rect.top <= seg_lo:
            below.append(cid)
    if not above or not below:
        raise DepthInsufficient(f"loop {loop_index} of copy {owner.key} lacks rects around it")
    above_id = min(above, key=lambda cid: (state.copies[cid].rect.bottom, cid))
    below_id = min(below, key=lambda cid: (-state.copies[cid].rect.top, cid))
    failures = envelope_failures_oracle(state, column, (below_id, copy_id, above_id))
    return Claim5Result(
        copy_key=owner.key,
        level=level,
        loop_index=loop_index,
        column=column,
        above_copy_id=above_id,
        below_copy_id=below_id,
        upper_region=region_between_oracle(model, copy_id, above_id, column),
        lower_region=region_between_oracle(model, below_id, copy_id, column),
        loop_interior=(c_j, seg_lo, seg_hi),
        boundary_ok=not failures,
        distance_above=fiber_oracle(state.copies[above_id], c_j)[1] - seg_hi,
        distance_below=seg_lo - fiber_oracle(state.copies[below_id], c_j)[2],
    )


def state_pieces_oracle(state):
    """copy_pieces_oracle of every copy, in copy id order."""
    return [copy_pieces_oracle(copy, state.n_jumps) for copy in state.copies]


def trace_oracle(state, c: Fraction, lo: Fraction, hi: Fraction, pieces=None):
    """Fiber crossings by materializing and scanning every piece of every copy.

    `pieces`, from state_pieces_oracle, saves rebuilding them per column; a
    prefix of it, the copies of stages <= m, gives the trace at max stage m.
    JumpHit names the first copy in id order that jumps at c, in the window
    or not.
    """
    out = []
    pieces = state_pieces_oracle(state) if pieces is None else pieces
    for cid, (plateaus, jumps) in enumerate(pieces):
        if not plateaus[0][0] <= c <= plateaus[-1][1]:
            continue
        hit = None
        for jc, jlo, jhi in jumps:
            if jc == c:
                hit = ("segment", jlo, jhi)
        if hit is None:
            for plo, phi, v in plateaus:
                if plo <= c <= phi:
                    hit = ("point", v, v)
                    break
        if hit is None:
            continue
        if hit[0] == "segment":  # copies are in id order, so the first is the lowest stage's lowest id
            raise JumpHit(f"column {c} is a jump location of copy {state.copies[cid].key}")
        if lo <= hit[1] <= hi:
            out.append((hit[1], cid))
    return sorted(out)


def band_union_gap_oracle(bands, lo: Fraction, hi: Fraction) -> Fraction:
    """Uncovered measure of [lo, hi] after removing closed bands."""
    covered = Fraction(0)
    cur = None
    for x, y in sorted(bands):
        x, y = max(x, lo), min(y, hi)
        if y < x:
            continue
        if cur is None:
            cur = [x, y]
        elif x > cur[1]:
            covered += cur[1] - cur[0]
            cur = [x, y]
        else:
            cur[1] = max(cur[1], y)
    if cur is not None:
        covered += cur[1] - cur[0]
    return (hi - lo) - covered


class CellDecomposition:
    """Cells of one depth-n column against the copies of stages <= n, in Fractions.

    The reference for `tiling.ColumnSweep`: crossings are (height, copy id),
    breakpoints the scaled jump locations strictly inside the column.
    """

    def __init__(self, state, sigma, max_stage: int):
        self.state = state
        left, right = endpoint_zero(sigma), endpoint_one(sigma)
        self.left = left
        self.ids = [cid for cid in state.chain_ids(sigma) if state.copies[cid].stage <= max_stage]
        self.events: dict[Fraction, list[tuple[int, int]]] = {}
        for cid in self.ids:
            copy = state.copies[cid]
            for pos in jump_positions_between_oracle(copy, left, right):
                c = to_global_c(copy, table_of(copy).locations[pos])
                self.events.setdefault(c, []).append((cid, pos))
        self.breakpoints = sorted(self.events)

    def sweep(self, on_gap) -> None:
        """Walk cells left to right, reporting each maximal vertical gap once.

        Gaps are reported when they first appear (at the initial cell or
        right after a jump changes a crossing); None marks the range boundary.
        """
        state = self.state
        heights = {cid: trace_at_oracle(state.copies[cid], self.left) for cid in self.ids}
        cross = sorted((h, cid) for cid, h in heights.items())
        bounded = [None, *cross, None]
        for lower, upper in zip(bounded, bounded[1:]):
            on_gap(lower, upper)
        for c in self.breakpoints:
            moved = []
            for cid, pos in self.events[c]:
                copy = state.copies[cid]
                new = to_global_h(copy, table_of(copy).values[pos + 1])
                cross.remove((heights[cid], cid))
                bisect.insort(cross, (new, cid))
                heights[cid] = new
                moved.append((new, cid))
            seen = set()
            for entry in moved:
                idx = bisect.bisect_left(cross, entry)
                lower = cross[idx - 1] if idx > 0 else None
                upper = cross[idx + 1] if idx + 1 < len(cross) else None
                for pair in ((lower, entry), (entry, upper)):
                    if pair not in seen:
                        seen.add(pair)
                        on_gap(*pair)


def column_gaps_oracle(col, meeting: set) -> Iterator:
    """`ColumnSweep.gaps` as a list of (height, place) crossings re-found by
    bisection at every jump, each gap as (lower, upper) with None for the
    range boundary; the pairs of copy ids that meet go into `meeting`.

    A jumper that meets nothing is rewritten in place, one that meets
    something is deleted and re-inserted after the whole batch has been
    walked, and a batch's gaps are deduplicated with a set.
    """
    heights = list(col.first)
    cross = sorted(zip(heights, range(len(heights))))
    ids = col.ids
    for _, level in itertools.groupby(cross, key=lambda x: x[0]):
        meeting.update(itertools.combinations([ids[i] for _, i in level], 2))
    bounded = [None, *cross, None]
    yield from zip(bounded, bounded[1:])
    for c in col.breakpoints:
        batch = col.events[c]
        slots, moves = [], []
        for i, new in batch:
            j = k = bisect.bisect_left(cross, (heights[i], i))
            while k + 1 < len(cross) and cross[k + 1][0] <= new:
                k += 1
                other = ids[cross[k][1]]
                meeting.add((min(ids[i], other), max(ids[i], other)))
            (moves if k > j else slots).append((j, i, new))
        for j, i, new in slots:
            cross[j] = (new, i)
            heights[i] = new
        for _, i, new in moves:
            del cross[bisect.bisect_left(cross, (heights[i], i))]
            bisect.insort(cross, (new, i))
            heights[i] = new
        seen = set()  # gap g lies between cross[g - 1] and cross[g]
        for i, new in batch:
            j = bisect.bisect_left(cross, (new, i))
            for g in (j, j + 1):
                if g not in seen:
                    seen.add(g)
                    yield (cross[g - 1] if g else None, cross[g] if g < len(cross) else None)


def sweep_level_oracle(state, n: int) -> tuple[dict, set]:
    """(records by check name, meeting pairs) of `verify.sweep_level`, from
    the bisecting gap walk, with `_problems()` asked about every gap."""
    budget = Fraction(1, 2**state.n_jumps)
    worst = max_gap = Fraction(0)
    coverage_witness = v_witness = None
    gaps_seen = 0
    meeting: set = set()
    den = state.den
    for sigma in addresses_of_length(n):
        col = ColumnSweep(state, sigma)
        if coverage_witness is None:
            gap = Fraction(_coverage_gap(col, den), den)
            worst = max(worst, gap)
            if gap > len(col.ids) * budget:
                coverage_witness = {
                    "column": str(sigma),
                    "gap": rational_to_str(gap),
                    "budget": rational_to_str(len(col.ids) * budget),
                }
        lo, hi = -n * den, (n + 1) * den
        best = 0
        for lower, upper in column_gaps_oracle(col, meeting):
            lo_h = lo if lower is None else lower[0]
            hi_h = hi if upper is None else upper[0]
            length = hi_h - lo_h
            if length <= 0:
                continue
            gaps_seen += 1
            best = max(best, length)
            low = None if lower is None else lower[1]
            up = None if upper is None else upper[1]
            if v_witness is None and (problems := _problems(col, low, up, length, den)):
                v_witness = {
                    "column": str(sigma),
                    "gap": [rational_to_str(Fraction(x, den)) for x in (lo_h, hi_h)],
                    "lower": None if low is None else state.copies[col.ids[low]].key,
                    "upper": None if up is None else state.copies[col.ids[up]].key,
                    "problems": problems,
                }
        max_gap = max(max_gap, Fraction(best, den))
    scope, gap_metric = f"n={n}", {"max_gap": rational_to_str(max_gap)}
    coverage_metric = {"max_column_gap": rational_to_str(worst)}
    v_metrics = {"gaps_checked": gaps_seen, **gap_metric}
    records = [
        CheckRecord("coverage", scope, "fail" if coverage_witness else "pass", coverage_witness, coverage_metric),
        CheckRecord("condition-v", scope, "fail" if v_witness else "pass", v_witness, v_metrics),
        CheckRecord("max-gap", scope, "pass", None, gap_metric),
    ]
    return {r.name: r for r in records}, meeting


def dense_prim_edges_oracle(points) -> np.ndarray:
    """Vectorised dense Prim over the complete graph, lengths in Prim order.

    The same length expression, sqrt(dx^2 + dy^2), as the package's link
    test, so its longest edge is the package's eps_star bit for bit.
    """
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    if m <= 1:
        return np.zeros(0)
    in_tree = np.zeros(m, dtype=bool)
    best = np.full(m, np.inf)
    in_tree[0] = True
    cur = 0
    edges = np.empty(m - 1)
    for k in range(m - 1):
        d2 = ((pts - pts[cur]) ** 2).sum(axis=1)
        np.minimum(best, d2, out=best)
        best[in_tree] = np.inf
        nxt = int(np.argmin(best))
        edges[k] = best[nxt]
        in_tree[nxt] = True
        cur = nxt
    return np.sqrt(edges)


class DSU:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def components_oracle(points, eps: float) -> int:
    """Epsilon-chain components by all-pairs union-find.

    Distances use the package's length expression, sqrt(dx^2 + dy^2), not
    math.hypot: the two can differ in the last bit, which decides a link
    when eps is exactly an MST edge length.
    """
    m = len(points)
    dsu = DSU(m)
    for i in range(m):
        for j in range(i + 1, m):
            dx, dy = points[i][0] - points[j][0], points[i][1] - points[j][1]
            if math.sqrt(dx * dx + dy * dy) <= eps:
                dsu.union(i, j)
    return len({dsu.find(i) for i in range(m)})


def diameter_oracle(points) -> float:
    best = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = max(
                best,
                math.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1]),
            )
    return best


# ---------------------------------------------------------------------------
# the float boundary, walked in Fractions: every coordinate is float() of an
# exact piece endpoint, formatted where it is written. The renderers share
# the package's document head and tail; the golden digests in
# test_render.py pin those.


def _fmt(x: float) -> str:
    return f"{x:.12f}"


class CanvasOracle:
    """The viewport map with one format call per coordinate written: the
    slow path of the package canvas's memoized axes."""

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        self.x_lo, self.y_hi = x_lo, y_hi
        self.sx = (WIDTH - 2 * MARGIN) / (x_hi - x_lo)
        self.sy = (HEIGHT - 2 * MARGIN) / (y_hi - y_lo)

    def x(self, v: float) -> str:
        return _fmt(MARGIN + (v - self.x_lo) * self.sx)

    def y(self, v: float) -> str:
        return _fmt(MARGIN + (self.y_hi - v) * self.sy)

    def line(self, x1, y1, x2, y2, cls: str, width: float) -> str:
        return (
            f'<line class="{cls}" x1="{self.x(x1)}" y1="{self.y(y1)}" '
            f'x2="{self.x(x2)}" y2="{self.y(y2)}" stroke-width="{width}" />'
        )

    def rect(self, x1, y1, x2, y2, cls: str, width: float) -> str:
        return (
            f'<rect class="{cls}" x="{self.x(x1)}" y="{self.y(y2)}" '
            f'width="{_fmt((x2 - x1) * self.sx)}" height="{_fmt((y2 - y1) * self.sy)}" '
            f'stroke-width="{width}" fill="none" />'
        )

    def circle(self, x, y, r: float, cls: str) -> str:
        return f'<circle class="{cls}" cx="{self.x(x)}" cy="{self.y(y)}" r="{_fmt(r)}" />'


def _document(body: list[str]) -> str:
    return HEAD + "\n".join(body) + "\n" + TAIL


_FAN_DIAMETERS: dict = {}


def copy_fan_diameter_oracle(copy) -> float:
    """Diameter over the fan images of every plateau and jump endpoint.

    The copy's rect and jump count fix it, so it is walked once per rect
    and jump count and remembered."""
    key = (copy.rect, copy.table.n_jumps)
    if key not in _FAN_DIAMETERS:
        _FAN_DIAMETERS[key] = _walk_fan_diameter(copy)
    return _FAN_DIAMETERS[key]


def _walk_fan_diameter(copy) -> float:
    pts = []
    for lo, hi, v in plateaus_global_oracle(copy):
        pts.append(fan_point((lo, v)))
        pts.append(fan_point((hi, v)))
    for c, lo, hi in jumps_global_oracle(copy):
        pts.append(fan_point((c, lo)))
        pts.append(fan_point((c, hi)))
    arr = np.asarray(pts)
    diff = arr[:, None, :] - arr[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=-1).max()))


def stage_fan_diameters_oracle(state) -> dict[int, float]:
    """Each stage's largest copy diameter, from every copy's diameter."""
    out: dict[int, float] = {}
    for copy in state.copies:
        d = copy_fan_diameter_oracle(copy)
        if d > out.get(copy.stage, 0.0):
            out[copy.stage] = d
    return out


def pair_diameter_oracle(points) -> float:
    """The largest distance between two of the points, squared through
    every pair of `itertools.combinations`, then one sqrt."""
    best = 0.0
    for (x0, y0), (x1, y1) in itertools.combinations(points, 2):
        dx, dy = x0 - x1, y0 - y1
        best = max(best, dx * dx + dy * dy)
    return math.sqrt(best)


def fan_diameter_bound_oracle(copy) -> float:
    """The padded trapezoid bound on a copy's fan diameter from its four
    corners, each made through `xi_float` and `fan_x`, and
    `pair_diameter_oracle`."""
    ys = [xi_float(copy.height(k) / copy.den) for k in (0, copy.table.n_jumps)]
    pow3 = 3**copy.stage
    corners = [(fan_x(c / pow3, y), y) for c in (copy.origin, copy.origin + 1) for y in ys]
    return pair_diameter_oracle(corners) + 2.0**-40


@lru_cache(maxsize=None)
def basic_intervals_oracle(depth: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """The depth-`depth` basic intervals of C, (endpoint_zero, endpoint_one)
    per address, left to right."""
    return tuple((endpoint_zero(sigma), endpoint_one(sigma)) for sigma in addresses_of_length(depth))


def plateau_segments_oracle(copy, lo: Fraction, hi: Fraction, depth: int):
    """The plateau [lo, hi] clipped to every depth-`depth` basic interval of the
    copy's local Cantor set, in global Fractions, left to right."""
    local_lo, local_hi = local_c(copy, lo), local_c(copy, hi)
    out = []
    for left, right in basic_intervals_oracle(depth):
        if left >= local_hi:
            break  # so is every later interval
        a = max(left, local_lo)
        b = min(right, local_hi)
        if a < b:
            out.append((to_global_c(copy, a), to_global_c(copy, b)))
    return out


def render_tiling_oracle(state) -> str:
    canvas = CanvasOracle(-0.05, 1.05, -state.depth - 0.25, state.depth + 1.25)
    body = [canvas.rect(0.0, 0.0, 1.0, 1.0, "frame", 0.6)]
    for stage in state.stages[1:]:
        for r in stage.rects:
            body.append(
                canvas.rect(float(endpoint_zero_oracle(r.address.bits)), float(r.bottom),
                            float(endpoint_one_oracle(r.address.bits)), float(r.top), "rect", STROKE_RECT)
            )
    for copy in state.copies:
        body.append(f'<g class="copy" id="copy-{copy.stage}-{copy.index}">')
        depth = max(CANTOR_DEPTH - copy.stage, 0)
        for lo, hi, v in plateaus_global_oracle(copy):
            for a, b in plateau_segments_oracle(copy, lo, hi, depth):
                body.append(canvas.line(float(a), float(v), float(b), float(v), "copy", STROKE_COPY))
        for c, lo, hi in jumps_global_oracle(copy):
            body.append(canvas.line(float(c), float(lo), float(c), float(hi), "copy", STROKE_COPY))
        body.append("</g>")
    return _document(body)


def render_fan_oracle(state) -> str:
    canvas = CanvasOracle(-0.05, 1.05, -0.05, 1.05)
    body = ['<g class="spokes">']
    spoke_cs = []
    for sigma in addresses_of_length(CANTOR_DEPTH):
        spoke_cs.extend((endpoint_zero(sigma), endpoint_one(sigma)))
    for c in sorted(set(spoke_cs)):
        body.append(canvas.line(0.5, 0.0, float(c), 1.0, "spoke", 0.5))
    body.append("</g>")
    for copy in state.copies:
        body.append(f'<g class="copy" id="copy-{copy.stage}-{copy.index}">')
        depth = max(CANTOR_DEPTH - copy.stage, 0)
        for lo, hi, v in plateaus_global_oracle(copy):
            for a, b in plateau_segments_oracle(copy, lo, hi, depth):
                pa, pb = fan_point((a, v)), fan_point((b, v))
                body.append(canvas.line(pa[0], pa[1], pb[0], pb[1], "copy", STROKE_COPY))
        for c, lo, hi in jumps_global_oracle(copy):
            pa, pb = fan_point((c, lo)), fan_point((c, hi))
            body.append(canvas.line(pa[0], pa[1], pb[0], pb[1], "copy", STROKE_COPY))
        body.append("</g>")
    diameters = {str(k): f"{v:.9f}" for k, v in sorted(stage_fan_diameters_oracle(state).items())}
    body.append(
        "<metadata>" + json.dumps({"stage_fan_diameters": diameters}, sort_keys=True) + "</metadata>"
    )
    body.append(canvas.circle(0.5, 0.0, 3.0, "vertex"))
    return _document(body)


def render_earring_oracle(earring) -> str:
    """The earring figure with every coordinate formatted where it is written."""
    if not earring.loops:
        return _document([])
    scale = max(float(loop.height) for loop in earring.loops)
    canvas = CanvasOracle(-0.1, 1.1, -0.65, 0.65)
    body = [f'<g class="earring" id="earring-{earring.copy_key.replace(":", "-")}">']
    for loop in earring.loops:
        radius = float(loop.height) / scale / 2
        body.append(
            f'<circle class="loop" cx="{canvas.x(radius)}" cy="{canvas.y(0.0)}" '
            f'r="{_fmt(radius * canvas.sx)}" stroke-width="1.0" />'
        )
    body.append("</g>")
    body.append(canvas.circle(0.0, 0.0, 2.5, "vertex"))
    return _document(body)


# ---------------------------------------------------------------------------
# the stage builder and the cloud's fibers, walked in Fractions through
# per-copy traces and an address index of their own


def band_oracle(copy, left: Fraction, right: Fraction) -> tuple[Fraction, Fraction]:
    """Height extent of a copy over the column [left, right]: its two end traces."""
    return (trace_at_oracle(copy, left), trace_at_oracle(copy, right))


def build_oracle(depth: int, n_jumps: int, strict: bool = True):
    """The stage construction with Fraction bands, the reference for `tiling.build`."""
    table = jump_table(n_jumps)
    stages = [stage_zero()] + ([stage_one(n_jumps)] if depth >= 1 else [])
    by_address: dict[tuple[int, ...], list] = {}
    for n, rects in enumerate(stages):
        for i, rect in enumerate(rects):
            by_address.setdefault(rect.address.bits, []).append(
                PlacedCopy(n, i, rect, table, own_den(rect, n_jumps))
            )
    for n in range(2, depth + 1):
        rects = []
        for sigma in addresses_of_length(n):
            left, right = endpoint_zero(sigma), endpoint_one(sigma)
            bands = []
            for length in range(n + 1):
                for copy in by_address.get(sigma.bits[:length], []):
                    x, y = band_oracle(copy, left, right)
                    if not (-n + 1 <= x <= y <= n):
                        raise TraceOutOfRange(
                            f"trace outside [-n+1, n] at stage {n}, column {sigma}: {x}, {y}"
                        )
                    bands.append((x, y, copy))
            bands.sort(key=lambda t: (t[0], t[1], t[2].stage, t[2].index))
            prev_y = None
            for x, y, copy in bands:
                if strict and not (x < y and (prev_y is None or prev_y < x)):
                    raise TruncationTooCoarse(
                        str(sigma), n, min_jumps_for_depth(depth),
                        f"trace band [{x}, {y}] of copy {copy.key} breaks strict interleaving",
                    )
                if prev_y is not None and prev_y > x:
                    raise TruncationTooCoarse(
                        str(sigma), n, min_jumps_for_depth(depth),
                        f"trace bands overlap at copy {copy.key}",
                    )
                prev_y = y
            cursor = Fraction(-n)
            strips = []
            for x, y, _ in bands:
                strips.append((cursor, x))
                cursor = y
            strips.append((cursor, Fraction(n + 1)))
            for s_lo, s_hi in strips:
                length = s_hi - s_lo
                if length <= 0:
                    continue
                count = math.ceil(length * (n + 1))
                piece = length / count
                for k in range(count):
                    rects.append(Rect(sigma, s_lo + k * piece, s_lo + (k + 1) * piece))
        stages.append(rects)
        for i, rect in enumerate(rects):
            by_address.setdefault(rect.address.bits, []).append(
                PlacedCopy(n, i, rect, table, own_den(rect, n_jumps))
            )
    return ConstructionState(depth, n_jumps, strict, stages)


class SampledCloud(NamedTuple):
    """The oracle cloud: its fan coordinates, and the exact P-samples."""

    xy: list[tuple[float, float]]
    p_samples: list[tuple[Fraction, Fraction]]


def sample_points_oracle(model, grid_depth: int, fiber_count: int) -> SampledCloud:
    """The cloud with each Q-point mapped through `fan_point` on Fractions and
    each fiber's gaps taken from `vertical_trace` in Fractions."""
    state = model.state
    xy = [VERTEX, *(fan_point(qp.point) for qp in q_points(model))]
    p_samples = []
    fibers = set()
    for bits in itertools.product((0, 1), repeat=grid_depth):
        fibers.add(endpoint_zero(Address(bits)))
        fibers.add(endpoint_one(Address(bits)))
    lo, hi = state.range_low, state.range_high
    for c in sorted(fibers):
        cursor, gaps = lo, []
        for h, _ in vertical_trace(state, c, lo, hi):
            if h > cursor:
                gaps.append((h - cursor, cursor, h))
            cursor = h
        if hi > cursor:
            gaps.append((hi - cursor, cursor, hi))
        gaps.sort(key=lambda g: (-g[0], g[1]))
        for _, g_lo, g_hi in gaps[:fiber_count]:
            p_samples.append((c, (g_lo + g_hi) / 2))
    return SampledCloud(xy + [fan_point(p) for p in p_samples], p_samples)


def rational_oracle(text: str) -> Fraction:
    """A "p/q" or bare integer text as a Fraction, by the state format's grammar."""
    match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?", text)
    if match is None:
        raise ValueError(f"not a rational: {text!r}")
    return Fraction(int(match[1]), int(match[2] or 1))


def state_from_json_obj_oracle(doc: dict, location: str = "<state>") -> ConstructionState:
    """state_from_json_obj with every rect's texts checked and parsed afresh
    into Fractions, and its bounds compared as Fractions."""
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
    stages: list[list[Rect]] = []
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
                a, b = rational_oracle(a_text), rational_oracle(b_text)
                if not a < b:
                    raise ValueError(f"rect needs bottom < top, got [{a}, {b}]")
                rect = Rect(address, a, b)
            except ValueError as exc:
                raise StateSchemaError(str(exc), rloc) from exc
            if len(address) != n:
                raise StateSchemaError(f"address length {len(address)} at stage {n}", rloc)
            rects.append(rect)
        stages.append(rects)
    return ConstructionState(depth, n_jumps, strict, stages)
