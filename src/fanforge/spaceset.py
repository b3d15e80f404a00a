"""Point classes over the tiling, coordinate changes, regions, and sampling.

The countable class Q is the set of all jump-segment midpoints of all placed
copies; the co-countable class P is kept symbolic, as the complement of all
copy images, and queried through exact membership predicates. The float
boundary is here: piece endpoints, jump midpoints and P-samples as floats
(`piece_floats`, `fan_midpoints`, `sample_points`), the arctan compression,
the fan map and the copies' fan diameters. Each float is the correctly
rounded value of an exact rational, arctan is always `math.atan`, and
nothing computed here flows back into exact set definitions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .debski import jump_table
from .errors import DepthInsufficient, NotOrdered, NotSpanning
from .exact import (
    Address,
    addresses_of_length,
    cantor_member,
    endpoint_one,
    endpoint_zero,
)
from .tiling import ColumnSweep, ConstructionState, PlacedCopy, check_sampling

Point = tuple[Fraction, Fraction]


def xi_float(r: Fraction | float) -> float:
    """The arctan compression xi(r) = atan(r)/pi + 1/2 of a height into (0, 1),
    as a float; every float caller goes through this math.atan."""
    return math.atan(float(r)) / math.pi + 0.5


def fan_x(c: float, y: float) -> float:
    """The fan map's first coordinate (y(2c - 1) + 1) / 2 of the float point
    (c, y); the map keeps y and collapses the slice y = 0 to the vertex."""
    return (y * (2 * c - 1) + 1) / 2


def fan_point(point: tuple[Fraction | float, Fraction | float]) -> tuple[float, float]:
    """The fan map after xi: the rendered/fan position of a model point."""
    c, r = point
    y = xi_float(r)
    return (fan_x(float(c), y), y)


class PieceFloats(NamedTuple):
    """One copy's piece endpoints at the float boundary.

    Plateau j lies at height heights[j] and is drawn as the c-segments
    segments[j]; the jump at sorted position j is the vertical at jumps[j]
    from heights[j] to heights[j + 1].
    """

    heights: list[float]
    jumps: list[float]
    segments: list[list[tuple[float, float]]]


@lru_cache(maxsize=None)
def _cantor_segments(n_jumps: int, depth: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each local plateau clipped to the depth-`depth` basic intervals of C.

    Per plateau, the nonempty clipped intervals left to right, as int pairs
    over T * 3^depth (T the jump table's denominator). Every copy shares the
    jump table, so these are the same for every copy.
    """
    table = jump_table(n_jumps)
    t_den, locations = table.den, table.locations
    bounds = [b * 3**depth for b in (0, *locations, t_den)]
    lefts = [0]  # left ends of the basic intervals over 3^depth, in order
    for _ in range(depth):
        lefts = [3 * x + b for x in lefts for b in (0, 2)]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        clipped = ((max(x * t_den, lo), min((x + 1) * t_den, hi)) for x in lefts)
        out.append(tuple((a, b) for a, b in clipped if a < b))
    return tuple(out)


def piece_floats(copy: PlacedCopy, depth: int) -> PieceFloats:
    """The copy's plateau heights, jump locations and depth-`depth` plateau
    segments as floats, each the correctly rounded value of its exact
    coordinate.

    They are made from ints, never from Fractions, through the copy's
    integer form (PlacedCopy): a local u = x / d lands at
    (origin*d + x) / (d * 3^s), and a height is (base + step*k) / den.
    CPython's int / int true division rounds correctly, and float(Fraction)
    is that division too, so every value equals float() of the Fraction it
    stands for.
    """
    table = copy.table
    t_den, locations, values = table.den, table.locations, table.values
    den, base, step = copy.den, copy.base, copy.step
    pow3, origin = 3**copy.stage, copy.origin
    jump_origin, jump_unit = origin * t_den, t_den * pow3  # locations are over T
    seg_den = t_den * 3**depth  # segment ends are over T * 3^depth
    seg_origin, seg_unit = origin * seg_den, seg_den * pow3
    return PieceFloats(
        [(base + step * k) / den for k in values],
        [(jump_origin + x) / jump_unit for x in locations],
        [[((seg_origin + x) / seg_unit, (seg_origin + y) / seg_unit) for x, y in segs]
         for segs in _cantor_segments(table.n_jumps, depth)],
    )


def fan_midpoints(copy: PlacedCopy) -> list[tuple[float, float]]:
    """The fan images of the copy's jump midpoints, by jump index.

    As in `piece_floats`, they come from ints: the jump at sorted position
    j lies at column (origin*T + loc_j) / (T * 3^s) and its midpoint at
    height (2*base + step*(k_j + k_{j+1})) / (2*den), so each image is
    fan_point of the exact midpoint (PlacedCopy.midpoint_global).
    """
    table = copy.table
    t_den, locations, values = table.den, table.locations, table.values
    origin, unit = copy.origin * t_den, t_den * 3**copy.stage
    out = []
    for pos in table.pos_of_index:
        y = xi_float((2 * copy.base + copy.step * (values[pos] + values[pos + 1])) / (2 * copy.den))
        out.append((fan_x((origin + locations[pos]) / unit, y), y))
    return out


def _diameter(points: list[tuple[float, float]]) -> float:
    """The largest distance sqrt(dx*dx + dy*dy) between two of the points."""
    best = 0.0
    for (x0, y0), (x1, y1) in combinations(points, 2):
        dx, dy = x0 - x1, y0 - y1
        best = max(best, dx * dx + dy * dy)
    return math.sqrt(best)


def copy_fan_diameter(copy: PlacedCopy) -> float:
    """Euclidean diameter of the copy's fan image.

    Piece endpoints suffice, and the plateau ends are all of them: each
    jump runs from one plateau's right end to the next one's left end.
    """
    pieces = piece_floats(copy, 0)
    ys = [xi_float(v) for v in pieces.heights]
    ends = [(fan_x(c, y), y) for y, ((lo, hi),) in zip(ys, pieces.segments) for c in (lo, hi)]
    return _diameter(ends)


def fan_diameter_bound(copy: PlacedCopy) -> float:
    """An upper bound on `copy_fan_diameter`, padded for rounding.

    At a fixed height the fan map is affine in c, so the image of the box
    [origin, origin + 1] / 3^s x [y0, y1], y0 and y1 the fan heights of the
    lowest and highest plateaus, is the convex trapezoid on the four mapped
    corners, and it holds every plateau end.

    The pad. With u = 2^-53, the corners and the plateau ends share the
    column ends, y0 and y1 bit for bit (the same int / int divisions and
    xi_float calls). A plateau end's column lies between the column ends,
    since rounding is monotone, and its fan height leaves [y0, y1] by under
    2^-51, twice xi_float's error if math.atan is within an ulp. fan_x errs
    by at most 3u/2. So each computed plateau end lies within 2^-49 of the
    exact trapezoid on the computed corners, each corner within 2^-52 of its
    place, and each length is computed to within a factor 1 + 3u. Hence the
    computed diameter is at most bound * (1 + 7u) + 2^-47 < bound + 2^-46,
    fan points lying in the unit square. A pad of 2^-40 covers that.
    """
    ys = [xi_float(copy.height(k) / copy.den) for k in (0, copy.table.n_jumps)]
    pow3 = 3**copy.stage
    corners = [(fan_x(c / pow3, y), y) for c in (copy.origin, copy.origin + 1) for y in ys]
    return _diameter(corners) + 2.0**-40


def stage_fan_diameters(state: ConstructionState) -> dict[int, float]:
    """Max fan-coordinate copy diameter per stage, by branch and bound.

    Each stage's copies are visited by `fan_diameter_bound`, largest first.
    A copy's diameter is computed only while its bound exceeds the stage's
    best so far; once it does not, neither does any later copy's.
    """
    out: dict[int, float] = {}
    for stage in state.stages:
        best = 0.0
        bounded = sorted(((fan_diameter_bound(c), c) for c in stage.copies), key=lambda t: -t[0])
        for bound, copy in bounded:
            if bound <= best:
                break
            best = max(best, copy_fan_diameter(copy))
        if best > 0.0:
            out[stage.n] = best
    return out


VERTEX = (0.5, 0.0)


class SpaceModel:
    """A construction state with its derived countable point class."""

    def __init__(self, state: ConstructionState):
        self.state = state

    def classify(self, point: Point) -> str:
        """'Q', 'P', or 'not-in-Y' (the point lies on a copy off its midpoint).

        Decided from the integer fibers of the copies whose heights reach
        h, found on the column index (ConstructionState.fibers_through): a
        point is in Q when some copy jumps at c and h is that jump's
        midpoint, even when it lies on another copy too."""
        c, h = point
        on = False
        scaled = h.numerator * self.state.den  # h = scaled / (den * h.denominator)
        for _, k, k_hi, ids in self.state.fibers_through(c, h, h):
            for cid in ids:
                copy = self.state.copies[cid]
                lo, hi = copy.height(k) * h.denominator, copy.height(k_hi) * h.denominator
                if k_hi > k and 2 * scaled == lo + hi:
                    return "Q"
                on = on or lo <= scaled <= hi
        return "not-in-Y" if on else "P"

    def in_y(self, point: Point) -> bool:
        return self.classify(point) != "not-in-Y"


def assemble(state: ConstructionState) -> SpaceModel:
    """Derive the countable class and membership predicates from a state."""
    return SpaceModel(state)


class Region(NamedTuple):
    """A basis region with its finite exact boundary point set.

    kind 'betweenCopies': the open set of Y-points strictly between two
    vertically ordered copies over one column. kind 'belowCopies': Y-points
    below a finite family of copies whose columns cover C. Equality ignores
    the model.
    """

    kind: str
    column: Address | None
    supports: tuple[int, ...]
    boundary: tuple[Point, ...]
    model: SpaceModel

    def __eq__(self, other: object) -> bool:
        return self[:4] == other[:4] if isinstance(other, Region) else NotImplemented

    def __ne__(self, other: object) -> bool:
        return not self == other

    def contains(self, point: Point) -> bool:
        c, h = point
        if not (0 <= c <= 1) or not cantor_member(c):
            return False
        if self.kind == "betweenCopies":
            if not (endpoint_zero(self.column) <= c <= endpoint_one(self.column)):
                return False
            lower = self.model.state.copies[self.supports[0]]
            upper = self.model.state.copies[self.supports[1]]
            below_top = lower.fiber(c)[2]
            above_bot = upper.fiber(c)[1]
            if not below_top < h < above_bot:
                return False
            return self.model.in_y(point)
        if self.kind == "belowCopies":
            for cid in self.supports:
                copy = self.model.state.copies[cid]
                if copy.rect.left <= c <= copy.rect.right:
                    if not h < copy.fiber(c)[1]:
                        return False
                    return self.model.in_y(point)
            return False
        raise ValueError(f"unknown region kind {self.kind}")


def region_between(model: SpaceModel, lower_id: int, upper_id: int, column: Address) -> Region:
    """The Y-points strictly between two copies over one column.

    NotOrdered unless the lower copy starts below the upper one and the
    column's sweep of the two finds no meeting (ColumnSweep.pair_gaps).

    The boundary within Y is exactly the midpoint images of the two copies
    over the column: every such midpoint is a two-sided limit of region
    points, and no other Y-point lies on the region's frontier.
    """
    state = model.state
    lower, upper = state.copy_at(lower_id), state.copy_at(upper_id)
    for copy in (lower, upper):
        if not copy.rect.address.is_prefix_of(column):
            raise NotSpanning(f"copy {copy.key} does not span column {column}")
    col = ColumnSweep(state, column, len(column), [lower_id, upper_id])
    if col.adjacent_order() != [0, 1] or col.pair_gaps([0, 1], 0) is None:
        raise NotOrdered(
            f"copy {lower.key} is not strictly below copy {upper.key} over {column}"
        )
    n, index_at = len(column), state.table.index_at
    boundary = [
        copy.midpoint_global(m)
        for copy in (lower, upper)
        for m in sorted(index_at[pos] for pos in copy.jumps_inside(column.origin, n))
    ]
    return Region("betweenCopies", column, (lower_id, upper_id), tuple(boundary), model)


def vertex_neighborhood(model: SpaceModel, r: Fraction) -> Region:
    """A below-copies region realizing a small fan neighborhood of the vertex.

    Finds a finite cover of C by columns of copies lying entirely below the
    exact height bound r; per covered column the highest qualifying copy is
    chosen. The fan image of the region lies below xi(r). DepthInsufficient
    when no such cover exists at the built depth.
    """
    state = model.state
    bound = r.numerator * state.den  # top / den < r iff top * q < bound
    best: dict[tuple[int, ...], tuple[int, int]] = {}  # column -> (copy top * q, copy id)
    for cid, copy in enumerate(state.copies):
        top = copy.height(state.n_jumps) * r.denominator
        if top < bound:
            bits = copy.rect.address.bits
            if bits not in best or top > best[bits][0]:
                best[bits] = (top, cid)

    chosen: list[int] = []

    def cover(bits: tuple[int, ...]) -> None:
        if bits in best:
            chosen.append(best[bits][1])
            return
        if len(bits) >= state.depth:
            raise DepthInsufficient(
                f"no copy below {r} over column '{''.join(map(str, bits))}'"
                f" at depth {state.depth}"
            )
        cover(bits + (0,))
        cover(bits + (1,))

    cover(())
    boundary: list[Point] = []
    for cid in chosen:
        boundary.extend(state.copies[cid].midpoints_global())
    return Region("belowCopies", None, tuple(chosen), tuple(boundary), model)


class PointCloud:
    """Deterministic floating sample of the fan image of the model.

    `xy` holds the vertex, the Q-points copy by copy (by jump index) and
    the P-samples, in fan coordinates.
    """

    def __init__(self, xy: list[tuple[float, float]]):
        self.xy = xy

    def __len__(self) -> int:
        return len(self.xy)

    def coordinates(self) -> list[tuple[float, float]]:
        return self.xy


def sample_points(model: SpaceModel, grid_depth: int, fiber_count: int) -> PointCloud:
    """The vertex, every Q-point, and per-fiber P-samples, in fan coordinates.

    Fibers are the Cantor endpoints at `grid_depth`, left to right; each
    contributes the midpoints of its `fiber_count` longest gaps between
    crossings inside [-K, K+1] (ties broken low first). A depth-`grid_depth`
    column's sweep holds the crossings at its left end in `first` and at its
    right end in `last`. All choices are exact, so the cloud is deterministic.
    As in `fan_midpoints`, a sample's fiber (origin or origin + 1) / 3^depth
    and its gap midpoint (lo + hi) / (2 * den) are int / int divisions,
    float() of the exact point. Parameters are refused as in `check_sampling`.
    """
    state = model.state
    check_sampling(state, grid_depth, fiber_count)
    xy = [VERTEX]
    for copy in state.copies:
        xy += fan_midpoints(copy)
    unit, den = 3**grid_depth, state.den
    lo, hi = -state.depth * den, (state.depth + 1) * den
    for sigma in addresses_of_length(grid_depth):
        col = ColumnSweep(state, sigma, grid_depth)
        for c, crossings in ((sigma.origin / unit, col.first), ((sigma.origin + 1) / unit, col.last)):
            ends = sorted({lo, hi, *(h for h in crossings if lo <= h <= hi)})
            gaps = sorted(zip(ends, ends[1:]), key=lambda g: (g[0] - g[1], g[0]))
            for g_lo, g_hi in gaps[:fiber_count]:
                y = xi_float((g_lo + g_hi) / (2 * den))
                xy.append((fan_x(c, y), y))
    return PointCloud(xy)
