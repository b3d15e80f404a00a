"""The float boundary: where exact values become floats.

Piece endpoints and jump midpoints as floats (`piece_floats`,
`fan_midpoints`), the arctan compression, the fan map and the copies' fan
diameters. Each float is the correctly rounded value of an exact rational,
arctan is always `math.atan`, and nothing computed here flows back into
exact set definitions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .debski import jump_table
from .tiling import ConstructionState, PlacedCopy


def xi_float(r: Fraction | float) -> float:
    """The arctan compression xi(r) = atan(r)/pi + 1/2 of a height into (0, 1),
    as a float; every float caller goes through this math.atan."""
    return math.atan(float(r)) / math.pi + 0.5


def fan_x(c: float, y: float) -> float:
    """The fan map's first coordinate (y(2c - 1) + 1) / 2 of the float point
    (c, y); the map keeps y and collapses the slice y = 0 to the vertex."""
    return (y * (2 * c - 1) + 1) / 2


class PieceFloats(NamedTuple):
    """One copy's piece endpoints at the float boundary.

    Plateau j lies at height heights[j] and is drawn as the c-segments
    segments[j]; the jump at sorted position j is the vertical from
    heights[j] to heights[j + 1]. A jump location is a point of C and no
    endpoint, so it lies inside a basic interval of every depth: it is the
    right end of segments[j]'s last segment and the left end of
    segments[j + 1]'s first, float for float.
    """

    heights: list[float]
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
    """The copy's plateau heights and depth-`depth` plateau segments as
    floats, each the correctly rounded value of its exact coordinate.

    They are made from ints, never from Fractions, through the copy's
    integer form (PlacedCopy): a local u = x / d lands at
    (origin*d + x) / (d * 3^s), and a height is (base + step*k) / den.
    CPython's int / int true division rounds correctly, and float(Fraction)
    is that division too, so every value equals float() of the Fraction it
    stands for.
    """
    table = copy.table
    t_den, values = table.den, table.values
    den, base, step = copy.den, copy.base, copy.step
    pow3, origin = copy.pow3, copy.origin
    seg_den = t_den * 3**depth  # segment ends are over T * 3^depth
    seg_origin, seg_unit = origin * seg_den, seg_den * pow3
    return PieceFloats(
        [(base + step * k) / den for k in values],
        [[((seg_origin + x) / seg_unit, (seg_origin + y) / seg_unit) for x, y in segs]
         for segs in _cantor_segments(table.n_jumps, depth)],
    )


def fan_midpoints(copy: PlacedCopy) -> list[tuple[float, float]]:
    """The fan images of the copy's jump midpoints, by jump index.

    As in `piece_floats`, they come from ints: the jump at sorted position
    j lies at column (origin*T + loc_j) / (T * 3^s) and its midpoint at
    height (2*base + step*(k_j + k_{j+1})) / (2*den), so each image is
    the fan map after xi of the exact midpoint (PlacedCopy.midpoint_global).
    """
    table = copy.table
    t_den, locations, values = table.den, table.locations, table.values
    origin, unit = copy.origin * t_den, t_den * copy.pow3
    out = []
    for pos in table.pos_of_index:
        y = xi_float((2 * copy.base + copy.step * (values[pos] + values[pos + 1])) / (2 * copy.den))
        out.append((fan_x((origin + locations[pos]) / unit, y), y))
    return out


def _diameter(points: list[tuple[float, float]]) -> float:
    """The largest distance sqrt(dx*dx + dy*dy) between two of the points,
    which are finite, taken row by row."""
    best = 0.0
    for i, (x0, y0) in enumerate(points, 1):
        for x1, y1 in points[i:]:
            d = (x0 - x1) * (x0 - x1) + (y0 - y1) * (y0 - y1)
            if d > best:
                best = d
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
    corners, and it holds every plateau end. The corners are
    (fan_x(c, y), y) for c in the column ends and y in (y0, y1), and the
    bound is the largest of their six distances.

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

    The corners at one height differ in x alone, and (y0 - y1)^2 is the
    same float either way round, so the six squared lengths are written
    out with that square made once.
    """
    y0 = xi_float(copy.height(0) / copy.den)
    y1 = xi_float(copy.height(copy.table.n_jumps) / copy.den)
    c0, c1 = copy.origin / copy.pow3, (copy.origin + 1) / copy.pow3
    x00, x01 = fan_x(c0, y0), fan_x(c0, y1)
    x10, x11 = fan_x(c1, y0), fan_x(c1, y1)
    dy = (y0 - y1) * (y0 - y1)
    return math.sqrt(max(
        (x00 - x01) * (x00 - x01) + dy,
        (x00 - x10) * (x00 - x10),
        (x00 - x11) * (x00 - x11) + dy,
        (x01 - x10) * (x01 - x10) + dy,
        (x01 - x11) * (x01 - x11),
        (x10 - x11) * (x10 - x11) + dy,
    )) + 2.0**-40


def stage_fan_diameters(state: ConstructionState) -> dict[int, float]:
    """Max fan-coordinate copy diameter per stage, by branch and bound.

    Each stage's copies are visited by `fan_diameter_bound`, largest first
    (ties in id order). A copy's diameter is computed only while its bound
    exceeds the stage's best so far; once it does not, neither does any
    later copy's.
    """
    out: dict[int, float] = {}
    for stage in state.stages:
        copies, best = stage.copies, 0.0
        bounds = [fan_diameter_bound(c) for c in copies]
        for i in sorted(range(len(copies)), key=bounds.__getitem__, reverse=True):
            if bounds[i] <= best:
                break
            best = max(best, copy_fan_diameter(copies[i]))
        if best > 0.0:
            out[stage.n] = best
    return out
