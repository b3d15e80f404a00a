"""Point classes over the tiling, regions between copies, and sampling.

The countable class Q is the set of all jump-segment midpoints of all placed
copies; the co-countable class P is kept symbolic, as the complement of all
copy images, and queried through exact membership predicates. The sample
cloud (`sample_points`) is in fan coordinates: its Q-points come from
`floats.fan_midpoints`, and its P-samples are int / int divisions put
through `floats.xi_float` and `fan_x`, under the rule stated there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import floats
from .errors import NotOrdered, NotSpanning
from .exact import Address, addresses_of_length
from .tiling import ColumnSweep, ConstructionState, check_sampling

Point = tuple[Fraction, Fraction]

VERTEX = (0.5, 0.0)


def _fibers_through(state: ConstructionState, c: Fraction, lo: Fraction, hi: Fraction):
    """`query.fibers_through`. The first call loads `query` and puts its
    function in this name's place, so the cloud and the earring figure never
    compile the point queries, and later queries pay no import."""
    global _fibers_through
    from .query import fibers_through as _fibers_through

    return _fibers_through(state, c, lo, hi)


class SpaceModel:
    """A construction state with its derived countable point class."""

    def __init__(self, state: ConstructionState):
        self.state = state

    def classify(self, point: Point) -> str:
        """'Q', 'P', or 'not-in-Y' (the point lies on a copy off its midpoint).

        Decided from the integer fibers of the copies whose heights reach
        h, found on the column index (`query.fibers_through`): a point is
        in Q when some copy jumps at c and h is that jump's midpoint, even
        when it lies on another copy too."""
        c, h = point
        on = False
        scaled = h.numerator * self.state.den  # h = scaled / (den * h.denominator)
        for _, k, k_hi, ids in _fibers_through(self.state, c, h, h):
            for cid in ids:
                copy = self.state.copies[cid]
                lo, hi = copy.height(k) * h.denominator, copy.height(k_hi) * h.denominator
                if k_hi > k and 2 * scaled == lo + hi:
                    return "Q"
                on = on or lo <= scaled <= hi
        return "not-in-Y" if on else "P"


def assemble(state: ConstructionState) -> SpaceModel:
    """The model of a state, which classifies points (`SpaceModel.classify`)."""
    return SpaceModel(state)


class Region(NamedTuple):
    """The open set of Y-points strictly between two vertically ordered
    copies (`supports`, lower first) over one column, with its finite exact
    boundary point set."""

    column: Address
    supports: tuple[int, ...]
    boundary: tuple[Point, ...]


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
    col = ColumnSweep(state, column, [lower_id, upper_id])
    if col.adjacent_order() != [0, 1] or col.pair_gaps([0, 1], 0) is None:
        raise NotOrdered(
            f"copy {lower.key} is not strictly below copy {upper.key} over {column}"
        )
    boundary = (*lower.midpoints_global(col.jumps(0)), *upper.midpoints_global(col.jumps(1)))
    return Region(column, (lower_id, upper_id), boundary)


class PointCloud:
    """Deterministic floating sample of the fan image of the model.

    `xy` holds the vertex, the Q-points copy by copy (by jump index) and
    the P-samples, in fan coordinates.
    """

    def __init__(self, xy: list[tuple[float, float]]):
        self.xy = xy

    def coordinates(self) -> list[tuple[float, float]]:
        return self.xy


def sample_points(model: SpaceModel, grid_depth: int, fiber_count: int) -> PointCloud:
    """The vertex, every Q-point, and per-fiber P-samples, in fan coordinates.

    Fibers are the Cantor endpoints at `grid_depth`, left to right; each
    contributes the midpoints of its `fiber_count` longest gaps between
    crossings inside [-K, K+1] (ties broken low first). A depth-`grid_depth`
    column's sweep holds the crossings at its left end in `first` and at its
    right end in `last`. All choices are exact, so the cloud is deterministic.
    As in `floats.fan_midpoints`, a sample's fiber (origin or origin + 1) / 3^depth
    and its gap midpoint (lo + hi) / (2 * den) are int / int divisions,
    float() of the exact point. Parameters are refused as in `check_sampling`.
    """
    state = model.state
    check_sampling(state, grid_depth, fiber_count)
    xy = [VERTEX]
    for copy in state.copies:
        xy += floats.fan_midpoints(copy)
    unit, den = 3**grid_depth, state.den
    lo, hi = -state.depth * den, (state.depth + 1) * den
    for sigma in addresses_of_length(grid_depth):
        col = ColumnSweep(state, sigma)
        for c, crossings in ((sigma.origin / unit, col.first), ((sigma.origin + 1) / unit, col.last)):
            ends = sorted({lo, hi, *(h for h in crossings if lo <= h <= hi)})
            gaps = sorted(zip(ends, ends[1:]), key=lambda g: (g[0] - g[1], g[0]))
            for g_lo, g_hi in gaps[:fiber_count]:
                y = floats.xi_float((g_lo + g_hi) / (2 * den))
                xy.append((floats.fan_x(c, y), y))
    return PointCloud(xy)
