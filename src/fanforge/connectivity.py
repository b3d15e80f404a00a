"""Epsilon-connectivity of the fan cloud, a float diagnostic that is
explicitly approximate.

Two points of the cloud link when the float sqrt(dx*dx + dy*dy) of their
coordinates is at most eps. Each link is decided exactly on a grid of
cliques, in the standard library alone; the spanning tree is never built.
`verify.run_all` imports this module only when it runs the
`epsilon-connectivity` check, whose cloud and thresholds are fixed here
and take no run parameter.
"""

from __future__ import annotations

import itertools
import math
import struct
from typing import Sequence

from .tiling import ConstructionState
from .verify import CheckRecord

# Coordinates are finite and at most 2**500 in size, so no squared length overflows.
_MAX_COORD = 2.0**500
_TINY = 2.0**-480  # below this eps the grid's cells would be too fine: `_swept_components`
_MARGIN = 2.0**-40  # relative slack of the cell stencil, far above a squared length's rounding


def _checked(points: Sequence[tuple[float, float]]) -> Sequence[tuple[float, float]]:
    """The cloud, once every coordinate is known finite and at most 2**500
    in size; ValueError otherwise."""
    if not all(abs(x) <= _MAX_COORD and abs(y) <= _MAX_COORD for x, y in points):
        raise ValueError("cloud coordinates must be finite and at most 2**500 in size")
    return points


def _limit(eps: float) -> float:
    """The largest float T with math.sqrt(T) <= eps.

    sqrt is correctly rounded, so it never decreases, and for every float
    d2 >= 0 the link test math.sqrt(d2) <= eps is d2 <= T, bit for bit.
    For eps < 0 nothing links, not even a duplicate (-1.0). An infinite or
    NaN eps links everything (inf), as in the single-linkage count
    1 + #{MST edges > eps}, where no edge exceeds NaN.
    """
    if not eps < math.inf:
        return math.inf
    if eps < 0:
        return -1.0
    limit = eps * eps
    while math.sqrt(limit) > eps:
        limit = math.nextafter(limit, -math.inf)
    while math.sqrt(up := math.nextafter(limit, math.inf)) <= eps:
        limit = up
    return limit


def _root(parent: list[int], i: int) -> int:
    """The union-find root of i, halving the path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _linked(first: list, second: list, limit: float) -> bool:
    """Whether some point of `first` and some point of `second` link."""
    for x, y in first:
        for u, v in second:
            dx, dy = x - u, y - v
            if dx * dx + dy * dy <= limit:
                return True
    return False


def _stencil(rho: float) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(near, boundary) offsets (a, b) of the cells, a > 0 or a = 0 < b, for
    cells of side eps/rho, each list from the closest offsets out.

    Two points whose cells are (a, b) apart differ by less than |a| + 1
    cells in x and more than |a| - 1, and likewise in y. If even the upper
    bound is within eps the offset is near and every such pair links; if
    even the lower bound is beyond eps no pair does and the offset is left
    out; the rest are boundary offsets. A margin of 2^-40 on both sides
    covers the rounding of a squared length and of the limit (under 2^-51),
    since eps^2 is a normal float. With rho >= 1.5 > sqrt(2), points in the
    same cell always link: each cell is a clique.
    """
    r2 = rho * rho
    reach = math.ceil(rho) + 1
    near, boundary = [], []
    for a in range(reach + 1):
        for b in range(-reach if a else 1, reach + 1):
            least = max(a - 1, 0) ** 2 + max(abs(b) - 1, 0) ** 2
            if (a + 1) ** 2 + (abs(b) + 1) ** 2 <= r2 * (1 - _MARGIN):
                near.append((least, a, b))
            elif least < r2 * (1 + _MARGIN):
                boundary.append((least, a, b))
    return [(a, b) for _, a, b in sorted(near)], [(a, b) for _, a, b in sorted(boundary)]


def _grid_components(points: Sequence[tuple[float, float]], eps: float, limit: float) -> int:
    """Components of the threshold graph for eps >= _TINY, on a grid whose
    cells are cliques (Bentley, Stanat & Williams, 1977).

    The side s is the largest power of two at most eps/1.5, so a point's
    cell is floor(x/s) exactly: x/s scales by a power of two, cannot
    overflow (|x|/s < 2**983) and, where it underflows, misplaces only a
    point within s*2**-1074 of a cell wall, inside the stencil's margin.
    Cells are the union-find's nodes. A near offset joins two occupied
    cells with no distance test; a boundary offset between cells of two
    components looks for one linked pair and stops at the first. Offsets
    run from the closest out, so most boundary pairs already share a
    component.
    """
    inv = math.ldexp(1.0, 1 - math.frexp(eps / 1.5)[1])  # 1/s
    rho = eps * inv
    near, boundary = _stencil(rho)
    floor = math.floor
    # an int key per cell, column * width + row: a row stays within
    # floor(max |y| / s) + 1 of 0, so a row within reach of it never wraps
    width = 2 * (floor(max(abs(y) for _, y in points) * inv) + math.ceil(rho) + 2)
    keys = [floor(x * inv) * width + floor(y * inv) for x, y in points]
    cells = list(set(keys))
    index = dict(zip(cells, range(len(cells))))
    parent = list(range(len(cells)))
    members: list[list] = []
    for offsets, test in ((near, False), (boundary, True)):
        for a, b in offsets:
            step = a * width + b
            for i, j in [(i, index[c + step]) for i, c in enumerate(cells) if c + step in index]:
                ri, rj = _root(parent, i), _root(parent, j)
                if ri == rj:
                    continue
                if test:
                    if not members:
                        members = [[] for _ in cells]
                        for point, key in zip(points, keys):
                            members[index[key]].append(point)
                    if not _linked(members[i], members[j], limit):
                        continue
                parent[rj] = ri
    return sum(i == p for i, p in enumerate(parent))


def _swept_components(points: Sequence[tuple[float, float]], limit: float) -> int:
    """Components of the threshold graph for eps < _TINY, by a sweep in x.

    The limit is below 2**-958 there, so a pair whose x differ by more than
    2**-479 cannot link: its squared length is at least the rounded square
    of that difference. Duplicates always link, so only distinct points are
    swept, sorted, each against the points after it up to that reach.
    """
    pts = sorted({(x, y) for x, y in points})
    parent = list(range(len(pts)))
    for i, (x, y) in enumerate(pts):
        for j in range(i + 1, len(pts)):
            u, v = pts[j]
            dx, dy = u - x, v - y
            if dx > 2.0**-479:
                break
            if dx * dx + dy * dy <= limit:
                parent[_root(parent, j)] = _root(parent, i)
    return sum(i == p for i, p in enumerate(parent))


def _components(points: Sequence[tuple[float, float]], eps: float) -> int:
    """Number of components of a checked cloud where pairs within eps link."""
    limit = _limit(eps)
    if len(points) < 2 or limit < 0:
        return len(points)
    if limit == math.inf:
        return 1
    if eps < _TINY:
        return _swept_components(points, limit)
    return _grid_components(points, eps, limit)


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _bottleneck(points: Sequence[tuple[float, float]]) -> tuple[float, int]:
    """eps_star, the least eps at which a checked cloud is one component, and
    the component count of the pass at eps_star (1; 0 for an empty cloud).

    eps_star is the longest edge of the Euclidean MST, sqrt(dx*dx + dy*dy)
    of its pair. Every spanning tree has an edge at point 0, so eps_star is
    at least point 0's nearest-neighbour distance; if the cloud is connected
    at that distance, the two bounds meet. In a fan cloud point 0 is the
    vertex, and one pass decides. Otherwise the search brackets eps_star
    between that distance and sqrt(w*w + h*h) of the bounding box (w by h),
    within which every pair lies, and bisects on the bit patterns of the
    floats between them: at most 63 more passes.
    """
    if len(points) < 2:
        return 0.0, len(points)
    x0, y0 = points[0]
    lo = math.sqrt(min((x - x0) * (x - x0) + (y - y0) * (y - y0) for x, y in itertools.islice(points, 1, None)))
    count = _components(points, lo)
    if count == 1:
        return lo, count
    w = max(points)[0] - min(points)[0]
    h = max(y for _, y in points) - min(y for _, y in points)
    hi = math.sqrt(w * w + h * h)
    count = _components(points, hi)
    lo_bits, hi_bits = _bits(lo), _bits(hi)
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        mid_count = _components(points, _float(mid))
        if mid_count == 1:
            hi_bits, count = mid, mid_count
        else:
            lo_bits = mid
    return _float(hi_bits), count


def mst_max_edge(points: Sequence[tuple[float, float]]) -> float:
    """Largest Euclidean MST edge: the connectivity threshold of the cloud."""
    return _bottleneck(_checked(points))[0]


def epsilon_connectivity(points: Sequence[tuple[float, float]], eps: float) -> int:
    """Number of epsilon-chain components (pairs within eps are linked)."""
    if len(points) == 0:
        raise ValueError("epsilon_connectivity needs a nonempty cloud")
    return _components(_checked(points), eps)


def check_epsilon_connectivity(state: ConstructionState) -> CheckRecord:
    """Connectivity analogue: one component at the MST threshold, more below.

    The cloud is sampled at the state's depth with 3 samples per fiber.
    `components_at_star` is the count of the pass that proves eps_star
    (`_bottleneck`), which is 1 by the definition of eps_star; the count at
    eps_star/2 takes one more pass. eps_star is positive: the cloud holds
    the vertex (1/2, 0) and copy 0's Q-points, whose heights lie in
    (1/2, 3/4). The independent cross-check against a dense Prim and
    all-pairs union-find lives in the oracle tests.
    """
    from .spaceset import assemble, sample_points

    coords = sample_points(assemble(state), state.depth, 3).coordinates()  # in [0, 1]^2: no need of _checked
    eps_star, at_star = _bottleneck(coords)
    at_half = _components(coords, eps_star / 2)
    ok = at_star == 1 and at_half >= 2
    return CheckRecord(
        "epsilon-connectivity",
        f"grid_depth={state.depth}",
        "pass" if ok else "fail",
        None if ok else {"components_at_star": at_star, "components_at_half": at_half},
        {
            "cloud_size": len(coords),
            "eps_star": f"{eps_star:.9f}",
            "components_at_star": at_star,
            "components_at_half": at_half,
        },
    )
