import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from fanforge.debski import jump_table
from fanforge.decomp import claim5_regions, collapse_E
from fanforge.errors import (
    FanforgeError,
    InvalidParameter,
    NotOrdered,
    NotSpanning,
    UnknownCopy,
)
from fanforge.exact import Address, addresses_of_length, endpoint_one, endpoint_zero
from fanforge import floats, spaceset
from fanforge.floats import fan_midpoints, fan_x, piece_floats, xi_float
from fanforge.spaceset import assemble, region_between, sample_points
from fanforge.query import fibers_through, vertical_trace
from fanforge.tiling import (
    ConstructionState,
    PlacedCopy,
    Rect,
    next_stage,
    stage_one,
    stage_zero,
    state_from_json_obj,
)

from .oracles import (
    basic_interval_inside,
    claim5_oracle,
    classify_oracle,
    column_oracle,
    fan_point,
    fiber_isolation_witnesses,
    fraction_table,
    fset_columns,
    jumps_global_oracle,
    locate_oracle,
    max_height_oracle,
    own_den,
    plateau_segments_oracle,
    plateaus_global_oracle,
    q_points,
    q_set_oracle,
    region_boundary_oracle,
    sample_points_oracle,
    state_pieces_oracle,
    to_global_c,
    to_global_h,
    trace_oracle,
)

ALL_STATES = [
    "st_0_4", "st_1_4", "st_2_16", "st_3_16", "st_3_32", "st_3_16t", "st_4_16t", "st_4_32", "st_5_32t"
]
ORACLE_POINTS = 2_000  # about as many jump points per fixture are checked by the Fraction classify oracle


def _outcome(query, *args):
    """The query's result, or the type of the package error it raised."""
    try:
        return query(*args)
    except FanforgeError as exc:
        return type(exc)


cantor_endpoints = st.tuples(st.lists(st.integers(0, 1), max_size=8), st.booleans()).map(
    lambda t: endpoint_zero(Address(tuple(t[0]))) + (F(1, 3 ** len(t[0])) if t[1] else 0)
)


class TestXiMap:
    def test_zero(self):
        assert xi_float(F(0)) == 0.5

    def test_one_and_minus_one(self):
        assert xi_float(F(1)) == pytest.approx(0.75)
        assert xi_float(F(-1)) == pytest.approx(0.25)

    @given(st.fractions(min_value=-50, max_value=50), st.fractions(min_value=-50, max_value=50))
    def test_strictly_increasing_and_bounded(self, r1, r2):
        y1, y2 = xi_float(r1), xi_float(r2)
        assert 0 < y1 < 1
        if r1 < r2:
            # the float value is non-decreasing. On [-50, 50] xi's slope is
            # over 2^-14, so heights 2^-30 apart differ by over 2^-44 in xi,
            # far above the few ulps (under 2^-50) of its float error
            assert y1 <= y2
            if r2 - r1 >= F(1, 2**30):
                assert y1 < y2


class TestNablaMap:
    def test_collapses_bottom_edge(self):
        for c in (0.0, 0.25, 2 / 3, 1.0):
            assert fan_x(c, 0.0) == 0.5

    def test_fixes_top_edge(self):
        assert fan_x(0.25, 1.0) == 0.25

    def test_midheight_example(self):
        assert fan_x(0.25, 0.5) == 0.375

    @given(cantor_endpoints, cantor_endpoints,
           st.fractions(min_value=F(1, 100), max_value=1),
           st.fractions(min_value=F(1, 100), max_value=1))
    def test_injective_above_the_vertex(self, c1, c2, y1, y2):
        p1, p2 = (fan_x(float(c1), float(y1)), float(y1)), (fan_x(float(c2), float(y2)), float(y2))
        if (float(c1), float(y1)) != (float(c2), float(y2)):
            assert p1 != p2

    def test_fan_point_of_vertex_slice(self):
        # xi sends height 0 to 1/2, so fan points of height-0 points sit mid-spoke
        x, y = fan_point((F(1), F(0)))
        assert y == pytest.approx(0.5)
        assert x == pytest.approx(0.75)


FLOAT_BOUNDARY = (
    "xi_float", "fan_x", "PieceFloats", "_cantor_segments", "piece_floats",
    "fan_midpoints", "_diameter", "copy_fan_diameter", "fan_diameter_bound", "stage_fan_diameters",
)


def test_float_boundary_has_one_home():
    for name in FLOAT_BOUNDARY:
        assert getattr(floats, name).__module__ == "fanforge.floats", name
        assert not hasattr(spaceset, name), name


class TestPieceFloats:
    """Floats made by int / int division are float() of the exact values."""

    big = st.integers(-(2**80), 2**80)

    @given(big, st.integers(1, 2**80))
    @example(0, 3)
    @example(-(2**60) - 1, 3**40)
    @example(2**53 + 1, 1)
    def test_int_division_is_float_of_fraction(self, num, den):
        assert num / den == float(F(num, den))

    @given(
        bottom=st.builds(F, big, st.integers(1, 2**80)),
        height=st.builds(F, st.integers(1, 2**80), st.integers(1, 2**80)),
        bits=st.lists(st.integers(0, 1), max_size=5),
        n_jumps=st.sampled_from([1, 2, 5, 16]),
        depth=st.integers(0, 4),
    )
    @example(bottom=F(0), height=F(1), bits=[], n_jumps=4, depth=0)
    @example(bottom=F(-(2**70) - 3, 2**61 + 7), height=F(3, 2**55 + 1), bits=[1, 0, 1],
             n_jumps=16, depth=4)
    def test_equal_float_of_each_exact_coordinate(self, bottom, height, bits, n_jumps, depth):
        rect = Rect(Address(tuple(bits)), bottom, bottom + height)
        copy = PlacedCopy(len(bits), 0, rect, jump_table(n_jumps), own_den(rect, n_jumps))
        pieces = piece_floats(copy, depth)
        table = fraction_table(n_jumps)
        assert pieces.heights == [float(to_global_h(copy, v)) for v in table.values]
        assert pieces.segments == [
            [(float(a), float(b)) for a, b in plateau_segments_oracle(copy, lo, hi, depth)]
            for lo, hi, _ in plateaus_global_oracle(copy)
        ]
        # a jump meets the plateaus it joins at its location: the figures reuse their end texts for it
        segments = pieces.segments
        for j, x in enumerate(table.locations):
            assert segments[j][-1][1] == float(to_global_c(copy, x)) == segments[j + 1][0][0]

    @given(
        bottom=st.builds(F, big, st.integers(1, 2**80)),
        height=st.builds(F, st.integers(1, 2**80), st.integers(1, 2**80)),
        bits=st.lists(st.integers(0, 1), max_size=5),
        n_jumps=st.sampled_from([1, 2, 5, 16]),
    )
    @example(bottom=F(-(2**70) - 3, 2**61 + 7), height=F(3, 2**55 + 1), bits=[1, 0, 1], n_jumps=16)
    def test_fan_midpoints_are_fan_point_of_each_exact_midpoint(self, bottom, height, bits, n_jumps):
        rect = Rect(Address(tuple(bits)), bottom, bottom + height)
        copy = PlacedCopy(len(bits), 0, rect, jump_table(n_jumps), own_den(rect, n_jumps))
        assert fan_midpoints(copy) == [fan_point(p) for p in copy.midpoints_global()]


class TestAssemble:
    def test_classify_builds_no_q_points(self, st_1_4):
        from fanforge import assemble

        model = assemble(st_1_4)
        collapse_E(model, 0)
        point = st_1_4.copies[1].midpoint_global(1)
        assert model.classify(point) == "Q"
        assert vars(model) == {"state": st_1_4}
        assert q_points(model)[5].point == point

    def test_single_copy_single_jump(self):
        from fanforge import assemble, build

        model = assemble(build(0, 1))
        assert [qp.point for qp in q_points(model)] == [(F(1, 4), F(1, 4))]

    def test_q_point_count(self, model_1_4):
        assert len(q_points(model_1_4)) == 13 * 4
        assert len({qp.point for qp in q_points(model_1_4)}) == 52

    def test_q_points_classify_as_q(self, model_1_4):
        for qp in q_points(model_1_4)[:10]:
            assert model_1_4.classify(qp.point) == "Q"

    def test_on_copy_point_not_in_y(self, model_1_4):
        # a plateau point of the identity copy is excluded from Y
        assert model_1_4.classify((F(0), F(0))) == "not-in-Y"

    def test_plain_complement_point_is_p(self, model_1_4):
        assert model_1_4.classify((F(0), F(-3, 7))) == "P"


class TestClassifyOracle:
    """classify on the column index against the Fraction fibers of the
    copies spanning each vertical (column_oracle)."""

    @pytest.mark.parametrize("name", ["model_2_16", "model_4_16t"])
    def test_q_p_and_on_copy_points(self, name, request):
        model = request.getfixturevalue(name)
        state = model.state
        rng = random.Random(11)
        columns = [endpoint_zero(s) for s in addresses_of_length(state.depth + 3)]
        points = []
        for _ in range(30):
            copy = state.copies[rng.randrange(len(state.copies))]
            m = rng.randrange(state.n_jumps)
            points.append(copy.midpoint_global(m))  # Q
            c, lo, hi = copy.jump_global(rng.randrange(state.n_jumps))
            points.append((c, lo + (hi - lo) / 4))  # on a jump segment, off its midpoint
            c = rng.choice(columns)
            heights = [state.range_low, *(h for h, _ in vertical_trace(state, c)), state.range_high]
            k = rng.randrange(len(heights) - 1)
            points.append((c, heights[k]))  # a crossing, or the range's bottom
            points.append((c, (heights[k] + heights[k + 1]) / 2))  # between crossings
        labels = [model.classify(p) for p in points]
        assert labels == [classify_oracle(state, p) for p in points]
        assert set(labels) == {"Q", "P", "not-in-Y"}

    @pytest.mark.parametrize("name", ALL_STATES)
    def test_column_index_matches_oracle_at_jumps_and_trace_gaps(self, name, request):
        # every jump's midpoint, both ends and a point a third of the way up,
        # over a stride of the jump columns that keeps the Fraction oracle
        # near ORACLE_POINTS points (every column up to st_1_4), and the
        # P-gap midpoints of four vertical traces
        state = request.getfixturevalue(name)
        model = assemble(state)
        jumpers: dict[tuple, list] = {}  # (address, sorted position) -> the copies jumping there
        for copy in state.copies:
            for pos in range(state.n_jumps):
                jumpers.setdefault((copy.rect.address.bits, pos), []).append(copy)
        stride = -(-4 * len(state.copies) * state.n_jumps // ORACLE_POINTS)
        points: dict[F, list[F]] = {}
        for key in sorted(jumpers)[::stride]:
            for copy in jumpers[key]:
                c, low, high = copy.jump_global(key[1])
                points.setdefault(c, []).extend((low, high, (low + high) / 2, low + (high - low) / 3))
        sigmas = addresses_of_length(state.depth + 1)
        ends = [c for sigma in sigmas for c in (endpoint_zero(sigma), endpoint_one(sigma))]
        for c in ends[:: -(-len(ends) // 4)]:
            heights = [state.range_low, *(h for h, _ in vertical_trace(state, c)), state.range_high]
            points.setdefault(c, []).extend((lo + hi) / 2 for lo, hi in zip(heights, heights[1:]) if lo < hi)
        seen = set()
        for c, heights in points.items():
            column = column_oracle(state, c)
            labels = [model.classify((c, h)) for h in heights]
            assert labels == [classify_oracle(state, (c, h), column) for h in heights], c
            seen.update(labels)
        assert seen == {"Q", "P", "not-in-Y"}

    @pytest.mark.parametrize(
        "rects, queries",
        [
            # overlapping at address 0: [1/4, 1/2] (id 2) has the larger base
            # and the lower top, so the bisection's first candidate is id 2,
            # and above its top the answer comes from [0, 1] (id 1) before it
            (
                [("0", "0", "1"), ("0", "1/4", "1/2")],
                [
                    ((F(1, 12), F(9, 16)), "Q", [0, 1]),  # id 1's midpoint, above id 2's top 31/64
                    ((F(1, 12), F(3, 4)), "not-in-Y", [0, 1]),  # id 1's jump segment
                    ((F(1, 3), F(15, 16)), "not-in-Y", [0, 1]),  # id 1's top plateau
                    ((F(1, 12), F(25, 64)), "Q", [0, 2, 1]),  # id 2's midpoint, on id 1's segment
                    ((F(1, 3), F(7, 8)), "P", [0, 1]),
                    ((F(0), F(1, 4)), "not-in-Y", [0, 2, 1]),  # id 2's bottom plateau, at its base
                ],
            ),
            # out of height order at address 1, with a tied base: by base
            # the ids run 2, 3, 1, and the first candidate is id 1 above
            # height 1/2 and id 3 below it
            (
                [("1", "1/2", "3/4"), ("1", "0", "1"), ("1", "0", "1/4")],
                [
                    ((F(3, 4), F(9, 16)), "Q", [0, 1, 2]),  # id 2's midpoint, below id 1's segment
                    ((F(3, 4), F(3, 4)), "not-in-Y", [0, 2]),  # id 2's segment, above id 1's top 47/64
                    ((F(3, 4), F(5, 8)), "not-in-Y", [0, 1, 2]),  # on the segments of ids 1 and 2
                    ((F(2, 3), F(1, 8)), "P", [0, 3, 2]),
                ],
            ),
        ],
    )
    def test_walk_passes_the_first_candidate(self, rects, queries):
        stages = [
            {"n": 0, "rects": [{"address": "", "a": "0", "b": "1"}]},
            {"n": 1, "rects": [{"address": sigma, "a": a, "b": b} for sigma, a, b in rects]},
        ]
        doc = {"schema": "fanforge-state-v1", "depth": 1, "jumps": 4, "strict": False, "stages": stages}
        state = state_from_json_obj(doc)
        model = assemble(state)
        assert state.ids_at_address((int(rects[0][0]),)) == list(range(1, len(rects) + 1))  # id order kept
        for point, label, reached in queries:
            assert model.classify(point) == label == classify_oracle(state, point), point
            # exactly the copies spanning c whose heights [bottom, top crossing] hold h
            c, h = point
            assert [cid for _, _, _, ids in fibers_through(state, c, h, h) for cid in ids] == reached, point
            expected = {
                cid
                for cid, copy in enumerate(state.copies)
                if copy.rect.address.bits == locate_oracle(c, 1).bits[: len(copy.rect.address)]
                and copy.rect.bottom <= h <= max_height_oracle(copy)
            }
            assert set(reached) == expected, point

    def test_q_wins_on_a_touching_copy(self):
        # a tolerant stage-1 copy whose jump at c = 1/4 overlaps the stage-0
        # jump there: each jump's midpoint lies on the other copy's segment
        rect = Rect(Address.parse("0"), F(0), F(2, 3))
        state = ConstructionState(1, 4, False, [stage_zero(), [rect]])
        model = assemble(state)
        stage0_mid, stage1_mid = state.copies[0].midpoint_global(0), state.copies[1].midpoint_global(2)
        assert stage0_mid == (F(1, 4), F(9, 16)) and stage1_mid == (F(1, 4), F(7, 12))
        points = [stage0_mid, stage1_mid, (F(1, 4), F(5, 8)), (F(1, 4), F(1, 16)), (F(1, 4), F(1))]
        labels = [model.classify(p) for p in points]
        assert labels == ["Q", "Q", "not-in-Y", "P", "P"]
        assert labels == [classify_oracle(state, p) for p in points]


class TestQueriesAsTheStateGrows:
    """The column index and the shared exact values, after add_stage widens
    the state's den."""

    def test_answers_equal_the_oracles_and_a_fresh_build(self, model_2_16):
        state = ConstructionState(2, 16, True, [stage_zero(), stage_one(16)])
        model = assemble(state)
        columns = [c for sigma in addresses_of_length(3) for c in (endpoint_zero(sigma), endpoint_one(sigma))]

        def answers(model):
            state = model.state
            traces = [vertical_trace(state, c) for c in columns]
            points = {}  # column -> heights: every crossing and gap midpoint, and jump points
            for c, trace in zip(columns, traces):
                heights = [state.range_low, *(h for h, _ in trace), state.range_high]
                points[c] = heights + [(lo + hi) / 2 for lo, hi in zip(heights, heights[1:])]
            for copy in state.copies[::7]:
                c, low, high = copy.jump_global(copy.jump_pos(copy.index % 16))
                points.setdefault(c, []).extend((low, (low + high) / 2, low + (high - low) / 3))
            labels = {c: [model.classify((c, h)) for h in heights] for c, heights in points.items()}
            queries = [
                (cid, level, loop)
                for cid in range(13)
                for level in range(len(state.stages) - 1 - state.copies[cid].stage)
                for loop in (0, 15)
            ]
            claims = [_outcome(claim5_regions, model, *query) for query in queries]
            return traces, points, labels, queries, claims

        def assert_oracles(traces, points, labels, queries, claims):
            pieces = state_pieces_oracle(state)
            for c, trace in zip(columns, traces):
                assert trace == trace_oracle(state, c, state.range_low, state.range_high, pieces), c
            for c, heights in points.items():
                column = column_oracle(state, c)
                assert labels[c] == [classify_oracle(state, (c, h), column) for h in heights], c
            assert claims == [_outcome(claim5_oracle, model, *query) for query in queries]

        before = answers(model)
        assert_oracles(*before)
        den = state.den
        state.add_stage(next_stage(state))
        assert state.den > den and state.den % den == 0  # every placed copy was rescaled
        grown = answers(model)
        assert_oracles(*grown)
        assert grown == answers(model_2_16)
        # stage 2 shows: new crossings, its copies' midpoints in Q, and claims a level deeper
        assert grown[0] != before[0] and grown[4][:2] == before[4] and len(grown[4]) > len(before[4])
        stage_two = [copy.midpoint_global(copy.index % 16) for copy in state.copies[::7] if copy.stage == 2]
        assert stage_two and {model.classify(point) for point in stage_two} == {"Q"}


class TestRegionBetween:
    def test_boundary_is_midpoints_of_supports(self, model_1_4):
        region = region_between(model_1_4, 0, 1, Address.parse("0"))
        copies = model_1_4.state.copies
        allowed = set(copies[0].midpoints_global()) | set(copies[1].midpoints_global())
        assert set(region.boundary) <= allowed
        assert len(region.boundary) > 0
        column_left, column_right = F(0), F(1, 3)
        assert all(column_left <= c <= column_right for c, _ in region.boundary)

    @pytest.mark.parametrize("name", ["model_1_4", "model_2_16"])
    def test_boundary_matches_fraction_midpoints(self, name, request):
        # every ordered pair of the copies spanning each column at levels 1..K
        model = request.getfixturevalue(name)
        state, regions = model.state, 0
        for level in range(1, state.depth + 1):
            for sigma in addresses_of_length(level):
                for low, up in itertools.combinations(state.chain_ids(sigma), 2):
                    for pair in ((low, up), (up, low)):
                        try:
                            region = region_between(model, *pair, sigma)
                        except NotOrdered:
                            continue
                        assert region.boundary == region_boundary_oracle(state, *pair, sigma), (str(sigma), pair)
                        regions += 1
        assert regions > 0

    def test_boundary_min_distance_positive(self, model_1_4):
        region = region_between(model_1_4, 0, 1, Address.parse("0"))
        pts = [fan_point(p) for p in region.boundary]
        best = min(
            math.dist(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]
        )
        assert best > 0

    @staticmethod
    def in_region(model, region, point):
        """The point is a Y-point over the region's column strictly between
        its lower support's top and its upper support's bottom."""
        c, h = point
        if not endpoint_zero(region.column) <= c <= endpoint_one(region.column):
            return False
        lower, upper = (model.state.copies[cid] for cid in region.supports)
        return lower.fiber(c)[2] < h < upper.fiber(c)[1] and model.classify(point) != "not-in-Y"

    def test_probe_point_between_stage0_and_lower_split_copy(self, model_1_4):
        # 7/8 lies strictly between the two copies' envelopes at c = 1/3
        region = region_between(model_1_4, 0, 2, Address.parse("0"))
        assert self.in_region(model_1_4, region, (F(1, 3), F(7, 8)))
        assert not self.in_region(model_1_4, region, (F(1, 3), F(13, 16)))  # on the lower copy
        assert not self.in_region(model_1_4, region, (F(2, 3), F(7, 8)))  # outside the column

    def test_negative_copy_id_refused(self, model_1_4):
        # -len(copies) wrapped round to copy 0, which spans every column
        column = Address.parse("0")
        for cid in (-1, -len(model_1_4.state.copies)):
            with pytest.raises(UnknownCopy, match=f"no copy with id {cid}"):
                region_between(model_1_4, cid, 1, column)
            with pytest.raises(UnknownCopy, match=f"no copy with id {cid}"):
                region_between(model_1_4, 0, cid, column)

    def test_not_spanning(self, model_1_4):
        with pytest.raises(NotSpanning):
            region_between(model_1_4, 1, 2, Address.parse("1"))

    def test_not_ordered(self, model_1_4):
        with pytest.raises(NotOrdered):
            region_between(model_1_4, 1, 0, Address.parse("0"))

    def test_boundary_points_are_limits_of_region(self, model_1_4):
        # each boundary midpoint is approached by region points on one side:
        # from the left for the lower copy, from the right for the upper one
        region = region_between(model_1_4, 0, 1, Address.parse("0"))
        owners = q_set_oracle(model_1_4.state)
        eps = F(1, 3**12)
        for point in region.boundary[:6]:
            owner_id, _ = owners[point]
            assert owner_id in (0, 1)
            c, mid = point
            if owner_id == 0:
                side = basic_interval_inside(c - eps, c)
            else:
                side = basic_interval_inside(c, c + eps)
            near = endpoint_zero(side)
            assert self.in_region(model_1_4, region, (near, mid))
            assert not self.in_region(model_1_4, region, point)  # the midpoint itself sits on a copy


class TestSamplePoints:
    def test_contains_vertex(self, model_1_4):
        cloud = sample_points(model_1_4, 1, 1)
        assert cloud.coordinates()[0] == (0.5, 0.0)

    def test_cloud_size_formula(self, model_1_4):
        cloud = sample_points(model_1_4, 1, 1)
        # 4 fibers at grid depth 1, one sample each, plus vertex and q points
        assert len(cloud.coordinates()) == 1 + 52 + 4 * 1
        cloud3 = sample_points(model_1_4, 2, 3)
        assert len(cloud3.coordinates()) == 1 + 52 + 8 * 3

    def test_largest_gap_midpoint_of_column_one_third(self, model_1_4):
        # the biggest trace gap at c = 1/3 runs from -1/32 up to 13/16
        cloud = sample_points(model_1_4, 1, 1)
        assert fan_point((F(1, 3), F(25, 64))) in cloud.coordinates()[1 + 52 :]

    def test_p_samples_are_p_points(self, model_1_4):
        oracle = sample_points_oracle(model_1_4, 1, 2)
        assert sample_points(model_1_4, 1, 2).coordinates() == oracle.xy
        assert len(oracle.p_samples) == 4 * 2
        for p in oracle.p_samples:
            assert model_1_4.classify(p) == "P"

    def test_deterministic(self, model_1_4):
        a = sample_points(model_1_4, 2, 2).coordinates()
        b = sample_points(model_1_4, 2, 2).coordinates()
        assert a == b

    @pytest.mark.parametrize("name,grid_depth", [("model_2_16", 2), ("model_2_16", 4), ("model_4_16t", 4)])
    def test_matches_vertical_trace_oracle(self, name, grid_depth, request):
        model = request.getfixturevalue(name)
        ours = sample_points(model, grid_depth, 3).coordinates()
        assert ours == sample_points_oracle(model, grid_depth, 3).xy

    def test_crossings_outside_the_range_are_ignored(self):
        # a hand-made stage-1 rect above the range [-1, 2] of a depth-1 state
        high = Rect(Address((0,)), F(5, 2), F(3))
        model = assemble(ConstructionState(1, 4, True, [stage_zero(), [high]]))
        assert sample_points(model, 1, 3).coordinates() == sample_points_oracle(model, 1, 3).xy

    def test_q_points_made_without_sources(self, model_2_16, monkeypatch):
        def refuse(copy, index):
            raise AssertionError("a Q source was made")

        monkeypatch.setattr(PlacedCopy, "midpoint_global", refuse)
        cloud = sample_points(model_2_16, 2, 3)
        assert len(cloud.coordinates()) == 1 + 78 * 16 + 8 * 3

    def test_grid_depth_must_cover_state(self, model_2_16):
        with pytest.raises(InvalidParameter, match="grid depth 1 is below the construction depth 2"):
            sample_points(model_2_16, 1, 1)

    def test_negative_fiber_count_refused(self, model_1_4):
        # a slice gaps[:-2] would silently keep all but two gaps per fiber
        with pytest.raises(InvalidParameter, match="-2"):
            sample_points(model_1_4, 1, -2)
        assert len(sample_points(model_1_4, 1, 0).coordinates()) == 1 + 13 * 4


class TestFiberIsolation:
    def test_no_violations_at_two_sixteen(self, model_2_16):
        assert fiber_isolation_witnesses(model_2_16) == []

    def test_owning_segment_isolates(self, model_1_4):
        # explicit form: around each q point the owning segment carries no other Y point
        state = model_1_4.state
        for qp in q_points(model_1_4):
            copy = state.copies[qp.copy_id]
            _, low, high = fraction_table(state.n_jumps).jumps[qp.jump_index]
            lo, hi = to_global_h(copy, low), to_global_h(copy, high)
            assert lo < qp.point[1] < hi


class TestFSets:
    def test_band_inside_a_jump_segment(self, model_2_16):
        state = model_2_16.state
        _, low, high = fraction_table(state.n_jumps).jumps[0]
        lo = low + (high - low) / 4
        hi = high - (high - low) / 4
        assert fset_columns(model_2_16, lo, hi) == [F(1, 4)]

    def test_finite_and_correct_against_brute_candidates(self, model_1_4):
        state = model_1_4.state
        band = (F(1, 2), F(9, 16))
        got = fset_columns(model_1_4, *band)
        brute = set()
        for copy in state.copies:
            for c, lo, hi in jumps_global_oracle(copy):
                if lo <= band[0] and band[1] <= hi:
                    brute.add(c)
        assert set(got) == brute
        assert len(got) < len(state.copies) * state.n_jumps
