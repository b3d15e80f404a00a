import itertools
import json
import math
from fractions import Fraction as F

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from fanforge import build, tiling
from fanforge.debski import jump_table
from fanforge.errors import (
    IndexOutOfRange,
    InvalidParameter,
    InvertedWindow,
    JumpHit,
    NotInCantor,
    NotOrdered,
    StateSchemaError,
    TraceOutOfRange,
    TruncationTooCoarse,
)
from fanforge.exact import Address, addresses_of_length, endpoint_one, endpoint_zero
from fanforge.spaceset import assemble, region_between
from fanforge.query import vertical_trace
from fanforge.tiling import (
    ConstructionState,
    PlacedCopy,
    Rect,
    load_state,
    next_stage,
    save_state,
    stage_one,
    stage_zero,
    state_from_json_obj,
)

from .oracles import (
    band_oracle,
    build_oracle,
    fiber_oracle,
    fraction_table,
    jumps_global_oracle,
    max_height_oracle,
    own_den,
    placement_oracle,
    plateaus_global_oracle,
    pointwise_below_oracle,
    state_from_json_obj_oracle,
    state_json_oracle,
    state_pieces_oracle,
    to_global_c,
    to_global_h,
    trace_oracle,
)


class TestStageZero:
    def test_single_rect(self):
        (rect,) = stage_zero()
        assert (str(rect.address), rect.bottom, rect.top) == ("", F(0), F(1))

    def test_copy_extremes(self, st_0_4):
        copy = st_0_4.copies[0]
        # bottom-left corner of the image is (0, 0)
        assert copy.fiber(F(0)) == ("point", F(0), F(0))
        # truncated maximum: the image tops out at 1 - 2^-N below the rect top
        assert copy.fiber(F(1)) == ("point", F(15, 16), F(15, 16))
        assert max_height_oracle(copy) == F(15, 16)


class TestStageOne:
    def test_twelve_rects_with_four_jump_values(self):
        rects = stage_one(4)
        assert len(rects) == 12
        got = [(str(r.address), r.bottom, r.top) for r in rects[:4]]
        assert got == [
            ("0", F(29, 32), F(1)),
            ("0", F(13, 16), F(29, 32)),
            ("1", F(13, 32), F(13, 16)),
            ("1", F(0), F(13, 32)),
        ]

    def test_outer_rects_order(self):
        outer = [(str(r.address), r.bottom) for r in stage_one(4)[4:]]
        assert outer == [
            ("0", F(-1)),
            ("0", F(-1, 2)),
            ("0", F(1)),
            ("0", F(3, 2)),
            ("1", F(-1)),
            ("1", F(-1, 2)),
            ("1", F(1)),
            ("1", F(3, 2)),
        ]

    @pytest.mark.parametrize("n_jumps", [2, 4, 16])
    def test_heights_bounded(self, n_jumps):
        assert all(r.height <= F(1, 2) for r in stage_one(n_jumps))

    def test_needs_two_jumps(self):
        with pytest.raises(ValueError):
            stage_one(1)


class TestVerticalTrace:
    def test_column_zero_stage_zero(self, st_0_4):
        assert vertical_trace(st_0_4, F(0), F(0), F(1)) == [(F(0), 0)]

    def test_column_one_stage_zero(self, st_0_4):
        assert vertical_trace(st_0_4, F(1), F(0), F(1)) == [(F(15, 16), 0)]

    def test_column_one_third_matches_piece_scan_oracle(self, st_1_4):
        got = vertical_trace(st_1_4, F(1, 3), F(-1), F(2))
        assert got == trace_oracle(st_1_4, F(1, 3), F(-1), F(2))
        # frozen values from the oracle: the truncated copies cross at
        assert [h for h, _ in got] == [
            F(-17, 32),
            F(-1, 32),
            F(13, 16),
            F(461, 512),
            F(509, 512),
            F(47, 32),
            F(63, 32),
        ]

    def test_not_in_cantor(self, st_1_4):
        # outside [0, 1] too, by locate's one Cantor test
        for c in (F(-1, 10), F(11, 10), F(1, 2)):
            with pytest.raises(NotInCantor, match=f"^{c} is not in the Cantor set$"):
                vertical_trace(st_1_4, c)

    def test_jump_column_raises(self, st_1_4):
        with pytest.raises(JumpHit):
            vertical_trace(st_1_4, F(1, 4))

    def test_inverted_window_refused_before_any_work(self, st_1_4):
        with pytest.raises(InvertedWindow):
            vertical_trace(st_1_4, F(1, 2), F(1), F(0))  # 1/2 is not even in C
        with pytest.raises(InvertedWindow):
            vertical_trace(st_1_4, F(0), lo=F(3))  # above the default top, 2
        assert vertical_trace(st_1_4, F(1, 3), F(13, 16), F(13, 16)) == [(F(13, 16), 0)]

    @pytest.mark.parametrize("name", ["st_2_16", "st_4_16t"])
    def test_matches_piece_scan_oracle_at_every_endpoint(self, name, request):
        state = request.getfixturevalue(name)
        pieces = state_pieces_oracle(state)
        lo, hi = state.range_low, state.range_high
        for sigma in addresses_of_length(state.depth + 2):
            for c in (endpoint_zero(sigma), endpoint_one(sigma)):
                assert vertical_trace(state, c) == trace_oracle(state, c, lo, hi, pieces), c

    @pytest.mark.parametrize("name", ["st_2_16", "st_4_16t"])
    def test_windows_and_max_stages_match_piece_scan_oracle(self, name, request):
        # at the left end of every depth-K column and at a jump of one copy per
        # stage, on windows cut from the crossing heights there, over every
        # stage: a jump at c raises JumpHit, naming the same copy, also when
        # the window leaves that copy out
        state = request.getfixturevalue(name)
        pieces = state_pieces_oracle(state)
        lo, hi = state.range_low, state.range_high
        columns = []
        for sigma in addresses_of_length(state.depth):
            c = endpoint_zero(sigma)
            cuts = sorted({h for h, _ in trace_oracle(state, c, lo, hi, pieces)})
            mid = len(cuts) // 2
            between = (cuts[mid] + cuts[mid + 1]) / 2
            windows = [(cuts[mid], cuts[mid]), (cuts[mid], cuts[mid + 1]), (between, between), (cuts[0], cuts[mid])]
            columns.append((c, None, windows))
        for stage in state.stages:
            c, seg_lo, seg_hi = jumps_global_oracle(stage.copies[-1])[0]
            windows = [(seg_lo, seg_hi), (lo, (lo + seg_lo) / 2), ((seg_hi + hi) / 2, hi)]
            columns.append((c, (seg_lo, seg_hi), windows))
        outcomes, jump_outside = [], 0
        for c, segment, windows in columns:
            for w_lo, w_hi in [(lo, hi), *windows]:
                where = (c, w_lo, w_hi)
                try:
                    expected = trace_oracle(state, c, w_lo, w_hi, pieces)
                except JumpHit as exc:
                    expected = str(exc)
                    with pytest.raises(JumpHit) as got:
                        vertical_trace(state, c, w_lo, w_hi)
                    assert str(got.value) == expected, where
                    jump_outside += w_hi < segment[0] or segment[1] < w_lo
                else:
                    assert vertical_trace(state, c, w_lo, w_hi) == expected, where
                outcomes.append(expected)
        assert jump_outside and any(outcomes) and [] in outcomes


class TestIntegerFiber:
    """PlacedCopy.fiber_span and midpoint_global against the Fraction walk of
    the local jump table."""

    @given(
        st.lists(st.integers(0, 1), max_size=5),
        st.tuples(st.fractions(), st.fractions()).map(lambda t: (min(t), max(t))),
        st.integers(1, 12),
        st.lists(st.integers(0, 1), max_size=4),
    )
    def test_equals_fraction_fiber(self, bits, ab, n_jumps, tail):
        a, b = ab
        if a == b:
            b = a + 1
        rect = Rect(Address(tuple(bits)), a, b)
        copy = PlacedCopy(len(bits), 0, rect, jump_table(n_jumps), own_den(rect, n_jumps))
        inner = Address(tuple(bits + tail))  # a basic interval inside the column
        columns = [endpoint_zero(inner), endpoint_one(inner)]  # Cantor endpoints
        columns += [c for c, _, _ in jumps_global_oracle(copy)]  # jump locations
        # non-endpoint members of C (1/4, 3/4, 1/10, 9/10) and a non-member (1/2)
        columns += [to_global_c(copy, u) for u in (F(1, 4), F(3, 4), F(1, 10), F(9, 10), F(1, 2))]
        for c in columns:
            assert copy.fiber(c) == fiber_oracle(copy, c), c
        for m, (location, low, high) in enumerate(fraction_table(n_jumps).jumps):
            expected = (to_global_c(copy, location), to_global_h(copy, (low + high) / 2))
            assert copy.midpoint_global(m) == expected


class TestSharedExactValues:
    """PlacedCopy's heights and midpoints are made once and shared."""

    def test_answers_share_one_fraction_per_value(self, st_2_16):
        copy = st_2_16.copies[5]
        c, low, high = copy.jump_global(3)
        assert copy.jump_global(3)[1] is low and copy.exact_height(3) is low and copy.exact_height(4) is high
        assert copy.fiber(c) == ("segment", low, high) and copy.fiber(c)[2] is high
        m = copy.table.index_at[3]
        assert copy.midpoint_global(m) is copy.midpoint_global(m) and copy.midpoint_global(m)[0] is c
        trace = vertical_trace(st_2_16, F(0))  # every copy spanning 0 crosses it on its first plateau
        assert len(trace) > 10 and all(h is st_2_16.copies[cid].exact_height(0) for h, cid in trace)

    @pytest.mark.parametrize("pos", [-1, -16, 16])
    def test_jump_position_outside_range_refused(self, st_2_16, pos):
        copy = st_2_16.copies[7]
        before = [copy.jump_global(p) for p in range(16)]
        with pytest.raises(IndexOutOfRange, match=f"jump position {pos} not in"):
            copy.jump_global(pos)
        assert [copy.jump_global(p) for p in range(16)] == before == jumps_global_oracle(copy)


class TestBuild:
    def test_copy_counts(self, st_0_4, st_1_4):
        assert len(st_0_4.copies) == 1
        assert len(st_1_4.copies) == 13

    def test_negative_depth_refused(self):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            build(-1, 4)

    @pytest.mark.parametrize("depth,floor", [(0, 1), (1, 2), (2, 2)])
    def test_jump_count_below_the_floor_refused(self, depth, floor):
        # at depth 1 stage_one refuses one jump too; the build refuses it first
        with pytest.raises(ValueError, match=f"depth {depth} needs at least {floor} jumps"):
            build(depth, floor - 1)

    def test_determinism_byte_identical(self):
        a = build(2, 8).to_json()
        b = build(2, 8).to_json()
        assert a == b

    def test_truncation_too_coarse(self):
        with pytest.raises(TruncationTooCoarse) as exc:
            build(2, 4)
        assert exc.value.stage == 2
        assert exc.value.suggested_jumps == 6
        assert exc.value.column  # offending column is reported

    def test_jump_count_whose_reports_cannot_be_written_is_refused(self, int_text_limit):
        # 2^14284 has 4,300 decimal digits, the default int-to-str limit, and 2^14285 has 4,301
        int_text_limit(4300)
        assert len(str(2**14284)) == 4300 and tiling._too_many_jumps(14284) is None
        with mock.patch.object(tiling, "jump_table", side_effect=AssertionError("table made")):
            for n_jumps in (14285, 10**9):
                with pytest.raises(InvalidParameter, match="exceed the limit of 14284: .* 4300 decimal digits"):
                    build(0, n_jumps)
            int_text_limit(640)  # the least limit the interpreter takes
            with pytest.raises(InvalidParameter, match="limit of 2126"):
                build(2, 2127)
        int_text_limit(0)  # no limit
        assert tiling._too_many_jumps(10**9) is None

    def test_state_whose_den_is_too_wide_is_refused(self, int_text_limit):
        # a report's ints stay below (2K+1) * den; at depth 1 den is about 2^(2N),
        # so at 640 digits 3 * den reaches 10^640 from N = 1062, far below 2^N's 2126
        int_text_limit(640)
        assert 3 * build(1, 1061).den < 10**640
        with pytest.raises(InvalidParameter, match="^1062 jumps at depth 1 put heights over a 2126-bit denominator"):
            build(1, 1062)
        with mock.patch.object(tiling, "next_stage", side_effect=AssertionError("stage 2 built")):
            with pytest.raises(InvalidParameter, match="at depth 3"):  # refused at stage 1
                build(3, 1062)

    def test_tolerant_build_succeeds_below_threshold(self):
        state = build(2, 4, strict=False)
        assert state.depth == 2 and not state.strict

    @pytest.mark.parametrize(
        "args", [(1, 4, True), (2, 16, True), (3, 16, True), (4, 24, True), (4, 16, False), (5, 32, False)]
    )
    def test_matches_fraction_oracle(self, args):
        state, oracle = build(*args), build_oracle(*args)
        assert state.to_json() == state_json_oracle(oracle) == oracle.to_json()
        assert [(c.den, c.base, c.step, c.origin) for c in state.copies] == placement_oracle(oracle)

    @pytest.mark.parametrize("args", [(2, 4), (3, 5), (3, 8)])
    def test_too_coarse_matches_fraction_oracle(self, args):
        with pytest.raises(TruncationTooCoarse) as ours:
            build(*args)
        with pytest.raises(TruncationTooCoarse) as oracle:
            build_oracle(*args)
        got, want = ours.value, oracle.value
        assert (got.column, got.stage, str(got)) == (want.column, want.stage, str(want))

    def test_trace_out_of_range(self):
        # a hand-made stage 1 whose only rect lies above height 2 = n at stage 2
        high = Rect(Address((0,)), F(5, 2), F(3))
        state = ConstructionState(2, 16, True, [stage_zero(), [high]])
        with pytest.raises(TraceOutOfRange, match="at stage 2, column 00: 5/2, "):
            next_stage(state)

    def test_rect_is_not_equal_to_another_type(self):
        rect = Rect(Address((0,)), F(3, 2), F(2))
        assert rect.__eq__((rect.address, rect.a, rect.b)) is NotImplemented
        assert rect != object() and not rect == "0"

    def test_equal_bands_overlap_at_the_later_copy(self):
        # two equal stage-1 rects above the stage-0 copy: a tolerant build
        # refuses their coinciding bands and names the later copy
        rect = Rect(Address((0,)), F(3, 2), F(2))
        state = ConstructionState(2, 16, False, [stage_zero(), [rect, rect]])
        with pytest.raises(TruncationTooCoarse, match="column '00'.*overlap at copy 1:1"):
            next_stage(state)

    def test_stage_addresses_and_heights(self, st_2_16):
        for stage in st_2_16.stages:
            for rect in stage.rects:
                assert len(rect.address) == stage.n
                assert 0 < rect.height <= F(1, stage.n + 1)

    def test_stage_two_strips_start_at_minus_two(self, st_2_16):
        # the lowest rect over each depth-2 column starts at the range bottom
        for sigma in addresses_of_length(2):
            bottoms = [
                r.bottom
                for r in st_2_16.stages[2].rects
                if r.address == sigma
            ]
            assert min(bottoms) == F(-2)

    def test_strip_rect_interiors_avoid_inherited_copies(self, st_2_16):
        inherited = [c for c in st_2_16.copies if c.stage < 2]
        for rect in st_2_16.stages[2].rects:
            left, right = endpoint_zero(rect.address), endpoint_one(rect.address)
            for copy in inherited:
                for lo, hi, v in plateaus_global_oracle(copy):
                    if max(lo, left) <= min(hi, right):
                        assert not rect.bottom < v < rect.top, (rect, copy.key)
                for c, lo, hi in jumps_global_oracle(copy):
                    if left <= c <= right:
                        assert not max(lo, rect.bottom) < min(hi, rect.top), (rect, copy.key)

    def test_betweenness_guarantee(self, st_2_16):
        # between consecutive inherited copies of a column, some stage-2 copy
        # sits strictly between them (pointwise over the whole column)
        copies = st_2_16.copies
        for sigma in addresses_of_length(2):
            left, right = endpoint_zero(sigma), endpoint_one(sigma)
            inherited = sorted(
                [cid for cid in st_2_16.chain_ids(sigma) if copies[cid].stage <= 1],
                key=lambda cid: band_oracle(st_2_16.copies[cid], left, right),
            )
            new_ids = [cid for cid in st_2_16.ids_at_address(sigma.bits) if copies[cid].stage == 2]
            for low, up in zip(inherited, inherited[1:]):
                assert any(
                    pointwise_below_oracle(copies[low], copies[mid], sigma)
                    and pointwise_below_oracle(copies[mid], copies[up], sigma)
                    for mid in new_ids
                ), (sigma, low, up)


def _ordered(model, low: int, up: int, sigma: Address) -> bool:
    """Whether region_between orders the pair: False where it raises NotOrdered."""
    try:
        region_between(model, low, up, sigma)
    except NotOrdered:
        return False
    return True


class TestPointwiseBelow:
    """region_between decides the order of two copies by the column sweep's
    meeting rule (ColumnSweep.adjacent_order and pair_gaps); it raises
    NotOrdered exactly where the Fraction walk pointwise_below_oracle finds
    the lower copy not strictly below the upper one somewhere on the column."""

    def test_stage_zero_below_first_split_copy(self, model_1_4):
        # their trace bands touch at f(1/3) but the copies never meet pointwise
        assert _ordered(model_1_4, 0, 2, Address.parse("0"))

    def test_not_below_in_reverse(self, model_1_4):
        with pytest.raises(NotOrdered, match="^copy 1:1 is not strictly below copy 0:0 over 0$"):
            region_between(model_1_4, 2, 0, Address.parse("0"))

    def test_simultaneous_jumps_compare_the_old_heights(self):
        # both copies jump at c = 1/4: the lower one's jump top 13/16 passes the
        # upper one's jump bottom 251/320, though not its new height 53/64
        rect = Rect(Address.parse("0"), F(1, 2), F(17, 20))
        state = ConstructionState(1, 4, False, [stage_zero(), [rect]])
        assert not _ordered(assemble(state), 0, 1, Address.parse("0"))
        assert not pointwise_below_oracle(state.copies[0], state.copies[1], Address.parse("0"))

    @pytest.mark.parametrize("name", ["st_2_16", "st_4_16t"])
    def test_matches_fraction_walk(self, name, request):
        # every ordered pair of the copies spanning each column at levels 1..K
        state = request.getfixturevalue(name)
        model = assemble(state)
        verdicts = set()
        for level in range(1, state.depth + 1):
            for sigma in addresses_of_length(level):
                for low, up in itertools.product(state.chain_ids(sigma), repeat=2):
                    ours = _ordered(model, low, up, sigma)
                    oracle = pointwise_below_oracle(state.copies[low], state.copies[up], sigma)
                    assert ours == oracle, (str(sigma), low, up)
                    verdicts.add(ours)
        assert verdicts == {True, False}


class TestAffineMap:
    """A copy's placement (c, r) -> (0(sigma) + c/3^n, a + r(b-a)), the oracles'
    to_global_c and to_global_h."""

    @given(
        st.lists(st.integers(0, 1), max_size=6),
        st.tuples(st.fractions(), st.fractions()).map(lambda t: (min(t), max(t))),
        st.fractions(min_value=0, max_value=1),
        st.fractions(min_value=0, max_value=1),
        st.fractions(min_value=-2, max_value=3),
        st.fractions(min_value=-2, max_value=3),
    )
    def test_order_preserving(self, bits, ab, c1, c2, r1, r2):
        a, b = ab
        if a == b:
            b = a + 1
        rect = Rect(Address(tuple(bits)), a, b)
        copy = PlacedCopy(len(bits), 0, rect, jump_table(2), own_den(rect, 2))
        assert to_global_c(copy, min(c1, c2)) <= to_global_c(copy, max(c1, c2))
        assert to_global_h(copy, min(r1, r2)) <= to_global_h(copy, max(r1, r2))

    def test_maps_unit_square_onto_footprint(self):
        rect = Rect(Address.parse("01"), F(1, 4), F(3, 4))
        copy = PlacedCopy(2, 0, rect, jump_table(2), own_den(rect, 2))
        assert (to_global_c(copy, F(0)), to_global_h(copy, F(0))) == (F(2, 9), F(1, 4))
        assert (to_global_c(copy, F(1)), to_global_h(copy, F(1))) == (F(1, 3), F(3, 4))


class TestCopyGeometry:
    def test_image_jump_heights_scale(self, st_1_4):
        copy = st_1_4.copies[1]  # rect [29/32, 1] over column 0
        height = copy.rect.height
        for m, (_, low, high) in enumerate(fraction_table(4).jumps):
            lo = to_global_h(copy, low)
            hi = to_global_h(copy, high)
            assert hi - lo == height * F(1, 2 ** (m + 1))

    @pytest.mark.parametrize("name", ["st_2_16", "st_4_16t"])
    def test_jump_global_matches_fraction_placement(self, name, request):
        state = request.getfixturevalue(name)
        for copy in state.copies:
            ours = [copy.jump_global(pos) for pos in range(state.n_jumps)]
            assert ours == jumps_global_oracle(copy), copy.key

    def test_image_touches_bottom_only_on_leftmost_plateau(self, st_1_4):
        for copy in st_1_4.copies:
            plats = plateaus_global_oracle(copy)
            assert plats[0][2] == copy.rect.bottom
            assert all(v > copy.rect.bottom for _, _, v in plats[1:])
            assert max_height_oracle(copy) < copy.rect.top

    @given(
        st.lists(st.integers(0, 1), max_size=6),
        st.tuples(st.fractions(), st.fractions()).map(lambda t: (min(t), max(t))),
        st.integers(2, 12),
        st.integers(1, 6),
    )
    def test_integer_form_is_exact(self, bits, ab, n_jumps, widen):
        # a state's den is a multiple of each copy's own den
        a, b = ab
        if a == b:
            b = a + 1
        rect = Rect(Address(tuple(bits)), a, b)
        copy = PlacedCopy(len(bits), 0, rect, jump_table(n_jumps), own_den(rect, n_jumps) * widen)
        assert F(copy.origin, 3**copy.stage) == to_global_c(copy, F(0))
        for v in fraction_table(n_jumps).values:
            k = v * 2**n_jumps
            assert k.denominator == 1
            assert F(copy.base + copy.step * k.numerator, copy.den) == to_global_h(copy, v)

    @pytest.mark.parametrize("bottom, den", [(F(1, 3), 4), (F(1, 3), 6), (F(1, 4), 12)])
    def test_den_that_misses_a_denominator_is_refused(self, bottom, den):
        # den(a) and den(h) * 2^N must divide den: den 4 would place the bottom 1/3
        # at (4 // 3) / 4 = 1/4; den(2/3) * 4 = 12 does not divide 6, nor den(3/4) * 4 = 16 12
        rect = Rect(Address(), bottom, F(1))
        assert den % own_den(rect, 2) != 0
        with pytest.raises(InvalidParameter, match=f"den {den} "):
            PlacedCopy(0, 0, rect, jump_table(2), den)
        assert PlacedCopy(0, 0, rect, jump_table(2), own_den(rect, 2)).fiber(F(0)) == ("point", bottom, bottom)

    @pytest.mark.parametrize(
        "name", ["st_0_4", "st_1_4", "st_2_16", "st_3_16", "st_3_32", "st_3_16t", "st_4_16t", "st_4_32", "st_5_32t"]
    )
    def test_built_and_loaded_copies_match_direct_construction(self, name, request, tmp_path):
        # add_stage places each copy at its stage's den and rescales it as later
        # stages widen den; a direct copy divides the final den itself
        state = request.getfixturevalue(name)
        save_state(state, tmp_path / "state.json")
        for placed in (state, load_state(tmp_path / "state.json")):
            for copy in placed.copies:
                direct = PlacedCopy(copy.stage, copy.index, copy.rect, copy.table, copy.den)
                assert (copy.den, copy.base, copy.step, copy.origin, copy.pow3) == (
                    direct.den, direct.base, direct.step, direct.origin, direct.pow3
                ), copy.key


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
STATE_FIELDS = [
    ("depth",),
    ("jumps",),
    ("strict",),
    ("stages",),
    ("stages", 1),
    ("stages", 1, "n"),
    ("stages", 1, "rects"),
    ("stages", 1, "rects", 0),
    ("stages", 1, "rects", 0, "address"),
    ("stages", 1, "rects", 0, "a"),
    ("stages", 1, "rects", 0, "b"),
]


class TestStateScale:
    @staticmethod
    def _assert_one_scale(state):
        scale = 2**state.n_jumps
        assert {copy.den for copy in state.copies} == {state.den}
        assert state.den == math.lcm(*(own_den(copy.rect, state.n_jumps) for copy in state.copies))
        for copy in state.copies:
            assert F(copy.base, state.den) == copy.rect.bottom
            assert F(copy.base + copy.step * scale, state.den) == copy.rect.top

    @pytest.mark.parametrize("name", ["st_2_16", "st_3_32", "st_4_16t"])
    def test_every_copy_is_over_the_state_den(self, name, request, tmp_path):
        state = request.getfixturevalue(name)
        save_state(state, str(tmp_path / "s.json"))
        loaded = load_state(str(tmp_path / "s.json"))
        for each in (state, loaded):
            self._assert_one_scale(each)
        forms = [[(c.den, c.base, c.step) for c in each.copies] for each in (state, loaded)]
        assert forms[0] == forms[1]


def load_outcome(loader, doc):
    """What loading `doc` gives: the state's JSON with each copy's integer
    form, or the message and location of the StateSchemaError raised. The
    oracle loader's state is written and placed from Fractions."""
    try:
        state = loader(doc)
    except StateSchemaError as exc:
        return "error", str(exc), exc.location
    if loader is state_from_json_obj_oracle:
        return "state", state_json_oracle(state), placement_oracle(state)
    return "state", state.to_json(), [(c.den, c.base, c.step, c.origin) for c in state.copies]


class TestStateSerialization:
    @given(st.sampled_from(STATE_FIELDS), json_values)
    def test_any_corrupted_field_loads_or_raises_schema_error(self, st_1_4, path, value):
        doc = json.loads(st_1_4.to_json())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert load_outcome(state_from_json_obj, doc) == load_outcome(state_from_json_obj_oracle, doc)

    @pytest.mark.parametrize(
        "field, value",
        [("depth", "1"), ("jumps", "4"), ("strict", 1), ("depth", True), ("jumps", 0), ("depth", -1)],
    )
    def test_mistyped_top_level_field_rejected(self, st_1_4, field, value):
        doc = json.loads(st_1_4.to_json())
        doc[field] = value
        with pytest.raises(StateSchemaError):
            state_from_json_obj(doc)

    @pytest.mark.parametrize("bound", ["-1e0", "0.25", "1_000", "1/0"])
    def test_non_pq_bound_rejected(self, st_1_4, bound):
        doc = json.loads(st_1_4.to_json())
        doc["stages"][1]["rects"][0]["a"] = bound
        with pytest.raises(StateSchemaError, match="not a rational"):
            state_from_json_obj(doc)

    def test_round_trip_exact(self, st_2_16):
        doc = json.loads(st_2_16.to_json())
        again = state_from_json_obj(doc)
        assert again.to_json() == st_2_16.to_json()
        assert [r.bottom for r in again.stages[2].rects] == [
            r.bottom for r in st_2_16.stages[2].rects
        ]

    def test_schema_validation(self):
        with pytest.raises(StateSchemaError):
            state_from_json_obj({"schema": "nope"})
        with pytest.raises(StateSchemaError) as exc:
            state_from_json_obj(
                {"schema": "fanforge-state-v1", "depth": 0, "jumps": 1, "strict": True,
                 "stages": [{"n": 0, "rects": [{"address": "", "a": "0/1"}]}]}
            )
        assert "rects[0]" in str(exc.value)

    def test_jump_count_whose_reports_cannot_be_written_is_refused(self, int_text_limit):
        int_text_limit(4300)
        doc = {"schema": "fanforge-state-v1", "depth": 0, "jumps": 100000, "strict": True,
               "stages": [{"n": 0, "rects": [{"address": "", "a": "0", "b": "1"}]}]}
        with mock.patch.object(tiling, "jump_table", side_effect=AssertionError("table made")):
            with pytest.raises(StateSchemaError, match="limit of 14284") as exc:
                state_from_json_obj(doc, "s.json")
        assert exc.value.location == "s.json.jumps"

    def test_state_whose_den_is_too_wide_is_refused(self, int_text_limit):
        doc = json.loads(build(1, 1062).to_json())
        int_text_limit(640)
        with pytest.raises(StateSchemaError, match="^1062 jumps at depth 1 put heights over a 2126-bit") as exc:
            state_from_json_obj(doc, "s.json")
        assert exc.value.location == "s.json.jumps"


class TestLoaderAgainstOracle:
    """The loader parses each distinct text once; the oracle parses every
    rect afresh. They load and refuse the same documents alike."""

    @pytest.mark.parametrize(
        "name", ["st_0_4", "st_1_4", "st_2_16", "st_3_16", "st_3_32", "st_3_16t", "st_4_16t", "st_4_32", "st_5_32t"]
    )
    def test_every_fixture_loads_as_the_oracle_loads_it(self, name, request):
        state = request.getfixturevalue(name)
        doc = json.loads(state.to_json())
        ours = load_outcome(state_from_json_obj, doc)
        assert ours == load_outcome(state_from_json_obj_oracle, doc)
        assert ours[1:] == (state.to_json(), [(c.den, c.base, c.step, c.origin) for c in state.copies])

    @given(st.data())
    def test_texts_moved_between_rects_load_as_the_oracle_loads_them(self, st_2_16, data):
        # a text copied from another rect is already parsed when the
        # target rect is read, or is parsed there first
        doc = json.loads(st_2_16.to_json())
        rects = [rd for stage in doc["stages"] for rd in stage["rects"]]
        source, target = data.draw(st.sampled_from(rects)), data.draw(st.sampled_from(rects))
        for key in data.draw(st.lists(st.sampled_from(["address", "a", "b"]), min_size=1, max_size=3)):
            target[key] = source[data.draw(st.sampled_from(["address", "a", "b"]))]
        assert load_outcome(state_from_json_obj, doc) == load_outcome(state_from_json_obj_oracle, doc)

    def test_non_canonical_rational_loads_equal_to_canonical(self, st_1_4):
        # "-1/2" and "3/2" stay canonical in the rects next to these
        doc = json.loads(st_1_4.to_json())
        rects = doc["stages"][1]["rects"]
        assert (rects[4]["b"], rects[7]["a"]) == ("-1/2", "3/2")
        rects[4]["b"], rects[7]["a"] = "-2/4", "6/4"
        assert load_outcome(state_from_json_obj, doc) == load_outcome(state_from_json_obj_oracle, doc)
        assert state_from_json_obj(doc).to_json() == st_1_4.to_json()

    @staticmethod
    def _refusal(doc, stage, index):
        outcome = load_outcome(state_from_json_obj, doc)
        assert outcome == load_outcome(state_from_json_obj_oracle, doc)
        assert outcome[0] == "error" and outcome[2] == f"<state>.stages[{stage}].rects[{index}]"
        return outcome[1]

    def test_address_seen_at_an_earlier_stage_is_refused_at_its_rect(self, st_2_16):
        doc = json.loads(st_2_16.to_json())
        doc["stages"][2]["rects"][5]["address"] = doc["stages"][1]["rects"][0]["address"]
        assert self._refusal(doc, 2, 5).startswith("address length 1 at stage 2")

    def test_inverted_bounds_of_seen_texts_are_refused_at_their_rect(self, st_2_16):
        doc = json.loads(st_2_16.to_json())
        rects = doc["stages"][2]["rects"]
        seen: set[str] = set()
        for index, rd in enumerate(rects):
            if rd["a"] in seen and rd["b"] in seen:
                break
            seen |= {rd["a"], rd["b"]}
        else:
            pytest.fail("no rect of stage 2 reuses two earlier texts")
        rd["a"], rd["b"] = rd["b"], rd["a"]
        assert self._refusal(doc, 2, index).startswith("rect needs bottom < top")

    @pytest.mark.parametrize(
        "fields, first",
        [
            ({"address": "2", "a": "0.5"}, "address string must be bits: '2'"),
            ({"a": "0.5", "b": "1e0"}, "not a rational: '0.5'"),
            ({"a": "0.5", "b": 1}, "'b' must be str"),
        ],
    )
    def test_the_first_bad_field_of_a_rect_is_named(self, st_2_16, fields, first):
        # types are checked before any text is parsed, and texts in order
        doc = json.loads(st_2_16.to_json())
        doc["stages"][2]["rects"][4].update(fields)
        outcome = load_outcome(state_from_json_obj, doc)
        assert outcome == load_outcome(state_from_json_obj_oracle, doc)
        assert outcome[1].startswith(first)

    @pytest.mark.parametrize("rect", [["0", "1/2", "1/1"], "0", None, 7])
    def test_non_object_rect_is_refused(self, st_2_16, rect):
        doc = json.loads(st_2_16.to_json())
        doc["stages"][1]["rects"][3] = rect
        assert self._refusal(doc, 1, 3).startswith("expected an object")


def test_address_and_rect_keep_their_equality_and_hashing():
    assert Address((0, 1)) == Address.parse("01") and hash(Address((0, 1))) == hash(Address.parse("01"))
    assert Address((0,)) != Address((1,)) and Address() != () and len({Address(), Address(())}) == 1
    rect = Rect(Address.parse("0"), F(1, 2), F(1))
    same = Rect(Address((0,)), F(2, 4), F(1))
    assert rect == same and hash(rect) == hash(same) and len({rect, same}) == 1
    assert rect != Rect(Address.parse("1"), F(1, 2), F(1)) and rect != Rect(Address.parse("0"), F(1, 2), F(3, 2))
    assert same.height == F(1, 2) and hash(rect) == hash((Address((0,)), F(1, 2), F(1)))
    assert Rect.from_pairs(Address((0,)), (1, 2), (1, 1)) == rect
    assert (rect.a, rect.b, rect.h) == ((1, 2), (1, 1), (1, 2))


@pytest.mark.parametrize("bottom, top", [(F(1, 2), F(1, 2)), (F(3, 2), F(-1)), (F(0), F(-1, 3))])
def test_rect_refuses_bottom_at_or_above_top_with_its_fraction_message(bottom, top):
    message = f"rect needs bottom < top, got [{bottom}, {top}]"
    pairs = [(q.numerator, q.denominator) for q in (bottom, top)]
    for make in (lambda: Rect(Address(), bottom, top), lambda: Rect.from_pairs(Address(), *pairs)):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message
