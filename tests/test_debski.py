from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from fanforge.debski import (
    build_D,
    classify_point,
    f_value,
    graph_closure_E,
    jump_interval,
    jump_points,
    midpoints,
    min_jumps_for_depth,
)
from fanforge.exact import Address, addresses_of_length, cantor_member, endpoint_zero
from fanforge.errors import AtJumpLocation, IndexOutOfRange, NotInCantor

from .oracles import f_value_oracle, jump_points_oracle


def cantor_points(max_len=8):
    """Members of C that are never jump locations: basic-interval endpoints."""
    return st.tuples(st.lists(st.integers(0, 1), max_size=max_len), st.booleans()).map(
        lambda t: endpoint_zero(Address(tuple(t[0])))
        + (F(1, 3 ** len(t[0])) if t[1] else 0)
    )


class TestJumpPoints:
    def test_first_jump(self):
        assert jump_points(1) == [F(1, 4)]

    def test_first_three_match_enumeration_oracle(self):
        assert jump_points(3) == jump_points_oracle(3) == [F(1, 4), F(1, 12), F(3, 4)]

    def test_first_five_skip_the_duplicate_proposal(self):
        # the proposal for word 01 equals 1/4 and must be skipped
        assert jump_points(5) == [F(1, 4), F(1, 12), F(3, 4), F(1, 36), F(25, 36)]
        assert jump_points(5) == jump_points_oracle(5)

    def test_all_are_non_endpoint_members(self):
        for d in jump_points(48):
            assert cantor_member(d)
            # endpoints have denominator 3^k; the quarter-offset tail keeps a
            # factor 4, so none of these can be an endpoint
            assert d.denominator % 4 == 0

    def test_density_at_scale(self):
        # through word length L the accepted count is N(L); every basic
        # interval of depth <= 6 already holds one of the first N(L) jumps
        accepted_through = [1, 3, 6, 12, 24, 48, 96]
        pts = jump_points(96)
        for L in range(7):
            budget = pts[: accepted_through[L]]
            for sigma in addresses_of_length(L):
                lo, hi = endpoint_zero(sigma), endpoint_zero(sigma) + F(1, 3**L)
                assert any(lo < d < hi for d in budget), f"no early jump inside {sigma}"

    def test_min_jumps_for_depth_matches_closed_form(self):
        assert [min_jumps_for_depth(k) for k in range(7)] == [1, 2, 6, 12, 24, 48, 96]

    @staticmethod
    def _covers(depth, count):
        """Every depth-`depth` basic interval holds one of the first `count` jumps."""
        pts = jump_points_oracle(count)
        width = F(1, 3**depth)
        return all(
            any(lo < d < lo + width for d in pts)
            for lo in map(endpoint_zero, addresses_of_length(depth))
        )

    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    def test_min_jumps_for_depth_is_the_least_covering_count(self, depth):
        n = min_jumps_for_depth(depth)
        assert self._covers(depth, n) and not self._covers(depth, n - 1)

    def test_min_jumps_at_depth_one_is_the_stage_one_floor_not_the_cover(self):
        assert min_jumps_for_depth(1) == 2
        assert not self._covers(1, 2) and self._covers(1, 3)


class TestFValue:
    def test_at_zero(self):
        for n in (1, 4, 16):
            assert f_value(F(0), n) == 0

    def test_at_one_with_four_jumps(self):
        # all four jumps lie below 1: 1/2 + 1/4 + 1/8 + 1/16
        assert f_value(F(1), 4) == F(15, 16)

    def test_at_one_third_with_four_jumps(self):
        # jumps 0, 1, 3 lie below 1/3: 1/2 + 1/4 + 1/16
        assert f_value(F(1, 3), 4) == F(13, 16)
        assert f_value_oracle(F(1, 3), 4) == F(13, 16)

    def test_jump_location_is_rejected(self):
        with pytest.raises(AtJumpLocation):
            f_value(F(1, 4), 4)

    def test_not_in_cantor(self):
        with pytest.raises(NotInCantor):
            f_value(F(1, 2), 4)

    @given(cantor_points(), cantor_points(), st.integers(1, 24))
    def test_monotone(self, c1, c2, n):
        lo, hi = min(c1, c2), max(c1, c2)
        assert f_value(lo, n) <= f_value(hi, n)
        if any(lo < d < hi for d in jump_points(n)):
            assert f_value(lo, n) < f_value(hi, n)

    @given(cantor_points(), st.integers(1, 24))
    def test_monotone_truncation(self, c, n):
        delta = f_value(c, n + 1) - f_value(c, n)
        assert delta in (F(0), F(1, 2 ** (n + 1)))


class TestJumpInterval:
    def test_jump_zero_with_four_jumps(self):
        # jumps 1 and 3 lie below d0 = 1/4: r0 = 1/4 + 1/16
        assert jump_interval(0, 4) == (F(5, 16), F(13, 16))

    def test_jump_one_with_four_jumps(self):
        # only jump 3 = 1/36 lies below d1 = 1/12
        assert jump_interval(1, 4) == (F(1, 16), F(5, 16))

    @pytest.mark.parametrize("n_jumps", [1, 4, 16])
    def test_widths(self, n_jumps):
        for n in range(n_jumps):
            lo, hi = jump_interval(n, n_jumps)
            assert hi - lo == F(1, 2 ** (n + 1))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            jump_interval(4, 4)

    def test_total_jump_mass(self):
        for n_jumps in (1, 4, 16, 32):
            total = sum(
                jump_interval(n, n_jumps)[1] - jump_interval(n, n_jumps)[0]
                for n in range(n_jumps)
            )
            assert total == 1 - F(1, 2**n_jumps)


class TestDebskiSet:
    def test_single_jump(self):
        dset = build_D(1)
        assert [(j.location, j.low, j.high) for j in dset.table.jumps()] == [
            (F(1, 4), F(0), F(1, 2))
        ]
        assert [(p.value) for p in dset.plateaus] == [F(0), F(1, 2)]
        assert dset.coverage_gap() == F(1, 2)

    def test_coverage_gap_four_jumps(self):
        assert build_D(4).coverage_gap() == F(1, 16)

    @pytest.mark.parametrize("n_jumps", [1, 2, 4, 16])
    def test_plateau_count_and_monotone_values(self, n_jumps):
        dset = build_D(n_jumps)
        assert len(dset.plateaus) == n_jumps + 1
        values = [p.value for p in dset.plateaus]
        assert values == sorted(values)
        assert values[0] == 0
        assert values[-1] == 1 - F(1, 2**n_jumps)

    def test_plateau_steps_equal_jump_widths(self):
        dset = build_D(8)
        for pos in range(8):
            jump = dset.table.jump_at_pos(pos)
            assert dset.plateaus[pos + 1].value - dset.plateaus[pos].value == jump.width

    def test_json_shape(self):
        doc = build_D(2).to_json_obj()
        assert doc["N"] == 2
        assert doc["jumps"][0] == {"n": 1, "d": "1/12", "r": "0/1", "s": "1/4"}
        assert doc["plateaus"][0] == {"left": "0/1", "right": "1/12", "value": "0/1"}


class TestClassify:
    def test_below_everything(self):
        assert classify_point(build_D(4), (F(0), F(-1))) == "below"

    def test_on_a_jump_segment(self):
        assert classify_point(build_D(4), (F(1, 4), F(9, 16))) == "on"

    def test_above(self):
        assert classify_point(build_D(4), (F(1, 3), F(7, 8))) == "above"

    def test_partitions(self):
        dset = build_D(4)
        for c in (F(0), F(1, 36), F(1, 4), F(2, 3), F(1)):
            for h in (F(-1), F(0), F(1, 16), F(5, 16), F(13, 16), F(2)):
                assert classify_point(dset, (c, h)) in {"below", "on", "above"}

    def test_not_in_cantor(self):
        with pytest.raises(NotInCantor):
            classify_point(build_D(4), (F(1, 2), F(0)))


class TestMidpoints:
    def test_single(self):
        assert midpoints(1) == [(F(1, 4), F(1, 4))]

    def test_four_jump_first_midpoint(self):
        assert midpoints(4)[0] == (F(1, 4), F(9, 16))

    def test_midpoint_heights_and_distinctness(self):
        pts = midpoints(16)
        assert len(set(pts)) == 16
        for n, (d, mid) in enumerate(pts):
            lo, hi = jump_interval(n, 16)
            assert mid == lo + F(1, 2 ** (n + 2))
            assert lo < mid < hi


class TestGraphClosure:
    def test_single_jump(self):
        e = graph_closure_E(1)
        assert e.jump_bottoms == ((F(1, 4), F(0)),)
        assert e.jump_tops == ((F(1, 4), F(1, 2)),)
        assert [(p.left, p.right, p.value) for p in e.plateaus] == [
            (F(0), F(1, 4), F(0)),
            (F(1, 4), F(1), F(1, 2)),
        ]

    def test_disjoint_from_open_jump_interiors_and_midpoints(self):
        e = graph_closure_E(8)
        dset = build_D(8)
        closure_points_at = {}
        for p in e.plateaus:
            closure_points_at.setdefault(p.left, set()).add(p.value)
            closure_points_at.setdefault(p.right, set()).add(p.value)
        for n, (d, mid) in enumerate(midpoints(8)):
            lo, hi = jump_interval(n, 8)
            # plateau heights at the jump column are exactly the segment ends
            assert closure_points_at[d] == {lo, hi}
            assert mid not in closure_points_at[d]
