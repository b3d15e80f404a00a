import bisect
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from fanforge import assemble, build
from fanforge.debski import jump_points, jump_table, min_jumps_for_depth
from fanforge.exact import Address, addresses_of_length, cantor_member, endpoint_zero
from fanforge.errors import IndexOutOfRange, JumpHit, NotInCantor
from fanforge.query import vertical_trace
from fanforge.tiling import ConstructionState, stage_zero

from .oracles import classify_on_copy_oracle, f_value_oracle, fraction_table, jump_points_oracle


def cantor_points(max_len=8):
    """Members of C that are never jump locations: basic-interval endpoints."""
    return st.tuples(st.lists(st.integers(0, 1), max_size=max_len), st.booleans()).map(
        lambda t: endpoint_zero(Address(tuple(t[0])))
        + (F(1, 3 ** len(t[0])) if t[1] else 0)
    )


def value_at(c, n_jumps):
    """The truncated function at a Cantor point c that is no jump location,
    from the jump table: the value of the plateau after the locations below c."""
    t = jump_table(n_jumps)
    return F(t.values[bisect.bisect_left(t.locations, c * t.den)], 2**n_jumps)


def identity_copy(n_jumps):
    """The stage-0 copy, whose rectangle is the unit square: it is D itself."""
    return ConstructionState(0, n_jumps, True, [stage_zero()]).copies[0]


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


class TestJumpTable:
    @pytest.mark.parametrize("n_jumps", range(1, 65))
    def test_equals_fraction_oracle(self, n_jumps):
        t, o = jump_table(n_jumps), fraction_table(n_jumps)
        assert [F(x, t.den) for x in t.locations] == o.locations
        assert [F(v, 2**n_jumps) for v in t.values] == o.values
        for m, (location, low, high) in enumerate(o.jumps):
            pos = t.pos_of_index[m]
            assert t.index_at[pos] == m
            assert (F(t.locations[pos], t.den), F(t.values[pos], 2**n_jumps)) == (location, low)
            assert F(t.values[pos + 1], 2**n_jumps) == high

    def test_jump_points_must_exist(self):
        with pytest.raises(ValueError):
            jump_table(0)


class TestFValue:
    """The truncated function on table values; at depth 0 the state is D
    itself, and `vertical_trace` evaluates the function there."""

    def test_at_zero(self):
        for n in (1, 4, 16):
            assert value_at(F(0), n) == 0
            assert vertical_trace(build(0, n), F(0)) == [(F(0), 0)]

    def test_at_one_with_four_jumps(self):
        # all four jumps lie below 1: 1/2 + 1/4 + 1/8 + 1/16
        assert value_at(F(1), 4) == F(15, 16)
        assert vertical_trace(build(0, 4), F(1)) == [(F(15, 16), 0)]

    def test_at_one_third_with_four_jumps(self):
        # jumps 0, 1, 3 lie below 1/3: 1/2 + 1/4 + 1/16
        assert value_at(F(1, 3), 4) == F(13, 16)
        assert vertical_trace(build(0, 4), F(1, 3)) == [(F(13, 16), 0)]
        assert f_value_oracle(F(1, 3), 4) == F(13, 16)

    def test_jump_location_is_rejected(self, st_0_4):
        with pytest.raises(JumpHit):
            vertical_trace(st_0_4, F(1, 4))

    def test_not_in_cantor(self, st_0_4):
        with pytest.raises(NotInCantor):
            vertical_trace(st_0_4, F(1, 2))

    @given(cantor_points(), cantor_points(), st.integers(1, 24))
    def test_monotone(self, c1, c2, n):
        lo, hi = min(c1, c2), max(c1, c2)
        assert value_at(lo, n) <= value_at(hi, n)
        if any(lo < d < hi for d in jump_points(n)):
            assert value_at(lo, n) < value_at(hi, n)
        assert value_at(c1, n) == f_value_oracle(c1, n) == identity_copy(n).fiber(c1)[1]

    @given(cantor_points(), st.integers(1, 24))
    def test_monotone_truncation(self, c, n):
        delta = value_at(c, n + 1) - value_at(c, n)
        assert delta in (F(0), F(1, 2 ** (n + 1)))


class TestJumpInterval:
    """Jump m of D as the identity copy's (location, low, high)."""

    @staticmethod
    def interval(m, n_jumps):
        copy = identity_copy(n_jumps)
        return copy.jump_global(copy.jump_pos(m))[1:]

    def test_jump_zero_with_four_jumps(self):
        # jumps 1 and 3 lie below d0 = 1/4: r0 = 1/4 + 1/16
        assert self.interval(0, 4) == (F(5, 16), F(13, 16))

    def test_jump_one_with_four_jumps(self):
        # only jump 3 = 1/36 lies below d1 = 1/12
        assert self.interval(1, 4) == (F(1, 16), F(5, 16))

    @pytest.mark.parametrize("n_jumps", [1, 4, 16])
    def test_widths(self, n_jumps):
        for n in range(n_jumps):
            lo, hi = self.interval(n, n_jumps)
            assert hi - lo == F(1, 2 ** (n + 1))

    def test_index_out_of_range(self):
        copy = identity_copy(4)
        for m in (4, -1):
            with pytest.raises(IndexOutOfRange):
                copy.jump_pos(m)

    def test_total_jump_mass(self):
        for n_jumps in (1, 4, 16, 32):
            total = sum(hi - lo for lo, hi in (self.interval(n, n_jumps) for n in range(n_jumps)))
            assert total == 1 - F(1, 2**n_jumps)


class TestDebskiSet:
    """D's plateau values and coverage gap, on the jump table's ints."""

    def test_single_jump(self):
        t = jump_table(1)
        assert (F(t.locations[0], t.den), t.values) == (F(1, 4), [0, 1])
        assert identity_copy(1).jump_global(0) == (F(1, 4), F(0), F(1, 2))
        assert 1 - F(t.values[-1], 2) == F(1, 2)

    def test_coverage_gap_four_jumps(self):
        assert 1 - F(jump_table(4).values[-1], 2**4) == F(1, 16)

    @pytest.mark.parametrize("n_jumps", [1, 2, 4, 16])
    def test_plateau_count_and_monotone_values(self, n_jumps):
        values = jump_table(n_jumps).values
        assert len(values) == n_jumps + 1
        assert values == sorted(values)
        assert values[0] == 0
        assert values[-1] == 2**n_jumps - 1

    def test_plateau_steps_equal_jump_widths(self):
        t = jump_table(8)
        for pos in range(8):
            assert t.values[pos + 1] - t.values[pos] == 2 ** (8 - 1 - t.index_at[pos])


class TestClassify:
    """A point against D: the depth-0 model, whose one copy is D, classifies
    a point as off D ('P') exactly when the copy's Fraction fiber has it
    below or above."""

    def test_below_everything(self, st_0_4):
        point = (F(0), F(-1))
        assert classify_on_copy_oracle(st_0_4.copies[0], point) == "below"
        assert assemble(st_0_4).classify(point) == "P"

    def test_on_a_jump_segment(self, st_0_4):
        # the midpoint of jump 0 over [5/16, 13/16]
        point = (F(1, 4), F(9, 16))
        assert classify_on_copy_oracle(st_0_4.copies[0], point) == "on"
        assert assemble(st_0_4).classify(point) == "Q"

    def test_above(self, st_0_4):
        point = (F(1, 3), F(7, 8))
        assert classify_on_copy_oracle(st_0_4.copies[0], point) == "above"
        assert assemble(st_0_4).classify(point) == "P"

    def test_partitions(self, st_0_4):
        model = assemble(st_0_4)
        for c in (F(0), F(1, 36), F(1, 4), F(2, 3), F(1)):
            for h in (F(-1), F(0), F(1, 16), F(5, 16), F(13, 16), F(2)):
                on = classify_on_copy_oracle(st_0_4.copies[0], (c, h)) == "on"
                assert (model.classify((c, h)) != "P") == on

    def test_not_in_cantor(self, st_0_4):
        # outside [0, 1] too, by locate's one Cantor test
        for c in (F(-1, 10), F(11, 10), F(1, 2)):
            with pytest.raises(NotInCantor, match=f"^{c} is not in the Cantor set$"):
                assemble(st_0_4).classify((c, F(0)))


class TestMidpoints:
    def test_single(self):
        assert identity_copy(1).midpoints_global(range(1)) == [(F(1, 4), F(1, 4))]

    def test_four_jump_first_midpoint(self):
        assert identity_copy(4).midpoints_global(range(4))[0] == (F(1, 4), F(9, 16))

    def test_midpoint_heights_and_distinctness(self):
        copy = identity_copy(16)
        pts = copy.midpoints_global(range(16))
        assert len(set(pts)) == 16
        for n, (d, mid) in enumerate(pts):
            c, lo, hi = copy.jump_global(copy.jump_pos(n))
            assert c == d
            assert mid == lo + F(1, 2 ** (n + 2))
            assert lo < mid < hi


class TestGraphClosure:
    """The closure of the graph is the closed plateaus: plateau j runs from
    location j-1 to location j at value j, so the jump ends are plateau ends."""

    def test_single_jump(self):
        t = jump_table(1)
        bounds = [0, *t.locations, t.den]
        plateaus = [(F(bounds[j], t.den), F(bounds[j + 1], t.den), F(t.values[j], 2)) for j in range(2)]
        assert plateaus == [(F(0), F(1, 4), F(0)), (F(1, 4), F(1), F(1, 2))]

    def test_disjoint_from_open_jump_interiors_and_midpoints(self):
        t, copy = jump_table(8), identity_copy(8)
        closure_points_at = {}
        bounds = [0, *t.locations, t.den]
        for j, value in enumerate(t.values):
            for x in (bounds[j], bounds[j + 1]):
                closure_points_at.setdefault(F(x, t.den), set()).add(F(value, 2**8))
        for n, (d, mid) in enumerate(copy.midpoints_global(range(8))):
            _, lo, hi = copy.jump_global(copy.jump_pos(n))
            # plateau heights at the jump column are exactly the segment ends
            assert closure_points_at[d] == {lo, hi}
            assert mid not in closure_points_at[d]
