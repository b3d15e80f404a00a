import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from fanforge.debski import jump_table
from fanforge.exact import (
    Address,
    addresses_of_length,
    endpoint_one,
    endpoint_zero,
)
from fanforge import floats
from fanforge.errors import InvalidParameter
from fanforge.floats import _diameter, copy_fan_diameter, fan_diameter_bound, stage_fan_diameters
from fanforge.spaceset import sample_points
from fanforge.query import vertical_trace
from fanforge.tiling import (
    ColumnSweep,
    ConstructionState,
    PlacedCopy,
    Rect,
)
from fanforge import connectivity, query, tiling, verify
from fanforge.connectivity import epsilon_connectivity, mst_max_edge
from fanforge.verify import (
    _candidate_ranks,
    _disjointness,
    _problems,
    check_conditions_i_ii,
    check_null_sequence,
    check_partial_tiling,
    copies_intersect,
    run_all,
    sweep_level,
)

from .oracles import (
    CellDecomposition,
    band_oracle,
    band_union_gap_oracle,
    basic_interval_inside,
    candidate_pairs,
    classify_on_copy_oracle,
    column_gaps_oracle,
    components_oracle,
    conditions_i_ii_oracle,
    copies_intersect_oracle,
    copy_fan_diameter_oracle,
    copy_pieces_oracle,
    coverage_gap_for_column,
    dense_prim_edges_oracle,
    diameter_oracle,
    disjointness_oracle,
    fan_diameter_bound_oracle,
    fan_point,
    fraction_table,
    jumps_global_oracle,
    max_height_oracle,
    own_den,
    pair_diameter_oracle,
    partial_tiling_oracle,
    plateau_global_oracle,
    plateaus_global_oracle,
    stage_fan_diameters_oracle,
    sweep_level_oracle,
    to_global_h,
)

ALL_STATES = [
    "st_0_4", "st_1_4", "st_2_16", "st_3_16", "st_3_32", "st_3_16t", "st_4_16t", "st_4_32", "st_5_32t"
]

lattice_points = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
    lambda p: (float(p[0]), float(p[1]))
)
grid_points = st.tuples(st.integers(-5000, 5000), st.integers(-5000, 5000)).map(
    lambda p: (p[0] / 1000, p[1] / 1000)
)
line_points = st.integers(-50, 50).map(lambda t: (0.5 + 0.25 * t, 2.0 - 0.75 * t))
# points 1e-12 to 1e-6 apart around one grid point, and a few far ones
near_coincident = st.tuples(
    grid_points,
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(6, 12)), min_size=2, max_size=25),
    st.lists(grid_points, max_size=3),
).map(lambda c: [(c[0][0] + i * 10.0**-e, c[0][1] + j * 10.0**-e) for i, j, e in c[1]] + c[2])
# 0-2 points, duplicates, cocircular lattice points, collinear runs, mixtures
unscaled_clouds = st.one_of(
    st.lists(grid_points, max_size=2),
    st.lists(lattice_points, max_size=25),
    st.lists(line_points, min_size=3, max_size=12),
    st.lists(grid_points, min_size=3, max_size=25).flatmap(
        lambda pts: st.lists(st.sampled_from(pts), max_size=5).map(lambda dup: pts + dup)
    ),
    near_coincident,
)
NEAR_COINCIDENT = [(0.25, 0.5), (0.25 + 1e-12, 0.5), (0.25, 0.5 + 1e-6), (0.25 + 3e-12, 0.5 + 2e-12), (3.0, -2.0)]
# and each of them scaled by 2**k, exactly
clouds = st.one_of(
    unscaled_clouds,
    st.tuples(unscaled_clouds, st.integers(-400, 400)).map(
        lambda c: [(x * 2.0 ** c[1], y * 2.0 ** c[1]) for x, y in c[0]]
    ),
)


def _with_rects(state, stage_n, rects):
    """Rebuild a state with the rectangles of one stage replaced."""
    stages = [stage.rects for stage in state.stages]
    stages[stage_n] = rects
    return ConstructionState(state.depth, state.n_jumps, state.strict, stages)


def _with_mutated_rect(state, stage_n, index, new_rect):
    """Rebuild a state with one rectangle replaced (negative-path helper)."""
    rects = list(state.stages[stage_n].rects)
    rects[index] = new_rect
    return _with_rects(state, stage_n, rects)


def _accepted_pairs(state):
    """The candidate pairs that the exact pairwise test finds meeting."""
    return {
        (i, j) for i, j in candidate_pairs(state) if copies_intersect(state.copies[i], state.copies[j])
    }


def _gap_pairs(col):
    """col.gaps() as (lower, upper) pairs of (height, place in ids)
    crossings, None for the range boundary, read from the place index as
    each gap is yielded."""
    walk, m = col.gaps(), len(col.ids)
    return [
        (
            (col.hs[g - 1], col.order[g - 1]) if g else None,
            (col.hs[g], col.order[g]) if g < m else None,
        )
        for g in walk
    ]


def _fraction_crossing(state, col, crossing):
    """An integer sweep crossing as the oracle's (height, copy id)."""
    return None if crossing is None else (F(crossing[0], state.den), col.ids[crossing[1]])


def _assert_sweeps_match_oracle(state):
    """Every level's records and meeting pairs equal the bisecting oracle's."""
    for n in range(state.depth + 1):
        level = sweep_level(state, n)
        records, meeting = sweep_level_oracle(state, n)
        assert {k: r.to_json_obj() for k, r in level.records.items()} == {
            k: r.to_json_obj() for k, r in records.items()
        }, n
        assert level.meeting == meeting, n


def _walk_only():
    """sweep_level with every column on the walk, as if no column could
    take the pair path."""
    return mock.patch.object(verify, "_pair_path", lambda *args: None)


def _walk_totals(col, den):
    """(gaps checked, widest gap) of the walk's per-gap loop in one column:
    its gaps of positive length, counted and measured."""
    lo, hi = -col.n * den, (col.n + 1) * den
    lengths = [
        (hi if upper is None else upper[0]) - (lo if lower is None else lower[0]) for lower, upper in _gap_pairs(col)
    ]
    positive = [length for length in lengths if length > 0]
    return len(positive), max(positive, default=0)


def _assert_pair_path_matches_walk(state):
    """In every column of every level the pair path, where it answers,
    counts and measures the gaps as the walk does; returns the number of
    columns that fall back to the walk."""
    fallbacks = 0
    for n in range(state.depth + 1):
        for sigma in addresses_of_length(n):
            fast = verify._pair_path(ColumnSweep(state, sigma), state.den, 0)
            if fast is None:
                fallbacks += 1
            else:
                assert fast == _walk_totals(ColumnSweep(state, sigma), state.den), (n, str(sigma))
    return fallbacks


def _assert_precheck_is_problem_free(state):
    """sweep_level's inlined precheck passes an interior gap exactly when
    _problems() returns []. On the walk, with _problems() stubbed to find
    nothing, no witness stops the asking, so at every level sweep_level
    asks about exactly the edge gaps of positive length and the interior
    gaps that the real _problems() finds something wrong with. The pair
    path asks about a passing column's edge gaps once each, so it is
    turned off here."""
    for n in range(state.depth + 1):
        asked = []

        def recorded(col, low, up, length, den):
            asked.append((tuple(col.ids), low, up))
            return []

        with mock.patch.object(verify, "_problems", recorded), _walk_only():
            sweep_level(state, n)
        expected = []
        lo, hi = -n * state.den, (n + 1) * state.den
        for sigma in addresses_of_length(n):
            col = ColumnSweep(state, sigma)
            for lower, upper in _gap_pairs(col):
                length = (hi if upper is None else upper[0]) - (lo if lower is None else lower[0])
                if length <= 0:
                    continue
                low, up = (None if x is None else x[1] for x in (lower, upper))
                if lower is None or upper is None or _problems(col, low, up, length, state.den):
                    expected.append((tuple(col.ids), low, up))
        assert asked == expected, n


class TestConditionsIandII:
    def test_pass_and_stage_metrics(self, st_1_4):
        records = check_conditions_i_ii(st_1_4)
        assert [r.status for r in records] == ["pass", "pass"]
        assert records[0].metrics["max_height"] == "1/1"  # boundary equality at stage 0
        assert records[1].metrics["max_height"] == "1/2"

    def test_corrupted_height_fails_with_witness(self, st_2_16):
        rect = st_2_16.stages[2].rects[0]
        bad = _with_mutated_rect(
            st_2_16, 2, 0, Rect(rect.address, rect.bottom, rect.bottom + F(2, 3))
        )
        records = check_conditions_i_ii(bad)
        stage2 = next(r for r in records if r.scope == "stage 2")
        assert stage2.status == "fail"
        assert stage2.witness["index"] == 0

    def test_max_height_stops_at_the_witness(self, st_2_16):
        # the failing copy, of height 1/2, comes before a copy of height 1:
        # max_height is the tallest copy up to the witness, as in the oracle
        rects = list(st_2_16.stages[2].rects)
        for i, height in ((0, F(1, 2)), (1, F(1))):
            rects[i] = Rect(rects[i].address, rects[i].bottom, rects[i].bottom + height)
        bad = _with_rects(st_2_16, 2, rects)
        records = check_conditions_i_ii(bad)
        assert [r.to_json_obj() for r in records] == [r.to_json_obj() for r in conditions_i_ii_oracle(bad)]
        stage2 = records[2]
        assert (stage2.status, stage2.witness["index"], stage2.metrics["max_height"]) == ("fail", 0, "1/2")


class TestPerRectChecksOnIntegers:
    @staticmethod
    def _assert_match_fraction_checks(state):
        for check, oracle in (
            (check_conditions_i_ii, conditions_i_ii_oracle),
            (check_partial_tiling, partial_tiling_oracle),
        ):
            assert [r.to_json_obj() for r in check(state)] == [r.to_json_obj() for r in oracle(state)]

    @pytest.mark.parametrize("name", ALL_STATES)
    def test_records_match_fraction_checks(self, name, request):
        self._assert_match_fraction_checks(request.getfixturevalue(name))

    @settings(max_examples=40, deadline=None)
    @given(
        stage_n=st.integers(0, 2),
        pick=st.integers(0, 500),
        lift=st.sampled_from([F(0), F(1, 7), F(-1, 3), F(1)]),
        stretch=st.sampled_from([F(1), F(3, 2), F(5), F(1, 3), F(2, 3) * 2**16]),
    )
    def test_moved_or_stretched_rect_matches_fraction_checks(self, st_2_16, stage_n, pick, lift, stretch):
        rects = st_2_16.stages[stage_n].rects
        rect = rects[pick % len(rects)]
        bottom = rect.bottom + lift * rect.height
        moved = Rect(rect.address, bottom, bottom + rect.height * stretch)
        self._assert_match_fraction_checks(_with_mutated_rect(st_2_16, stage_n, pick % len(rects), moved))


class TestPartialTiling:
    def test_canonical_build_passes(self, st_2_16):
        assert all(r.status == "pass" for r in check_partial_tiling(st_2_16))

    def test_overlapping_rects_fail(self, st_2_16):
        rect = st_2_16.stages[2].rects[0]
        # stretch one rect upward so it overlaps the rect stacked above it
        bad = _with_mutated_rect(
            st_2_16, 2, 0, Rect(rect.address, rect.bottom, rect.top + rect.height / 2)
        )
        records = check_partial_tiling(bad)
        assert any(r.status == "fail" for r in records)


class TestDisjointness:
    def test_small_build_passes(self, st_2_16):
        (record,) = run_all(st_2_16, checks=["disjointness"]).records
        assert record.status == "pass"
        assert record.metrics["pairs_checked"] > 0

    def test_corner_touch_sharp_case(self, st_1_4):
        # the lower split copy's bottom edge equals the stage-0 value at 1/3;
        # the two copies carry pieces at exactly that height over disjoint
        # c-ranges, which the exact predicate must separate
        stage0, split_lower = st_1_4.copies[0], st_1_4.copies[2]
        assert split_lower.rect.bottom == F(13, 16)
        plateau_heights = {v: (lo, hi) for lo, hi, v in plateaus_global_oracle(stage0)}
        assert plateau_heights[F(13, 16)] == (F(1, 4), F(3, 4))
        lo, hi, v = plateau_global_oracle(split_lower, 0)
        assert (lo, hi, v) == (F(0), F(1, 108), F(13, 16))
        assert copies_intersect(stage0, split_lower) is None

    @pytest.mark.parametrize("name,touching", [("st_3_16t", False), ("st_4_16t", True)])
    def test_matches_fraction_scan_on_height_overlapping_pairs(self, name, touching, request):
        state = request.getfixturevalue(name)
        overlapping, witnesses = 0, 0
        for i, j in candidate_pairs(state):
            a, b = state.copies[i], state.copies[j]
            if max(a.rect.bottom, b.rect.bottom) > min(max_height_oracle(a), max_height_oracle(b)):
                assert copies_intersect(a, b) is None
                continue
            ours = copies_intersect(a, b)
            assert ours == copies_intersect_oracle(a, b), (i, j)
            overlapping += 1
            witnesses += ours is not None
        assert overlapping > 100 and (witnesses > 0) == touching

    def test_jump_across_the_whole_height_window(self, st_1_4):
        # the stage-0 jump at c = 1/4 spans [5/16, 13/16]; no stage-0 plateau
        # lies in the thin copy's heights [1/2, 9/16), only that jump does
        rect = Rect(Address.parse("0"), F(1, 2), F(9, 16))
        assert st_1_4.den % own_den(rect, 4) == 0
        thin = PlacedCopy(1, 0, rect, st_1_4.table, st_1_4.den)
        witness = copies_intersect(st_1_4.copies[0], thin)
        assert witness == copies_intersect_oracle(st_1_4.copies[0], thin)
        assert (witness["kind"], witness["c"]) == ("jump-plateau", "1/4")

    def test_copies_over_disjoint_columns_are_never_scanned(self, st_2_16, monkeypatch):
        # heights overlap but the columns do not: no piece is made
        def refuse(*args):
            raise AssertionError("pieces scanned")

        copies = st_2_16.copies
        a, b = next(
            (a, b)
            for a in copies
            for b in copies
            if not a.rect.address.is_prefix_of(b.rect.address)
            and not b.rect.address.is_prefix_of(a.rect.address)
            and max(a.rect.bottom, b.rect.bottom) <= min(max_height_oracle(a), max_height_oracle(b))
        )
        assert copies_intersect_oracle(a, b) is None
        monkeypatch.setattr(verify, "_pieces_in_window", refuse)
        assert copies_intersect(a, b) is None

    @given(
        bits=st.lists(st.integers(0, 1), max_size=3),
        deeper=st.lists(st.integers(0, 1), max_size=2),
        bottoms=st.tuples(*[st.builds(F, st.integers(-16, 16), st.sampled_from([1, 4, 16]))] * 2),
        heights=st.tuples(*[st.builds(F, st.integers(1, 16), st.sampled_from([1, 4, 16]))] * 2),
        n_jumps=st.sampled_from([2, 4, 6]),
    )
    @example(bits=[], deeper=[], bottoms=(F(13), F(16)), heights=(F(13), F(12)), n_jumps=2)  # plateau-jump
    @example(bits=[], deeper=[], bottoms=(F(-4), F(3, 2)), heights=(F(16), F(1, 4)), n_jumps=4)  # jump-plateau
    def test_meeting_jumps_show_a_plateau_witness(self, bits, deeper, bottoms, heights, n_jumps):
        # two jumps at one column that meet: the plateau at the higher low end
        # ends there and meets the other jump, so a witness is always found
        # before any jump-jump test would run
        table = jump_table(n_jumps)
        rects = [Rect(Address(tuple(bits)), bottoms[0], bottoms[0] + heights[0]),
                 Rect(Address(tuple(bits + deeper)), bottoms[1], bottoms[1] + heights[1])]
        den = math.lcm(*(own_den(rect, n_jumps) for rect in rects))
        a, b = (PlacedCopy(len(r.address), i, r, table, den) for i, r in enumerate(rects))
        witness = copies_intersect(a, b)
        assert witness == copies_intersect_oracle(a, b)
        meeting = [
            jc
            for jc, jlo, jhi in jumps_global_oracle(a)
            for kc, klo, khi in jumps_global_oracle(b)
            if jc == kc and max(jlo, klo) <= min(jhi, khi)
        ]
        assert witness is not None or not meeting

    def test_self_intersection_detected(self, st_1_4):
        witness = copies_intersect(st_1_4.copies[0], st_1_4.copies[0])
        assert witness is not None

    def test_touching_copies_detected(self, st_2_16):
        # lower a strip rect's bottom onto the inherited band below it: the
        # new copy's bottom plateau then lies on the inherited copy's plateau
        state = st_2_16
        sigma = Address.parse("00")
        left = endpoint_zero(sigma)
        x0, y0 = band_oracle(state.copies[0], left, left + F(1, 9))
        index = next(
            i
            for i, r in enumerate(state.stages[2].rects)
            if r.address == sigma and r.bottom == y0
        )
        rect = state.stages[2].rects[index]
        bad = _with_mutated_rect(state, 2, index, Rect(sigma, x0, rect.top))
        assert run_all(bad, checks=["disjointness"]).records[0].status == "fail"

    @pytest.mark.parametrize(
        "name", ["st_0_4", "st_1_4", "st_2_16", "st_3_16", "st_4_16t", "st_4_32", "st_5_32t"]
    )
    def test_sweep_verdict_matches_pairwise_oracle(self, name, request):
        # passing and failing records alike, witness and pairs_checked included
        state = request.getfixturevalue(name)
        record = _disjointness(state, sweep_level(state, state.depth).meeting)
        assert record.to_json_obj() == disjointness_oracle(state).to_json_obj()

    @pytest.mark.parametrize("name", ["st_3_16t", "st_4_16t"])
    def test_meeting_pairs_are_the_pairs_copies_intersect_accepts(self, name, request):
        state = request.getfixturevalue(name)
        meeting = sweep_level(state, state.depth).meeting
        assert meeting == _accepted_pairs(state)
        assert bool(meeting) == (name == "st_4_16t")

    @pytest.mark.parametrize("name", ["st_3_16", "st_4_16t"])
    def test_rank_arithmetic_is_the_enumeration_position(self, name, request):
        state = request.getfixturevalue(name)
        counts, starts = _candidate_ranks(state)
        ranks = [starts[j] + counts[i] for i, j in candidate_pairs(state)]
        assert ranks == list(range(starts[-1]))

    def test_copies_intersect_runs_at_most_once_per_meeting_pair(self, st_4_16t, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((a.key, b.key))
            return copies_intersect(a, b)

        monkeypatch.setattr(verify, "copies_intersect", counted)
        meeting = sweep_level(st_4_16t, st_4_16t.depth).meeting
        (record,) = run_all(st_4_16t, checks=["disjointness"]).records
        assert record.status == "fail" and len(meeting) == 3
        assert len(calls) <= len(meeting) and len(set(calls)) == len(calls)
        assert calls[-1] == tuple(record.witness["copies"])

    def test_a_meeting_pair_the_exact_test_rejects_is_an_error(self, st_2_16):
        with pytest.raises(RuntimeError, match="copies_intersect did not"):
            _disjointness(st_2_16, {(0, len(st_2_16.copies) - 1)})

    # touching: a strip copy's bottom plateau laid on the stage-0 plateau at 0;
    # corner touch: the split copy 1:1 unchanged, level with stage 0 at 1/3 only
    @example(cid=18, pick=0, j_other=0, j_own=0, delta=F(0), scale=F(1))
    @example(cid=2, pick=0, j_other=10, j_own=0, delta=F(0), scale=F(1))
    # a jumper that meets nothing must not take its new height before the
    # rest of its batch has been walked, or this mutation loses a pair
    @example(cid=1, pick=0, j_other=0, j_own=2, delta=F(0), scale=F(1))
    @settings(max_examples=60, deadline=None)
    @given(
        cid=st.integers(1, 77),
        pick=st.integers(0, 200),
        j_other=st.integers(0, 16),
        j_own=st.integers(0, 16),
        delta=st.sampled_from([F(0), F(0), F(1, 2**20), F(-1, 2**20)]),
        scale=st.sampled_from([F(1), F(1, 2), F(2)]),
    )
    def test_single_rect_mutations_match_pairwise_oracle(
        self, st_2_16, cid, pick, j_other, j_own, delta, scale
    ):
        # move one rect so that its plateau j_own lies level with plateau
        # j_other of a copy whose column meets it (plus delta)
        state = st_2_16
        copy = state.copies[cid]
        sigma = copy.rect.address
        related = [
            o
            for o, other in enumerate(state.copies)
            if o != cid
            and (other.rect.address.is_prefix_of(sigma) or sigma.is_prefix_of(other.rect.address))
        ]
        other = state.copies[related[pick % len(related)]]
        values = fraction_table(state.n_jumps).values
        height = copy.rect.height * scale
        bottom = to_global_h(other, values[j_other]) - height * values[j_own] + delta
        bad = _with_mutated_rect(state, copy.stage, copy.index, Rect(sigma, bottom, bottom + height))
        meeting = sweep_level(bad, bad.depth).meeting
        assert meeting == _accepted_pairs(bad)
        assert _disjointness(bad, meeting).to_json_obj() == disjointness_oracle(bad).to_json_obj()
        _assert_sweeps_match_oracle(bad)
        _assert_precheck_is_problem_free(bad)
        _assert_pair_path_matches_walk(bad)

    def test_jumps_meeting_end_to_end_at_a_breakpoint_detected(self, st_1_4):
        # stage 0 jumps over [5/16, 13/16] at c = 1/4, where a stage-1 copy
        # over [13/32, 29/32] jumps up from 13/32 + 13/64 = 13/16: the two
        # meet in the one point (1/4, 13/16) and are strictly ordered elsewhere
        bare = ConstructionState(1, 4, True, [st_1_4.stages[0].rects, []])
        state = _with_rects(bare, 1, [Rect(Address.parse("0"), F(13, 32), F(29, 32))])
        assert sweep_level(state, 1).meeting == _accepted_pairs(state) == {(0, 1)}
        (record,) = run_all(state, checks=["disjointness"]).records
        assert (record.witness["c"], record.witness["value"]) == ("1/4", "13/16")
        assert record.to_json_obj() == disjointness_oracle(state).to_json_obj()

    def test_three_copies_level_at_one_point_give_all_three_pairs(self, st_1_4):
        # at c = 1/4 stage 0 jumps over [5/16, 13/16] and the stage-1 copy
        # over [13/32, 29/32] up from 13/16, as above; a stage-2 copy over
        # column 01 = [2/9, 1/3], between the two elsewhere, jumps there over
        # [261/448, 365/448], which holds 13/16: the three fibers share the
        # point (1/4, 13/16), and elsewhere the copies are strictly ordered
        stage1 = [Rect(Address.parse("0"), F(13, 32), F(29, 32))]
        stage2 = [Rect(Address.parse("01"), F(7, 16), F(7, 16) + F(13, 28))]
        state = ConstructionState(2, 4, False, [st_1_4.stages[0].rects, stage1, stage2])
        assert state.copies[2].fiber(F(1, 4)) == ("segment", F(261, 448), F(365, 448))
        meeting = sweep_level(state, 2).meeting
        assert meeting == _accepted_pairs(state) == {(0, 1), (0, 2), (1, 2)}
        (record,) = run_all(state, checks=["disjointness"]).records
        assert record.to_json_obj() == disjointness_oracle(state).to_json_obj()
        assert record.metrics == {"pairs_checked": 1}

    def test_three_copies_level_in_the_initial_cell_give_all_three_pairs(self, st_1_4):
        # two stage-1 copies over column 1 = [2/3, 1] start on stage 0's
        # plateau at 13/16 and pass above its jump at 3/4: the initial cell
        # holds three equal crossings, and the outer two meet nowhere else
        rects = [Rect(Address.parse("1"), F(13, 16), F(21, 16)), Rect(Address.parse("1"), F(13, 16), F(29, 16))]
        bare = ConstructionState(1, 4, False, [st_1_4.stages[0].rects, []])
        state = _with_rects(bare, 1, rects)
        col = ColumnSweep(state, Address.parse("1"))
        assert len(set(col.first)) == 1
        meeting = sweep_level(state, 1).meeting
        assert meeting == _accepted_pairs(state) == {(0, 1), (0, 2), (1, 2)}
        (record,) = run_all(state, checks=["disjointness"]).records
        assert record.to_json_obj() == disjointness_oracle(state).to_json_obj()

    def test_no_sampled_point_lies_on_two_copies(self, st_2_16):
        rng = random.Random(7)
        copies = st_2_16.copies
        for _ in range(120):
            copy = copies[rng.randrange(len(copies))]
            plats, jumps = copy_pieces_oracle(copy, st_2_16.n_jumps)
            lo, hi, v = plats[rng.randrange(len(plats))]
            on_count = sum(
                1
                for c in copies
                if endpoint_zero(c.rect.address) <= lo <= endpoint_one(c.rect.address)
                and classify_on_copy_oracle(c, (lo, v)) == "on"
            )
            assert on_count == 1


class TestCoverage:
    def test_gap_at_depth_zero_is_exactly_the_truncation_defect(self, st_0_4):
        gap, count = coverage_gap_for_column(st_0_4, Address())
        assert (gap, count) == (F(1, 16), 1)
        assert sweep_level(st_0_4, 0).records["coverage"].status == "pass"

    def test_small_build_all_levels(self, st_2_16):
        for n in range(3):
            assert sweep_level(st_2_16, n).records["coverage"].status == "pass"

    def test_gap_matches_band_union_oracle(self, st_2_16):
        sigma = Address.parse("01")
        ids = st_2_16.chain_ids(sigma)
        left = endpoint_zero(sigma)
        right = left + F(1, 9)
        bands = [band_oracle(st_2_16.copies[cid], left, right) for cid in ids]
        oracle_gap = band_union_gap_oracle(bands, F(-2), F(3))
        assert coverage_gap_for_column(st_2_16, sigma)[0] == oracle_gap

    def test_skipped_beyond_depth(self, st_1_4):
        assert run_all(st_1_4, checks=["coverage=2"]).records[0].status == "skipped"

    def test_overlapping_bands_counted_once(self, st_2_16):
        # stretch one stage-2 rect so its copy's band overlaps the one above
        rect = st_2_16.stages[2].rects[0]
        bad = _with_mutated_rect(st_2_16, 2, 0, Rect(rect.address, rect.bottom, rect.top + rect.height))
        left, right = endpoint_zero(rect.address), endpoint_one(rect.address)
        bands = [band_oracle(bad.copies[cid], left, right) for cid in bad.chain_ids(rect.address)]
        assert any(x < prev_y for (_, prev_y), (x, _) in zip(sorted(bands), sorted(bands)[1:]))
        oracle_gap = band_union_gap_oracle(bands, F(-2), F(3))
        assert coverage_gap_for_column(bad, rect.address) == (oracle_gap, len(bands))


class TestCellDecomposition:
    @pytest.mark.parametrize("name", ["st_1_4", "st_2_16", "st_3_16", "st_4_16t"])
    def test_gaps_match_fraction_oracle(self, name, request):
        state = request.getfixturevalue(name)
        for n in range(state.depth + 1):
            for sigma in addresses_of_length(n):
                col = ColumnSweep(state, sigma)
                ours = [tuple(_fraction_crossing(state, col, x) for x in pair) for pair in _gap_pairs(col)]
                oracle = []
                CellDecomposition(state, sigma, n).sweep(lambda *pair: oracle.append(pair))
                assert ours == oracle, (n, str(sigma))

    @pytest.mark.parametrize("name", ALL_STATES)
    def test_gaps_and_meetings_match_bisecting_walk(self, name, request):
        state = request.getfixturevalue(name)
        for n in range(state.depth + 1):
            for sigma in addresses_of_length(n):
                col = ColumnSweep(state, sigma)
                meeting = set()
                assert _gap_pairs(col) == list(column_gaps_oracle(col, meeting)), (n, str(sigma))
                assert col.meeting == meeting, (n, str(sigma))

    @pytest.mark.parametrize("name", ALL_STATES)
    def test_sweep_level_matches_oracle(self, name, request):
        _assert_sweeps_match_oracle(request.getfixturevalue(name))

    @pytest.mark.parametrize("name", ALL_STATES)
    def test_precheck_passes_exactly_when_problems_is_empty(self, name, request):
        _assert_precheck_is_problem_free(request.getfixturevalue(name))

    @pytest.mark.parametrize("name", ALL_STATES)
    def test_pair_path_counts_and_measures_gaps_as_the_walk(self, name, request):
        state = request.getfixturevalue(name)
        fallbacks = _assert_pair_path_matches_walk(state)
        if state.strict:
            assert fallbacks == 0  # so every column of a strict fixture was compared
        if name == "st_4_16t":
            assert fallbacks > 0

    def test_zero_length_bottom_edge_gap_is_not_counted(self, st_0_4):
        # at n = 0 the range starts at 0, where stage 0 starts: the walk
        # skips that empty gap, and counts the top one plus both edge gaps
        # after each of the 4 jumps
        col = ColumnSweep(st_0_4, Address())
        assert col.first == [0] and len(col.jumps(0)) == 4
        assert verify._pair_path(col, st_0_4.den, 0) == _walk_totals(col, st_0_4.den) == (9, st_0_4.den)
        assert sweep_level(st_0_4, 0).records["condition-v"].metrics["gaps_checked"] == 9

    def test_a_tie_in_the_initial_order_falls_back(self, st_1_4):
        rects = [Rect(Address.parse("1"), F(13, 16), F(21, 16)), Rect(Address.parse("1"), F(13, 16), F(29, 16))]
        state = _with_rects(ConstructionState(1, 4, False, [st_1_4.stages[0].rects, []]), 1, rects)
        col = ColumnSweep(state, Address.parse("1"))
        assert col.adjacent_order() is None
        assert verify._pair_path(col, state.den, 0) is None
        assert sweep_level(state, 1).meeting == {(0, 1), (0, 2), (1, 2)}
        _assert_sweeps_match_oracle(state)

    def test_adjacent_copies_meeting_at_a_breakpoint_fall_back(self, st_1_4):
        # the stage-1 copy jumps up from 13/16 at c = 1/4, where stage 0,
        # below it, jumps up to 13/16: strictly ordered at the left end
        bare = ConstructionState(1, 4, True, [st_1_4.stages[0].rects, []])
        state = _with_rects(bare, 1, [Rect(Address.parse("0"), F(13, 32), F(29, 32))])
        col = ColumnSweep(state, Address.parse("0"))
        order = col.adjacent_order()
        assert [col.ids[i] for i in order] == [0, 1]
        assert col.pair_gaps(order, 0) is None
        assert verify._pair_path(col, state.den, 0) is None
        assert sweep_level(state, 1).meeting == {(0, 1)}
        _assert_sweeps_match_oracle(state)

    def test_adjacent_copies_level_on_a_plateau_fall_back(self, st_1_4):
        # over column 11 stage 0 has no jump and stays at 15/16; a stage-2
        # copy starting below it reaches 15/16 at its last jump and stays
        # level with it: a meeting with no breakpoint of the upper copy
        state = ConstructionState(2, 4, False, [st_1_4.stages[0].rects, [], [Rect(Address.parse("11"), F(0), F(1))]])
        col = ColumnSweep(state, Address.parse("11"))
        order = col.adjacent_order()
        assert [col.ids[i] for i in order] == [1, 0] and col.last[1] == col.first[0]
        assert col.pair_gaps(order, 0) is None
        assert sweep_level(state, 2).meeting == _accepted_pairs(state) == {(0, 1)}
        _assert_sweeps_match_oracle(state)

    def test_a_top_crossing_at_the_range_top_falls_back(self):
        # stage 0 ends at 1 = the range top at n = 0: the top edge gap after
        # its last jump has zero length, and the walk does not count it
        state = ConstructionState(0, 4, True, [[Rect(Address(), F(0), F(16, 15))]])
        col = ColumnSweep(state, Address())
        assert col.last == [state.den]
        assert verify._pair_path(col, state.den, 0) is None
        assert _walk_totals(col, state.den)[0] == 8
        _assert_sweeps_match_oracle(state)

    @pytest.mark.parametrize("name", ["st_2_16", "st_3_16", "st_3_32", "st_4_32"])
    def test_pair_gaps_widen_any_given_floor_as_the_walk(self, name, request):
        # the floor prunes which plateaus are looked at; just below the
        # widest interior gap it must still find that gap
        state = request.getfixturevalue(name)
        n = state.depth
        for sigma in addresses_of_length(n):
            col = ColumnSweep(state, sigma)
            widest = max(upper[0] - lower[0] for lower, upper in _gap_pairs(col) if lower and upper)
            order = col.adjacent_order()
            gaps, _ = col.pair_gaps(order, 0)
            for floor in (0, widest - 1, widest, widest + 1):
                assert col.pair_gaps(order, floor) == (gaps, max(floor, widest)), (str(sigma), floor)

    def test_pair_gaps_find_a_widest_gap_one_above_the_floor(self, st_1_4):
        # over column 11 stage 0 stays at 15/16 and a stage-2 copy above it
        # rises from 1 to 1 + 15/64: the gap is widest after its last jump
        state = ConstructionState(2, 4, True, [st_1_4.stages[0].rects, [], [Rect(Address.parse("11"), F(1), F(5, 4))]])
        col = ColumnSweep(state, Address.parse("11"))
        order = col.adjacent_order()
        widest = col.last[1] - col.first[0]
        assert max(upper[0] - lower[0] for lower, upper in _gap_pairs(col) if lower and upper) == widest
        for floor in (0, widest - 1):
            assert col.pair_gaps(order, floor) == (1 + 4, widest)

    def test_a_condition_v_failure_falls_back_to_the_walk_witness(self, st_2_16):
        # the merged top rect of column 00, as in TestConditionV: its pairs
        # pass, its top edge gap is too long
        rects = list(st_2_16.stages[2].rects)
        k = max(i for i, r in enumerate(rects) if str(r.address) == "00")
        merged = Rect(rects[k].address, rects[k - 1].bottom, F(3))
        bad = _with_rects(st_2_16, 2, rects[: k - 1] + [merged] + rects[k + 1 :])
        col = ColumnSweep(bad, Address.parse("00"))
        assert col.pair_gaps(col.adjacent_order(), 0) is not None
        assert verify._pair_path(col, bad.den, 0) is None
        record = sweep_level(bad, 2).records["condition-v"]
        with _walk_only():
            walked = sweep_level(bad, 2).records["condition-v"]
        assert record.witness["problems"] == ["edge gap exceeds distance bound"]
        assert json.dumps(record.to_json_obj()) == json.dumps(walked.to_json_obj())
        _assert_sweeps_match_oracle(bad)

    def test_an_empty_column_falls_back(self):
        empty = ConstructionState(0, 4, True, [[]])
        col = ColumnSweep(empty, Address())
        assert col.ids == [] and verify._pair_path(col, empty.den, 0) is None
        record = sweep_level(empty, 0).records["condition-v"]
        assert record.witness["problems"] == ["no crossings in column"]
        assert record.metrics["gaps_checked"] == 1
        _assert_sweeps_match_oracle(empty)

    def test_cells_match_vertical_trace_at_interior_points(self, st_2_16):
        # every gap of the trace inside a cell was reported: the sweep is exhaustive
        sigma = Address.parse("10")
        col = ColumnSweep(st_2_16, sigma)
        reported = {tuple(_fraction_crossing(st_2_16, col, x) for x in pair) for pair in _gap_pairs(col)}
        c_den = math.lcm(*(q.denominator for q in fraction_table(16).locations)) * 9
        cuts = [endpoint_zero(sigma), *(F(b, c_den) for b in col.breakpoints), endpoint_one(sigma)]
        rng = random.Random(3)
        for k in rng.sample(range(len(cuts) - 1), 12):
            c = endpoint_zero(basic_interval_inside(cuts[k], cuts[k + 1]))
            trace = [None, *vertical_trace(st_2_16, c, F(-2), F(3)), None]
            assert len(trace) == len(col.ids) + 2
            assert set(zip(trace, trace[1:])) <= reported

    def test_breakpoints_are_spanning_jump_locations(self, st_1_4):
        col = ColumnSweep(st_1_4, Address.parse("0"))
        jump_locs = set()
        for cid in st_1_4.chain_ids(Address.parse("0")):
            for c, _, _ in jumps_global_oracle(st_1_4.copies[cid]):
                if F(0) < c < F(1, 3):
                    jump_locs.add(c)
        c_den = math.lcm(*(q.denominator for q in fraction_table(4).locations)) * 3
        assert [F(b, c_den) for b in col.breakpoints] == sorted(jump_locs)


class TestConditionV:
    def test_small_build_all_levels(self, st_2_16):
        for n in range(3):
            record = sweep_level(st_2_16, n).records["condition-v"]
            assert record.status == "pass", record.witness
            assert record.metrics["gaps_checked"] > 0

    def test_skipped_beyond_depth(self, st_1_4):
        assert run_all(st_1_4, checks=["condition-v=3"]).records[0].status == "skipped"

    def test_stage_rects_deleted_fails(self, st_2_16):
        stages = [stage.rects for stage in st_2_16.stages[:2]]
        hollow = ConstructionState(1, st_2_16.n_jumps, st_2_16.strict, stages)
        # rebuilt at depth 1 the tiling is fine; requesting level 2 on a
        # state whose stage-2 rectangles were dropped must produce failures
        stages2 = stages + [[]]
        broken = ConstructionState(2, st_2_16.n_jumps, st_2_16.strict, stages2)
        record = sweep_level(broken, 2).records["condition-v"]
        assert record.status == "fail"
        assert record.witness["problems"]
        assert record.witness["column"]  # the offending cell is identified

    def test_edge_gap_exceeds_distance_bound(self, st_2_16):
        # merge the top two stage-2 rects of column 00: the merged copy still
        # reaches the range top, but at the column's left end its crossing
        # sits at its bottom, more than 1/3 + 1/9 below the top
        rects = list(st_2_16.stages[2].rects)
        k = max(i for i, r in enumerate(rects) if str(r.address) == "00")
        assert rects[k].top == 3 and rects[k - 1].top == rects[k].bottom
        merged = Rect(rects[k].address, rects[k - 1].bottom, F(3))
        assert F(3) - merged.bottom >= F(1, 3) + F(1, 9)
        bad = _with_rects(st_2_16, 2, rects[: k - 1] + [merged] + rects[k + 1 :])
        record = sweep_level(bad, 2).records["condition-v"]
        assert record.status == "fail"
        assert record.witness["problems"] == ["edge gap exceeds distance bound"]
        assert record.witness["gap"] == [f"{merged.bottom.numerator}/{merged.bottom.denominator}", "3/1"]
        assert record.witness["upper"] is None

    def test_gap_fits_in_bounding_rect_pair(self, st_2_16):
        # internal consistency: a passing condition-v bounds every gap by two
        # stacked rect footprints, so the max gap is at most twice the
        # tallest rectangle of stages up to n
        for n in range(3):
            record = sweep_level(st_2_16, n).records["condition-v"]
            max_gap = F(record.metrics["max_gap"])
            tallest = max(
                r.height for stage in st_2_16.stages[: n + 1] for r in stage.rects
            )
            assert max_gap <= 2 * tallest


class TestMaxGap:
    def test_depth_one_metrics(self, st_1_4):
        assert sweep_level(st_1_4, 0).records["max-gap"].metrics["max_gap"] == "1/1"
        # widest hole at level 1: from the outer copy crossing near -1/32 up
        # to the stage-0 plateau at 13/16 (oracle-derived frozen value)
        assert sweep_level(st_1_4, 1).records["max-gap"].metrics["max_gap"] == "27/32"

    def test_trend_logged_not_fatal(self, st_3_16):
        values = [
            F(sweep_level(st_3_16, n).records["max-gap"].metrics["max_gap"]) for n in range(4)
        ]
        # observed on the canonical build: non-increasing from level 2 on
        assert values[2] >= values[3]


def prim_max_edge(coords) -> float:
    """The dense Prim's longest edge; 0.0 for fewer than two points."""
    return float(max(dense_prim_edges_oracle(coords), default=0.0))


def two_clusters(seed: int) -> list[tuple[float, float]]:
    """Two random clusters 0.3 apart, point 0 inside the first: point 0's
    nearest neighbour is far closer than the gap the tree has to cross."""
    rng = random.Random(seed)
    return [(rng.random() * 0.2 + 0.5 * (i % 2), rng.random() * 0.2) for i in range(300)]


class TestEpsilonConnectivity:
    def test_trivial_extremes(self, model_1_4):
        cloud = sample_points(model_1_4, 1, 1)
        coords = cloud.coordinates()
        diam = diameter_oracle(coords)
        assert epsilon_connectivity(coords, diam * 1.001) == 1
        assert epsilon_connectivity(coords, 1e-15) == len(coords)
        # eps < 0 links nothing, not even a duplicate; an infinite or NaN eps
        # links everything, as no MST edge exceeds it
        doubled = [*coords, coords[0]]
        assert epsilon_connectivity(doubled, -1.0) == len(doubled)
        assert epsilon_connectivity(coords, math.inf) == epsilon_connectivity(coords, math.nan) == 1

    def test_matches_union_find_oracle(self, model_1_4):
        coords = sample_points(model_1_4, 1, 1).coordinates()
        for eps in (0.02, 0.1, 0.3):
            assert epsilon_connectivity(coords, eps) == components_oracle(coords, eps)

    def test_mst_matches_prim_oracle(self, model_1_4):
        # single linkage: at each tree edge eps, one component per longer edge, plus one
        coords = sample_points(model_1_4, 1, 1).coordinates()[:80]
        edges = dense_prim_edges_oracle(coords)
        assert mst_max_edge(coords) == prim_max_edge(coords)
        for eps in sorted(set(edges)):
            assert epsilon_connectivity(coords, eps) == 1 + int((edges > eps).sum())

    @pytest.mark.parametrize("model_name", ["model_1_4", "model_2_16", "model_3_16"])
    def test_mst_equals_dense_prim_oracle(self, model_name, request):
        # point 0 is the fan's vertex, and one pass at its nearest distance proves eps_star
        model = request.getfixturevalue(model_name)
        coords = sample_points(model, model.state.depth, 3).coordinates()
        with mock.patch.object(connectivity, "_components", wraps=connectivity._components) as passes:
            eps_star = mst_max_edge(coords)
        assert eps_star == prim_max_edge(coords)
        assert passes.call_count == 1

    @pytest.mark.parametrize("model_name", ["model_1_4", "model_2_16"])
    def test_components_match_oracle_at_every_mst_edge(self, model_name, request):
        # eps equal to an edge length is the `<=` boundary: that edge links
        model = request.getfixturevalue(model_name)
        coords = sample_points(model, model.state.depth, 1).coordinates()[:150]
        for eps in sorted(set(dense_prim_edges_oracle(coords))):
            assert epsilon_connectivity(coords, eps) == components_oracle(coords, eps)

    @settings(max_examples=150, deadline=None)
    @given(clouds)
    @example([(x * 2.0**400, y * 2.0**400) for x, y in NEAR_COINCIDENT])
    @example([(x * 2.0**-400, y * 2.0**-400) for x, y in NEAR_COINCIDENT])
    def test_degenerate_clouds_match_oracles(self, coords):
        edges = dense_prim_edges_oracle(coords)
        assert mst_max_edge(coords) == prim_max_edge(coords)
        for eps in (sorted(set(edges)) + [0.0]) if coords else []:
            assert epsilon_connectivity(coords, eps) == components_oracle(coords, eps)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_search_runs_where_point_zero_is_not_the_bottleneck(self, seed):
        coords = two_clusters(seed)
        with mock.patch.object(connectivity, "_components", wraps=connectivity._components) as passes:
            eps_star = mst_max_edge(coords)
        assert eps_star == prim_max_edge(coords)
        # the failed certificate, the bounding box, then one bisection step per pass
        assert 3 <= passes.call_count <= 65
        assert epsilon_connectivity(coords, eps_star) == 1
        assert epsilon_connectivity(coords, math.nextafter(eps_star, 0.0)) == 2

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0.0, allow_infinity=False),
        st.floats(min_value=0.0, allow_infinity=False),
        st.integers(-3, 3),
    )
    def test_squared_limit_decides_as_the_sqrt(self, eps, d2, steps):
        limit = connectivity._limit(eps)
        near = eps * eps if eps * eps < math.inf else d2
        for _ in range(abs(steps)):  # a few floats around eps*eps, where the two tests could part
            near = math.nextafter(near, math.copysign(math.inf, steps))
        for x in (d2, abs(near), limit, math.nextafter(limit, math.inf)):
            assert (math.sqrt(x) <= eps) == (x <= limit)

    def test_point_far_below_the_first_radius_stays_connected(self):
        # 1e-17 from another point: that pair links at 1e-17, the cloud at 1.0
        coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1e-17, 0.0)]
        assert mst_max_edge(coords) == prim_max_edge(coords) == 1.0
        assert epsilon_connectivity(coords, 1.0) == 1
        assert epsilon_connectivity(coords, 1e-17) == 3

    def test_squared_length_underflowing_to_zero_links(self):
        # the squared length 1e-340 underflows to 0, which is still at most eps*eps
        coords = [(0.0, 0.0), (1e-170, 0.0), (1.0, 0.0), (0.0, 1.0)]
        assert sorted(dense_prim_edges_oracle(coords)) == [0.0, 1.0, 1.0]
        assert mst_max_edge(coords) == 1.0
        assert epsilon_connectivity(coords, 0.0) == 3

    def test_near_coincident_points_of_the_five_forty_eight_cloud(self):
        # cut from the (5,48) cloud: Qhull once merged one of these points
        # and joined it to a facet vertex that is not its nearest point,
        # which gave a middle edge of 3.433883e-06
        coords = [
            (0.8726788313428189, 0.7499999935914562),
            (0.8726836571035077, 0.7499969248542638),
            (0.87268518317917, 0.7499999959630501),
            (0.8726851851851847, 0.7499999999999991),
        ]
        edges = sorted(dense_prim_edges_oracle(coords))
        assert f"{edges[1]:.6e}" == "3.429375e-06"
        assert mst_max_edge(coords) == edges[2]
        assert epsilon_connectivity(coords, edges[1]) == 2
        assert epsilon_connectivity(coords, math.nextafter(edges[1], 0.0)) == 3

    def test_dense_cell_and_one_far_point(self):
        # 20,000 points in a 1e-12 square: the tree's longest edge is the far
        # point's nearest distance, found by at most 65 passes of the search
        rng = random.Random(5)
        coords = [(0.5 + rng.random() * 1e-12, 0.5 + rng.random() * 1e-12) for _ in range(20000)]
        nearest = min(math.sqrt((1.0 - x) * (1.0 - x) + (1.0 - y) * (1.0 - y)) for x, y in coords)
        coords.append((1.0, 1.0))
        with mock.patch.object(connectivity, "_components", wraps=connectivity._components) as passes:
            assert mst_max_edge(coords) == nearest
        assert passes.call_count <= 65
        assert epsilon_connectivity(coords, nearest) == 1
        assert epsilon_connectivity(coords, math.nextafter(nearest, 0.0)) == 2

    def test_coordinates_beyond_two_to_the_five_hundred_refused(self):
        for bad in (math.inf, -math.inf, math.nan, 2.0**501):
            for cloud in ([(0.0, 0.0), (bad, 1.0)], [(0.0, 0.0), (1.0, bad)]):
                with pytest.raises(ValueError):
                    mst_max_edge(cloud)
                with pytest.raises(ValueError):
                    epsilon_connectivity(cloud, 1.0)

    def test_empty_cloud_rejected(self):
        assert mst_max_edge([]) == 0.0
        with pytest.raises(ValueError):
            epsilon_connectivity([], 1.0)

    def test_mst_threshold_bounds_components(self, model_1_4):
        coords = sample_points(model_1_4, 2, 2).coordinates()
        eps_star = mst_max_edge(coords)
        assert epsilon_connectivity(coords, eps_star) == 1
        assert epsilon_connectivity(coords, eps_star / 2) >= 2

    def test_moved_names_still_read_from_their_old_modules(self):
        # perfbench replays verify.mst_max_edge, verify.epsilon_connectivity and tiling.vertical_trace
        assert verify.mst_max_edge is connectivity.mst_max_edge
        assert verify.epsilon_connectivity is connectivity.epsilon_connectivity
        assert tiling.vertical_trace is query.vertical_trace
        for module in (verify, tiling):
            with pytest.raises(AttributeError):
                module.no_such_name

    def test_default_run_all_loads_no_numpy(self):
        script = (
            "import sys\n"
            "from fanforge import build, run_all\n"
            "assert run_all(build(2, 16)).passed\n"
            "print('numpy' in sys.modules)\n"
        )
        src = str(Path(verify.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]


class TestNullSequence:
    def test_small_build(self, st_2_16):
        record = check_null_sequence(st_2_16)
        assert record.status == "pass"
        assert float(record.metrics["stage_2"]) < float(record.metrics["stage_1"])

    def test_diameter_matches_brute_force(self, st_1_4):
        copy = st_1_4.copies[3]
        pts = []
        for lo, hi, v in plateaus_global_oracle(copy):
            pts.append(fan_point((lo, v)))
            pts.append(fan_point((hi, v)))
        for c, lo, hi in jumps_global_oracle(copy):
            pts.append(fan_point((c, lo)))
            pts.append(fan_point((c, hi)))
        profile = stage_fan_diameters(st_1_4)
        assert profile[1] >= diameter_oracle(pts) - 1e-12

    def test_skipped_at_depth_zero(self, st_0_4):
        assert check_null_sequence(st_0_4).status == "skipped"

    def test_skipped_at_depth_one(self, st_1_4):
        # stage 1 is stage K: there is no later stage to compare it with
        record = check_null_sequence(st_1_4)
        assert (record.status, record.metrics) == ("skipped", {"reason": "needs depth >= 2"})

    @pytest.mark.parametrize("emptied", [1, 2])
    def test_empty_stage_has_diameter_zero(self, st_2_16, emptied):
        stages = [stage.rects for stage in st_2_16.stages]
        stages[emptied] = []
        record = check_null_sequence(ConstructionState(2, 16, True, stages))
        kept = stage_fan_diameters(st_2_16)[3 - emptied]
        if emptied == 1:
            assert (record.status, record.witness) == ("fail", {"stage_1": 0.0, "stage_K": kept})
        else:
            assert (record.status, record.witness) == ("pass", None)
        assert f"stage_{emptied}" not in record.metrics

    @pytest.mark.parametrize(
        "fixture", ["st_1_4", "st_2_16", "st_3_16", "st_4_16t", "st_4_32", "st_3_32"]
    )
    def test_diameters_equal_fraction_walk(self, request, fixture):
        state = request.getfixturevalue(fixture)
        profile = stage_fan_diameters(state)
        oracle = stage_fan_diameters_oracle(state)
        assert list(profile.items()) == list(oracle.items())

    def test_every_copy_diameter_equals_fraction_walk(self, st_2_16):
        for copy in st_2_16.copies:
            assert copy_fan_diameter(copy) == copy_fan_diameter_oracle(copy)

    @pytest.mark.parametrize("fixture", ["st_2_16", "st_3_16", "st_4_16t", "st_4_32"])
    def test_padded_bound_covers_every_copy(self, request, fixture):
        state = request.getfixturevalue(fixture)
        for copy in state.copies:
            assert fan_diameter_bound(copy) >= copy_fan_diameter_oracle(copy), copy.key

    @pytest.mark.parametrize("fixture,emptied", [(name, None) for name in ALL_STATES] + [("st_2_16", 1), ("st_2_16", 2)])
    def test_bound_equals_corner_oracle_bit_for_bit(self, request, fixture, emptied):
        state = request.getfixturevalue(fixture)
        if emptied is not None:
            stages = [stage.rects for stage in state.stages]
            stages[emptied] = []
            state = ConstructionState(state.depth, state.n_jumps, state.strict, stages)
        bounds = [fan_diameter_bound(copy).hex() for copy in state.copies]
        assert bounds == [fan_diameter_bound_oracle(copy).hex() for copy in state.copies]

    @settings(max_examples=300, deadline=None)
    @given(clouds)
    @example([])
    @example([(0.0, -0.0)])
    @example([(0.0, 0.0), (-0.0, -0.0)])
    @example([(-0.0, 0.5), (0.0, 0.5), (-0.0, 0.5), (0.25, -0.0)])
    @example([(x * 2.0**400, y * 2.0**400) for x, y in NEAR_COINCIDENT])
    @example([(x * 2.0**-400, y * 2.0**-400) for x, y in NEAR_COINCIDENT])
    def test_row_diameter_equals_pair_oracle(self, coords):
        assert _diameter(coords).hex() == pair_diameter_oracle(coords).hex()

    @staticmethod
    def measured(state, monkeypatch) -> list[str]:
        """The copies whose exact diameter `stage_fan_diameters` takes."""
        keys = []

        def counted(copy):
            keys.append(copy.key)
            return copy_fan_diameter(copy)

        monkeypatch.setattr(floats, "copy_fan_diameter", counted)
        stage_fan_diameters(state)
        return keys

    def test_few_exact_diameters_at_four_thirty_two(self, st_4_32, monkeypatch):
        assert len(self.measured(st_4_32, monkeypatch)) == 9  # of 1,473 copies

    @pytest.mark.parametrize(
        "fixture,count",
        [
            ("st_0_4", 1), ("st_1_4", 3), ("st_2_16", 6), ("st_3_16", 8), ("st_3_32", 8),
            ("st_3_16t", 8), ("st_4_16t", 9), ("st_5_32t", 10),
        ],
    )
    def test_exact_diameter_count_per_fixture(self, request, fixture, count, monkeypatch):
        assert len(self.measured(request.getfixturevalue(fixture), monkeypatch)) == count


class TestRunAll:
    def test_full_suite_passes_and_serializes(self, st_2_16):
        report = run_all(st_2_16, grid_depth=3, fiber_count=2)
        assert report.passed
        doc = json.loads(report.to_json())
        assert doc["schema"] == "fanforge-report-v1"
        assert doc["passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert "disjointness" in names and "condition-v" in names
        text = report.to_text()
        assert "result: PASS" in text

    def test_reports_are_reproducible(self, st_1_4):
        a = run_all(st_1_4, checks=["conditions-i-ii", "coverage", "max-gap"]).to_json()
        b = run_all(st_1_4, checks=["conditions-i-ii", "coverage", "max-gap"]).to_json()
        assert a == b

    def test_check_selector_with_level(self, st_1_4):
        report = run_all(st_1_4, checks=["coverage=5"])
        assert [r.status for r in report.records] == ["skipped"]
        assert report.passed  # skipped entries do not fail the run

    def test_empty_selection_refused(self, st_1_4):
        # no check would run, so the report would pass vacuously
        with pytest.raises(InvalidParameter, match="no check selected"):
            run_all(st_1_4, checks=[])

    def test_unknown_check_rejected(self, st_1_4):
        with pytest.raises(ValueError):
            run_all(st_1_4, checks=["coverage", "nonsense"])

    @pytest.mark.parametrize(
        "selector",
        ["conditions-i-ii=0", "partial-tiling=1", "disjointness=5", "null-sequence=1",
         "epsilon-connectivity=2", "coverage=-1", "coverage=x", "condition-v=", "max-gap=+1",
         "max-gap=1.0", "coverage=\u0661"],
    )
    def test_bad_level_selector_refused_before_any_check(self, st_1_4, selector, monkeypatch):
        def refuse(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "check_conditions_i_ii", refuse)
        with pytest.raises(InvalidParameter, match=re.escape(repr(selector))):
            run_all(st_1_4, checks=["conditions-i-ii", selector])

    @pytest.mark.parametrize(
        "grid_depth,fibers,text",
        [(0, 3, "grid depth 0"), (None, -1, "fiber count")],
        ids=["grid-depth", "fibers"],
    )
    def test_bad_sampling_refused_before_any_check(self, st_1_4, grid_depth, fibers, text, monkeypatch):
        def refuse(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "check_conditions_i_ii", refuse)
        with pytest.raises(InvalidParameter, match=text):
            checks = ["conditions-i-ii", "epsilon-connectivity"]
            run_all(st_1_4, checks=checks, grid_depth=grid_depth, fiber_count=fibers)

    def test_level_selector_on_each_levelled_check(self, st_1_4):
        report = run_all(st_1_4, checks=["coverage=0", "condition-v=1", "max-gap=2"])
        assert [(r.name, r.scope, r.status) for r in report.records] == [
            ("coverage", "n=0", "pass"), ("condition-v", "n=1", "pass"), ("max-gap", "n=2", "skipped"),
        ]
