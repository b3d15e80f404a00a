import json
from fractions import Fraction as F

import pytest

from fanforge.decomp import Claim5Result, claim5_regions, collapse_E
from fanforge.errors import DepthInsufficient, FanforgeError, IndexOutOfRange, NotOrdered, UnknownCopy
from fanforge.exact import Address
from fanforge.spaceset import assemble
from fanforge.tiling import ConstructionState, Rect, stage_zero, state_from_json_obj

from .oracles import (
    claim5_oracle,
    collapse_oracle,
    envelope_failures_oracle,
    locate_oracle,
    plateaus_global_oracle,
    q_points,
)


def _outcome(query, *args):
    """The query's result, or the type of the package error it raised."""
    try:
        return query(*args)
    except FanforgeError as exc:
        return type(exc)


class TestCollapse:
    def test_stage_zero_copy_has_one_loop_per_jump(self, model_1_4):
        earring = collapse_E(model_1_4, 0)
        assert earring.copy_key == "0:0" and len(earring.loops) == 4
        assert (earring.loops[0].location, earring.loops[0].low, earring.loops[0].high) == (
            F(1, 4), F(5, 16), F(13, 16)
        )

    def test_loop_heights_before_compression(self, model_1_4):
        earring = collapse_E(model_1_4, 0)
        assert [loop.height for loop in earring.loops] == [
            F(1, 2), F(1, 4), F(1, 8), F(1, 16)
        ]

    def test_scaled_copy_loop_heights(self, model_1_4):
        copy = model_1_4.state.copies[1]
        earring = collapse_E(model_1_4, 1)
        for loop in earring.loops:
            assert loop.height == copy.rect.height * F(1, 2 ** (loop.jump_index + 1))

    def test_idempotent(self, model_1_4):
        assert collapse_E(model_1_4, 3) == collapse_E(model_1_4, 3)

    def test_rebuilt_from_a_reloaded_state_equal_and_hash_alike(self, st_2_16, model_2_16):
        again = assemble(state_from_json_obj(json.loads(st_2_16.to_json())))
        for cid in (0, 1, 77):
            ours, rebuilt = collapse_E(model_2_16, cid), collapse_E(again, cid)
            assert ours == rebuilt and hash(ours) == hash(rebuilt)
        assert collapse_E(model_2_16, 0) != collapse_E(model_2_16, 1)

    def test_unknown_copy(self, model_1_4):
        with pytest.raises(UnknownCopy):
            collapse_E(model_1_4, 999)

    def test_negative_copy_id_refused(self, model_1_4):
        # a negative id never counts from the end of the copy list
        for cid in (-1, -len(model_1_4.state.copies)):
            with pytest.raises(UnknownCopy, match=f"no copy with id {cid}"):
                collapse_E(model_1_4, cid)

    def test_every_earring_matches_fraction_placement(self, model_2_16):
        for cid in range(len(model_2_16.state.copies)):
            assert collapse_E(model_2_16, cid) == collapse_oracle(model_2_16, cid), cid


class TestEarringCheck:
    def test_canonical_earrings_pass(self, model_1_4):
        # each loop is half as tall as the one before, and no two loops share
        # a column, so the loops meet only in the base point
        for cid in range(len(model_1_4.state.copies)):
            loops = collapse_E(model_1_4, cid).loops
            heights = [loop.height for loop in loops]
            assert {b / a for a, b in zip(heights, heights[1:])} == {F(1, 2)}
            assert len({loop.location for loop in loops}) == len(loops)

    def test_q_points_avoid_every_closure_part(self, model_1_4):
        # closure parts carry only plateau heights; midpoints sit strictly
        # inside open jump segments, so no q point lies on any copy's closure
        state = model_1_4.state
        for qp in q_points(model_1_4):
            c, h = qp.point
            for cid in state.chain_ids(locate_oracle(c, state.depth)):
                copy = state.copies[cid]
                for lo, hi, v in plateaus_global_oracle(copy):
                    assert not (lo <= c <= hi and v == h)


class TestClaim5:
    def test_regions_verify_at_levels_one_and_two(self, model_4_16t):
        previous = None
        for level in (1, 2):
            result = claim5_regions(model_4_16t, 0, level, 0)
            assert result.boundary_ok
            assert result.distance_above > 0 and result.distance_below > 0
            if previous is not None:
                assert result.distance_above < previous
            previous = result.distance_above

    def test_selection_is_tightest(self, model_4_16t):
        result = claim5_regions(model_4_16t, 0, 1, 0)
        state = model_4_16t.state
        above = state.copies[result.above_copy_id]
        below = state.copies[result.below_copy_id]
        _, seg_lo, seg_hi = result.loop_interior
        for cid in state.ids_at_address(result.column.bits):
            copy = state.copies[cid]
            if copy.stage != above.stage or cid in (result.above_copy_id, result.below_copy_id):
                continue
            if copy.rect.bottom >= seg_hi:
                assert copy.rect.bottom >= above.rect.bottom
            if copy.rect.top <= seg_lo:
                assert copy.rect.top <= below.rect.top

    def test_negative_copy_id_refused(self, model_2_16):
        for cid in (-1, -len(model_2_16.state.copies)):
            with pytest.raises(UnknownCopy, match=f"no copy with id {cid}"):
                claim5_regions(model_2_16, cid, 0, 0)

    def test_depth_insufficient(self, model_2_16):
        with pytest.raises(DepthInsufficient):
            claim5_regions(model_2_16, 0, 5, 0)

    @pytest.mark.parametrize("level", [-1, -5])
    def test_negative_level_refused(self, model_2_16, level):
        with pytest.raises(DepthInsufficient, match="level must be >= 0"):
            claim5_regions(model_2_16, 1, level, 0)

    @pytest.mark.parametrize("loop", [-1, 16])
    def test_loop_index_outside_range_refused(self, model_2_16, loop):
        assert _outcome(claim5_regions, model_2_16, 0, 0, loop) is IndexOutOfRange
        assert _outcome(claim5_oracle, model_2_16, 0, 0, loop) is IndexOutOfRange

    def test_every_query_matches_fraction_walk(self, model_2_16):
        state = model_2_16.state
        results = []
        for cid, copy in enumerate(state.copies):
            for level in range(state.depth - copy.stage):
                for loop in range(state.n_jumps):
                    ours = _outcome(claim5_regions, model_2_16, cid, level, loop)
                    assert ours == _outcome(claim5_oracle, model_2_16, cid, level, loop)
                    results.append(ours)
        defined = [r for r in results if isinstance(r, Claim5Result)]
        assert len(results) == 224 and len(defined) > 100
        assert all(r.boundary_ok for r in defined)

    def test_boundary_failures_match_fraction_walk(self):
        # the owner (stage 0) jumps over the rect above its loop 1 further
        # right in the column, so the trio is out of order there: the
        # public call refuses it, and the Fraction walk says where
        rects = [Rect(Address.parse("0"), F(5, 16), F(1, 2)), Rect(Address.parse("0"), F(-1), F(-1, 2))]
        state = ConstructionState(1, 4, False, [stage_zero(), rects])
        with pytest.raises(NotOrdered):
            claim5_regions(assemble(state), 0, 0, 1)
        failures = envelope_failures_oracle(state, Address.parse("0"), [2, 0, 1])
        assert len(failures) >= 3
        assert failures[0].startswith("boundary envelopes out of order at c=1/4: ")
