import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from fanforge.exact import (
    Address,
    addresses_length_lex,
    addresses_of_length,
    cantor_member,
    endpoint_one,
    endpoint_zero,
    locate,
    rational_from_str,
    rational_to_str,
)
from fanforge.errors import NotInCantor, OutOfRange

from .oracles import (
    basic_interval_inside,
    cantor_member_oracle,
    child,
    endpoint_zero_oracle,
    locate_oracle,
)

addresses = st.lists(st.integers(0, 1), max_size=10).map(lambda bits: Address(tuple(bits)))


class TestEndpoints:
    def test_empty_word(self):
        assert endpoint_zero(Address()) == 0
        assert endpoint_one(Address()) == 1

    def test_single_bits(self):
        assert endpoint_zero(Address.parse("1")) == F(2, 3)
        assert endpoint_one(Address.parse("0")) == F(1, 3)

    def test_two_bits_against_summation_oracle(self):
        assert endpoint_zero(Address.parse("01")) == endpoint_zero_oracle((0, 1)) == F(2, 9)
        assert endpoint_one(Address.parse("01")) == F(2, 9) + F(1, 9) == F(1, 3)

    @given(addresses)
    def test_matches_direct_summation(self, sigma):
        assert endpoint_zero(sigma) == endpoint_zero_oracle(sigma.bits)

    @given(addresses)
    def test_width_is_power_of_three(self, sigma):
        assert endpoint_one(sigma) - endpoint_zero(sigma) == F(1, 3 ** len(sigma))

    @given(addresses, st.integers(0, 1))
    def test_children_nest_and_split(self, sigma, bit):
        tau = child(sigma, bit)
        assert endpoint_zero(sigma) <= endpoint_zero(tau)
        assert endpoint_one(tau) <= endpoint_one(sigma)
        left, right = child(sigma, 0), child(sigma, 1)
        # disjoint children: the left child ends strictly before the right begins
        assert endpoint_one(left) < endpoint_zero(right)


class TestCantorMember:
    def test_endpoints_of_unit_interval(self):
        assert cantor_member(F(0)) is True
        assert cantor_member(F(1)) is True

    def test_quarter_is_member(self):
        # ternary expansion 0.020202...
        assert cantor_member(F(1, 4)) is True

    def test_half_is_not_member(self):
        # ternary expansion 0.111...
        assert cantor_member(F(1, 2)) is False

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            cantor_member(F(-1, 10))
        with pytest.raises(OutOfRange):
            cantor_member(F(11, 10))

    def test_all_basic_endpoints_are_members_exhaustively(self):
        # every endpoint of every basic interval through depth 12
        for n in range(13):
            for sigma in addresses_of_length(n):
                assert cantor_member(endpoint_zero(sigma))
                assert cantor_member(endpoint_one(sigma))

    @given(st.fractions(min_value=0, max_value=1).filter(lambda q: q.denominator < 10**6))
    def test_agrees_with_refinement_oracle(self, q):
        assert cantor_member(q) == cantor_member_oracle(q)


class TestLocate:
    def test_examples(self):
        assert locate(F(1, 4), 1) == Address.parse("0")
        assert locate(F(1, 4), 2) == Address.parse("01")
        assert locate(F(0), 5) == Address.parse("00000")

    def test_shared_endpoint_prefers_left_endpoint_interval(self):
        # 2/9 is both the right end of B(00) and the left end of B(01)
        assert locate(F(2, 9), 2) == Address.parse("01")

    def test_not_in_cantor(self):
        # outside [0, 1] too: locate is the point queries' one Cantor test
        for q in (F(-1, 10), F(11, 10), F(1, 2)):
            with pytest.raises(NotInCantor, match=f"^{q} is not in the Cantor set$"):
                locate(q, 3)

    @given(addresses, st.integers(0, 8))
    def test_deeper_locate_extends_shallower(self, sigma, depth):
        q = endpoint_zero(sigma) + F(1, 4) / 3 ** len(sigma)  # a non-endpoint member
        shallow = locate(q, depth)
        deeper = locate(q, depth + 1)
        assert shallow.is_prefix_of(deeper)

    @given(
        addresses,
        st.sampled_from([F(0), F(1, 4), F(3, 4), F(1, 10), F(9, 10), F(1)]),
        st.integers(0, 14),
    )
    def test_matches_fraction_walk(self, sigma, u, depth):
        q = endpoint_zero(sigma) + u / 3 ** len(sigma)  # u in C, so q in C
        assert locate(q, depth) == locate_oracle(q, depth)

    @given(addresses)
    def test_locate_recovers_address_of_interior_points(self, sigma):
        q = endpoint_zero(sigma) + F(1, 4) / 3 ** len(sigma)
        assert locate(q, len(sigma)) == sigma


class TestSerialization:
    def test_rational_round_trip(self):
        assert rational_to_str(F(0)) == "0/1"
        assert rational_to_str(F(-5, 15)) == "-1/3"
        assert rational_from_str("13/16") == F(13, 16)
        assert rational_from_str(rational_to_str(F(461, 512))) == F(461, 512)

    def test_rational_parse_error(self):
        with pytest.raises(ValueError):
            rational_from_str("one half")

    @pytest.mark.parametrize(
        "text, value",
        [("7", F(7)), ("-3/4", F(-3, 4)), ("6/8", F(3, 4)), ("-0", F(0)), ("0/01", F(0))],
    )
    def test_rational_parse_accepts_p_over_q(self, text, value):
        assert rational_from_str(text) == value

    @pytest.mark.parametrize(
        "text",
        ["-1e0", "0.25", "1_000", "1e999999999", "+1", " 1/2", "1/2 ", "1/0", "1/00", "1/-2",
         "1/", "/2", "", "-", "1/2/3", "\uff11", "0x10", "nan", "inf"],
    )
    def test_rational_parse_rejects_other_forms(self, text):
        with pytest.raises(ValueError, match="not a rational"):
            rational_from_str(text)

    def test_address_round_trip(self):
        assert str(Address()) == ""
        assert Address.parse("") == Address()
        assert str(Address.parse("0110")) == "0110"
        with pytest.raises(ValueError):
            Address.parse("012")


class TestHelpers:
    def test_length_lex_enumeration(self):
        got = [str(a) for a in itertools.islice(addresses_length_lex(), 7)]
        assert got == ["", "0", "1", "00", "01", "10", "11"]

    def test_basic_interval_inside(self):
        sigma = basic_interval_inside(F(1, 36), F(1, 12))
        assert F(1, 36) < endpoint_zero(sigma) < endpoint_one(sigma) < F(1, 12)

    def test_basic_interval_inside_empty_gap(self):
        with pytest.raises(ValueError):
            basic_interval_inside(F(1, 3), F(2, 3))
