import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasylv import (
    FLOAT64,
    RATIONAL,
    Multivector,
    ParseError,
    Signature,
    dump_coeff_lines,
    format_multivector,
    load_coeff_lines,
    parse_multivector,
)
from conftest import all_signatures, random_mv


class TestParse:
    def test_basic_terms(self):
        sig = Signature(1, 3)
        u = parse_multivector("2 + 3e1 - e24 + 1/2 e134", sig, RATIONAL)
        assert u == Multivector.from_terms(
            sig, {0: 2, 0b0001: 3, 0b1010: -1, 0b1101: Fraction(1, 2)}
        )

    def test_explicit_star_and_identity_blade(self):
        sig = Signature(2, 0)
        assert parse_multivector("3*e12 + 2*e", sig, RATIONAL) == \
            Multivector.from_terms(sig, {0b11: 3, 0: 2})

    def test_bare_coefficient_and_bare_blade(self):
        sig = Signature(2, 0)
        u = parse_multivector("e12", sig, RATIONAL)
        assert u == Multivector.blade(sig, 0b11)
        assert parse_multivector("7/3", sig, RATIONAL) == \
            Multivector.scalar(sig, Fraction(7, 3))

    def test_repeated_blades_accumulate(self):
        sig = Signature(2, 0)
        u = parse_multivector("e1 + 2e1 - e1", sig, RATIONAL)
        assert u == Multivector.blade(sig, 0b01, 2)

    def test_no_exponent_notation(self):
        # '3e1' is the coefficient 3 times the blade e1, never 30.
        sig = Signature(1, 0)
        assert parse_multivector("3e1", sig, RATIONAL) == \
            Multivector.blade(sig, 0b1, 3)

    def test_comma_blade_form(self):
        sig = Signature(10, 0)
        u = parse_multivector("e{1,3,10} - 2 e{2}", sig, RATIONAL)
        assert u.coeffs[0b1000000101] == 1
        assert u.coeffs[0b10] == -2

    def test_float_coefficients(self):
        sig = Signature(1, 1)
        u = parse_multivector("1.5 - 0.25e12", sig, FLOAT64)
        assert u.coeffs[0] == 1.5
        assert u.coeffs[0b11] == -0.25

    def test_decimal_rejected_in_rational_ring(self):
        with pytest.raises(ParseError):
            parse_multivector("1.5", Signature(1, 1), RATIONAL)

    def test_whitespace_insensitive(self):
        sig = Signature(2, 1)
        a = parse_multivector("1+2e1-3/4e23", sig, RATIONAL)
        b = parse_multivector("  1 + 2 e1 - 3 / 4 e23 ", sig, RATIONAL)
        assert a == b

    @pytest.mark.parametrize("text", [
        "", "   ", "+", "1 +", "e1 e2", "2 3", "x", "e0", "e21", "e9",
        "e{3,1}", "1 & e2",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_multivector(text, Signature(2, 1), RATIONAL)

    @pytest.mark.parametrize("text", [
        "1" + "0" * 400 + ".0",
        "2 + 1" + "0" * 400 + "e1",
        "1" + "0" * 308 + ".0 + 1" + "0" * 308 + ".0",
        "1" + "0" * 400 + "/3",
    ])
    def test_float_out_of_range_rejected(self, text):
        with pytest.raises(ParseError):
            parse_multivector(text, Signature(2, 0), FLOAT64)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_multivector("e1 + 3/0", Signature(2, 0), RATIONAL)
        assert err.value.offset == 5

    def test_error_carries_offset(self):
        with pytest.raises(ParseError) as err:
            parse_multivector("1 + 2e1 ? 3", Signature(2, 0), RATIONAL)
        assert err.value.offset == 8

    def test_index_exceeding_dimension(self):
        with pytest.raises(ParseError) as err:
            parse_multivector("e13", Signature(1, 1), RATIONAL)
        assert "dimension" in str(err.value)

    @pytest.mark.parametrize("text", ["e0", "e{2,0}", "e10"])
    def test_index_zero(self, text):
        with pytest.raises(ParseError, match=r"index 0 is outside 1\.\.3"):
            parse_multivector(text, Signature(2, 1), RATIONAL)

    @pytest.mark.parametrize("ring", [RATIONAL, FLOAT64])
    @pytest.mark.parametrize("text", ["1/{long}", "{long}/3", "e{{{long}}}"])
    def test_integers_beyond_the_digit_limit(self, text, ring):
        limit = sys.get_int_max_str_digits()
        long = "1" * (limit + 1)
        with pytest.raises(ParseError, match=f"more than {limit} digits") as err:
            parse_multivector("e1 - " + text.format(long=long), Signature(2, 0), ring)
        assert err.value.offset == 5

    def test_a_long_integer_coefficient(self):
        long = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError, match="more than") as err:
            parse_multivector("e1 - " + long, Signature(2, 0), RATIONAL)
        assert err.value.offset == 5
        # In f64 it is a value beyond the range, as a long decimal is.
        with pytest.raises(ParseError, match="outside the f64 range") as err:
            parse_multivector("e1 - " + long, Signature(2, 0), FLOAT64)
        assert err.value.offset == 3

    @pytest.mark.parametrize(
        "number", ["0." + "0" * 400 + "1", "1/1" + "0" * 400], ids=["decimal", "fraction"]
    )
    def test_a_nonzero_f64_coefficient_that_rounds_to_zero(self, number):
        # Below the smallest subnormal the term would vanish silently.
        with pytest.raises(ParseError, match="rounds to 0") as err:
            parse_multivector("e1 + " + number, Signature(1, 0), FLOAT64)
        assert err.value.offset == 5
        tiny = parse_multivector("e1 - 5/1" + "0" * 324, Signature(1, 0), FLOAT64)
        assert tiny.coeffs == (-5e-324, 1.0)
        zero = parse_multivector("e1 + 0." + "0" * 400, Signature(1, 0), FLOAT64)
        assert zero == Multivector.blade(Signature(1, 0), 1, ring=FLOAT64)


class TestFormat:
    def test_examples(self):
        sig = Signature(1, 3)
        u = Multivector.from_terms(
            sig, {0: -2, 0b0001: 1, 0b1010: Fraction(-1, 3), 0b1111: 5}
        )
        assert format_multivector(u) == "-2 + e1 - 1/3e24 + 5e1234"

    def test_zero(self):
        assert format_multivector(Multivector.zero(Signature(2, 0))) == "0"

    def test_grade_then_mask_order(self):
        sig = Signature(4, 0)
        u = Multivector.from_terms(sig, {0b1001: 1, 0b0110: 1, 0b0001: 1})
        # Both bivectors follow the vector; e23 (mask 6) precedes e14 (mask 9).
        assert format_multivector(u) == "e1 + e23 + e14"

    def test_unit_coefficient_elision(self):
        sig = Signature(2, 0)
        u = Multivector.from_terms(sig, {0b01: 1, 0b10: -1, 0: 1})
        assert format_multivector(u) == "1 + e1 - e2"

    def test_comma_form_for_large_n(self):
        sig = Signature(10, 0)
        u = Multivector.blade(sig, (1 << 9) | 1, 3)
        assert format_multivector(u) == "3e{1,10}"

    def test_decimal_rendering(self):
        sig = Signature(1, 1)
        u = Multivector(sig, [1.5, -0.25, 0.0, 0.0], FLOAT64)
        assert format_multivector(u) == "1.5 - 0.25e1"

    def test_decimal_beyond_float_range_stays_exact(self):
        sig = Signature(1, 0)
        big = 10**400
        u = Multivector(sig, [big, Fraction(-big, 3)])
        text = format_multivector(u, decimal=True)
        assert text == f"{big} - {big}/3e1"
        assert parse_multivector(text, sig, RATIONAL) == u

    def test_round_trip_rational(self, rng):
        for sig in all_signatures(5):
            u = random_mv(sig, rng)
            assert parse_multivector(format_multivector(u), sig, RATIONAL) == u

    def test_round_trip_float_extremes(self):
        sig = Signature(1, 0)
        for value in (1e-300, -3.0000000000000004, 1e20, 0.1):
            u = Multivector(sig, [value, -value], FLOAT64)
            back = parse_multivector(format_multivector(u), sig, FLOAT64)
            assert back == u


@given(st.lists(
    st.fractions(min_value=-100, max_value=100, max_denominator=64),
    min_size=8, max_size=8,
))
@settings(max_examples=80, deadline=None)
def test_round_trip_property(values):
    sig = Signature(2, 1)
    u = Multivector(sig, values)
    assert parse_multivector(format_multivector(u), sig, RATIONAL) == u


class TestCoeffLines:
    def test_dump_load_round_trip(self, rng):
        for sig in all_signatures(4):
            u = random_mv(sig, rng)
            assert load_coeff_lines(dump_coeff_lines(u), sig, RATIONAL) == u

    def test_comments_and_blanks(self):
        sig = Signature(2, 0)
        text = "# header\n\n0 3/1\n2 -1/2  # trailing\n"
        u = load_coeff_lines(text, sig, RATIONAL)
        assert u == Multivector.from_terms(sig, {0: 3, 2: Fraction(-1, 2)})

    def test_bare_integer_coefficient(self):
        sig = Signature(1, 0)
        assert load_coeff_lines("1 4\n", sig, RATIONAL) == \
            Multivector.blade(sig, 1, 4)

    def test_bad_lines(self):
        sig = Signature(1, 0)
        for text in ("0\n", "0 x\n", "9 1/1\n", "0 1/1 junk\n"):
            with pytest.raises(ParseError):
                load_coeff_lines(text, sig, RATIONAL)

    def test_zero_denominator_line(self):
        with pytest.raises(ParseError, match="line 2") as err:
            load_coeff_lines("1 1/2\n0 1/0\n", Signature(1, 0), RATIONAL)
        assert err.value.offset == 2

    def test_dump_beyond_the_digit_limit(self):
        big = 10**5000
        u = Multivector.scalar(Signature(2, 0), Fraction(big, 3))
        assert dump_coeff_lines(u) == f"0 1{'0' * 5000}/3\n"

    def test_load_beyond_the_digit_limit(self):
        sig = Signature(2, 0)
        for value in (Fraction(10**5000, 3), -(10**5000) - 1):
            u = Multivector.scalar(sig, value)
            assert load_coeff_lines(dump_coeff_lines(u), sig) == u
        with pytest.raises(ParseError, match="bad fixture line 1"):
            load_coeff_lines("0 1e" + "0" * 5000 + "\n", sig)

    def test_float_ring_load(self):
        sig = Signature(1, 0)
        u = load_coeff_lines("0 1/2\n", sig, FLOAT64)
        assert u.ring == FLOAT64
        assert u.coeffs[0] == 0.5

    def test_float_ring_overflow_rejected(self):
        sig = Signature(1, 0)
        with pytest.raises(ParseError):
            load_coeff_lines("0 1" + "0" * 400 + "/1\n", sig, FLOAT64)
