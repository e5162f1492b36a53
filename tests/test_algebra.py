import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasylv import (
    FLOAT64,
    RATIONAL,
    Multivector,
    NonFiniteError,
    RingMismatchError,
    Signature,
    SignatureMismatchError,
    blade_product,
    center_project,
    char_poly,
    conjugate,
    grade_project,
    natural,
    scalar_via_conjugations,
    parse_multivector,
    sharp,
)
from gasylv import algebra
from conftest import all_signatures, random_mv, random_sparse_mv
from oracles import mask_to_word, oracle_product, word_product, word_to_mask


class TestSignature:
    def test_derived_quantities(self):
        sig = Signature(1, 3)
        assert sig.dim == 4
        assert sig.ncoeffs == 16
        assert sig.charpoly_degree == 4
        assert sig.num_conjugations == 3
        assert Signature(4, 1).charpoly_degree == 8
        assert Signature(8, 0).num_conjugations == 4

    def test_charpoly_degree_is_power_of_two(self):
        for sig in all_signatures(16):
            big_n = sig.charpoly_degree
            assert big_n & (big_n - 1) == 0
            if sig.dim % 2:
                half = big_n // 2
                assert half & (half - 1) == 0

    @pytest.mark.parametrize("p,q", [(-1, 2), (2, -1), (0, 0), (17, 0), (9, 8)])
    def test_rejects_bad_signatures(self, p, q):
        with pytest.raises(ValueError):
            Signature(p, q)


class TestBladeProduct:
    def test_generator_squares(self):
        sig = Signature(1, 3)
        assert blade_product(0b0001, 0b0001, sig) == (1, 0)   # e1 e1 = e
        assert blade_product(0b0010, 0b0010, sig) == (-1, 0)  # e2 e2 = -e

    def test_single_transposition(self):
        sig = Signature(1, 3)
        assert blade_product(0b0010, 0b0001, sig) == (-1, 0b0011)  # e2 e1 = -e12

    def test_cancellation(self):
        # e12 e2 = e1 (expanded by the word-rewriting oracle)
        sig = Signature(2, 0)
        assert blade_product(0b11, 0b10, sig) == (1, 0b01)

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            blade_product(16, 0, Signature(2, 2))
        with pytest.raises(ValueError, match="blade mask 16 out of range"):
            Multivector.blade(Signature(2, 2), 16)

    def test_all_pairs_match_word_oracle(self):
        for sig in all_signatures(4):
            for a in range(sig.ncoeffs):
                for b in range(sig.ncoeffs):
                    sign, word = word_product(
                        mask_to_word(a), mask_to_word(b), sig.p
                    )
                    assert blade_product(a, b, sig) == (sign, word_to_mask(word))


class TestGeometricProduct:
    def test_identity_element(self, rng):
        for sig in all_signatures(4):
            e = Multivector.scalar(sig, 1)
            u = random_mv(sig, rng)
            assert e * u == u
            assert u * e == u

    def test_anticommutation_all_pairs(self):
        for sig in all_signatures(5):
            n = sig.dim
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    ea = Multivector.blade(sig, 1 << (a - 1))
                    eb = Multivector.blade(sig, 1 << (b - 1))
                    anti = ea * eb + eb * ea
                    eta = 0
                    if a == b:
                        eta = 2 if a <= sig.p else -2
                    assert anti == Multivector.scalar(sig, eta)

    def test_matches_word_rewriting_oracle(self, rng):
        for sig in [Signature(2, 1), Signature(0, 4), Signature(3, 2)]:
            for _ in range(20):
                u = random_mv(sig, rng, -5, 5)
                v = random_mv(sig, rng, -5, 5)
                assert u * v == oracle_product(u, v)
        # Sparse operands keep the word oracle fast at n = 9, 10.
        for sig in [Signature(5, 4), Signature(0, 10)]:
            for _ in range(10):
                u = random_sparse_mv(sig, rng, 8)
                v = random_sparse_mv(sig, rng, 8)
                assert u * v == oracle_product(u, v)

    def test_associativity(self, rng):
        for sig in [Signature(1, 1), Signature(2, 1), Signature(1, 3), Signature(3, 2)]:
            for _ in range(10):
                u = random_mv(sig, rng, -4, 4)
                v = random_mv(sig, rng, -4, 4)
                w = random_mv(sig, rng, -4, 4)
                assert (u * v) * w == u * (v * w)

    def test_signature_mismatch(self):
        u = Multivector.scalar(Signature(1, 1), 1)
        v = Multivector.scalar(Signature(2, 0), 1)
        with pytest.raises(SignatureMismatchError):
            u * v

    def test_ring_mismatch(self):
        sig = Signature(1, 1)
        u = Multivector.scalar(sig, 1)
        v = Multivector.scalar(sig, 1.0, FLOAT64)
        with pytest.raises(RingMismatchError):
            u * v
        with pytest.raises(RingMismatchError):
            u + v

    def test_no_implicit_float_promotion(self):
        with pytest.raises(RingMismatchError):
            Multivector.scalar(Signature(1, 1), 0.5)

    def test_f64_overflow_on_construction(self):
        with pytest.raises(NonFiniteError):
            Multivector(Signature(1, 0), [10**400, 0], FLOAT64)
        with pytest.raises(NonFiniteError):
            Multivector.scalar(Signature(1, 0), Fraction(10**400, 3), FLOAT64)

    def test_non_number_refused_in_the_f64_ring(self):
        with pytest.raises(RingMismatchError, match="str coefficient in the f64 ring"):
            Multivector(Signature(1, 0), ["1", 0], FLOAT64)

    def test_f64_overflow_on_scale(self):
        u = Multivector.scalar(Signature(1, 0), 1.0, FLOAT64)
        with pytest.raises(NonFiniteError):
            u.scale(10**400)

    def test_f64_overflow_on_division(self):
        u = Multivector.scalar(Signature(1, 0), 1.0, FLOAT64)
        with pytest.raises(NonFiniteError):
            u / 10**400

    def test_power(self, rng):
        sig = Signature(1, 2)
        u = random_mv(sig, rng, -3, 3)
        assert u ** 0 == Multivector.scalar(sig, 1)
        assert u ** 3 == u * u * u
        with pytest.raises(ValueError, match="only non-negative integer powers"):
            u ** -1


N4_SIGNATURES = [Signature(p, 4 - p) for p in range(5)]
N5_SIGNATURES = [Signature(p, 5 - p) for p in range(6)]


def _loop_product(u, v, monkeypatch):
    """u * v on the mask loop: the kernel runs at no n in either ring."""
    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_STRAIGHT_LINE_DIMS", {RATIONAL: (), FLOAT64: ()})
        return u * v


def _hex(u):
    return [c.hex() for c in u.coeffs]


class TestStraightLineProduct:
    """Dense products at n = 4 and 5 in the rational ring, and at n = 5
    in f64, run a function generated from the sign masks; it must be the
    mask loop, term for term and rounding for rounding."""

    @pytest.mark.parametrize("sig", N4_SIGNATURES + N5_SIGNATURES, ids=repr)
    def test_encoded_product_is_the_loop_term_for_term(self, sig, monkeypatch):
        # u_a = X^a and v_b = X^(2^n b) put the term u_a v_b at the power
        # a + 2^n b, one power per blade pair.  Every output coefficient
        # is then a sum of distinct powers with signs, read back as its
        # balanced base-X digits: the sign and the place of all 4^n
        # terms.
        x = 67
        n, size = sig.dim, sig.ncoeffs
        u = Multivector(sig, [x ** a for a in range(size)])
        v = Multivector(sig, [x ** (size * b) for b in range(size)])
        kernel = algebra._straight_line(n, sig.p)(u._num, v._num, 0)
        assert (u * v)._num == kernel
        assert _loop_product(u, v, monkeypatch)._num == kernel
        for k, value in enumerate(kernel):
            digits = {}
            power = 0
            while value:
                digit = (value + x // 2) % x - x // 2
                if digit:
                    digits[power] = digit
                value = (value - digit) // x
                power += 1
            expected = {}
            for a in range(size):
                b = a ^ k
                sign, word = word_product(mask_to_word(a), mask_to_word(b), sig.p)
                assert word_to_mask(word) == k
                expected[a + size * b] = sign
            assert digits == expected

    @pytest.mark.parametrize("sig", N5_SIGNATURES, ids=repr)
    def test_float_results_round_as_the_loop(self, sig, rng, monkeypatch):
        tiny = (5e-324, -5e-324, 2.5e-310, -1e-308, 3e-300)

        def dense_uniform():
            return [rng.uniform(-1, 1) for _ in range(32)]

        def integer_valued():
            return [float(rng.randint(-3, 3)) for _ in range(32)]

        def zeros_and_subnormals():
            # 24 nonzero coefficients per operand, 576 pairs: still dense.
            coeffs = [rng.choice(tiny) for _ in range(16)]
            coeffs += [rng.uniform(-1, 1) for _ in range(8)]
            coeffs += [rng.choice((0.0, -0.0)) for _ in range(8)]
            rng.shuffle(coeffs)
            return coeffs

        for draw in (dense_uniform, integer_valued, zeros_and_subnormals):
            for _ in range(20):
                u = Multivector(sig, draw(), FLOAT64)
                v = Multivector(sig, draw(), FLOAT64)
                kernel = algebra._straight_line(5, sig.p)(u._num, v._num, 0.0)
                assert _hex(u * v) == [c.hex() for c in kernel]
                assert _hex(u * v) == _hex(_loop_product(u, v, monkeypatch))

    def test_sparse_and_non_finite_operands_take_the_loop(self, rng, monkeypatch):
        calls = []
        kernel = algebra._straight_line

        def recorded(n, p):
            calls.append((n, p))
            return kernel(n, p)

        monkeypatch.setattr(algebra, "_straight_line", recorded)
        sig = Signature(3, 2)
        dense = random_mv(sig, rng, 1, 9)
        dense * dense
        dense4 = random_mv(Signature(2, 2), rng, 1, 9)
        dense4 * dense4
        assert calls == [(5, 3), (4, 2)]
        calls.clear()
        # 6 x 32 = 192 nonzero pairs stay below the threshold 4^5 / 5.
        sparse = Multivector.from_terms(sig, {m: 1 for m in range(0, 32, 6)})
        assert sparse * dense == _loop_product(sparse, dense, monkeypatch)
        # At n = 4 the threshold is 4^4 / 5 = 51.2 pairs: 7 x 7 = 49 take
        # the loop, and 8 x 7 = 56 the kernel.
        seven = Multivector.from_terms(dense4.sig, {m: m + 1 for m in range(7)})
        eight = Multivector.from_terms(dense4.sig, {m: m + 1 for m in range(8, 16)})
        assert seven * seven == _loop_product(seven, seven, monkeypatch)
        assert calls == []
        assert eight * seven == _loop_product(eight, seven, monkeypatch)
        assert calls == [(4, 2)]
        calls.clear()
        # f64 stays on the loop at n = 4, and n = 6 has no kernel.
        for other, ring in (
            (Signature(2, 2), FLOAT64),
            (Signature(3, 3), RATIONAL),
            (Signature(3, 3), FLOAT64),
        ):
            u = random_mv(other, rng, 1, 9, ring)
            u * u
        assert calls == []
        # The loop skips the zero scalar of v, so it never forms 0 * inf.
        v = Multivector(sig, [0.0] + [1.0] * 31, FLOAT64)
        for bad in (math.inf, -math.inf, math.nan):
            coeffs = [float(c) for c in dense.coeffs]
            coeffs[5] = bad
            u = Multivector(sig, coeffs, FLOAT64)
            assert _hex(u * v) == _hex(_loop_product(u, v, monkeypatch))
            assert _hex(v * u) == _hex(_loop_product(v, u, monkeypatch))
            if not math.isnan(bad):
                assert not any(map(math.isnan, (u * v).coeffs + (v * u).coeffs))
        assert calls == []


class TestGradeProject:
    def test_examples(self):
        sig = Signature(2, 0)
        u = Multivector.from_terms(sig, {0: 3, 0b01: 2, 0b11: 5})
        assert grade_project(u, 0) == Multivector.scalar(sig, 3)
        assert grade_project(u, 1) == Multivector.blade(sig, 0b01, 2)
        assert grade_project(u, 2) == Multivector.blade(sig, 0b11, 5)

    def test_completeness(self, rng):
        for sig in all_signatures(4):
            u = random_mv(sig, rng)
            total = Multivector.zero(sig)
            for k in range(sig.dim + 1):
                total = total + grade_project(u, k)
            assert total == u

    def test_idempotence_and_orthogonality(self, rng):
        sig = Signature(2, 2)
        u = random_mv(sig, rng)
        for k in range(5):
            uk = grade_project(u, k)
            assert grade_project(uk, k) == uk
            for j in range(5):
                if j != k:
                    assert grade_project(uk, j).is_zero()

    def test_out_of_range(self):
        u = Multivector.scalar(Signature(1, 1), 1)
        with pytest.raises(ValueError):
            grade_project(u, 3)
        with pytest.raises(ValueError):
            grade_project(u, -1)


class TestConjugations:
    def test_grade_signs(self):
        sig = Signature(1, 3)
        e1 = Multivector.blade(sig, 0b0001)
        e12 = Multivector.blade(sig, 0b0011)
        e1234 = Multivector.blade(sig, 0b1111)
        assert conjugate(e1, "hat") == -e1
        assert conjugate(e12, "tilde") == -e12
        assert conjugate(e1234, "triangle") == -e1234
        assert conjugate(e1234, "square") == e1234

    def test_every_kind_is_involution(self, rng):
        for sig in all_signatures(5):
            u = random_mv(sig, rng)
            for kind in ("hat", "tilde", "triangle", "square"):
                assert conjugate(conjugate(u, kind), kind) == u
            for j in range(1, sig.num_conjugations + 2):
                twice = conjugate(conjugate(u, "triangle_j", j), "triangle_j", j)
                assert twice == u

    def test_triangle_j_correspondence(self, rng):
        named = ["hat", "tilde", "triangle", "square"]
        for sig in [Signature(2, 2), Signature(4, 1), Signature(3, 3)]:
            u = random_mv(sig, rng)
            for j, kind in enumerate(named, start=1):
                assert conjugate(u, "triangle_j", j) == conjugate(u, kind)

    def test_large_j_is_identity(self, rng):
        # Once 2**(j-1) exceeds n every binomial is zero, so every sign is +1.
        sig = Signature(2, 1)
        u = random_mv(sig, rng)
        assert conjugate(u, "triangle_j", 4) == u

    def test_triangle_j_requires_positive_index(self):
        u = Multivector.scalar(Signature(1, 1), 1)
        with pytest.raises(ValueError):
            conjugate(u, "triangle_j", 0)
        with pytest.raises(ValueError):
            conjugate(u, "triangle_j")
        with pytest.raises(ValueError):
            conjugate(u, "nonsense")
        with pytest.raises(ValueError, match="index j is only valid for triangle_j"):
            conjugate(u, "hat", 2)

    def test_hat_is_automorphism(self, rng):
        for sig in all_signatures(5):
            for _ in range(5):
                u = random_mv(sig, rng, -5, 5)
                v = random_mv(sig, rng, -5, 5)
                assert conjugate(u * v, "hat") == conjugate(u, "hat") * conjugate(v, "hat")

    def test_tilde_is_antiautomorphism(self, rng):
        for sig in all_signatures(5):
            for _ in range(5):
                u = random_mv(sig, rng, -5, 5)
                v = random_mv(sig, rng, -5, 5)
                assert conjugate(u * v, "tilde") == conjugate(v, "tilde") * conjugate(u, "tilde")

    def test_triangle_not_homomorphism_witness(self):
        # Frozen regression pair: e12, e34 in Cl(1,3).
        sig = Signature(1, 3)
        u = Multivector.blade(sig, 0b0011)
        v = Multivector.blade(sig, 0b1100)
        assert conjugate(u * v, "triangle") != conjugate(u, "triangle") * conjugate(v, "triangle")
        assert conjugate(u * v, "triangle") != conjugate(v, "triangle") * conjugate(u, "triangle")


class TestCompositeConjugations:
    def test_fix_scalars(self):
        for sig in [Signature(1, 3), Signature(4, 1)]:
            e = Multivector.scalar(sig, 1)
            lam = Multivector.scalar(sig, Fraction(7, 3))
            assert natural(e) == e
            assert sharp(e) == e
            sq = Multivector.scalar(sig, Fraction(49, 9))
            assert natural(lam) == sq
            assert sharp(lam) == sq

    def test_match_direct_composition(self, rng):
        for sig in [Signature(1, 3), Signature(4, 1)]:
            b = random_mv(sig, rng)
            bh = conjugate(b, "hat")
            bt = conjugate(b, "tilde")
            assert natural(b) == conjugate(bh * bt, "triangle")
            assert sharp(b) == conjugate(bh * conjugate(bh, "tilde"), "triangle")


class TestCenterProject:
    def test_even_keeps_scalar_only(self):
        sig = Signature(1, 3)
        u = Multivector.from_terms(sig, {0: 3, 0b0001: 1, 0b1111: 5})
        assert center_project(u) == Multivector.scalar(sig, 3)

    def test_odd_keeps_pseudoscalar(self):
        sig = Signature(4, 1)
        u = Multivector.from_terms(sig, {0: 3, 0b00001: 1, 0b11111: 7})
        assert center_project(u) == Multivector.from_terms(sig, {0: 3, 0b11111: 7})

    def test_commutes_with_everything(self, rng):
        for sig in all_signatures(5):
            for _ in range(5):
                u = random_mv(sig, rng, -5, 5)
                v = random_mv(sig, rng, -5, 5)
                cu = center_project(u)
                assert cu * v == v * cu

    def test_conjugation_average_formula_n5(self, rng):
        # quarter-sum of B, tilde(B), triangle(hat(B)), triangle(tilde(hat(B)))
        for sig in [Signature(4, 1), Signature(2, 3)]:
            b = random_mv(sig, rng)
            total = (
                b
                + conjugate(b, "tilde")
                + conjugate(conjugate(b, "hat"), "triangle")
                + conjugate(conjugate(conjugate(b, "hat"), "tilde"), "triangle")
            )
            assert total / 4 == center_project(b)


class TestScalarViaConjugations:
    def test_pure_scalar(self):
        for sig in [Signature(1, 0), Signature(2, 2), Signature(3, 2)]:
            u = Multivector.scalar(sig, 7)
            assert scalar_via_conjugations(u) == 7

    def test_no_scalar_part(self):
        sig = Signature(2, 0)
        u = Multivector.from_terms(sig, {0b01: 1, 0b11: 1})
        assert scalar_via_conjugations(u) == 0

    def test_equals_coefficient_lookup(self, rng):
        for sig in all_signatures(6):
            for ring in (RATIONAL, FLOAT64):
                u = random_mv(sig, rng, ring=ring)
                assert scalar_via_conjugations(u) == u.coeffs[0]


@given(st.lists(st.integers(-50, 50), min_size=8, max_size=8))
@settings(max_examples=50, deadline=None)
def test_involutions_property(coeffs):
    sig = Signature(1, 2)
    u = Multivector(sig, coeffs)
    for kind in ("hat", "tilde", "triangle", "square"):
        assert conjugate(conjugate(u, kind), kind) == u


def test_immutability():
    u = Multivector.scalar(Signature(1, 1), 1)
    with pytest.raises(AttributeError):
        u.coeffs = (0, 0, 0, 0)


def _frac_mv(sig, rng, nterms=None):
    masks = range(sig.ncoeffs) if nterms is None else [
        rng.randrange(sig.ncoeffs) for _ in range(nterms)
    ]
    return Multivector.from_terms(sig, {
        mask: Fraction(rng.randint(-7, 7), rng.randint(1, 7)) for mask in masks
    })


def _in_lowest_terms(u):
    return u._den > 0 and math.gcd(u._den, *u._num) == 1


class TestRepresentation:
    """A rational element is integer numerators over one positive
    denominator in lowest terms; coeffs shows ints where it divides."""

    def test_results_are_in_lowest_terms(self, rng):
        sig = Signature(2, 1)
        for _ in range(20):
            u, v = _frac_mv(sig, rng), _frac_mv(sig, rng)
            results = [
                u + v, u - v, u * v, u.scale(Fraction(14, 3)), u / Fraction(6, 5),
                u / 4, u.grade_project(1), u.hat(), u.tilde(), u.triangle(),
                u.square(), -u, center_project(u),
            ]
            for w in results:
                assert _in_lowest_terms(w), w
        # A product whose denominators cancel: (1/2 + 1/2 e1)(2 - 2 e1)
        # is 1 - e1 e1 = 0 in Cl(2,1).
        half = Multivector.from_terms(sig, {0: Fraction(1, 2), 1: Fraction(1, 2)})
        two = Multivector.from_terms(sig, {0: 2, 1: -2})
        assert (half * two).is_zero()
        assert (half * two)._den == 1
        assert half.scale(2)._den == 1
        assert (half - half)._den == 1
        assert Multivector.zero(sig)._den == 1
        assert _in_lowest_terms(half * half.scale(Fraction(-2, 3)))

    def test_equal_values_are_equal_and_hash_equal(self, rng):
        sig = Signature(1, 2)
        u = Multivector(sig, [Fraction(2, 4), 3, 0, Fraction(-6, 9), 0, 0, 0, 1])
        literal = parse_multivector("1/2 + 3e1 - 2/3e12 + e123", sig)
        built = [
            Multivector(sig, [Fraction(1, 2), 3, 0, Fraction(-2, 3), 0, 0, 0, 1]),
            u.scale(3) / 3,
            u.scale(Fraction(6, 7)) / Fraction(6, 7),
            literal,
            (u + u) / 2,
        ]
        for w in built:
            assert w == u
            assert hash(w) == hash(u)
            assert w._num == u._num and w._den == u._den

    def test_coeffs_are_ints_where_the_denominator_divides(self):
        sig = Signature(2, 0)
        u = Multivector(sig, [Fraction(1, 2), Fraction(4, 2), 0, -3])
        assert u._den == 2
        assert [type(c) for c in u.coeffs] == [Fraction, int, int, int]
        assert u.coeffs == (Fraction(1, 2), 2, 0, -3)
        assert type(u.scalar_part()) is Fraction
        assert type(u.max_abs_coeff()) is int and u.max_abs_coeff() == 3
        assert type(u.scale(2).scalar_part()) is int
        assert all(type(c) is int for c in u.scale(2).coeffs)

    def test_f64_elements_keep_their_floats(self):
        sig = Signature(1, 1)
        nan = float("nan")
        u = Multivector(sig, [-0.0, 1.5, nan, 2], FLOAT64)
        assert [type(c) for c in u.coeffs] == [float] * 4
        assert math.copysign(1.0, u.coeffs[0]) == -1.0
        assert u._den == 1
        assert u != u
        e1 = Multivector.blade(sig, 1, 1.0, FLOAT64)
        flipped = e1.scale(-2.0)
        assert math.copysign(1.0, flipped.coeffs[0]) == -1.0
        assert flipped == Multivector(sig, [0.0, -2.0, 0.0, 0.0], FLOAT64)
        assert hash(flipped) == hash(Multivector(sig, [0.0, -2.0, 0.0, 0.0], FLOAT64))
        scalar = Multivector.scalar(sig, -2.0, FLOAT64)
        assert all(math.copysign(1.0, c) == 1.0 for c in scalar.coeffs[1:])

    def test_public_constructor_refuses_bad_values(self):
        sig = Signature(1, 0)
        with pytest.raises(ValueError, match="expected 2 coefficients, got 3"):
            Multivector(sig, [1, 0, 0])
        with pytest.raises(RingMismatchError, match="unknown scalar ring 'f32'"):
            Multivector(sig, [1, 0], "f32")
        for ring, bad in ((RATIONAL, True), (RATIONAL, 0.5), (FLOAT64, 10**400)):
            with pytest.raises((RingMismatchError, NonFiniteError)):
                Multivector(sig, [bad, 0], ring)
            with pytest.raises((RingMismatchError, NonFiniteError)):
                Multivector.from_terms(sig, {1: bad}, ring)
            with pytest.raises((RingMismatchError, NonFiniteError)):
                Multivector.scalar(sig, bad, ring)


def test_kernel_results_are_not_coerced(rng, monkeypatch):
    # Only the public constructors coerce, one call per value given:
    # kernel results on sparse rational elements at n = 10 make O(1)
    # calls each, not one per coefficient.
    sig = Signature(5, 5)
    u, v = _frac_mv(sig, rng, 5), _frac_mv(sig, rng, 5)
    calls = [0]
    coerce = algebra._coerce

    def counted(value, ring):
        calls[0] += 1
        return coerce(value, ring)

    monkeypatch.setattr(algebra, "_coerce", counted)
    for op in (
        lambda: u * v, lambda: u + v, lambda: u - v, lambda: u.tilde(),
        lambda: u.scale(Fraction(3, 2)),
    ):
        calls[0] = 0
        op()
        assert calls[0] <= 1
    calls[0] = 0
    data = char_poly(u)
    assert len(data.iterates) == sig.charpoly_degree
    assert calls[0] <= 2 * sig.charpoly_degree < sig.ncoeffs
