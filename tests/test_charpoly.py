import hashlib
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from gasylv import (
    FLOAT64,
    RATIONAL,
    InternalError,
    Multivector,
    NonFiniteError,
    NumericalDegradationError,
    Signature,
    SingularElementError,
    adjugate,
    center_project,
    char_poly,
    closed_form_det,
    conjugate,
    determinant,
    generalized_coeffs,
    grade_project,
    inverse,
    load_coeff_lines,
    parse_multivector,
)
from gasylv.charpoly import (
    ZERO_TOL,
    _as_scalar,
    _central_coeff,
    _faddeev_leverrier,
    _newton,
    _resultant,
    _scalar_coeff,
    is_zero_scalar,
)
from gasylv import _spinor
from gasylv._spinor import _Gaussian
from conftest import all_signatures, random_mv, random_sparse_mv
from oracles import matrix_determinant

FIXTURES = Path(__file__).parent / "fixtures"


def _load(name, path, sig, ring=RATIONAL):
    return load_coeff_lines((FIXTURES / name / path).read_text(), sig, ring)


class TestCharPoly:
    def test_identity_element(self):
        data = char_poly(Multivector.scalar(Signature(1, 1), 1))
        assert data.coeffs == (2, -1)
        assert data.determinant() == 1

    def test_single_generator(self):
        data = char_poly(Multivector.blade(Signature(1, 0), 0b1))
        assert data.coeffs == (0, 1)
        assert data.determinant() == -1

    def test_degree_matches_signature(self, rng):
        for sig in all_signatures(6):
            data = char_poly(random_mv(sig, rng, -3, 3))
            assert data.degree == sig.charpoly_degree
            assert len(data.iterates) == data.degree

    def test_regression_fixture(self):
        # Frozen coefficients for the Cl(1,3) regression element.
        sig = Signature(1, 3)
        b = _load("example1", "b.txt", sig)
        assert char_poly(b).coeffs == (8, -68, 2112, -16016)

    def test_cayley_hamilton(self, rng):
        for sig in all_signatures(6):
            b = random_mv(sig, rng, -4, 4)
            data = char_poly(b)
            total = b ** data.degree
            for k, bk in enumerate(data.coeffs, start=1):
                total = total - (b ** (data.degree - k)).scale(bk)
            assert total.is_zero()

    def test_final_iterate_is_scalar(self, rng):
        for sig in all_signatures(5):
            data = char_poly(random_mv(sig, rng, -4, 4))
            assert data.iterates[-1].nonscalar_norm() == 0

    @pytest.mark.parametrize("ring, error, message", [
        (RATIONAL, InternalError, "expected a pure scalar result"),
        (FLOAT64, NumericalDegradationError,
         "non-scalar residue 1.0 in a determinant expression"),
    ])
    def test_a_non_scalar_result_is_refused(self, ring, error, message):
        # The zero test of a reference 1 is 2e-9 in f64; a residue of 1
        # fails it, and any residue is refused in the exact ring.
        sig = Signature(2, 1)
        one = Multivector.scalar(sig, 1, ring)
        assert _as_scalar(Multivector.scalar(sig, 2, ring), one) == 2
        with pytest.raises(error, match=message):
            _as_scalar(Multivector.from_terms(sig, {0: 2, 3: 1}, ring), one)

    def test_scalar_element(self):
        # Det(lambda e) = lambda**N.
        for sig in [Signature(2, 0), Signature(2, 1), Signature(1, 3)]:
            lam = Fraction(3, 2)
            det = determinant(Multivector.scalar(sig, lam))
            assert det == lam ** sig.charpoly_degree

    def test_float_mode(self, rng):
        sig = Signature(1, 3)
        b = random_mv(sig, rng, -4, 4)
        bf = Multivector(sig, [float(c) for c in b.coeffs], FLOAT64)
        exact = determinant(b)
        assert determinant(bf) == pytest.approx(float(exact), rel=1e-12)


    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_element_rejected(self, bad):
        sig = Signature(2, 0)
        b = Multivector(sig, [1.0, 0.0, bad, 0.0], FLOAT64)
        for fn in (char_poly, determinant, adjugate, inverse, closed_form_det):
            with pytest.raises(NonFiniteError):
                fn(b)

    def test_float_overflow_is_refused(self):
        # |b|**N overflows a float, the zero test's exact bound does not,
        # and the overflowing coefficient is refused.
        sig = Signature(2, 0)
        b = Multivector(sig, [1e200, 1.0, 0.0, 0.0], FLOAT64)
        with pytest.raises(NumericalDegradationError):
            determinant(b)

    def test_float_zero_test_beyond_float_range(self):
        # |b|**N = 1e400 overflows a float, while every value the
        # recursion computes stays finite: a nilpotent b has determinant
        # 0, and a scalar 1e76 has determinant 1e304.
        sig = Signature(2, 1)
        nilpotent = Multivector(sig, [0.0, 1e100, 0.0, 0.0, 1e100, 0.0, 0.0, 0.0], FLOAT64)
        assert determinant(nilpotent) == 0
        with pytest.raises(SingularElementError):
            inverse(nilpotent)
        big = Multivector.scalar(sig, 1e76, FLOAT64)
        assert determinant(big) == pytest.approx(1e304, rel=1e-12)
        assert inverse(big).coeffs[0] == pytest.approx(1e-76, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_the_zero_test_is_the_exact_bound(self, n):
        # In f64, |v| <= ZERO_TOL * (1 + max|b|**N) in exact arithmetic,
        # N up to 256, for max|b| from subnormal to a power beyond
        # 2**1024, where a float bound would overflow; a value that is
        # not finite is not zero.
        sig = Signature(n, 0)
        big_n = sig.charpoly_degree
        for size in (0.0, 5e-324, 1e-300, 1e-3, 1.0, 1.5, 30.0, 1e300):
            b = Multivector.from_terms(sig, {0: size / 2, 1: -size}, FLOAT64)
            bound = Fraction(ZERO_TOL) * (1 + Fraction(size) ** big_n)
            values = [0.0, 5e-324, 1e-300, 1.0, 1e300, math.inf, math.nan]
            if bound <= Fraction(sys.float_info.max):
                edge = float(bound)
                values += [edge, math.nextafter(edge, 0), math.nextafter(edge, math.inf)]
            for v in values:
                for value in (v, -v):
                    want = math.isfinite(value) and Fraction(abs(value)) <= bound
                    assert is_zero_scalar(value, b) is want, (size, value)
        # A NaN or an infinity anywhere in b leaves no bound: not zero.
        for bad in (math.nan, math.inf):
            for at in range(2):
                coeffs = [1.0] * sig.ncoeffs
                coeffs[at] = bad
                b = Multivector(sig, coeffs, FLOAT64)
                assert is_zero_scalar(0.0, b) is False
        # The exact ring tests value == 0, whatever the size of b.
        b = Multivector.scalar(sig, 10**400)
        assert is_zero_scalar(0, b) and is_zero_scalar(Fraction(0), b)
        assert not is_zero_scalar(Fraction(1, 10**400), b)

    def test_fraction_element_runs_on_its_integer_multiple(self, rng):
        # With s the lcm of b's denominators, the k-th iterate,
        # coefficient and difference of s b are s**k those of b: the
        # reported values are those of the recursion run on b itself.
        for sig in all_signatures(5):
            b = Multivector(sig, [
                Fraction(rng.randint(-7, 7), rng.randint(1, 7))
                for _ in range(sig.ncoeffs)
            ])
            runs = [(char_poly(b), sig.charpoly_degree, _scalar_coeff)]
            if sig.dim % 2:
                runs.append(
                    (generalized_coeffs(b), sig.charpoly_degree // 2, _central_coeff)
                )
            for data, length, project in runs:
                iterates, coeffs, differences = _faddeev_leverrier(b, length, project)
                for got, want in (
                    (data.iterates, iterates),
                    (data.coeffs, coeffs),
                    (data.differences, differences),
                ):
                    assert got == want
                    assert _types(got) == _types(want)


def _types(values):
    """Coefficient types of a sequence of multivectors or scalars."""
    return [type(c) for u in values for c in getattr(u, "coeffs", [u])]


class TestDeterminant:
    def test_zero_f64_determinant_is_positive_zero(self):
        det = determinant(Multivector.zero(Signature(1, 1), FLOAT64))
        assert det == 0 and math.copysign(1.0, det) == 1.0

    def test_multiplicativity(self, rng):
        for sig in all_signatures(5):
            u = random_mv(sig, rng, -3, 3)
            v = random_mv(sig, rng, -3, 3)
            assert determinant(u * v) == determinant(u) * determinant(v)

    def test_closed_form_agreement(self, rng):
        for sig in all_signatures(5):
            for _ in range(10):
                b = random_mv(sig, rng, -5, 5)
                assert determinant(b) == closed_form_det(b)

    def test_closed_form_rejects_large_n(self, rng):
        with pytest.raises(ValueError):
            closed_form_det(random_mv(Signature(3, 3), rng))


class TestAdjugateInverse:
    def test_adjugate_identity(self, rng):
        for sig in all_signatures(6):
            b = random_mv(sig, rng, -4, 4)
            det = Multivector.scalar(sig, determinant(b))
            adj = adjugate(b)
            assert b * adj == det
            assert adj * b == det

    def test_inverse_example(self):
        # (e1 + e2)**2 = 2 in Cl(2,0), so the inverse is (e1 + e2)/2.
        sig = Signature(2, 0)
        b = parse_multivector("e1 + e2", sig, RATIONAL)
        assert inverse(b) == b / 2

    def test_inverse_round_trip(self, rng):
        for sig in all_signatures(5):
            b = random_mv(sig, rng, -4, 4)
            try:
                inv = inverse(b)
            except SingularElementError:
                continue
            assert b * inv == Multivector.scalar(sig, 1)
            assert inv * b == Multivector.scalar(sig, 1)

    def test_singular_element(self):
        # (e1 + e2)**2 = 0 in Cl(1,1): a genuine zero divisor.
        sig = Signature(1, 1)
        b = parse_multivector("e1 + e2", sig, RATIONAL)
        assert determinant(b) == 0
        with pytest.raises(SingularElementError):
            inverse(b)

    def test_zero_element(self):
        with pytest.raises(SingularElementError):
            inverse(Multivector.zero(Signature(2, 1)))

    def test_float_singular_tolerance(self):
        sig = Signature(1, 1)
        b = parse_multivector("e1 + e2", sig, FLOAT64)
        with pytest.raises(SingularElementError):
            inverse(b)


class TestGeneralizedCoeffs:
    def test_small_example(self):
        # For B = e in Cl(2,1): half-length 2 with b'_(1) = 2e, b'_(2) = -e.
        sig = Signature(2, 1)
        e = Multivector.scalar(sig, 1)
        gen = generalized_coeffs(e)
        assert gen.coeffs == (e.scale(2), -e)

    def test_first_coefficient_n5(self, rng):
        # b'_(1) = (N/2) <B>_cen = 4 (<B>_0 + <B>_5) when n = 5.
        for sig in [Signature(4, 1), Signature(2, 3)]:
            b = random_mv(sig, rng)
            gen = generalized_coeffs(b)
            assert gen.coeffs[0] == center_project(b).scale(4)

    def test_last_coefficient_closed_form_n5(self, rng):
        # b'_(4) = -B tilde(B) triangle(hat(B) tilde(hat(B))).
        for sig in [Signature(4, 1), Signature(0, 5)]:
            b = random_mv(sig, rng, -4, 4)
            core = b * b.tilde() * conjugate(
                b.hat() * b.hat().tilde(), "triangle"
            )
            assert generalized_coeffs(b).coeffs[-1] == -core

    def test_coefficients_are_central(self, rng):
        for sig in [Signature(1, 0), Signature(2, 1), Signature(1, 4), Signature(3, 2)]:
            b = random_mv(sig, rng, -4, 4)
            for bk in generalized_coeffs(b).coeffs:
                assert center_project(bk) == bk

    def test_half_length_cayley_hamilton(self, rng):
        # B (B'_(N/2) - b'_(N/2)) = 0: the recursion closes in half the steps.
        for sig in [Signature(2, 1), Signature(4, 1), Signature(2, 3)]:
            b = random_mv(sig, rng, -4, 4)
            gen = generalized_coeffs(b)
            assert (b * (gen.iterates[-1] - gen.coeffs[-1])).is_zero()

    def test_determinant_via_central_core(self, rng):
        # Det(B) = b'_(N/2) conj(b'_(N/2)) where conj negates the
        # grade-n (pseudoscalar) part of the central coefficient.
        for sig in [Signature(1, 0), Signature(3, 0), Signature(2, 1), Signature(4, 1)]:
            b = random_mv(sig, rng, -4, 4)
            last = generalized_coeffs(b).coeffs[-1]
            bar = grade_project(last, 0) - grade_project(last, sig.dim)
            prod = last * bar
            assert prod.nonscalar_norm() == 0
            assert prod.scalar_part() == determinant(b)

    def test_even_n_rejected(self, rng):
        with pytest.raises(ValueError):
            generalized_coeffs(random_mv(Signature(2, 2), rng))

    def test_noncentral_witness(self):
        # Frozen regression: this composite conjugation product is NOT
        # central in general; for this element it has grade-3 and
        # grade-4 parts.
        sig = Signature(4, 1)
        b = parse_multivector("1 + e2 + e13 + e45", sig, RATIONAL)
        expr = b * b.tilde().hat() * conjugate(b.hat() * b.tilde(), "triangle")
        assert center_project(expr) != expr
        assert not grade_project(expr, 3).is_zero()
        assert not grade_project(expr, 4).is_zero()


def _sylvester_matrix(f, g):
    """The Sylvester matrix of f and g, coefficients lowest degree first."""
    m, k = len(f) - 1, len(g) - 1
    rows = [[0] * j + f[::-1] + [0] * (k - 1 - j) for j in range(k)]
    rows += [[0] * j + g[::-1] + [0] * (m - 1 - j) for j in range(m)]
    return rows


def _remainder(poly, f):
    """poly modulo the monic f, coefficients lowest degree first."""
    poly = list(poly)
    while len(poly) >= len(f):
        top = poly.pop()
        for i, c in enumerate(f[:-1]):
            poly[len(poly) - len(f) + 1 + i] -= top * c
    return poly


class TestResultant:
    def test_resultant_and_cofactor_against_the_sylvester_determinant(self, rng):
        # Sparse g has degree gaps, and a shared root or g = 0 gives 0.
        kinds = Counter()
        for _ in range(400):
            f = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))] + [1]
            g = [rng.choice((0, 0, 0, -2, -1, 1, 2)) for _ in range(rng.randint(0, len(f) - 1))]
            if rng.random() < 0.2:
                # Times lambda - root, a common factor.
                root = rng.randint(-2, 2)
                f, g = ([a - root * b for a, b in zip([0] + u, u + [0])] for u in (f, g))
            while g and not g[-1]:
                g.pop()
            deg = len(f) - 1
            res, t = _resultant(f, g)
            if len(g) > 1:
                want = matrix_determinant(_sylvester_matrix(f, g))
            else:
                want = g[0] ** deg if g else 0
            assert res == want, (f, g)
            if res:
                product = [0] * (len(t) + len(g) - 1)
                for i, a in enumerate(t):
                    for j, b in enumerate(g):
                        product[i + j] += a * b
                product[0] -= res
                assert not any(_remainder(product, f)), (f, g)
            kinds[bool(res), len(g) < deg] += 1
        assert all(kinds[key] for key in [(True, True), (False, False), (False, True)])

    def test_gaussian_integers_are_exact(self):
        g = _Gaussian(3, -4)
        assert g * g.conjugate() == 25
        assert (g * _Gaussian(1, 2)) // g == _Gaussian(1, 2)
        assert 10 // _Gaussian(1, 3) == _Gaussian(1, -3)
        # Power sums 2i and -2 are those of the double root i.
        assert _newton([_Gaussian(0, 2), _Gaussian(-2)]) == [_Gaussian(-1), _Gaussian(0, -2), 1]


class TestNewton:
    def test_power_sums_of_an_integer_matrix(self):
        # [[1, 2], [3, 4]]: tr = 5, tr(M**2) = 29, char poly l**2 - 5l - 2.
        assert _newton([5, 29]) == [-2, -5, 1]

    @pytest.mark.parametrize("sums", [
        [1, 2],
        [0, 1],
        [1, 1, 2],
        [_Gaussian(0, 1), 0],
        [_Gaussian(1, 1), 3],
        [_Gaussian(0, 2), _Gaussian(-2), _Gaussian(0, 2)],
    ], ids=["1,2", "0,1", "1,1,2", "i,0", "1+i,3", "2i,-2,2i"])
    def test_power_sums_no_integer_matrix_has_are_refused(self, sums):
        # p_1 = 0, p_2 = 1 would be a root pair with product -1/2; Newton's
        # identities divide by k and must not floor a remainder away.
        with pytest.raises(InternalError, match="not that of an integer matrix"):
            _newton(sums)


def _recursion_text(b):
    """The public recursions of b as text, each value by its repr, which
    names its type (int, Fraction or float), or the error it raised."""
    parts = []
    calls = [char_poly, determinant, inverse]
    if b.sig.dim % 2:
        calls.append(generalized_coeffs)
    for call in calls:
        try:
            value = call(b)
        except (SingularElementError, NumericalDegradationError) as exc:
            parts.append(f"{type(exc).__name__}: {exc}")
            continue
        if isinstance(value, Multivector):
            parts.append(repr(value.coeffs))
        elif call in (char_poly, generalized_coeffs):
            for field in (value.iterates, value.coeffs, value.differences):
                parts.append(repr([getattr(u, "coeffs", u) for u in field]))
        else:
            parts.append(repr(value))
    return "\n".join(parts)


# sha256 per ring of the recursions of
# test_sparse_blade_recursions_are_pinned_by_digest.
RECURSION_DIGESTS = {
    RATIONAL: "da2ca6091280d32989acc74ba7385f74419bad456df8b8a86c2a7b8587ffe3fb",
    FLOAT64: "2ef9d474b382558778ffb4c4e63e291a3821429680d2f7d277df872ee46656bf",
}


def test_sparse_blade_recursions_are_pinned_by_digest():
    # One sha256 per ring over char_poly (iterates, coefficients,
    # differences), generalized_coeffs at odd n, determinant and inverse of
    # sparse elements with k/d coefficients at n = 2..10, all of them on
    # blades: a change to the Faddeev-LeVerrier step that moves a value or
    # a type shows here.  The two rings draw from one stream, so each
    # digest covers the same elements whatever the other's values.
    rng = random.Random(27)
    digests = {RATIONAL: hashlib.sha256(), FLOAT64: hashlib.sha256()}
    for n in range(2, 11):
        for p in (n, n - n // 2, 0):
            sig = Signature(p, n - p)
            for ring in (RATIONAL, RATIONAL, FLOAT64):
                terms = {
                    mask: Fraction(rng.randint(-7, 7), rng.randint(1, 4))
                    for mask in [0] + rng.sample(range(1, 1 << n), rng.randint(1, 3))
                }
                b = Multivector.from_terms(sig, terms, ring)
                assert not _spinor.pays_off(b, b)
                digests[ring].update(_recursion_text(b).encode())
    assert {ring: d.hexdigest() for ring, d in digests.items()} == RECURSION_DIGESTS
