"""The recursions in the subalgebra S spanned by an element's blades.

Left multiplication on S has trace 2**r <.>_0, so where L = 2**r <= N
the L steps on S give chi_L with chi_B = chi_L**(N/L), Det = Det_L**(N/L)
and Adj = Det_L**(N/L - 1) Adj_L; where 2**r > N the N steps run on S's
2**r coefficients.  Every value is checked here against the N-step
recursion forced on the blades (charpoly._char_poly and _generalized on
the Multivector itself): equal in value and type in the exact ring, and
in f64 within a bound derived below, against the exact answer of the
same floats.
"""

import math
import random
from fractions import Fraction
from math import comb

import pytest

from gasylv import (
    FLOAT64,
    RATIONAL,
    InternalError,
    Multivector,
    NumericalDegradationError,
    Signature,
    SingularElementError,
    adjugate,
    char_poly,
    determinant,
    generalized_coeffs,
    inverse,
)
from gasylv import _spinor, charpoly, sylvester
from gasylv.algebra import Span
from gasylv.charpoly import _char_poly, _generalized, _spanned, is_zero_scalar
from conftest import assert_char_poly_answers

UNIT = Fraction(1, 1 << 53)


def _rank(masks):
    """The GF(2) rank of the masks."""
    rows = []
    for m in masks:
        for g in rows:
            m = min(m, m ^ g)
        if m:
            rows.append(m)
    return len(rows)


def _element(rng, sig, r, ring, fractions):
    """A sparse element whose nonzero blades span a subspace of rank r: a
    scalar, r independent masks and up to two of their XORs, at most 7
    terms (so nnz**2 < _spinor.MIN_PAIRS keeps it on blades), with ints
    in [-7, 7] or k/d, d <= 4."""
    n = sig.dim
    while True:
        basis = [rng.randrange(1, 1 << n) for _ in range(r)]
        if _rank(basis) == r:
            break
    masks = {0, *basis}
    for _ in range(min(rng.randint(0, 2), 6 - r)):
        pick = 0
        for g in basis:
            if rng.random() < 0.5:
                pick ^= g
        masks.add(pick)

    def coef():
        k = rng.choice((-1, 1)) * rng.randint(1, 7)
        return Fraction(k, rng.randint(1, 4)) if fractions else k

    return Multivector.from_terms(sig, {m: coef() for m in sorted(masks)}, ring)


def _cases():
    """(b, r) at n = 2..12, p = 0..3 (every class p - q mod 8 of n's
    parity), r = 0..min(n, 6), ints and k/d alternating."""
    rng = random.Random(2109)
    for n in range(2, 13):
        for p in range(min(n, 3) + 1):
            for r in range(min(n, 6) + 1):
                yield _element(rng, Signature(p, n - p), r, RATIONAL, (n + p + r) % 2), r


CASES = list(_cases())


def _same(x, y):
    return type(x) is type(y) and x == y


def _forced(b):
    """(Det, Adj, coeffs, iterates, differences) of the N steps on the
    blades of b."""
    data = _char_poly(b)
    return data.determinant(), data.adjugate(), data.coeffs, data.iterates, data.differences


@pytest.mark.parametrize("n", range(2, 13))
def test_exact_values_and_types_equal_the_n_step_recursion_on_blades(n):
    for b, r in [(b, r) for b, r in CASES if b.sig.dim == n]:
        det, adj, coeffs, iterates, differences = _forced(b)
        assert _same(determinant(b), det), (b, r)
        assert adjugate(b) == adj
        data = char_poly(b)
        assert all(map(_same, data.coeffs, coeffs)) and len(data.coeffs) == len(coeffs)
        assert data.iterates == iterates and data.differences == differences
        if det:
            assert inverse(b) == adj / det
        else:
            with pytest.raises(SingularElementError):
                inverse(b)
        if n % 2:
            ref = _generalized(b)
            gen = generalized_coeffs(b)
            assert gen.coeffs == ref.coeffs
            assert gen.iterates == ref.iterates and gen.differences == ref.differences


def _route(b):
    span = Span.of(b)
    if span is None:
        return None
    return span.ncoeffs, span.holds_pseudoscalar


def test_the_cases_cover_every_route():
    """r = 0, 2**r < N and > N, r = n, a singular element, and at odd n a
    span with and without the pseudoscalar."""
    seen = set()
    for b, r in CASES:
        route = _route(b)
        big_n = b.sig.charpoly_degree
        if route is None:
            seen.add("r = n" if r == b.sig.dim else "too dense")
            continue
        size, pseudo = route
        assert size == 1 << r
        seen.add("r = 0" if r == 0 else "2**r <= N" if size <= big_n else "2**r > N")
        if b.sig.dim % 2:
            seen.add("I in S" if pseudo else "I not in S")
        if not determinant(b):
            seen.add("singular")
    assert seen == {
        "r = n", "r = 0", "2**r <= N", "2**r > N", "singular", "I in S", "I not in S",
    }


def _float_copy(b):
    return Multivector(b.sig, [float(c) for c in b.coeffs], FLOAT64)


def _exact_copy(b):
    return Multivector(b.sig, [Fraction(c) for c in b.coeffs], RATIONAL)


def _bound(b, scale):
    """The f64 error bound of a value of b: N (2**r + 1) 2**-53 times the
    scale of its terms.  Each of at most N steps of the recursion sums at
    most 2**r products and one difference into a coefficient, and
    powering a value to N/L multiplies its relative error by N/L, so the
    error is first order in those roundings, N (2**r + 1) of them, each
    at most 2**-53 of the largest term.  The terms are bounded by the
    scales below, with ||b||_1 the sum of |b_A| (every eigenvalue of
    left multiplication is at most ||b||_1): C(N, k) ||b||_1**k for b_(k)
    and the k-th generalized coefficient, and 2**N ||b||_1**(N-1) for
    Adj(B) = -(B**(N-1) - b_(1) B**(N-2) - ... - b_(N-1))."""
    span = Span.of(b)
    size = span.ncoeffs if span else b.sig.ncoeffs
    return b.sig.charpoly_degree * (size + 1) * UNIT * scale


def _err(x, exact):
    return abs(Fraction(x) - exact)


def _max_err(u, exact):
    return max(_err(x, y) for x, y in zip(u.coeffs, exact.coeffs))


def _f64_cases():
    for b, r in CASES:
        x = _float_copy(b)
        if not x.is_zero():
            yield x, _exact_copy(x), r


@pytest.mark.parametrize("n", range(2, 13))
def test_f64_values_are_within_the_derived_bound(n):
    """Each f64 value against the exact one of the same floats, and where
    the N steps on blades answer, against theirs (within twice the
    bound).  The route answers wherever the N steps did."""
    for x, e, r in [c for c in _f64_cases() if c[0].sig.dim == n]:
        big_n = x.sig.charpoly_degree
        norm = sum(abs(c) for c in e.coeffs)
        try:
            forced = _forced(x)
        except NumericalDegradationError:
            forced = None
        try:
            det = determinant(x)
        except NumericalDegradationError:
            # Refused only where the N steps refuse too, on the blades or
            # on the matrices, which take an element as before.
            assert forced is None or _spinor.pays_off(x, x)
            continue
        exact_data = char_poly(e)
        bound = _bound(x, norm ** big_n)
        assert _err(det, determinant(e)) <= bound
        if forced:
            assert _err(det, Fraction(forced[0])) <= 2 * bound
        for k, (c, ce) in enumerate(zip(char_poly(x).coeffs, exact_data.coeffs), start=1):
            assert type(c) is float
            assert _err(c, ce) <= _bound(x, comb(big_n, k) * norm ** k)
        adj_bound = _bound(x, 2 ** big_n * norm ** (big_n - 1))
        assert _max_err(adjugate(x), adjugate(e)) <= adj_bound
        exact_det = determinant(e)
        if is_zero_scalar(det, x):
            # The f64 zero test's verdict, |Det| <= 1e-9 (1 + max|b|**N).
            with pytest.raises(SingularElementError):
                inverse(x)
        elif exact_det and abs(exact_det) > bound:
            inv_e = inverse(e)
            inv_norm = max(abs(c) for c in inv_e.coeffs)
            inv_bound = (adj_bound + inv_norm * bound) / (abs(exact_det) - bound)
            assert _max_err(inverse(x), inv_e) <= inv_bound
        if n % 2:
            for k, (c, ce) in enumerate(
                zip(generalized_coeffs(x).coeffs, generalized_coeffs(e).coeffs), start=1
            ):
                assert _max_err(c, ce) <= _bound(x, comb(big_n // 2, k) * norm ** k)


def test_an_l_step_recursion_answers_where_the_n_steps_refuse():
    """The f64 N-step recursion of -3/2 + 5/4 e123459 + 5/4 e12479 in
    Cl(9,0) leaves a residue of about 100; its 4 steps on S do not."""
    sig = Signature(9, 0)
    terms = {0: -1.5, 0b100011111: 1.25, 0b101001011: 1.25}
    x = Multivector.from_terms(sig, terms, FLOAT64)
    with pytest.raises(NumericalDegradationError):
        _char_poly(x)
    exact = determinant(_exact_copy(x))
    assert abs(Fraction(determinant(x)) - exact) <= Fraction(1, 10 ** 12) * abs(exact)


class TestSpan:
    def test_products_in_span_coordinates_are_those_on_blades(self):
        rng = random.Random(7)
        for n in range(1, 9):
            for p in range(n + 1):
                sig = Signature(p, n - p)
                for ring in (RATIONAL, FLOAT64):
                    u = _element(rng, sig, rng.randint(0, n - 1), ring, False)
                    v = u * _element(rng, sig, 0, ring, True) + u * u
                    span = Span.of(u)
                    if span is None:
                        continue
                    su, sv = span.of_blades(u), span.of_blades(v)
                    assert span.to_blades(su) == u
                    assert span.to_blades(su * sv) == u * v
                    assert span.to_blades(sv - su) == v - u

    def test_the_basis_is_reduced_echelon_and_indices_ascend_with_masks(self):
        sig = Signature(3, 3)
        b = Multivector.from_terms(sig, {0: 1, 0b110110: 2, 0b010011: 3, 0b100101: 1})
        span = Span.of(b)
        assert span.basis == (0b10011, 0b100101)
        assert list(span.full) == sorted(span.full)
        assert span.ncoeffs == 4

    def test_no_span_where_the_blades_span_every_generator(self):
        sig = Signature(2, 1)
        assert Span.of(Multivector.from_terms(sig, {1: 1, 2: 1, 4: 1})) is None
        # More than 2**(n-1) nonzeros span all n without a look.
        dense = Multivector(sig, [1, 1, 1, 0, 1, 0, 0, 0])
        assert Span.of(dense) is None

    def test_the_pseudoscalar_sits_at_the_last_index(self):
        sig = Signature(2, 1)
        inside = Span.of(Multivector.from_terms(sig, {0: 1, 0b001: 1, 0b110: 1}))
        outside = Span.of(Multivector.from_terms(sig, {0: 1, 0b001: 1, 0b010: 1}))
        assert inside.holds_pseudoscalar and inside.full[-1] == 0b111
        assert not outside.holds_pseudoscalar

    def test_the_route_is_decided_from_r_and_n(self):
        sig = Signature(4, 4)
        b = Multivector.from_terms(sig, {0: 3, 0b1: 1, 0b110: 2})
        data, power = _spanned(b)
        assert (data.degree, power) == (4, 4)
        dense = Multivector(sig, [1] * 256)
        data, power = _spanned(dense)
        assert (data.degree, power, data.iterates[0].sig) == (16, 1, sig)


def test_a_corrupted_step_raises_internal_error(monkeypatch):
    """The residue test of an L-step recursion still catches a wrong
    coefficient, in a public call and in a blade solve's inversion of D.
    Only steps in a span's coordinates are corrupted, so B's N steps in
    the solve are not."""
    sig = Signature(3, 3)
    b = Multivector.from_terms(sig, {0: 3, 0b1: 1, 0b110: 2})
    assert _spanned(b)[1] == 2
    step = charpoly._scalar_coeff

    def corrupted(u, length, k, differ):
        c, difference = step(u, length, k, differ)
        if type(u.sig) is not Span:
            return c, difference
        return c + 1, (difference - type(u).scalar(u.sig, 1, u.ring) if differ else None)

    monkeypatch.setattr(charpoly, "_scalar_coeff", corrupted)
    with pytest.raises(InternalError):
        determinant(b)
    with pytest.raises(InternalError):
        inverse(b)
    a = Multivector.from_terms(sig, {0: 5, 0b10: 1})
    prob = sylvester.SylvesterProblem(a, b, Multivector.from_terms(sig, {0b100: 1}))
    with pytest.raises(InternalError):
        sylvester.solve(prob, sylvester.GENERAL)


def test_the_inversion_of_a_sparse_d_is_that_of_its_char_poly(inversions):
    """D = phi_B(A) of sparse blade solves lies in the span of A's blades
    (and the pseudoscalar at odd n): its Adj and Det are those of the N
    steps on its blades."""
    rng = random.Random(11)
    for n in (5, 6, 7, 8):
        sig = Signature(n - n // 2, n // 2)
        for _ in range(3):
            a = _element(rng, sig, 2, RATIONAL, False) + Multivector.scalar(sig, 9)
            b = _element(rng, sig, 2, RATIONAL, True) - Multivector.scalar(sig, 9)
            c = _element(rng, sig, 1, RATIONAL, False)
            sylvester.solve(sylvester.SylvesterProblem(a, b, c), sylvester.GENERAL)
    assert all(isinstance(phi.d, Multivector) for _, phi, _, _ in inversions)
    assert any(Span.of(phi.d) is not None for _, phi, _, _ in inversions)
    assert_char_poly_answers(inversions)


def test_a_sparse_inverse_in_cl_8_8():
    """N = 256 steps on 2**16 blades before; 4 steps on S now."""
    from gasylv import format_multivector, parse_multivector

    sig = Signature(8, 8)
    b = parse_multivector("3 + e1 + e{3,16}", sig, RATIONAL)
    inv = inverse(b)
    assert format_multivector(inv) == "7/15 - 1/5e{1} - 1/5e{3,16} + 2/15e{1,3,16}"
    assert b * inv == Multivector.scalar(sig, 1)
    assert determinant(b) == 45 ** 64
    assert math.isclose(determinant(_float_copy(b)), 45.0 ** 64, rel_tol=1e-13)
