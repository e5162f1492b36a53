"""Characteristic polynomial, determinant, adjugate, and inverse of a
multivector, via the recursive scheme

    B_(1) = B,   B_(k+1) = B (B_(k) - b_(k)),   b_(k) = (N/k) <B_(k)>_0,

with N = 2**ceil(n/2), plus closed-form determinant expressions for
n <= 5 used as cross-check oracles and the generalized central
coefficients that halve the recursion for odd n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    RATIONAL,
    Multivector,
    _coerce,
    _require_finite,
    center_project,
    conjugate,
)
from .errors import (
    InternalError,
    NumericalDegradationError,
    SingularElementError,
)

DEFAULT_ZERO_TOL = 1e-9


def _within_det_scale(value, b, tol):
    """abs(value) <= tol * (1 + max|b|**N), the zero test for
    determinant-sized quantities, which scale like the N-th power of the
    coefficient size.  The power is split with frexp, and compared in
    log space where it would overflow a float."""
    value = abs(value)
    big_n = b.sig.charpoly_degree
    mant, exp = math.frexp(float(b.max_abs_coeff()))
    mant **= big_n
    exp *= big_n
    if exp < 1000:
        return value <= tol * (1.0 + math.ldexp(mant, exp))
    # The threshold exceeds 2**(1000 - N): the 1 is far below its ulp.
    if not 0 < value < math.inf:
        return value == 0
    return math.log2(value) <= math.log2(tol) + math.log2(mant) + exp


@dataclass(frozen=True)
class CharPolyData:
    """Iterates B_(1)..B_(N) and scalar coefficients b_(1)..b_(N).

    The characteristic polynomial is
    lambda**N - b_(1) lambda**(N-1) - ... - b_(N).
    """

    sig: object
    iterates: tuple
    coeffs: tuple

    @property
    def degree(self):
        return len(self.coeffs)

    def determinant(self):
        return -self.coeffs[-1]

    def adjugate(self):
        b = self.iterates[0]
        return Multivector.scalar(b.sig, self.coeffs[-2], b.ring) - self.iterates[-2]


@dataclass(frozen=True)
class GeneralizedCoeffs:
    """Central-valued coefficient sequence for odd n: N/2 iterates and
    N/2 coefficients, each living in the center Cl^0 + Cl^n."""

    sig: object
    iterates: tuple
    coeffs: tuple


def char_poly(b, tol=DEFAULT_ZERO_TOL):
    """Run the full N-step recursion on b.

    For exact scalars the final iterate is checked to be a pure scalar
    (a consequence of Cayley-Hamilton); for floats a residue above
    tolerance raises NumericalDegradationError.
    """
    _require_finite(b)
    sig = b.sig
    big_n = sig.charpoly_degree
    iterates = []
    coeffs = []
    cur = b
    for k in range(1, big_n + 1):
        bk = _coerce(Fraction(big_n, k) * cur.scalar_part(), b.ring)
        iterates.append(cur)
        coeffs.append(bk)
        if k < big_n:
            cur = b * (cur - Multivector.scalar(sig, bk, b.ring))
    residue = iterates[-1].nonscalar_norm()
    if b.ring == RATIONAL:
        if residue != 0:
            raise InternalError(
                "final characteristic-polynomial iterate is not scalar"
            )
    elif not _within_det_scale(residue, b, tol):
        raise NumericalDegradationError(
            f"non-scalar residue {residue} in the final iterate"
        )
    elif not all(map(math.isfinite, coeffs)):
        raise NumericalDegradationError(
            "a characteristic-polynomial coefficient overflows"
        )
    return CharPolyData(sig, tuple(iterates), tuple(coeffs))


def determinant(b, tol=DEFAULT_ZERO_TOL):
    return char_poly(b, tol).determinant()


def adjugate(b, tol=DEFAULT_ZERO_TOL):
    """Adj(B) = b_(N-1) - B_(N-1); satisfies B Adj(B) = Det(B) e."""
    return char_poly(b, tol).adjugate()


def is_zero_scalar(value, b, tol=DEFAULT_ZERO_TOL):
    """Ring-aware zero test for a determinant-sized scalar derived
    from the element b."""
    if b.ring == RATIONAL:
        return value == 0
    return _within_det_scale(value, b, tol)


def inverse(b, tol=DEFAULT_ZERO_TOL):
    data = char_poly(b, tol)
    det = data.determinant()
    if is_zero_scalar(det, b, tol):
        raise SingularElementError(f"element has determinant {det}")
    return data.adjugate() / det


def generalized_coeffs(b):
    """Central coefficient sequence for odd n.

    Runs N/2 steps of the recursion with the center projection in place
    of the scalar projection; the k-th coefficient is
    ((N/2)/k) <B'_(k)>_cen, a multivector in Cl^0 + Cl^n.
    """
    sig = b.sig
    if sig.dim % 2 == 0:
        raise ValueError("generalized coefficients are defined for odd n")
    half = sig.charpoly_degree // 2
    iterates = []
    coeffs = []
    cur = b
    for k in range(1, half + 1):
        bk = center_project(cur).scale(Fraction(half, k))
        iterates.append(cur)
        coeffs.append(bk)
        if k < half:
            cur = b * (cur - bk)
    return GeneralizedCoeffs(sig, tuple(iterates), tuple(coeffs))


def _as_scalar(u, reference, tol):
    residue = u.nonscalar_norm()
    if u.ring == RATIONAL:
        if residue != 0:
            raise InternalError("expected a pure scalar result")
    elif not _within_det_scale(residue, reference, tol):
        raise NumericalDegradationError(
            f"non-scalar residue {residue} in a determinant expression"
        )
    return u.scalar_part()


def closed_form_det(b, tol=DEFAULT_ZERO_TOL):
    """Per-dimension closed determinant forms, n <= 5.

    Cross-check oracle for determinant(); not used by the solvers.
    """
    n = b.sig.dim
    if n == 1:
        prod = b * b.hat()
    elif n == 2:
        prod = b * b.tilde().hat()
    elif n == 3:
        prod = b * b.hat() * b.tilde() * b.tilde().hat()
    elif n == 4:
        prod = b * b.tilde().hat() * conjugate(b.hat() * b.tilde(), "triangle")
    elif n == 5:
        core = b * b.tilde() * conjugate(b.hat() * b.hat().tilde(), "triangle")
        prod = core * core.triangle()
    else:
        raise ValueError(f"no closed determinant form for n = {n}")
    return _as_scalar(prod, b, tol)
