"""Characteristic polynomial, determinant, adjugate, and inverse of a
multivector, via one Faddeev-LeVerrier recursion

    B_(1) = B,   B_(k+1) = B (B_(k) - c_(k)),   c_(k) = (L/k) P(B_(k)),

run with two projections P: L = N = 2**ceil(n/2) steps of the scalar
part give the characteristic polynomial (c_(k) = b_(k)), and for odd n
L = N/2 steps of the center projection give the generalized central
coefficients that halve the recursion.  The loop needs only products,
sums and the projection, so a rational element runs it on the integer
numerators of Multivector, and it runs unchanged on the spinor matrices
of _spinor.  Closed-form determinant expressions for n <= 5 serve as
cross-check oracles; the closed adjugates they multiply are also those
of the closed-form solvers.

The exact solvers on spinor matrices invert D = phi_B(A) with none of
this: Newton's identities give a characteristic polynomial from the
traces of powers, and one subresultant remainder sequence gives the
resultant of two polynomials and its cofactor (_resultant).  Both name
no number type: they run on the block values of _spinor, integers, or
for the one complex block of M(N/2, C) Gaussian integers
(_spinor._Gaussian).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    RATIONAL,
    Multivector,
    _require_finite,
    center_project,
    natural,
    sharp,
)
from .errors import (
    InternalError,
    NumericalDegradationError,
    SingularElementError,
)

ZERO_TOL = 1e-9


def _within_det_scale(value, b):
    """abs(value) <= ZERO_TOL * (1 + max|b|**N), the zero test for
    determinant-sized quantities, which scale like the N-th power of the
    coefficient size.  The power is split with frexp, and compared in
    log space where it would overflow a float."""
    value = abs(value)
    big_n = b.sig.charpoly_degree
    mant, exp = math.frexp(float(b.max_abs_coeff()))
    mant **= big_n
    exp *= big_n
    if exp < 1000:
        return value <= ZERO_TOL * (1.0 + math.ldexp(mant, exp))
    # The threshold exceeds 2**(1000 - N): the 1 is far below its ulp.
    if not 0 < value < math.inf:
        return value == 0
    return math.log2(value) <= math.log2(ZERO_TOL) + math.log2(mant) + exp


@dataclass(frozen=True)
class CharPolyData:
    """Iterates B_(1)..B_(N), scalar coefficients b_(1)..b_(N) and the
    differences B_(k) - b_(k), k < N, that the recursion multiplies by B.

    The characteristic polynomial is
    lambda**N - b_(1) lambda**(N-1) - ... - b_(N).
    """

    sig: object
    iterates: tuple
    coeffs: tuple
    differences: tuple

    @property
    def degree(self):
        return len(self.coeffs)

    def determinant(self):
        det = -self.coeffs[-1]
        # A zero f64 b_N would give -0.0.
        return det if det else abs(det)

    def adjugate(self):
        b = self.iterates[0]
        return Multivector.scalar(b.sig, self.coeffs[-2], b.ring) - self.iterates[-2]


@dataclass(frozen=True)
class GeneralizedCoeffs:
    """Central-valued coefficient sequence for odd n: N/2 iterates, N/2
    coefficients, each living in the center Cl^0 + Cl^n, and the
    differences B'_(k) - b'_(k), k < N/2."""

    sig: object
    iterates: tuple
    coeffs: tuple
    differences: tuple


def _faddeev_leverrier(b, length, project):
    """Iterates, coefficients c_(k) = project(B_(k), length/k) (each a
    multivector) and differences B_(k) - c_(k) of `length` steps."""
    iterates = []
    coeffs = []
    differences = []
    cur = b
    for k in range(1, length + 1):
        ck = project(cur, Fraction(length, k))
        iterates.append(cur)
        coeffs.append(ck)
        if k < length:
            differences.append(cur - ck)
            cur = b * differences[-1]
    return tuple(iterates), tuple(coeffs), tuple(differences)


def _scalar_coeff(u, ratio):
    return type(u).scalar(u.sig, ratio * u.scalar_part(), u.ring)


def _central_coeff(u, ratio):
    return center_project(u).scale(ratio)


def char_poly(b):
    """Run the full N-step recursion on b.

    For exact scalars the final iterate is checked to be a pure scalar
    (a consequence of Cayley-Hamilton); for floats a residue that fails
    the zero test raises NumericalDegradationError.
    """
    _require_finite(b)
    iterates, coeffs, differences = _faddeev_leverrier(
        b, b.sig.charpoly_degree, _scalar_coeff
    )
    coeffs = tuple(c.scalar_part() for c in coeffs)
    # An overflowed f64 recursion leaves inf - inf = nan in the residue
    # too; report the overflow, not the nan.
    if b.ring != RATIONAL and not all(map(math.isfinite, coeffs)):
        raise NumericalDegradationError(
            "a characteristic-polynomial coefficient overflows"
        )
    _as_scalar(iterates[-1], b)
    return CharPolyData(b.sig, iterates, coeffs, differences)


def determinant(b):
    return char_poly(b).determinant()


def adjugate(b):
    """Adj(B) = b_(N-1) - B_(N-1); satisfies B Adj(B) = Det(B) e."""
    return char_poly(b).adjugate()


def is_zero_scalar(value, b):
    """Ring-aware zero test for a determinant-sized scalar derived
    from the element b."""
    if b.ring == RATIONAL:
        return value == 0
    return _within_det_scale(value, b)


def inverse(b):
    data = char_poly(b)
    det = data.determinant()
    if is_zero_scalar(det, b):
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
    return GeneralizedCoeffs(
        sig,
        *_faddeev_leverrier(b, sig.charpoly_degree // 2, _central_coeff),
    )


def _as_scalar(u, reference):
    residue = u.nonscalar_norm()
    if u.ring == RATIONAL:
        if residue != 0:
            raise InternalError("expected a pure scalar result")
    elif not _within_det_scale(residue, reference):
        raise NumericalDegradationError(
            f"non-scalar residue {residue} in a determinant expression"
        )
    return u.scalar_part()


def _trim(poly):
    """poly, coefficients lowest degree first, without zero leading ones."""
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _newton(sums):
    """The monic polynomial of degree L = len(sums), coefficients lowest
    degree first, whose L roots have the power sums p_1..p_L.  By Newton's
    identities its coefficient of lambda**(L-k) is
    -(1/k) sum_(i=1..k) (that of lambda**(L-k+i)) p_i; each division is
    exact when the p_k are the traces of the powers of an integer matrix."""
    top = [1]
    for k in range(1, len(sums) + 1):
        top.append(-sum(top[k - i] * sums[i - 1] for i in range(1, k + 1)) // k)
    return top[::-1]


def _pseudo_divide(f, g):
    """(q, r) with lc(g)**(deg f - deg g + 1) f = q g + r and deg r < deg g,
    coefficients lowest degree first."""
    lead, low = g[-1], g[:-1]
    r = list(f)
    q = [0] * (len(f) - len(low))
    for j in reversed(range(len(q))):
        c = r.pop()
        r = [x * lead for x in r]
        q = [x * lead for x in q]
        q[j] = c
        if c:
            for i, y in enumerate(low):
                r[j + i] -= c * y
    return q, r


def _resultant(f, g):
    """(Res(f, g), t) for a monic f and deg g < deg f, over the integers or
    the Gaussian integers: t has degree < deg f and t g = Res(f, g)
    modulo f.  (0, None) when f and g have a common factor.

    Brown's subresultant remainder sequence, r_(i+1) = prem(r_(i-1), r_i)
    / beta_i from r_0 = f, r_1 = g, keeps every remainder a subresultant
    (Collins, J. ACM 1967; Brown and Traub, J. ACM 1971), so every
    division is exact, degree gaps included.  It carries each remainder's
    cofactor t_i of g, r_i = s_i f + t_i g.  With d_i = deg r_(i-1) -
    deg r_i and psi_1 = -1:

        beta_i = -lc(r_(i-1)) psi_i**d_i         (lc(r_0) = 1),
        psi_(i+1) = (-lc(r_i))**d_i / psi_i**(d_i - 1),

    and for a last remainder r_k of degree 0, Res(f, g) = -psi_(k+1),
    with its cofactor t_k Res / r_k."""
    g = _trim(list(g))
    if not g:
        return 0, None
    prev, cur, t_prev, t_cur = f, g, [], [1]
    lead_prev, psi = 1, -1
    while True:
        d, lead = len(prev) - len(cur), cur[-1]
        psi_next = (-lead) ** d // psi ** (d - 1)
        if len(cur) == 1:
            res = -psi_next
            return res, [c * res // lead for c in t_cur]
        beta = -lead_prev * psi ** d
        q, r = _pseudo_divide(prev, cur)
        r = _trim([c // beta for c in r])
        if not r:
            return 0, None
        scale = lead ** (d + 1)
        t_next = [scale * c for c in t_prev] + [0] * (len(q) + len(t_cur) - 1 - len(t_prev))
        for i, a in enumerate(q):
            for j, b in enumerate(t_cur):
                t_next[i + j] -= a * b
        prev, cur, t_prev, t_cur = cur, r, t_cur, [c // beta for c in t_next]
        lead_prev, psi = lead, psi_next


def _closed_adjugate(b, sharp_form=False):
    """Per-dimension closed adjugate, n <= 5: b * _closed_adjugate(b)
    is the scalar Det(b).  At n = 4, sharp_form takes tilde(b) sharp(b)
    for hat(tilde(b)) natural(b); the two agree but for f64 rounding."""
    n = b.sig.dim
    if n == 1:
        return b.hat()
    if n == 2:
        return b.tilde().hat()
    if n == 3:
        bt = b.tilde()
        return b.hat() * bt * bt.hat()
    if n == 4:
        return b.tilde() * sharp(b) if sharp_form else b.tilde().hat() * natural(b)
    if n == 5:
        bt, bs = b.tilde(), sharp(b)
        core = b * bt * bs
        return bt * bs * core.triangle()
    raise ValueError(f"no closed determinant form for n = {n}")


def closed_form_det(b):
    """Per-dimension closed determinant forms, n <= 5.

    Cross-check oracle for determinant(); not used by the solvers.
    """
    return _as_scalar(b * _closed_adjugate(b), b)
