"""Characteristic polynomial, determinant, adjugate, and inverse of a
multivector, via one Faddeev-LeVerrier recursion

    B_(1) = B,   B_(k+1) = B (B_(k) - c_(k)),   c_(k) = (L/k) P(B_(k)),

run with two projections P: L = N = 2**ceil(n/2) steps of the scalar
part give the characteristic polynomial (c_(k) = b_(k)), and for odd n
L = N/2 steps of the center projection give the generalized central
coefficients that halve the recursion.  The loop needs only products,
sums and the projection, so it runs on either kernel; on blades the
scalar step forms c_(k) and B_(k) - c_(k) from the scalar numerator of
B_(k) (algebra._scalar_step).  The public functions take b where a
solve would (_spinor.enter): times the lcm s of its denominators, on
the spinor matrices where pays_off(b, b) holds.  A value of degree k is
then divided by s**k once, and iterates and differences go back to
blades when first read.  Closed-form
determinant expressions for n <= 5 serve as cross-check oracles; the
closed adjugates they multiply are also those of the closed-form solvers.

The exact solvers on spinor matrices run none of this.  Newton's
identities give a characteristic polynomial from the traces of powers
(_trace_coeffs, from the baby and giant steps of Paterson and Stockmeyer
in _spinor.power_traces), and one subresultant remainder sequence gives
the resultant of two polynomials and its cofactor (_resultant).  Both
name no number type: they run on the block values of _spinor,
integers, or for the one complex block of M(N/2, C) Gaussian integers
(_spinor._Gaussian).  The public functions keep the recursion on every
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import _spinor
from .algebra import (
    RATIONAL,
    Multivector,
    _require_finite,
    _scalar_step,
    _times,
    _value,
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


class _OnFirstRead:
    """A field of a frozen dataclass that may be given as a partial,
    called on the first read of the field and then kept.  Solves and
    public recursions pass values so: their conversion back to blades,
    or division, is paid only where they are read."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            # The field has no default (dataclass reads it on the class).
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if isinstance(value, partial):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class CharPolyData:
    """Iterates B_(1)..B_(N), scalar coefficients b_(1)..b_(N) and the
    differences B_(k) - b_(k), k < N, that the recursion multiplies by B.

    The characteristic polynomial is
    lambda**N - b_(1) lambda**(N-1) - ... - b_(N).
    """

    sig: object
    iterates: tuple = _OnFirstRead()
    coeffs: tuple
    differences: tuple = _OnFirstRead()

    @property
    def degree(self):
        return len(self.coeffs)

    def determinant(self):
        det = -self.coeffs[-1]
        # A zero f64 b_N would give -0.0.
        return det if det else abs(det)

    def adjugate(self):
        b = self.iterates[0]
        return type(b).scalar(b.sig, self.coeffs[-2], b.ring) - self.iterates[-2]


@dataclass(frozen=True)
class GeneralizedCoeffs:
    """Central-valued coefficient sequence for odd n: N/2 iterates, N/2
    coefficients, each living in the center Cl^0 + Cl^n, and the
    differences B'_(k) - b'_(k), k < N/2."""

    sig: object
    iterates: tuple = _OnFirstRead()
    coeffs: tuple
    differences: tuple = _OnFirstRead()


def _faddeev_leverrier(b, length, step):
    """Iterates, coefficients and differences B_(k) - c_(k) of `length`
    steps: step(B_(k), length, k, k < length) gives c_(k) and, where its
    last argument holds, the difference."""
    iterates = []
    coeffs = []
    differences = []
    cur = b
    for k in range(1, length + 1):
        ck, difference = step(cur, length, k, k < length)
        iterates.append(cur)
        coeffs.append(ck)
        if difference is not None:
            differences.append(difference)
            cur = b * difference
    return tuple(iterates), tuple(coeffs), tuple(differences)


def _scalar_coeff(u, length, k, differ):
    """c_(k) = (length/k) <u>_0, a number, and u - c_(k): on blades from
    u's scalar numerator alone (algebra._scalar_step)."""
    if isinstance(u, Multivector):
        return _scalar_step(u, length, k, differ)
    ck = type(u).scalar(u.sig, Fraction(length, k) * u.scalar_part(), u.ring)
    return ck.scalar_part(), (u - ck if differ else None)


def _central_coeff(u, length, k, differ):
    """c_(k) = (length/k) <u>_cen, a central element, and u - c_(k)."""
    ck = center_project(u).scale(Fraction(length, k))
    return ck, (u - ck if differ else None)


def _char_poly(b):
    """char_poly on b's own kernel, with that kernel's values."""
    iterates, coeffs, differences = _faddeev_leverrier(
        b, b.sig.charpoly_degree, _scalar_coeff
    )
    # An overflowed f64 recursion leaves inf - inf = nan in the residue
    # too; report the overflow, not the nan.
    if b.ring != RATIONAL and not all(map(math.isfinite, coeffs)):
        raise NumericalDegradationError(
            "a characteristic-polynomial coefficient overflows"
        )
    _as_scalar(iterates[-1], b)
    return CharPolyData(b.sig, iterates, coeffs, differences)


def _generalized(b):
    """The N/2 steps of the central recursion on b, on b's kernel."""
    return GeneralizedCoeffs(
        b.sig, *_faddeev_leverrier(b, b.sig.charpoly_degree // 2, _central_coeff)
    )


def _blades(u, den=1):
    """A value computed on either kernel over den, in one exact division:
    an element as a Multivector, a scalar as a number."""
    if isinstance(u, _spinor.SpinorMatrix):
        u = u.multivector()
    elif not isinstance(u, Multivector):
        return _value(u, den)
    return u if den == 1 else _times(u, Fraction(1) / den)


def _public(data, s):
    """The data of a recursion on s b as that of b: the k-th value over
    s**k, the iterates and differences converted on first read."""

    def back(values):
        return tuple(_blades(u, s ** k) for k, u in enumerate(values, start=1))

    return type(data)(
        data.sig, partial(back, data.iterates), back(data.coeffs),
        partial(back, data.differences),
    )


def char_poly(b):
    """Run the full N-step recursion on b, where _spinor.enter puts it.

    For exact scalars the final iterate is checked to be a pure scalar
    (a consequence of Cayley-Hamilton); for floats a residue that fails
    the zero test raises NumericalDegradationError.
    """
    (m,), s = _spinor.enter([b])
    return _public(_char_poly(m), s)


def _trace_coeffs(b, central=False):
    """(coeffs, babies) of the exact matrix b: its L coefficients c_(k),
    from the power sums of _spinor.power_traces by Newton's identities,
    and the baby steps they were read from.  The char poly (L = N) has plain
    numbers b_(k), its power sums N times the scalar parts of the powers:
    the sums of the block traces, twice the real part of the one trace
    where M(N/2, C) keeps one block.  The central coefficients (odd n,
    L = N/2) are per block those of the block's own char poly."""
    degree = b.sig.charpoly_degree
    length = degree // 2 if central else degree
    traces, babies = _spinor.power_traces(b, length)
    if central:
        polys = [_newton(block) for block in zip(*traces)]
        coeffs = [b.central([-p[length - k] for p in polys]) for k in range(1, length + 1)]
    else:
        share = degree // b.rep.degree
        poly = _newton([share * sum(t.real for t in block) for block in traces])
        coeffs = [-poly[length - k] for k in range(1, length + 1)]
    return tuple(coeffs), babies


def determinant(b):
    (m,), s = _spinor.enter([b])
    return _blades(_char_poly(m).determinant(), s ** b.sig.charpoly_degree)


def adjugate(b):
    """Adj(B) = b_(N-1) - B_(N-1); satisfies B Adj(B) = Det(B) e."""
    (m,), s = _spinor.enter([b])
    return _blades(_char_poly(m).adjugate(), s ** (b.sig.charpoly_degree - 1))


def is_zero_scalar(value, b):
    """Whether a determinant-sized scalar derived from the element b is
    zero: exactly in the rational ring, and in f64 when it is finite and
    |value| <= ZERO_TOL * (1 + max|b|**N), for such values scale like
    the N-th power of b's coefficients.  The bound is compared on the
    exact ratios of the floats, as integers, so it cannot overflow."""
    if b.ring == RATIONAL:
        return value == 0
    if not math.isfinite(value):
        return False
    v, dv = abs(value).as_integer_ratio()
    t, dt = ZERO_TOL.as_integer_ratio()
    norm = b.max_abs_coeff()
    # A NaN or infinite coefficient of b leaves no bound to compare with.
    if not math.isfinite(norm):
        return False
    m, dm = norm.as_integer_ratio()
    big_n = b.sig.charpoly_degree
    return v * dt * dm ** big_n <= t * dv * (dm ** big_n + m ** big_n)


def inverse(b):
    (m,), s = _spinor.enter([b])
    data = _char_poly(m)
    det = _blades(data.determinant(), s ** b.sig.charpoly_degree)
    if is_zero_scalar(det, b):
        raise SingularElementError(f"element has determinant {det}")
    return _blades(data.adjugate(), s ** (b.sig.charpoly_degree - 1) * det)


def generalized_coeffs(b):
    """Central coefficient sequence for odd n.

    Runs N/2 steps of the recursion with the center projection in place
    of the scalar projection; the k-th coefficient is
    ((N/2)/k) <B'_(k)>_cen, a multivector in Cl^0 + Cl^n.
    """
    if b.sig.dim % 2 == 0:
        raise ValueError("generalized coefficients are defined for odd n")
    (m,), s = _spinor.enter([b])
    return _public(_generalized(m), s)


def _as_scalar(u, reference):
    residue = u.nonscalar_norm()
    if is_zero_scalar(residue, reference):
        return u.scalar_part()
    if u.ring == RATIONAL:
        raise InternalError("expected a pure scalar result")
    raise NumericalDegradationError(
        f"non-scalar residue {residue} in a determinant expression"
    )


def _trim(poly):
    """poly, coefficients lowest degree first, without zero leading ones."""
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _newton(sums):
    """The monic polynomial of degree L = len(sums), coefficients lowest
    degree first, whose L roots have the power sums p_1..p_L.  By Newton's
    identities its coefficient of lambda**(L-k) is
    -(1/k) sum_(i=1..k) (that of lambda**(L-k+i)) p_i.  Each division is
    exact when the p_k are the traces of the powers of an integer or
    Gaussian-integer matrix; a remainder raises InternalError."""
    top = [1]
    for k in range(1, len(sums) + 1):
        total = -sum(top[k - i] * sums[i - 1] for i in range(1, k + 1))
        coeff = total // k
        if coeff * k != total:
            raise InternalError(
                f"power sum {k} is not that of an integer matrix's powers"
            )
        top.append(coeff)
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
    _require_finite(b)
    return _as_scalar(b * _closed_adjugate(b), b)
