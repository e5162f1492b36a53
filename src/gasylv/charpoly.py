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

On blades the recursion runs in the subalgebra S that b's own blades
span (algebra.Span): r is the GF(2) rank of b's nonzero blade masks, and
S has 2**r coordinates.  Left multiplication by an element of S on S
has trace 2**r <.>_0 (a blade other than the scalar moves every basis
element of S to another), so the paper's power sums Tr(B**k) = N
<B**k>_0 are N / 2**r times those on S.  Where L = 2**r <= N, the
L steps with c_(k) = (L/k) <B_(k)>_0 give the characteristic polynomial
chi_L of B on S, and then

    chi_B = chi_L**(N/L),   Det = Det_L**(N/L),
    Adj = Det_L**(N/L - 1) Adj_L,   B**-1 = Adj_L / Det_L

(_spanned; the adjugate identity follows from B Adj_L = Det_L).  Where
2**r > N, the same N steps run on S's 2**r coefficients.  For odd n,
where S holds no pseudoscalar, the center meets S in the scalars, so
the central coefficients are the scalar ones of chi_L**(N/(2L)) with L =
min(N/2, 2**r); where it does, the N/2 central steps run in S's
coordinates.  The route follows from r and n alone: blades that span
all n generators are their own coordinates, and the N steps run on
them.  On the spinor matrices the N steps run as before.

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
from functools import cache, partial

from . import _spinor
from .algebra import (
    RATIONAL,
    Multivector,
    Span,
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
        """b_(N-1) - B_(N-1), and -1 for N = 1, whose B_(0) - b_(0) is 1."""
        b = self.iterates[0]
        if self.degree == 1:
            return type(b).scalar(b.sig, -1, b.ring)
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


def _require_finite_coeffs(coeffs, ring):
    # An overflowed f64 recursion leaves inf - inf = nan in the residue
    # too; report the overflow, not the nan.
    if ring != RATIONAL and not all(map(math.isfinite, coeffs)):
        raise NumericalDegradationError(
            "a characteristic-polynomial coefficient overflows"
        )


def _char_poly(b, length=None):
    """char_poly on b's own kernel, with that kernel's values: `length`
    steps, by default N, whose last iterate must be a scalar."""
    length = length or b.sig.charpoly_degree
    iterates, coeffs, differences = _faddeev_leverrier(b, length, _scalar_coeff)
    _require_finite_coeffs(coeffs, b.ring)
    _as_scalar(iterates[-1], b, length)
    return CharPolyData(b.sig, iterates, coeffs, differences)


def _generalized(b, length=None):
    """`length` steps of the central recursion on b, on b's kernel, by
    default N/2."""
    length = length or b.sig.charpoly_degree // 2
    return GeneralizedCoeffs(b.sig, *_faddeev_leverrier(b, length, _central_coeff))


def _rerun(cls, sig, b, length, step, coeffs):
    """cls data of the given coefficients, whose iterates and differences
    are those of `length` steps of step on b, run on the first read of
    either."""
    run = cache(partial(_faddeev_leverrier, b, length, step))
    return cls(sig, partial(_field, run, 0), coeffs, partial(_field, run, 2))


def _field(run, index):
    return run()[index]


def _spanned(b):
    """(data, power): the scalar recursion of b in the coordinates of the
    subalgebra S that its blades span, L = min(N, 2**r) steps, and
    power = N / L.  Its Det_L and Adj_L give b's, Det_L**power and
    Det_L**(power - 1) Adj_L.  On the matrices, and where b's blades
    span all n generators, it is the N steps on b itself."""
    span = Span.of(b) if isinstance(b, Multivector) else None
    if span is None:
        return _char_poly(b), 1
    big_n = b.sig.charpoly_degree
    length = min(big_n, span.ncoeffs)
    return _char_poly(span.of_blades(b), length), big_n // length


def _power(x, k):
    """x**k by binary powering, so that an f64 power past the range is
    inf, as a product is, where ** raises."""
    result = 1
    while k:
        if k & 1:
            result = result * x
        k >>= 1
        if k:
            x = x * x
    return result


def _poly_power(coeffs, power):
    """The coefficients b_(k) of chi**power, for chi = lambda**L -
    b_(1) lambda**(L-1) - ... - b_(L), coeffs its b_(k), and power a
    power of two."""
    poly = [1, *(-c for c in coeffs)]
    while power > 1:
        poly, power = _poly_product(poly, poly), power // 2
    # 0 - c, so that a zero f64 coefficient is 0.0, not -0.0.
    return tuple(0 - c for c in poly[1:])


def _poly_product(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, c in enumerate(g):
            out[i + j] += a * c
    return out


def _det(data, power):
    """Det = Det_L**power of a recursion of _spanned; an f64 one past
    the range is refused as its coefficient b_(N) would be."""
    det = _power(data.determinant(), power)
    _require_finite_coeffs((det,), data.iterates[0].ring)
    return det


def _inverse_parts(b):
    """(Adj(b), Det(b)) of b on blades or matrices, Adj(b) on b's kernel:
    Det_L**(power - 1) Adj_L and Det_L**power (_spanned)."""
    data, power = _spanned(b)
    adj = data.adjugate()
    if power > 1:
        adj = _times(adj, _power(data.determinant(), power - 1))
    if type(adj.sig) is Span:
        adj = adj.sig.to_blades(adj)
    return adj, _det(data, power)


def _blades(u, den=1):
    """A value computed on any kernel over den, in one exact division: an
    element as a Multivector on blades, a scalar as a number."""
    if isinstance(u, _spinor.SpinorMatrix):
        u = u.multivector()
    elif not isinstance(u, Multivector):
        return _value(u, den)
    if den != 1:
        u = _times(u, Fraction(1) / den)
    return u.sig.to_blades(u) if type(u.sig) is Span else u


def _public(data, sig, s):
    """The data of a recursion on s b as that of b in sig: the k-th value
    over s**k, the iterates and differences read and converted on first
    read."""

    def back(name):
        values = getattr(data, name)
        return tuple(_blades(u, s ** k) for k, u in enumerate(values, start=1))

    return type(data)(
        sig, partial(back, "iterates"), back("coeffs"), partial(back, "differences")
    )


def char_poly(b):
    """The characteristic polynomial of b, where _spinor.enter puts it,
    from the recursion in the span of b's blades (_spanned): where that
    takes L < N steps, its coefficients are those of chi_L**(N/L), and
    its iterates and differences those of the N steps, run in S's
    coordinates when first read.

    For exact scalars the final iterate is checked to be a pure scalar
    (a consequence of Cayley-Hamilton); for floats a residue that fails
    the zero test raises NumericalDegradationError.
    """
    (m,), s = _spinor.enter([b])
    data, power = _spanned(m)
    if power > 1:
        coeffs = _poly_power(data.coeffs, power)
        _require_finite_coeffs(coeffs, b.ring)
        data = _rerun(
            CharPolyData, b.sig, data.iterates[0], b.sig.charpoly_degree,
            _scalar_coeff, coeffs,
        )
    return _public(data, b.sig, s)


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
    """Det(B) = -b_(N) = Det_L**(N/L) (_spanned)."""
    (m,), s = _spinor.enter([b])
    return _blades(_det(*_spanned(m)), s ** b.sig.charpoly_degree)


def adjugate(b):
    """Adj(B) = b_(N-1) - B_(N-1) = Det_L**(N/L - 1) Adj_L (_spanned);
    satisfies B Adj(B) = Det(B) e."""
    (m,), s = _spinor.enter([b])
    return _blades(_inverse_parts(m)[0], s ** (b.sig.charpoly_degree - 1))


def is_zero_scalar(value, b, degree=None):
    """Whether a determinant-sized scalar derived from the element b is
    zero: exactly in the rational ring, and in f64 when it is finite and
    |value| <= ZERO_TOL * (1 + max|b|**N), for such values scale like
    the N-th power of b's coefficients; a recursion of fewer steps gives
    its own degree in place of N.  The bound is compared on the exact
    ratios of the floats, as integers, so it cannot overflow."""
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
    big_n = degree or b.sig.charpoly_degree
    return v * dt * dm ** big_n <= t * dv * (dm ** big_n + m ** big_n)


def inverse(b):
    """B**-1 = Adj(B) / Det(B) = Adj_L / Det_L (_spanned), where Det(B)
    is not zero.  An f64 Det(B) past the range is not zero, and Adj_L /
    Det_L is in range."""
    (m,), s = _spinor.enter([b])
    data, power = _spanned(m)
    det_l = data.determinant()
    det = _blades(_power(det_l, power), s ** b.sig.charpoly_degree)
    if is_zero_scalar(det, b):
        raise SingularElementError(f"element has determinant {det}")
    length = data.degree
    return _blades(data.adjugate(), s ** (length - 1) * _value(det_l, s ** length))


def generalized_coeffs(b):
    """Central coefficient sequence for odd n.

    Runs N/2 steps of the recursion with the center projection in place
    of the scalar projection; the k-th coefficient is
    ((N/2)/k) <B'_(k)>_cen, a multivector in Cl^0 + Cl^n.  On blades it
    runs in the coordinates of the span S of b's blades.  Where S holds
    the pseudoscalar, those are the N/2 central steps.  Where it does
    not, the center meets S in the scalars alone, so the central steps
    are the scalar ones, and the coefficients are those of
    chi_L**(N/(2L)) for the L = min(N/2, 2**r) scalar steps on S; the
    iterates and differences are the N/2 central steps', run when first
    read.
    """
    if b.sig.dim % 2 == 0:
        raise ValueError("generalized coefficients are defined for odd n")
    (m,), s = _spinor.enter([b])
    half = b.sig.charpoly_degree // 2
    span = Span.of(m) if isinstance(m, Multivector) else None
    if span is None:
        data = _generalized(m)
    elif span.holds_pseudoscalar:
        data = _generalized(span.of_blades(m), half)
    else:
        inside = span.of_blades(m)
        length = min(half, span.ncoeffs)
        coeffs = _poly_power(_char_poly(inside, length).coeffs, half // length)
        _require_finite_coeffs(coeffs, b.ring)
        central = tuple(Multivector.scalar(b.sig, c, b.ring) for c in coeffs)
        data = _rerun(GeneralizedCoeffs, b.sig, inside, half, _central_coeff, central)
    return _public(data, b.sig, s)


def _as_scalar(u, reference, degree=None):
    residue = u.nonscalar_norm()
    if is_zero_scalar(residue, reference, degree):
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
