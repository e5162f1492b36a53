"""Basis-free solvers for the Sylvester equation AX - XB = C in Cl(p,q).

Every method runs one core (_solve).  It assembles D = phi_B(A), the
characteristic polynomial of B evaluated at A, and a matching
right-hand combination F with D X = F, from the coefficients c_(k) of
a Faddeev-LeVerrier recursion on B and its differences
B_(k) - c_(k); then it inverts D.  The general recursion takes all N
coefficients of B, the odd-n one the N/2 generalized central ones.  The
closed forms for n = 1..5 are that same recursion with its differences
written as the paper's conjugation products of B; the coefficients
follow from them.  The closed forms invert D by the closed adjugate of
their dimension.  On exact spinor matrices the recursions invert D
through the resultant of A's and B's characteristic polynomials, from
the powers of A already assembled and with no product; in f64 and on
blades, by D's own characteristic polynomial (see _adjugate).
One table states the n each method accepts; the default is
the first method accepting n.  At odd n the full phi_B(A) can vanish on
a problem that is not singular, so a zero Q from general is retried
with general_odd.

A rational problem is solved as integers, scaled once (see _solve).
The recursions run on one of two kernels, chosen from the problem
alone: the blade loop of Multivector, or, for dense operands from n = 5
in the rational ring and n = 6 in f64, the spinor matrices of _spinor,
N x N complex matrices whose product costs O(N**3) against the blade
loop's 4**n.  The closed forms, which conjugate, stay on blades, and
the default skips them where the matrices pay off.  In the rational
ring both kernels give the same D, F, M and Q, and an answer is checked
on the kernel that computed it: AM - MB - QC = 0 on the numerator
M = Adj(D)F is Q times AX - XB - C, and X = M / Q is the one division.
D and F go back to blades when the solution's fields are first read.
In f64 the kernels differ by rounding, and the residual check judges
either answer on the blades, where the flag is defined.

A float answer is flagged low_confidence when its residual is not
finite or not within RESIDUAL_TOL * (1 + |A||X| + |X||B|) in the max
norm.  A float D or Q that overflows is refused with
NumericalDegradationError, under every method.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from math import isfinite, lcm
from operator import add, mul
from typing import NamedTuple

from . import _spinor
from .algebra import (
    FLOAT64,
    MAX_DIM,
    RATIONAL,
    Multivector,
    _require_finite,
    _value,
    conjugate,
    natural,
    sharp,
)
from .charpoly import (
    _as_scalar,
    _closed_adjugate,
    _newton,
    _resultant,
    char_poly,
    generalized_coeffs,
    inverse,
    is_zero_scalar,
)
from .errors import (
    InternalError,
    NumericalDegradationError,
    ResidualCheckFailedError,
    SingularProblemError,
)

RESIDUAL_TOL = 1e-8

CLOSED_N1 = "closed_n1"
CLOSED_N2 = "closed_n2"
CLOSED_N3 = "closed_n3"
CLOSED_N4_V1 = "closed_n4_v1"
CLOSED_N4_V2 = "closed_n4_v2"
CLOSED_N5 = "closed_n5"
GENERAL = "general"
GENERAL_ODD = "general_odd"
_RECURSIONS = (GENERAL, GENERAL_ODD)

@dataclass(frozen=True)
class SylvesterProblem:
    a: Multivector
    b: Multivector
    c: Multivector

    def __post_init__(self):
        self.a._check_compat(self.b)
        self.a._check_compat(self.c)
        _require_finite(self.a, self.b, self.c)

    @property
    def sig(self):
        return self.a.sig

    @property
    def ring(self):
        return self.a.ring


class _OnFirstRead:
    """A Multivector field of SylvesterSolution that may be given as a
    partial, called on the first read of the field and then kept.  A
    solve on the spinor matrices passes D and F so: their conversion
    back to blades is paid only where they are read."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, sol, owner=None):
        if sol is None:
            # The field has no default (dataclass reads it on the class).
            raise AttributeError(self.name)
        value = sol.__dict__[self.name]
        if isinstance(value, partial):
            value = sol.__dict__[self.name] = value()
        return value

    def __set__(self, sol, value):
        sol.__dict__[self.name] = value


@dataclass(frozen=True)
class SylvesterSolution:
    x: Multivector
    q: object
    d: Multivector = _OnFirstRead()
    f: Multivector = _OnFirstRead()
    method: str
    residual: object
    low_confidence: bool = False


def verify_residual(prob, x):
    """Max-norm of A X - X B - C; exactly zero for exact solutions."""
    return (prob.a * x - x * prob.b - prob.c).max_abs_coeff()


def _powers(a, top):
    """[e, A, A**2, ..., A**top] with one product per entry."""
    pw = [type(a).scalar(a.sig, 1, a.ring)]
    for _ in range(top):
        pw.append(pw[-1] * a)
    return pw


def _assemble_d(pw, coeffs):
    """D = A**L - c_(1) A**(L-1) - ... - c_(L) for the L coefficients of
    a recursion on B; a scalar c_(k) scales, a central one multiplies."""
    length = len(coeffs)
    d = pw[length]
    for j, cj in enumerate(coeffs, start=1):
        d = d - pw[length - j] * cj
    return d


def _assemble_f(pw, c, differences):
    """F = A**(L-1) C + sum_j A**(L-j) C (B_(j-1) - c_(j-1)), j = 2..L."""
    length = len(differences) + 1
    f = pw[length - 1] * c
    for j, diff in enumerate(differences, start=2):
        f = f + pw[length - j] * c * diff
    return f


def build_D_general(a, b):
    """D = A**N - b_(1) A**(N-1) - ... - b_(N) with the b_(k) taken from
    the characteristic polynomial of b."""
    data = char_poly(b)
    return _assemble_d(_powers(a, data.degree), data.coeffs)


def build_F_general(a, b, c):
    """F = sum_j A**(N-j) C (B_(j-1) - b_(j-1)); the j = 1 term is
    A**(N-1) C."""
    data = char_poly(b)
    return _assemble_f(_powers(a, data.degree - 1), c, data.differences)


def _closed_differences(b, method):
    """The differences e_k = B_(k) - c_(k) of a closed form, as the
    paper's conjugation products of B; at n = 4, 5 from the tilde/sharp
    list or (closed_n4_v1) the hat-tilde/natural one."""
    if method == CLOSED_N1:
        return ()
    if method in (CLOSED_N2, CLOSED_N3):
        return (-b.tilde().hat(),)
    t2 = conjugate(b.hat(), "triangle")
    if method == CLOSED_N4_V1:
        t1, t3, top = b.tilde().hat(), conjugate(b.tilde(), "triangle"), natural(b)
    else:
        t1, t3, top = b.tilde(), conjugate(b.hat().tilde(), "triangle"), sharp(b)
    return (-(t1 + t2 + t3), t1 * t2 + t1 * t3 + top, -(t1 * top))


def _coefficients(b, method):
    """B's coefficients c_(k) and differences e_k = B_(k) - c_(k) for a
    method.  The recursions run their Faddeev-LeVerrier recursion; a
    closed form states its differences, and its coefficients follow from
    the same relation, B_(1) = B, B_(k+1) = B e_k, c_(L) = B_(L)."""
    if method in _RECURSIONS:
        data = char_poly(b) if method == GENERAL else generalized_coeffs(b)
        return data.coeffs, data.differences
    differences = _closed_differences(b, method)
    coeffs, cur = [], b
    for diff in differences:
        coeffs.append(cur - diff)
        cur = b * diff
    return (*coeffs, cur), differences


class _Phi(NamedTuple):
    """D = phi_B(A) and what it was assembled from: the powers
    A**0..A**L and B's L coefficients."""

    d: object
    powers: list
    coeffs: tuple


def _adjugate(phi, method):
    """(Adj, Q) with D Adj = Q e.  The closed forms take the closed
    adjugate of their dimension, at n = 4 that of their variant.  The
    recursions take -Adj(D) and -Det(D), differences[-1] and b_N of the
    char poly of D.  On exact spinor matrices, which hold dense
    operands, they come through the resultant of A's and B's char polys
    (_resultant_adjugate).  In f64, where a remainder sequence is
    unstable, and on blades, where sparse operands keep D's own
    recursion cheaper than the degree-N remainder sequence, they come
    from the char poly of D."""
    d = phi.d
    if method not in _RECURSIONS:
        adj = _closed_adjugate(d, sharp_form=method == CLOSED_N4_V2)
        return adj, _as_scalar(d * adj, d)
    if d.ring == FLOAT64 or isinstance(d, Multivector):
        inv = char_poly(d)
        return inv.differences[-1], inv.coeffs[-1]
    return _resultant_adjugate(phi, method)


def _sum_at_a(pw, columns):
    """sum_k T_k pw[k] for the central T_k whose block values are
    columns[k]: blockwise scalings and sums."""
    return reduce(add, (
        u * pw[0].central(values) for u, values in zip(pw, columns) if any(values)
    ))


def _resultant_adjugate(phi, method):
    """(-Adj(D), -Det(D)) for D = phi_B(A) on exact spinor matrices, with
    no recursion on D.  D is a polynomial in A, so Det(D) = Res(phi_A,
    phi_B) for the characteristic polynomial phi_A of A, and Adj(D) =
    t(A) for the t with t phi_B = Det(D) modulo phi_A (Jameson, SIAM J.
    Appl. Math. 1968).  phi_A comes from the power sums tr(A**k) by
    Newton's identities, checked by phi_A(A) = 0 on the powers; Res and
    t from one subresultant remainder sequence of phi_A and phi_B -
    phi_A.

    general takes the degree-N polynomials of A and B; a power sum is N
    times a scalar part.  general_odd takes them per block, for D's
    central coefficients differ between the blocks; a power sum is the
    block size N/2 times a block value.  Det(D) is the product of the
    block determinants, with the conjugate block's where M(N/2, C) keeps
    one, and Adj(D) on a block is its t(A) times the other
    determinant."""
    pw, coeffs = phi.powers, phi.coeffs
    size = len(coeffs)
    if method == GENERAL:
        sums = [[size * u.scalar_part()] for u in pw[1:]]
        b_values = [[c] for c in coeffs]
    else:
        sums = [[size * v for v in u.block_values()] for u in pw[1:]]
        b_values = [c.block_values() for c in coeffs]
    phi_a = [_newton(block) for block in zip(*sums)]
    if not _sum_at_a(pw, list(zip(*phi_a))).is_zero():
        raise InternalError("phi_A(A) is not zero: A's power sums are wrong")
    dets, cofactors = [], []
    for a, b in zip(phi_a, zip(*b_values)):
        # phi_B - phi_A, both monic of degree size: -b_(size-k) - a_k.
        res, t = _resultant(a, [-c - x for c, x in zip(b[::-1], a)])
        if not res:
            return pw[0].scale(0), 0
        dets.append(res)
        cofactors.append(t + [0] * (size - len(t)))
    if method == GENERAL_ODD and len(dets) == 1:
        # Odd n keeping one block: M(N/2, C), whose other is its conjugate.
        dets.append(dets[0].conjugate())
    det = reduce(mul, dets)
    others = [det // d for d in dets]
    adj = _sum_at_a(pw, [
        tuple(-other * t[k] for other, t in zip(others, cofactors))
        for k in range(size)
    ])
    return adj, -det.real


def solve_general(prob):
    """Recursive solver valid for any n.

    At odd n, phi_B(A) can vanish across the two central blocks of the
    algebra on a problem that is not singular.  A zero Q there is
    retried through the central recursion, and the answer reports
    general_odd, whose Q, D and F it carries.
    """
    try:
        return _solve(prob, GENERAL)
    except SingularProblemError:
        if prob.sig.dim % 2 == 0:
            raise
    return solve_general_odd(prob)


def solve_general_odd(prob):
    """Half-length variant for odd n: D and F come from the N/2
    generalized central coefficients of B."""
    return _solve(prob, GENERAL_ODD)


def solve_closed(prob, variant):
    """Solve by the closed form of one dimension, n <= 5."""
    if variant in _RECURSIONS:
        raise ValueError(f"{variant!r} is not a closed-form variant")
    return _solve(prob, variant)


# Each method and the n it accepts; solve defaults to the first method
# accepting n.
_METHOD_TABLE = {
    CLOSED_N1: (1,),
    CLOSED_N2: (2,),
    CLOSED_N3: (3,),
    CLOSED_N4_V2: (4,),
    CLOSED_N4_V1: (4,),
    CLOSED_N5: (5,),
    GENERAL_ODD: range(1, MAX_DIM + 1, 2),
    GENERAL: range(1, MAX_DIM + 1),
}

METHODS = tuple(_METHOD_TABLE)


def _methods_for(n):
    """The methods that accept n, the default first."""
    return [m for m, dims in _METHOD_TABLE.items() if n in dims]


def _exact_x(a, b, c, m, q, method):
    """X = M / Q for the integer problem a, b, c that M and Q were
    computed from, checked first on the kernel that computed them:
    aM - Mb - Qc = 0, and on the spinor kernel M the image of its
    preimage.  The images are a faithful homomorphism, verified once per
    signature by _spinor, so that is the blade check at O(N**3)."""
    if not (a * m - m * b - c.scale(q)).is_zero():
        raise ResidualCheckFailedError(f"nonzero exact residual for method {method}")
    if isinstance(m, _spinor.SpinorMatrix) and not m.is_image():
        raise ResidualCheckFailedError(
            f"the numerator of method {method} is not a spinor image"
        )
    return _blades(m) / q


def _float_x(prob, m, q):
    """(X, residual, low_confidence) for X = M / Q in f64, checked by
    substitution on the blades: X is flagged when its residual is above
    its bound or not finite."""
    x = m / q
    residual = verify_residual(prob, x)
    norm_x = x.max_abs_coeff()
    bound = RESIDUAL_TOL * (
        1.0
        + prob.a.max_abs_coeff() * norm_x
        + norm_x * prob.b.max_abs_coeff()
    )
    # The bound itself can overflow to inf; an inf residual still fails.
    return x, residual, not (isfinite(residual) and residual <= bound)


def _blades(u, den=1):
    """An element of either kernel as a Multivector divided by den."""
    if not isinstance(u, Multivector):
        u = u.multivector()
    return u if den == 1 else u / den


def _solve(prob, method):
    """The one core of every method: D = phi_B(A) and F from B's
    coefficients and differences, M = Adj(D) F and Q, checked and
    divided once.  An f64 D or Q that overflows is refused.

    A, B and C enter times the lcm L of their denominators (1 in f64).
    D and F, of degree len(coeffs), leave divided by L to that degree,
    and Q by L to N times it; X = M / Q and the check, which is
    L**(1 + N len(coeffs)) times AM - MB - QC, need no scaling."""
    if method not in _METHOD_TABLE:
        raise ValueError(f"unknown method {method!r}")
    if prob.sig.dim not in _METHOD_TABLE[method]:
        raise ValueError(f"{method} does not accept n = {prob.sig.dim}")
    a, b, c = prob.a, prob.b, prob.c
    scale = lcm(a._den, b._den, c._den)
    if scale != 1:
        a, b, c = a.scale(scale), b.scale(scale), c.scale(scale)
    if method in _RECURSIONS and _spinor.pays_off(a, b):
        a, b, c = (_spinor.SpinorMatrix.of(u) for u in (a, b, c))
    coeffs, differences = _coefficients(b, method)
    pw = _powers(a, len(coeffs))
    d = _assemble_d(pw, coeffs)
    f = _assemble_f(pw, c, differences)
    if d.ring == FLOAT64 and not all(map(isfinite, d.coeffs)):
        raise NumericalDegradationError("D = phi_B(A) overflows")
    adj, q = _adjugate(_Phi(d, pw, coeffs), method)
    if d.ring == FLOAT64 and not isfinite(q):
        raise NumericalDegradationError("Q overflows")
    d_scale = scale ** len(coeffs)
    q_out = _value(q, d_scale ** prob.sig.charpoly_degree)
    # The zero test reads D only in f64, where d_scale is 1.
    if is_zero_scalar(q_out, d):
        raise SingularProblemError(q_out, _blades(d, d_scale))
    m = adj * f
    if prob.ring == RATIONAL:
        x, residual, low_confidence = _exact_x(a, b, c, m, q, method), 0, False
    else:
        x, residual, low_confidence = _float_x(prob, _blades(m), q)
    return SylvesterSolution(
        x, q_out, partial(_blades, d, d_scale), partial(_blades, f, d_scale),
        method, residual, low_confidence,
    )


def solve(prob, method=None):
    """Solve AX - XB = C, by default with the first method of the table
    that accepts n: closed forms for n <= 5 (n = 4 defaults to the
    tilde/sharp variant), the odd-n recursion for odd n >= 7, the
    general recursion otherwise.  Where the recursions run on the spinor
    matrices (_spinor.pays_off: dense exact operands at n = 5), the
    default skips the closed forms; its Q is then -Det(D), not Det(D).
    """
    if method is None:
        methods = _methods_for(prob.sig.dim)
        if _spinor.pays_off(prob.a, prob.b):
            methods = [m for m in methods if m in _RECURSIONS]
        method = methods[0]
    if method == GENERAL:
        return solve_general(prob)
    if method == GENERAL_ODD:
        return solve_general_odd(prob)
    return solve_closed(prob, method)


def reduce_two_term(k, l, m, nq, p):
    """Reduce K X L + M X Nq = P to a Sylvester problem:
    A = M**-1 K, B = -Nq L**-1, C = M**-1 P L**-1.

    Requires M and L invertible; any solution X of the reduced problem
    also solves the two-term equation.
    """
    m_inv = inverse(m)
    l_inv = inverse(l)
    return SylvesterProblem(m_inv * k, -(nq * l_inv), m_inv * p * l_inv)
