"""Basis-free solvers for the Sylvester equation AX - XB = C in Cl(p,q).

Every method runs one core (_solve).  It assembles D = phi_B(A), the
characteristic polynomial of B evaluated at A, and a matching
right-hand combination F with D X = F, from B's coefficients c_(k);
then it inverts D.  The general recursion takes all N coefficients of
B, the odd-n one the N/2 generalized central ones.  In f64 and on
blades they come from a Faddeev-LeVerrier recursion on B, with its
differences B_(k) - c_(k) for F.  The closed forms for n = 1..5 are
that same recursion with its differences written as the paper's
conjugation products of B; the coefficients follow from them.  On
exact spinor matrices the coefficients come from the traces of B's
powers by Newton's identities, and F from C's side (_BabySteps).  The
closed forms invert D by the closed adjugate of their dimension.  On
exact spinor matrices the recursions invert D through the resultant of
A's and B's characteristic polynomials, from the powers of A already
assembled and with no product; in f64 and on blades, by D's own
characteristic polynomial (see _adjugate).  On blades that recursion
runs in the subalgebra that D's blades span, where a sparse D has few
coordinates and needs L = min(N, 2**r) steps for r the rank of its
blade masks: Det(D) = Det_L**(N/L) and Adj(D) = Det_L**(N/L - 1) Adj_L
(charpoly._inverse_parts).  A dense D spans every generator and takes
the N steps on its blades.
One table states the n each method accepts; the default is
the first method accepting n.  At odd n the full phi_B(A) can vanish on
a problem that is not singular, so a zero Q from general is retried
with general_odd.

A rational problem is solved as integers, scaled once, and the
recursions run, as charpoly's public ones do (_spinor.enter), on one
of two kernels chosen from the problem alone: the blade loop of
Multivector, or, for dense operands from n = 5 in the rational ring
and n = 6 in f64, the spinor matrices of _spinor, N x N complex
matrices whose product costs O(N**3) against the blade loop's 4**n.
The closed forms, which conjugate, stay on blades, and the default
skips them where the matrices pay off.  In the rational ring both
kernels give the same D, F, M and Q, and an answer is checked on the
kernel that computed it: AM - MB - QC = 0 on the numerator M = Adj(D)F
is Q times AX - XB - C, and X = M / Q is the one division.  D and F go
back to blades when the solution's fields are first read.
In f64 the kernels differ by rounding, and the residual check judges
either answer on the blades, where the flag is defined.

A float answer is flagged low_confidence when X or its residual is not
finite, or the residual is not within RESIDUAL_TOL * (1 + |A||X| +
|X||B|) in the max norm.  A float D or Q that overflows is refused with
NumericalDegradationError, under every method.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from math import isfinite
from operator import mul
from typing import NamedTuple

from . import _spinor
from .algebra import (
    FLOAT64,
    MAX_DIM,
    RATIONAL,
    Multivector,
    _center_of_product,
    _require_finite,
    _value,
    center_project,
    conjugate,
    natural,
    sharp,
)
from .charpoly import (
    _as_scalar,
    _blades,
    _char_poly,
    _closed_adjugate,
    _generalized,
    _inverse_parts,
    _newton,
    _OnFirstRead,
    _resultant,
    _trace_coeffs,
    # Not called here; perfbench's tracer wraps them in this namespace.
    char_poly,  # noqa: F401
    generalized_coeffs,  # noqa: F401
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


@dataclass(frozen=True)
class SylvesterSolution:
    """X with D X = F, from M = Adj(D) F and Q = Det(D) as X = M / Q,
    under every method; d and f may be converted on first read."""

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
    """[e, A, A**2, ..., A**top]: e and A as they are, then one product
    per entry."""
    pw = [type(a).scalar(a.sig, 1, a.ring), a]
    while len(pw) <= top:
        pw.append(pw[-1] * a)
    return pw[:top + 1]


class _Differences(tuple):
    """B's side where Faddeev-LeVerrier or a closed form gives the
    coefficients: the differences e_k = B_(k) - c_(k)."""

    def d(self, pw, coeffs):
        """D = A**L - c_(1) A**(L-1) - ... - c_(L): a scaling (scalar
        c_(k)) or a product (central) per term."""
        length = len(coeffs)
        d = pw[length]
        for j, cj in enumerate(coeffs, start=1):
            d = d - pw[length - j] * cj
        return d

    def f(self, pw, c, coeffs):
        """F = A**(L-1) C + sum_j (A**(L-j) C) e_(j-1), j = 2..L, with
        A**0 C = C itself."""
        length = len(coeffs)
        ac = [c] + [u * c for u in pw[1:length]]
        f = ac[length - 1]
        for j, diff in enumerate(self, start=2):
            f = f + ac[length - j] * diff
        return f


class _BabySteps(tuple):
    """B's side on exact matrices: the baby steps B**0..B**m that the
    coefficients were read from (_trace_coeffs), where phi_B(B) = 0 is
    checked (_resultant_adjugate).  There are no differences."""

    def d(self, pw, coeffs):
        """D = A**L - c_(1) A**(L-1) - ... - c_(L) as one combination of
        the powers."""
        columns = [
            tuple(-v for v in c.block_values()) if isinstance(c, _spinor.SpinorMatrix)
            else (-c,)
            for c in reversed(coeffs)
        ]
        return _spinor.combination(pw, columns + [(1,)])

    def f(self, pw, c, coeffs):
        """F = sum_j A**(L-j) C e_(j-1), j = 1..L, e_0 = 1, from C's side:
        e_k is a polynomial in B, so Y_0 = C, Y_k = Y_(k-1) B - c_(k) C
        is C e_k, and by Horner's rule F = A (... A (A Y_0 + Y_1) ...) +
        Y_(L-1): each of the 2 (L - 1) products has B or A, with small
        entries, as a factor."""
        b = self[1]
        y = f = c
        for ck in coeffs[:-1]:
            y = y * b - c * ck
            f = pw[1] * f + y
        return f


def build_D_general(a, b):
    """D = A**N - b_(1) A**(N-1) - ... - b_(N) with the b_(k) taken from
    the characteristic polynomial of b, on the kernel of a and b."""
    (a, b), scale = _spinor.enter((a, b))
    coeffs, side = _coefficients(b, GENERAL)
    return _blades(side.d(_powers(a, len(coeffs)), coeffs), scale ** len(coeffs))


def build_F_general(a, b, c):
    """F = sum_j A**(N-j) C (B_(j-1) - b_(j-1)); the j = 1 term is
    A**(N-1) C."""
    (a, b, c), scale = _spinor.enter((a, b, c))
    coeffs, side = _coefficients(b, GENERAL)
    f = side.f(_powers(a, len(coeffs) - 1), c, coeffs)
    return _blades(f, scale ** len(coeffs))


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
    return (-(t1 + t2 + t3), t1 * (t2 + t3) + top, -(t1 * top))


def _traced(b):
    """Whether the recursions take b's coefficients from traces: on exact
    matrices."""
    return isinstance(b, _spinor.SpinorMatrix) and b.ring == RATIONAL


def _coefficients(b, method):
    """(c, side): B's coefficients c_(k) for a method, plain scalars for
    general and at even n and central elements otherwise, and B's side,
    which assembles D and F (side.d, side.f).  On exact matrices the
    recursions take the c_(k) from traces, and side is B's baby steps
    (_BabySteps).  Elsewhere side is the differences e_k = B_(k) - c_(k)
    (_Differences): the recursions run Faddeev-LeVerrier, and a closed
    form states its differences, its coefficients following from the
    same relation, B_(1) = B, B_(k+1) = B e_k, c_(L) = B_(L).  As c_(k)
    is central, it is the central part of B_(k) - e_k, and that of B e_k
    takes no product (_center_of_product)."""
    if method in _RECURSIONS:
        if _traced(b):
            coeffs, babies = _trace_coeffs(b, method == GENERAL_ODD)
            return coeffs, _BabySteps(babies)
        data = _char_poly(b) if method == GENERAL else _generalized(b)
        return data.coeffs, _Differences(data.differences)
    differences = _closed_differences(b, method)
    iterates = [center_project(b)]
    iterates += [_center_of_product(b, diff) for diff in differences]
    coeffs = [u - center_project(diff) for u, diff in zip(iterates, differences)]
    coeffs.append(iterates[-1])
    if b.sig.dim % 2 == 0:
        coeffs = [u.scalar_part() for u in coeffs]
    return tuple(coeffs), _Differences(differences)


class _Phi(NamedTuple):
    """D = phi_B(A) and what it was assembled from: the powers
    A**0..A**L, B's L coefficients and B's side (_coefficients)."""

    d: object
    powers: list
    coeffs: tuple
    side: tuple


def _adjugate(phi, method):
    """(Adj(D), Det(D)) under every method.  The closed forms take the
    closed adjugate of their dimension, at n = 4 that of their variant.
    The recursions on exact spinor matrices, which hold dense operands,
    take the resultant of A's and B's char polys (_resultant_adjugate).
    In f64, where a remainder sequence is unstable, and on blades, where
    sparse operands keep D's own recursion cheaper than the degree-N
    remainder sequence, they take the char poly of D, in the span of
    D's blades (charpoly._inverse_parts)."""
    d = phi.d
    if method not in _RECURSIONS:
        adj = _closed_adjugate(d, sharp_form=method == CLOSED_N4_V2)
        return adj, _as_scalar(d * adj, d)
    if d.ring == FLOAT64 or isinstance(d, Multivector):
        return _inverse_parts(d)
    return _resultant_adjugate(phi, method)


def _resultant_adjugate(phi, method):
    """(Adj(D), Det(D)) for D = phi_B(A) on exact spinor matrices, with
    no recursion on D.  D is a polynomial in A, so Det(D) = Res(phi_A,
    phi_B) for the characteristic polynomial phi_A of A, and Adj(D) =
    t(A) for the t with t phi_B = Det(D) modulo phi_A (Jameson, SIAM J.
    Appl. Math. 1968).  phi_A comes from the power sums tr(A**k) by
    Newton's identities, checked by phi_A(A) = 0 on the powers; Res and
    t from one subresultant remainder sequence of phi_A and phi_B -
    phi_A.  A zero Res is a singular verdict only once phi_B(B) = 0 is
    checked on B's baby steps; both sums over powers are one combination
    (_spinor.combination, _spinor.polynomial_at).

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
    if not _spinor.combination(pw, list(zip(*phi_a))).is_zero():
        raise InternalError("phi_A(A) is not zero: A's power sums are wrong")
    dets, cofactors = [], []
    for a, b in zip(phi_a, zip(*b_values)):
        # phi_B - phi_A, both monic of degree size: -b_(size-k) - a_k.
        res, t = _resultant(a, [-c - x for c, x in zip(b[::-1], a)])
        if not res:
            phi_b = [tuple(-c for c in values) for values in b_values[::-1]]
            if not _spinor.polynomial_at(phi.side, phi_b + [(1,)]).is_zero():
                raise InternalError("phi_B(B) is not zero: B's power sums are wrong")
            return pw[0].scale(0), 0
        dets.append(res)
        cofactors.append(t + [0] * (size - len(t)))
    if method == GENERAL_ODD and len(dets) == 1:
        # Odd n keeping one block: M(N/2, C), whose other is its conjugate.
        dets.append(dets[0].conjugate())
    det = reduce(mul, dets)
    others = [det // d for d in dets]
    adj = _spinor.combination(pw, [
        tuple(other * t[k] for other, t in zip(others, cofactors))
        for k in range(size)
    ])
    return adj, det.real


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
    return _blades(m, q)


def _float_x(prob, m, q):
    """(X, residual, low_confidence) for X = M / Q in f64, checked by
    substitution on the blades: X is flagged when it or its residual is
    not finite, or the residual is above its bound."""
    x = m / q
    residual = verify_residual(prob, x)
    norm_x = x.max_abs_coeff()
    bound = RESIDUAL_TOL * (
        1.0
        + prob.a.max_abs_coeff() * norm_x
        + norm_x * prob.b.max_abs_coeff()
    )
    # The bound itself can overflow to inf; an inf residual still fails.
    confident = isfinite(residual) and residual <= bound and all(map(isfinite, x.coeffs))
    return x, residual, not confident


def _solve(prob, method):
    """The one core of every method: D = phi_B(A) and F from B's
    coefficients and differences, M = Adj(D) F and Q, checked and
    divided once.  An f64 D or Q that overflows is refused, and F is
    assembled only once Q is known not to be zero.

    A, B and C enter times the lcm L of their denominators (_spinor.enter).
    D and F, of degree len(coeffs), leave divided by L to that degree,
    and Q by L to N times it; X = M / Q and the check, which is
    L**(1 + N len(coeffs)) times AM - MB - QC, need no scaling."""
    if method not in _METHOD_TABLE:
        raise ValueError(f"unknown method {method!r}")
    if prob.sig.dim not in _METHOD_TABLE[method]:
        raise ValueError(f"{method} does not accept n = {prob.sig.dim}")
    (a, b, c), scale = _spinor.enter(
        (prob.a, prob.b, prob.c), method in _RECURSIONS
    )
    coeffs, side = _coefficients(b, method)
    pw = _powers(a, len(coeffs))
    d = side.d(pw, coeffs)
    if d.ring == FLOAT64 and not all(map(isfinite, d.coeffs)):
        raise NumericalDegradationError("D = phi_B(A) overflows")
    adj, q = _adjugate(_Phi(d, pw, coeffs, side), method)
    if d.ring == FLOAT64 and not isfinite(q):
        raise NumericalDegradationError("Q overflows")
    d_scale = scale ** len(coeffs)
    q_out = _value(q, d_scale ** prob.sig.charpoly_degree)
    # The zero test reads D only in f64, where d_scale is 1.
    if is_zero_scalar(q_out, d):
        raise SingularProblemError(q_out, _blades(d, d_scale))
    # F after the zero test: a singular verdict reads no F.
    f = side.f(pw, c, coeffs)
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
    default skips the closed forms.
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
