"""Basis-free solvers for the Sylvester equation AX - XB = C in Cl(p,q).

Closed forms exist for n = 1..5; arbitrary n is handled by assembling
D = phi_B(A) (the characteristic polynomial of B evaluated at A) and a
matching right-hand combination F, so that D X = F, then inverting D by
its own characteristic-polynomial recursion.  For odd n a half-length
variant builds D and F the same way from the N/2 generalized central
coefficients; both read the differences B_(k) - c_(k) the recursion
formed.  One table states the n each method accepts and the degree of
its D; the default is the first method accepting n.  At odd n the full
phi_B(A) can vanish on a problem that is not singular, so a zero Q from
general is retried with general_odd.

In the rational ring every solve runs on integers.  On entry the
denominators are cleared once: with L the lcm of all coefficient
denominators of A, B and C, the method solves (LA)X - X(LB) = LC, which
has the same X.  The residual is checked on the integer numerator
M = Adj(D')F' as A'M - MB' - Q'C' = 0, which is LQ' times AX - XB - C, and
X = M / Q' is the one division.  Q, D and F are reported unscaled, as
for the problem given: D and F are homogeneous of a degree d in (A, B)
that each method fixes, and Q of degree dN, so D = D'/L**d, F = F'/L**d
and Q = Q'/L**(dN).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import (
    MAX_DIM,
    RATIONAL,
    Multivector,
    _coerce,
    _require_finite,
    conjugate,
    natural,
    sharp,
)
from .charpoly import (
    DEFAULT_ZERO_TOL,
    _as_scalar,
    char_poly,
    generalized_coeffs,
    inverse,
    is_zero_scalar,
)
from .errors import ResidualCheckFailedError, SingularProblemError

DEFAULT_RESIDUAL_TOL = 1e-8

CLOSED_N1 = "closed_n1"
CLOSED_N2 = "closed_n2"
CLOSED_N3 = "closed_n3"
CLOSED_N4_V1 = "closed_n4_v1"
CLOSED_N4_V2 = "closed_n4_v2"
CLOSED_N5 = "closed_n5"
GENERAL = "general"
GENERAL_ODD = "general_odd"

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
    x: Multivector
    q: object
    d: Multivector
    f: Multivector
    method: str
    residual: object
    low_confidence: bool = False


def verify_residual(prob, x):
    """Max-norm of A X - X B - C; exactly zero for exact solutions."""
    return (prob.a * x - x * prob.b - prob.c).max_abs_coeff()


def _powers(a, top):
    """[e, A, A**2, ..., A**top] with one product per entry."""
    pw = [Multivector.scalar(a.sig, 1, a.ring)]
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


def _recursion(work, method, tol):
    """D, F, the adjugate-like factor and Q for the recursions: all N
    coefficients of B (general) or the N/2 central ones (general_odd)."""
    if method == GENERAL:
        data = char_poly(work.b, tol)
    else:
        data = generalized_coeffs(work.b)
    pw = _powers(work.a, len(data.coeffs))
    d = _assemble_d(pw, data.coeffs)
    f = _assemble_f(pw, work.c, data.differences)
    inv = char_poly(d, tol)
    return d, f, inv.differences[-1], inv.coeffs[-1]


def solve_general(prob, tol=DEFAULT_ZERO_TOL, res_tol=DEFAULT_RESIDUAL_TOL):
    """Recursive solver valid for any n.

    At odd n, phi_B(A) can vanish across the two central blocks of the
    algebra on a problem that is not singular.  A zero Q there is
    retried through the central recursion, and the answer reports
    general_odd, whose Q, D and F it carries.
    """
    try:
        return _solve(prob, GENERAL, _recursion, tol, res_tol)
    except SingularProblemError:
        if prob.sig.dim % 2 == 0:
            raise
    return solve_general_odd(prob, tol, res_tol)


def solve_general_odd(prob, tol=DEFAULT_ZERO_TOL, res_tol=DEFAULT_RESIDUAL_TOL):
    """Half-length variant for odd n: D and F come from the N/2
    generalized central coefficients of B."""
    return _solve(prob, GENERAL_ODD, _recursion, tol, res_tol)


def _quartic_d_f(a, b, c, use_sharp):
    """Shared degree-4 assembly of D and F for n = 4 and n = 5.

    use_sharp selects the tilde/sharp coefficient list; otherwise the
    hat-tilde/natural list is used.
    """
    if use_sharp:
        t1 = b.tilde()
        t2 = conjugate(b.hat(), "triangle")
        t3 = conjugate(b.hat().tilde(), "triangle")
        top = sharp(b)
    else:
        t1 = b.tilde().hat()
        t2 = conjugate(b.hat(), "triangle")
        t3 = conjugate(b.tilde(), "triangle")
        top = natural(b)
    pw = _powers(a, 4)
    comb1 = b + t1 + t2 + t3
    comb2 = b * t1 + b * t2 + b * t3 + t1 * t2 + t1 * t3 + top
    comb3 = b * t1 * t2 + b * t1 * t3 + b * top + t1 * top
    comb4 = b * t1 * top
    d = pw[4] - pw[3] * comb1 + pw[2] * comb2 - pw[1] * comb3 + comb4
    f = (
        pw[3] * c
        - pw[2] * c * (t1 + t2 + t3)
        + pw[1] * c * (t1 * t2 + t1 * t3 + top)
        - c * t1 * top
    )
    return d, f


def solve_closed(prob, variant, tol=DEFAULT_ZERO_TOL, res_tol=DEFAULT_RESIDUAL_TOL):
    """Dispatch the per-dimension closed-form solutions."""
    return _solve(prob, variant, _closed_form, tol, res_tol)


def _closed_form(work, variant, tol):
    """D, F, Adj(D) and Q for a closed form."""
    a, b, c = work.a, work.b, work.c
    if variant == CLOSED_N1:
        d = a - b
        adj = d.hat()
        rhs = c
    elif variant in (CLOSED_N2, CLOSED_N3):
        bth = b.tilde().hat()
        d = a * a - (b + bth) * a + b * bth
        dth = d.tilde().hat()
        if variant == CLOSED_N2:
            adj = dth
        else:
            adj = d.hat() * d.tilde() * dth
        rhs = a * c - c * bth
    elif variant in (CLOSED_N4_V1, CLOSED_N4_V2, CLOSED_N5):
        d, rhs = _quartic_d_f(a, b, c, variant != CLOSED_N4_V1)
        if variant == CLOSED_N4_V1:
            adj = d.tilde().hat() * natural(d)
        elif variant == CLOSED_N4_V2:
            adj = d.tilde() * sharp(d)
        else:
            core = d * d.tilde() * sharp(d)
            adj = d.tilde() * sharp(d) * core.triangle()
    else:
        raise ValueError(f"{variant!r} is not a closed-form variant")
    return d, rhs, adj, _as_scalar(d * adj, d, tol)


# Each method: the n it accepts, and the degree of its D and F in
# (A, B) as N divided by this number (Q has N times that degree).  At
# odd n every method but general has the half-length degree N/2 of the
# central recursion.  solve defaults to the first method accepting n.
_METHOD_TABLE = {
    CLOSED_N1: ((1,), 2),
    CLOSED_N2: ((2,), 1),
    CLOSED_N3: ((3,), 2),
    CLOSED_N4_V2: ((4,), 1),
    CLOSED_N4_V1: ((4,), 1),
    CLOSED_N5: ((5,), 2),
    GENERAL_ODD: (range(1, MAX_DIM + 1, 2), 2),
    GENERAL: (range(1, MAX_DIM + 1), 1),
}

METHODS = tuple(_METHOD_TABLE)


def _methods_for(n):
    """The methods that accept n, the default first."""
    return [m for m, (dims, _) in _METHOD_TABLE.items() if n in dims]


def _clear_denominators(prob):
    """(L, the problem with A, B and C multiplied by L), L the lcm of
    every coefficient denominator; L = 1 returns the problem itself."""
    if prob.ring != RATIONAL:
        return 1, prob
    scale = lcm(*(
        c.denominator for u in (prob.a, prob.b, prob.c) for c in u.coeffs
    ))
    if scale == 1:
        return 1, prob
    return scale, SylvesterProblem(
        prob.a.scale(scale), prob.b.scale(scale), prob.c.scale(scale)
    )


def _verified_x(prob, work, m, q, method, res_tol):
    """(X, residual, low_confidence) for X = M / Q, checked by
    substitution.  The rational ring checks A'M - MB' - Q'C' = 0 on the
    integer problem `work` before the one division; floats check the
    problem as given and flag a residual that is above its bound or not
    finite."""
    if prob.ring == RATIONAL:
        residual = verify_residual(
            SylvesterProblem(work.a, work.b, work.c.scale(q)), m
        )
        if residual != 0:
            raise ResidualCheckFailedError(
                f"exact residual {residual} for method {method}"
            )
        return m / q, residual, False
    x = m / q
    residual = verify_residual(prob, x)
    norm_x = x.max_abs_coeff()
    bound = res_tol * (
        1.0
        + prob.a.max_abs_coeff() * norm_x
        + norm_x * prob.b.max_abs_coeff()
    )
    return x, residual, not residual <= bound


def _solve(prob, method, core, tol, res_tol):
    """Entry and exit shared by every solver: check that the method
    accepts n, clear denominators, run core(work, method, tol) ->
    (D, F, Adj, Q) on the integer problem, check and divide once, report
    Q, D and F unscaled."""
    if method not in _METHOD_TABLE:
        raise ValueError(f"unknown method {method!r}")
    dims, divisor = _METHOD_TABLE[method]
    if prob.sig.dim not in dims:
        raise ValueError(f"{method} does not accept n = {prob.sig.dim}")
    scale, work = _clear_denominators(prob)
    d, f, adj, q = core(work, method, tol)
    d_scale = scale ** (prob.sig.charpoly_degree // divisor)
    if is_zero_scalar(q, d, tol):
        raise SingularProblemError(q, d / d_scale)
    x, residual, low_confidence = _verified_x(
        prob, work, adj * f, q, method, res_tol
    )
    if scale != 1:
        d = d / d_scale
        f = f / d_scale
        q = _coerce(Fraction(q, d_scale ** prob.sig.charpoly_degree), RATIONAL)
    return SylvesterSolution(x, q, d, f, method, residual, low_confidence)


def solve(prob, method=None, tol=DEFAULT_ZERO_TOL, res_tol=DEFAULT_RESIDUAL_TOL):
    """Solve AX - XB = C, by default with the first method of the table
    that accepts n: closed forms for n <= 5 (n = 4 defaults to the
    tilde/sharp variant), the odd-n recursion for odd n >= 7, the
    general recursion otherwise.
    """
    if method is None:
        method = _methods_for(prob.sig.dim)[0]
    if method == GENERAL:
        return solve_general(prob, tol, res_tol)
    if method == GENERAL_ODD:
        return solve_general_odd(prob, tol, res_tol)
    return solve_closed(prob, method, tol, res_tol)


def reduce_two_term(k, l, m, nq, p, tol=DEFAULT_ZERO_TOL):
    """Reduce K X L + M X Nq = P to a Sylvester problem:
    A = M**-1 K, B = -Nq L**-1, C = M**-1 P L**-1.

    Requires M and L invertible; any solution X of the reduced problem
    also solves the two-term equation.
    """
    m_inv = inverse(m, tol)
    l_inv = inverse(l, tol)
    return SylvesterProblem(m_inv * k, -(nq * l_inv), m_inv * p * l_inv)
