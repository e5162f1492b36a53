"""Basis-free solvers for the Sylvester equation AX - XB = C in Cl(p,q).

Closed forms exist for n = 1..5; arbitrary n is handled by assembling
D = phi_B(A) (the characteristic polynomial of B evaluated at A) and a
matching right-hand combination F, so that D X = F, then inverting D by
its own characteristic-polynomial recursion.  For odd n a half-length
variant builds D and F from the N/2 generalized central coefficients.

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
    RATIONAL,
    Multivector,
    _coerce,
    _require_finite,
    conjugate,
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

METHODS = (
    CLOSED_N1,
    CLOSED_N2,
    CLOSED_N3,
    CLOSED_N4_V1,
    CLOSED_N4_V2,
    CLOSED_N5,
    GENERAL,
    GENERAL_ODD,
)

_CLOSED_FOR_DIM = {
    1: CLOSED_N1,
    2: CLOSED_N2,
    3: CLOSED_N3,
    4: CLOSED_N4_V2,
    5: CLOSED_N5,
}


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


def build_D_general(a, b):
    """D = A**N - b_(1) A**(N-1) - ... - b_(N) with the b_(k) taken from
    the characteristic polynomial of b."""
    data = char_poly(b)
    big_n = data.degree
    pw = _powers(a, big_n)
    return _assemble_d(pw, data.coeffs, a)


def _assemble_d(pw, coeffs, a):
    big_n = len(coeffs)
    d = pw[big_n]
    for j, bj in enumerate(coeffs, start=1):
        if isinstance(bj, Multivector):
            d = d - pw[big_n - j] * bj
        else:
            d = d - pw[big_n - j].scale(bj)
    return d


def build_F_general(a, b, c):
    """F = sum_j A**(N-j) C (B_(j-1) - b_(j-1)); the j = 1 term is
    A**(N-1) C."""
    data = char_poly(b)
    pw = _powers(a, data.degree)
    return _assemble_f(pw, data.iterates, data.coeffs, c)


def _assemble_f(pw, iterates, coeffs, c):
    big_n = len(coeffs)
    sig = c.sig
    f = pw[big_n - 1] * c
    for j in range(2, big_n + 1):
        prev_it = iterates[j - 2]
        prev_co = coeffs[j - 2]
        if isinstance(prev_co, Multivector):
            factor = prev_it - prev_co
        else:
            factor = prev_it - Multivector.scalar(sig, prev_co, c.ring)
        f = f + pw[big_n - j] * c * factor
    return f


def _recursion(work, method, tol):
    """D, F, the adjugate-like factor, Q and the degree of D for the
    recursions: all N coefficients of B (general) or the N/2 central
    ones (general_odd)."""
    if method == GENERAL:
        data = char_poly(work.b, tol)
    else:
        data = generalized_coeffs(work.b)
    degree = len(data.coeffs)
    pw = _powers(work.a, degree)
    d = _assemble_d(pw, data.coeffs, work.a)
    f = _assemble_f(pw, data.iterates, data.coeffs, work.c)
    inv = char_poly(d, tol)
    adj_like = inv.iterates[-2] - Multivector.scalar(
        d.sig, inv.coeffs[-2], d.ring
    )
    return d, f, adj_like, inv.coeffs[-1], degree


def solve_general(prob, tol=DEFAULT_ZERO_TOL, res_tol=DEFAULT_RESIDUAL_TOL):
    """Recursive solver valid for any n."""
    return _solve(prob, GENERAL, _recursion, tol, res_tol)


def solve_general_odd(prob, tol=DEFAULT_ZERO_TOL, res_tol=DEFAULT_RESIDUAL_TOL):
    """Half-length variant for odd n: D and F come from the N/2
    generalized central coefficients of B."""
    if prob.sig.dim % 2 == 0:
        raise ValueError("the odd-n solver requires odd n")
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
        top = conjugate(b.hat() * b.tilde(), "triangle")
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
    """D, F, Adj(D), Q and the degree of D for a closed form."""
    n = work.sig.dim
    a, b, c = work.a, work.b, work.c

    if variant == CLOSED_N1:
        if n != 1:
            raise ValueError(f"{variant} requires n = 1, got n = {n}")
        d = a - b
        adj = d.hat()
        q = _as_scalar(d * adj, d, tol)
        rhs = c
        degree = 1
    elif variant in (CLOSED_N2, CLOSED_N3):
        if n != (2 if variant == CLOSED_N2 else 3):
            raise ValueError(f"{variant} does not match n = {n}")
        bth = b.tilde().hat()
        d = a * a - (b + bth) * a + b * bth
        dth = d.tilde().hat()
        if variant == CLOSED_N2:
            adj = dth
        else:
            adj = d.hat() * d.tilde() * dth
        q = _as_scalar(d * adj, d, tol)
        rhs = a * c - c * bth
        degree = 2
    elif variant in (CLOSED_N4_V1, CLOSED_N4_V2, CLOSED_N5):
        if variant == CLOSED_N5:
            if n != 5:
                raise ValueError(f"{variant} requires n = 5, got n = {n}")
        elif n != 4:
            raise ValueError(f"{variant} requires n = 4, got n = {n}")
        use_sharp = variant != CLOSED_N4_V1
        d, rhs = _quartic_d_f(a, b, c, use_sharp)
        if variant == CLOSED_N4_V1:
            adj = d.tilde().hat() * conjugate(d.hat() * d.tilde(), "triangle")
        elif variant == CLOSED_N4_V2:
            adj = d.tilde() * sharp(d)
        else:
            core = d * d.tilde() * sharp(d)
            adj = d.tilde() * sharp(d) * core.triangle()
        q = _as_scalar(d * adj, d, tol)
        degree = 4
    else:
        raise ValueError(f"unknown closed-form variant {variant!r}")
    return d, rhs, adj, q, degree


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
    """Entry and exit shared by every solver: clear denominators, run
    core(work, method, tol) -> (D, F, Adj, Q, degree of D) on the
    integer problem, check and divide once, report Q, D and F
    unscaled."""
    scale, work = _clear_denominators(prob)
    d, f, adj, q, degree = core(work, method, tol)
    if is_zero_scalar(q, d, tol):
        raise SingularProblemError(q, d / scale ** degree)
    x, residual, low_confidence = _verified_x(
        prob, work, adj * f, q, method, res_tol
    )
    if scale != 1:
        d_scale = scale ** degree
        d = d / d_scale
        f = f / d_scale
        q = _coerce(Fraction(q, d_scale ** prob.sig.charpoly_degree), RATIONAL)
    return SylvesterSolution(x, q, d, f, method, residual, low_confidence)


def solve(prob, method=None, tol=DEFAULT_ZERO_TOL, res_tol=DEFAULT_RESIDUAL_TOL):
    """Solve AX - XB = C, picking the default method for the dimension:
    closed forms for n <= 5 (n = 4 defaults to the tilde/sharp variant),
    the odd-n recursion for odd n >= 7, the general recursion otherwise.
    """
    n = prob.sig.dim
    if method is None:
        method = _CLOSED_FOR_DIM.get(n)
        if method is None:
            method = GENERAL_ODD if n % 2 else GENERAL
    if method == GENERAL:
        return solve_general(prob, tol, res_tol)
    if method == GENERAL_ODD:
        return solve_general_odd(prob, tol, res_tol)
    if method in _CLOSED_FOR_DIM.values() or method in (CLOSED_N4_V1,):
        return solve_closed(prob, method, tol, res_tol)
    raise ValueError(f"unknown method {method!r}")


def reduce_two_term(k, l, m, nq, p, tol=DEFAULT_ZERO_TOL):
    """Reduce K X L + M X Nq = P to a Sylvester problem:
    A = M**-1 K, B = -Nq L**-1, C = M**-1 P L**-1.

    Requires M and L invertible; any solution X of the reduced problem
    also solves the two-term equation.
    """
    m_inv = inverse(m, tol)
    l_inv = inverse(l, tol)
    return SylvesterProblem(m_inv * k, -(nq * l_inv), m_inv * p * l_inv)
