"""Exact checks of the program's answers, independent of its code.

Multivectors are held here as ``(terms, den)``: a dict from blade
bitmask to Python int, and one positive int denominator for the whole
element.  Every check runs in exact integer arithmetic with its own
blade product, so a defect in the program's kernel cannot hide itself
by agreeing with the check.  Nothing here imports gasylv.

Convention (the program's, stated in its README): in Cl(p,q) the
generators e1..ep square to +1 and e(p+1)..en to -1; bit i-1 of a
blade mask stands for e_i.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class CheckFailed(Exception):
    """An answer the program returned is wrong."""


def _reorder_mask(a):
    # Bit j of the result is the parity of the number of bits of a above
    # bit j: moving e_j of b past them gives the reorder sign.
    m = 0
    a >>= 1
    while a:
        m ^= a
        a >>= 1
    return m


class Algebra:
    """Exact sparse arithmetic in Cl(p,q)."""

    def __init__(self, p, q):
        self.p, self.q, self.n = p, q, p + q
        self.qmask = ((1 << self.n) - 1) & ~((1 << p) - 1)

    def mul(self, u, v):
        (tu, du), (tv, dv) = u, v
        out = {}
        qmask = self.qmask
        for a, ca in tu.items():
            ra = _reorder_mask(a)
            for b, cb in tv.items():
                k = a ^ b
                if ((ra & b).bit_count() + (a & b & qmask).bit_count()) & 1:
                    out[k] = out.get(k, 0) - ca * cb
                else:
                    out[k] = out.get(k, 0) + ca * cb
        return _norm(out, du * dv)

    @staticmethod
    def add(u, v, sign=1):
        (tu, du), (tv, dv) = u, v
        out = {k: c * dv for k, c in tu.items()}
        for k, c in tv.items():
            out[k] = out.get(k, 0) + sign * c * du
        return _norm(out, du * dv)

    def sub(self, u, v):
        return self.add(u, v, -1)

    @staticmethod
    def scale(u, value):
        value = Fraction(value)
        terms, den = u
        return _norm(
            {k: c * value.numerator for k, c in terms.items()},
            den * value.denominator,
        )

    @staticmethod
    def scalar(value):
        value = Fraction(value)
        return _norm({0: value.numerator}, value.denominator)

    def power_list(self, b, top):
        pw = [self.scalar(1)]
        for _ in range(top):
            pw.append(self.mul(pw[-1], b))
        return pw

    def char_coeffs(self, b):
        """b_(1)..b_(N) of the Faddeev-LeVerrier recursion, N = 2**ceil(n/2)."""
        big_n = 1 << ((self.n + 1) // 2)
        coeffs = []
        cur = b
        for k in range(1, big_n + 1):
            bk = Fraction(big_n, k) * scalar_part(cur)
            coeffs.append(bk)
            if k < big_n:
                cur = self.mul(b, self.sub(cur, self.scalar(bk)))
        return coeffs


def _norm(terms, den):
    terms = {k: c for k, c in terms.items() if c}
    g = den
    for c in terms.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    if g > 1:
        terms = {k: c // g for k, c in terms.items()}
        den //= g
    return terms, den


def is_zero(u):
    return not u[0]


def scalar_part(u):
    terms, den = u
    return Fraction(terms.get(0, 0), den)


def max_abs(u):
    terms, den = u
    return Fraction(max((abs(c) for c in terms.values()), default=0), den)


def from_terms(terms):
    """Exact element from {mask: int, Fraction or float}; each float is
    taken as the dyadic rational it stores."""
    fracs = {}
    den = 1
    for mask, c in terms.items():
        if not c:
            continue
        if isinstance(c, float):
            if not math.isfinite(c):
                raise CheckFailed(f"non-finite coefficient {c!r}")
            f = Fraction(*c.as_integer_ratio())
        else:
            f = Fraction(c)
        fracs[mask] = f
        den = den * f.denominator // math.gcd(den, f.denominator)
    return _norm({k: f.numerator * (den // f.denominator) for k, f in fracs.items()}, den)


def from_coeffs(coeffs):
    """Exact element from a dense coefficient sequence."""
    return from_terms(dict(enumerate(coeffs)))


# -- the program's text format, read independently -------------------------

_TERM = re.compile(
    r"([+-])?(\d+(?:/\d+)?)?(e(?:\{\d+(?:,\d+)*\}|\d*))?"
)


def _blade_mask(text):
    if text == "e":
        return 0
    body = text[1:]
    if body.startswith("{"):
        indices = [int(part) for part in body[1:-1].split(",")]
    else:
        indices = [int(ch) for ch in body]
    mask = 0
    for idx in indices:
        mask |= 1 << (idx - 1)
    return mask


def parse_scalar(text):
    try:
        return Fraction(text.strip())
    except ValueError:
        raise CheckFailed(f"unreadable scalar {text!r}") from None


def parse(text):
    """Read a printed rational multivector such as ``-3 + 2e13 - 5/7e{1,10}``."""
    compact = text.replace(" ", "")
    if compact == "0":
        return {}, 1
    pos = 0
    coeffs = {}
    while pos < len(compact):
        m = _TERM.match(compact, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise CheckFailed(f"unreadable multivector {text!r} at {pos}")
        coef = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(1) == "-":
            coef = -coef
        mask = _blade_mask(m.group(3)) if m.group(3) else 0
        coeffs[mask] = coeffs.get(mask, 0) + coef
        pos = m.end()
    return from_terms(coeffs)


# -- input selection ------------------------------------------------------------

def sylvester_det_is_odd(a_coeffs, b_coeffs):
    """True when the determinant of X -> AX - XB is odd once A and B are
    scaled by one common factor to integer coefficients, which proves
    AX - XB = C nonsingular for every C.

    Modulo 2 the signs of the blade product vanish, so Cl(p,q) becomes
    the group algebra of (Z/2)^n over GF(2), where every element is its
    coefficient sum plus a nilpotent.  Left multiplication by A and
    right multiplication by B commute, so the operator is
    (sum(A) - sum(B)) times the identity plus a nilpotent, and its
    determinant is (sum(A) - sum(B))**(2**n) mod 2.
    """
    ratios = [c.as_integer_ratio() for c in a_coeffs]
    split = len(ratios)
    ratios += [c.as_integer_ratio() for c in b_coeffs]
    common = math.lcm(*(den for _, den in ratios))
    scaled = [num * (common // den) for num, den in ratios]
    return (sum(scaled[:split]) - sum(scaled[split:])) % 2 == 1


# -- checks -------------------------------------------------------------------

def sylvester_residual(alg, a, b, c, x):
    """A X - X B - C, exactly."""
    return alg.sub(alg.sub(alg.mul(a, x), alg.mul(x, b)), c)


def backward_error(alg, a, b, c, x):
    """max|AX - XB - C| / (|A||X| + |X||B| + |C|) in max-abs norms, exact."""
    r = max_abs(sylvester_residual(alg, a, b, c, x))
    nx = max_abs(x)
    scale = max_abs(a) * nx + nx * max_abs(b) + max_abs(c)
    if not r:
        return 0.0
    return float(r / scale) if scale else math.inf


def check_exact_solution(alg, a, b, c, x):
    if not is_zero(sylvester_residual(alg, a, b, c, x)):
        raise CheckFailed("AX - XB != C")


def check_inverse(alg, b, inv):
    if alg.mul(b, inv) != alg.scalar(1):
        raise CheckFailed("B * inverse(B) != 1")


def check_cayley_hamilton(alg, b, coeffs):
    """B**N - b_1 B**(N-1) - ... - b_N == 0 for scalar or central b_k."""
    big_n = len(coeffs)
    pw = alg.power_list(b, big_n)
    acc = pw[big_n]
    for k, bk in enumerate(coeffs, start=1):
        term = alg.mul(pw[big_n - k], bk) if isinstance(bk, tuple) else alg.scale(pw[big_n - k], bk)
        acc = alg.sub(acc, term)
    if not is_zero(acc):
        raise CheckFailed("characteristic polynomial does not annihilate B")


def check_central(alg, u):
    top = (1 << alg.n) - 1
    extra = [k for k in u[0] if k not in (0, top)]
    if extra or (alg.n % 2 == 0 and top in u[0]):
        raise CheckFailed("generalized coefficient is not central")
