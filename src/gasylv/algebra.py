"""Dense multivector arithmetic for the real Clifford algebras Cl(p,q).

Elements are stored as flat coefficient vectors of length 2**n indexed by
blade bitmask: bit a-1 set means the generator e_a is a factor of the
blade.  Two scalar rings are supported: exact rationals (Python int /
fractions.Fraction, never silently degraded) and binary64 floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isfinite, lcm

from .errors import NonFiniteError, RingMismatchError, SignatureMismatchError

RATIONAL = "rational"
FLOAT64 = "f64"

MAX_DIM = 16

# Each conjugation flips the sign of grade k by (-1)**comb(k, choose).
# choose=1 is the grade involution, 2 the reversion, 4 and 8 the two
# higher involutions; the generalized family uses choose = 2**(j-1).
_CONJ_CHOOSE = {"hat": 1, "tilde": 2, "triangle": 4, "square": 8}


@dataclass(frozen=True)
class Signature:
    """The algebra Cl(p,q): p generators square to +1, q to -1."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError(f"negative signature ({self.p},{self.q})")
        n = self.p + self.q
        if not 1 <= n <= MAX_DIM:
            raise ValueError(
                f"dimension {n} outside the supported range 1..{MAX_DIM}"
            )

    @property
    def dim(self):
        """Vector-space dimension n = p + q."""
        return self.p + self.q

    @property
    def ncoeffs(self):
        """Number of basis blades, 2**n."""
        return 1 << self.dim

    @property
    def charpoly_degree(self):
        """Degree of the characteristic polynomial, 2**ceil(n/2)."""
        return 1 << ((self.dim + 1) // 2)

    @property
    def num_conjugations(self):
        """Number of independent conjugations needed to isolate the
        scalar part: floor(log2 n) + 1."""
        return self.dim.bit_length()

    def __repr__(self):
        return f"Signature({self.p},{self.q})"


@lru_cache(maxsize=None)
def _grades(n):
    return tuple(mask.bit_count() for mask in range(1 << n))


@lru_cache(maxsize=None)
def _sign_masks(n, p):
    """Row masks of the blade sign rule: e_a e_b = (-1)**popcount(b & m_a)
    e_(a^b), with m_a = (a>>1) ^ (a>>2) ^ ... ^ (a & qmask).

    The shifts count the transpositions that interleave b's generators
    into a's; the qmask term counts the shared generators squaring to -1.
    """
    qmask = ((1 << n) - 1) & ~((1 << p) - 1)
    shifts = [0] * (1 << n)
    for a in range(2, 1 << n):
        shifts[a] = (a >> 1) ^ shifts[a >> 1]
    return tuple(m ^ (a & qmask) for a, m in enumerate(shifts))


def blade_product(a_mask, b_mask, sig):
    """Product of two basis blades: returns (sign, result_mask)."""
    n = sig.dim
    if not (0 <= a_mask < (1 << n) and 0 <= b_mask < (1 << n)):
        raise ValueError("blade mask out of range for the signature")
    odd = (b_mask & _sign_masks(n, sig.p)[a_mask]).bit_count() & 1
    return (-1 if odd else 1), a_mask ^ b_mask


def _coerce(value, ring):
    if ring == RATIONAL:
        if isinstance(value, bool):
            raise RingMismatchError("bool is not a rational coefficient")
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        raise RingMismatchError(
            f"{type(value).__name__} coefficient in the rational ring"
        )
    if ring == FLOAT64:
        if isinstance(value, (int, float, Fraction)):
            try:
                return float(value)
            except OverflowError:
                raise NonFiniteError(
                    f"{type(value).__name__} coefficient beyond the f64 range"
                ) from None
        raise RingMismatchError(
            f"{type(value).__name__} coefficient in the f64 ring"
        )
    raise RingMismatchError(f"unknown scalar ring {ring!r}")


def _require_finite(*elements):
    """Raise NonFiniteError if a float coefficient is NaN or infinite.

    Called where elements enter a computation, never per product."""
    for u in elements:
        if u.ring == FLOAT64 and not all(map(isfinite, u.coeffs)):
            bad = next(c for c in u.coeffs if not isfinite(c))
            raise NonFiniteError(f"non-finite coefficient {bad!r}")


def _common_denominator(*elements):
    """The lcm of every coefficient denominator of rational elements."""
    return lcm(*(c.denominator for u in elements for c in u.coeffs))


class Multivector:
    """Immutable element of Cl(p,q) over one scalar ring.

    Rational coefficients are kept as plain ints whenever the denominator
    is 1, so integer-only workloads stay in fast int arithmetic.
    """

    __slots__ = ("sig", "ring", "coeffs")

    def __init__(self, sig, coeffs, ring=RATIONAL):
        coeffs = tuple(_coerce(c, ring) for c in coeffs)
        if len(coeffs) != sig.ncoeffs:
            raise ValueError(
                f"expected {sig.ncoeffs} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, sig, ring=RATIONAL):
        return cls(sig, [0] * sig.ncoeffs, ring)

    @classmethod
    def scalar(cls, sig, value, ring=RATIONAL):
        coeffs = [0] * sig.ncoeffs
        coeffs[0] = value
        return cls(sig, coeffs, ring)

    @classmethod
    def blade(cls, sig, mask, value=1, ring=RATIONAL):
        if not 0 <= mask < sig.ncoeffs:
            raise ValueError(f"blade mask {mask} out of range")
        coeffs = [0] * sig.ncoeffs
        coeffs[mask] = value
        return cls(sig, coeffs, ring)

    @classmethod
    def from_terms(cls, sig, terms, ring=RATIONAL):
        """Build from {mask: coefficient}; missing blades are zero."""
        coeffs = [0] * sig.ncoeffs
        for mask, value in terms.items():
            coeffs[mask] = value
        return cls(sig, coeffs, ring)

    # -- bookkeeping ---------------------------------------------------

    def _zero(self):
        return 0.0 if self.ring == FLOAT64 else 0

    def _check_compat(self, other):
        if self.sig != other.sig:
            raise SignatureMismatchError(
                f"{self.sig!r} does not match {other.sig!r}"
            )
        if self.ring != other.ring:
            raise RingMismatchError(
                f"ring {self.ring!r} does not match {other.ring!r}"
            )

    def scalar_part(self):
        return self.coeffs[0]

    def max_abs_coeff(self):
        return max(abs(c) for c in self.coeffs)

    def nonscalar_norm(self):
        """Max absolute coefficient outside grade 0."""
        rest = self.coeffs[1:]
        return max(map(abs, rest)) if rest else self._zero()

    def is_zero(self):
        zero = self._zero()
        return all(c == zero for c in self.coeffs)

    # -- linear structure ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_compat(other)
        return Multivector(
            self.sig,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            self.ring,
        )

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_compat(other)
        return Multivector(
            self.sig,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
            self.ring,
        )

    def __neg__(self):
        return Multivector(self.sig, [-c for c in self.coeffs], self.ring)

    def scale(self, value):
        value = _coerce(value, self.ring)
        return Multivector(
            self.sig, [value * c for c in self.coeffs], self.ring
        )

    def __truediv__(self, value):
        if isinstance(value, Multivector):
            return NotImplemented
        if self.ring == RATIONAL:
            return self.scale(Fraction(1, 1) / value)
        return self.scale(1.0 / _coerce(value, self.ring))

    # -- geometric product ----------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Multivector):
            return self.scale(other)
        self._check_compat(other)
        n = self.sig.dim
        out = [self._zero()] * (1 << n)
        # e_a e_b = -e_(a^b) exactly when b & masks[a] has odd popcount.
        terms = [(b, cb) for b, cb in enumerate(other.coeffs) if cb]
        masks = _sign_masks(n, self.sig.p)
        popcount = _grades(n)
        for a, ca in enumerate(self.coeffs):
            if not ca:
                continue
            m = masks[a]
            for b, cb in terms:
                if popcount[b & m] & 1:
                    out[a ^ b] -= ca * cb
                else:
                    out[a ^ b] += ca * cb
        return Multivector(self.sig, out, self.ring)

    def __rmul__(self, other):
        # Only scalars reach here; scalar multiplication commutes.
        return self.scale(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        result = Multivector.scalar(self.sig, 1, self.ring)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return (
            self.sig == other.sig
            and self.ring == other.ring
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.sig, self.ring, self.coeffs))

    # -- grade structure -------------------------------------------------

    def grade_project(self, k):
        n = self.sig.dim
        if not 0 <= k <= n:
            raise ValueError(f"grade {k} out of range 0..{n}")
        grades = _grades(n)
        zero = self._zero()
        return Multivector(
            self.sig,
            [c if grades[i] == k else zero
             for i, c in enumerate(self.coeffs)],
            self.ring,
        )

    def _apply_grade_signs(self, signs):
        grades = _grades(self.sig.dim)
        return Multivector(
            self.sig,
            [c if signs[grades[i]] > 0 else -c
             for i, c in enumerate(self.coeffs)],
            self.ring,
        )

    def hat(self):
        return conjugate(self, "hat")

    def tilde(self):
        return conjugate(self, "tilde")

    def triangle(self):
        return conjugate(self, "triangle")

    def square(self):
        return conjugate(self, "square")

    def __str__(self):
        from .serialize import format_multivector

        return format_multivector(self)

    def __repr__(self):
        return f"<Multivector Cl({self.sig.p},{self.sig.q}) {self}>"


@lru_cache(maxsize=None)
def _conj_signs(n, choose):
    return tuple(-1 if comb(k, choose) & 1 else 1 for k in range(n + 1))


def conjugate(u, kind, j=None):
    """Grade-wise sign conjugation.

    kind is one of "hat", "tilde", "triangle", "square", or
    "triangle_j" with an explicit index j >= 1.  Every kind is an
    involution; only hat and tilde are (anti)automorphisms.
    """
    if kind == "triangle_j":
        if j is None or j < 1:
            raise ValueError("triangle_j needs an index j >= 1")
        choose = 1 << (j - 1)
    else:
        if j is not None:
            raise ValueError("index j is only valid for triangle_j")
        try:
            choose = _CONJ_CHOOSE[kind]
        except KeyError:
            raise ValueError(f"unknown conjugation kind {kind!r}") from None
    return u._apply_grade_signs(_conj_signs(u.sig.dim, choose))


def grade_project(u, k):
    return u.grade_project(k)


def center_project(u):
    """Projection onto the center: grade 0, plus grade n when n is odd."""
    n = u.sig.dim
    out = u.grade_project(0)
    if n & 1:
        out = out + u.grade_project(n)
    return out


def natural(b):
    """The composite conjugation (hat(B) * tilde(B)) under triangle."""
    return conjugate(b.hat() * b.tilde(), "triangle")


def sharp(b):
    """The composite conjugation (hat(B) * tilde(hat(B))) under triangle."""
    bh = b.hat()
    return conjugate(bh * bh.tilde(), "triangle")


def scalar_via_conjugations(u):
    """Scalar part recovered as the average of u over all compositions
    of the generalized conjugations, without reading coeffs[0] of u.

    Equals u.coeffs[0]; the direct lookup serves as the test oracle.
    """
    m = u.sig.num_conjugations
    total = Multivector.zero(u.sig, u.ring)
    for subset in range(1 << m):
        term = u
        for j in range(1, m + 1):
            if subset & (1 << (j - 1)):
                term = conjugate(term, "triangle_j", j)
        total = total + term
    if u.ring == RATIONAL:
        avg = total / Fraction(1 << m)
    else:
        avg = total / float(1 << m)
    return avg.scalar_part()
