"""Dense multivector arithmetic for the real Clifford algebras Cl(p,q).

Elements are stored as flat coefficient vectors of length 2**n indexed by
blade bitmask: bit a-1 set means the generator e_a is a factor of the
blade.  Two scalar rings are supported: exact rationals, never silently
degraded, and binary64 floats.  A rational element is int numerators
over one positive denominator in lowest terms, so products and sums run
on ints with one gcd per result; a float element is its floats over 1.
Only the public constructors coerce values; kernel results go through
_build.  Denominators are this module's alone, but for the conversion
of a problem into integer spinor matrices in sylvester._solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isfinite, lcm
from operator import add, sub

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


def _value(num, den):
    """The scalar num / den: num itself when den is 1, else an int where
    den divides num and a reduced Fraction otherwise."""
    if den == 1:
        return num
    quo, rem = divmod(num, den)
    return Fraction(num, den) if rem else quo


class Multivector:
    """Immutable element of Cl(p,q) over one scalar ring.

    A rational element holds a tuple of int numerators over one positive
    denominator, in lowest terms; a float element holds its floats over
    1.  coeffs shows the values: floats, or an int where the denominator
    divides the numerator and a reduced Fraction otherwise.
    """

    __slots__ = ("sig", "ring", "_num", "_den")

    def __new__(cls, sig, coeffs, ring=RATIONAL):
        coeffs = [_coerce(c, ring) for c in coeffs]
        if len(coeffs) != sig.ncoeffs:
            raise ValueError(
                f"expected {sig.ncoeffs} coefficients, got {len(coeffs)}"
            )
        return _over_lcm(sig, ring, coeffs, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, sig, ring=RATIONAL):
        return cls.from_terms(sig, {}, ring)

    @classmethod
    def scalar(cls, sig, value, ring=RATIONAL):
        return cls.from_terms(sig, {0: value}, ring)

    @classmethod
    def blade(cls, sig, mask, value=1, ring=RATIONAL):
        if not 0 <= mask < sig.ncoeffs:
            raise ValueError(f"blade mask {mask} out of range")
        return cls.from_terms(sig, {mask: value}, ring)

    @classmethod
    def from_terms(cls, sig, terms, ring=RATIONAL):
        """Build from {mask: coefficient}; missing blades are zero."""
        coeffs = [_coerce(0, ring)] * sig.ncoeffs
        for mask, value in terms.items():
            coeffs[mask] = _coerce(value, ring)
        return _over_lcm(sig, ring, coeffs, [coeffs[mask] for mask in terms])

    # -- bookkeeping ---------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients, indexed by blade mask."""
        den = self._den
        if den == 1:
            return self._num
        return tuple(Fraction(c, den) if c % den else c // den for c in self._num)

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
        return _value(self._num[0], self._den)

    def max_abs_coeff(self):
        return _value(max(map(abs, self._num)), self._den)

    def nonscalar_norm(self):
        """Max absolute coefficient outside grade 0."""
        rest = self._num[1:]
        return _value(max(map(abs, rest)), self._den) if rest else self._zero()

    def is_zero(self):
        zero = self._zero()
        return all(c == zero for c in self._num)

    # -- linear structure ----------------------------------------------

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def _combine(self, other, op):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_compat(other)
        den = self._den
        if den == other._den:
            out = list(map(op, self._num, other._num))
        else:
            den = lcm(den, other._den)
            fa, fb = den // self._den, den // other._den
            out = [op(a * fa, b * fb) for a, b in zip(self._num, other._num)]
        return _build(self.sig, self.ring, out, den)

    def __neg__(self):
        return _build(self.sig, self.ring, [-c for c in self._num], self._den)

    def scale(self, value):
        value = _coerce(value, self.ring)
        num, den = (value, 1) if self.ring == FLOAT64 else value.as_integer_ratio()
        return _build(
            self.sig, self.ring, [num * c for c in self._num], den * self._den
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
        terms = [(b, cb) for b, cb in enumerate(other._num) if cb]
        masks = _sign_masks(n, self.sig.p)
        popcount = _grades(n)
        for a, ca in enumerate(self._num):
            if not ca:
                continue
            m = masks[a]
            for b, cb in terms:
                if popcount[b & m] & 1:
                    out[a ^ b] -= ca * cb
                else:
                    out[a ^ b] += ca * cb
        return _build(self.sig, self.ring, out, self._den * other._den)

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
            and self._den == other._den
            and all(a == b for a, b in zip(self._num, other._num))
        )

    def __hash__(self):
        return hash((self.sig, self.ring, self._num, self._den))

    # -- grade structure -------------------------------------------------

    def grade_project(self, k):
        n = self.sig.dim
        if not 0 <= k <= n:
            raise ValueError(f"grade {k} out of range 0..{n}")
        grades = _grades(n)
        zero = self._zero()
        return _build(
            self.sig,
            self.ring,
            [c if grades[i] == k else zero for i, c in enumerate(self._num)],
            self._den,
        )

    def _apply_grade_signs(self, signs):
        grades = _grades(self.sig.dim)
        return _build(
            self.sig,
            self.ring,
            [c if signs[grades[i]] > 0 else -c for i, c in enumerate(self._num)],
            self._den,
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


def _over_lcm(sig, ring, coeffs, values):
    """The coerced coeffs (ints and Fractions, or floats) as numerators
    over the lcm of the denominators of values, every nonzero one."""
    den = 1
    if ring == RATIONAL:
        den = lcm(*[v.denominator for v in values if type(v) is not int])
    if den != 1:
        coeffs = [c and c.numerator * (den // c.denominator) for c in coeffs]
    return _build(sig, ring, coeffs, den)


def _build(sig, ring, num, den=1):
    """The kernel's constructor: numerators num (ints, or floats over 1)
    over den > 0, divided by their gcd with den; nothing is coerced."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    u = object.__new__(Multivector)
    object.__setattr__(u, "sig", sig)
    object.__setattr__(u, "ring", ring)
    object.__setattr__(u, "_num", tuple(num))
    object.__setattr__(u, "_den", den)
    return u


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
