"""Dense multivector arithmetic for the real Clifford algebras Cl(p,q).

Elements are stored as flat coefficient vectors of length 2**n indexed by
blade bitmask: bit a-1 set means the generator e_a is a factor of the
blade.  Two scalar rings are supported: exact rationals, never silently
degraded, and binary64 floats.  A rational element is int numerators
over one positive denominator in lowest terms, so products and sums run
on ints with one gcd per result; a float element is its floats over 1.
Only the public constructors and scale coerce values; kernel results
go through _build and _times.  Denominators are this module's alone,
but for _spinor.enter, which scales every recursion to integers.
from_terms, scalar and blade coerce and take the lcm over the given
terms only, O(nnz) Python work; every pass over all 2**n numerators
(sums, scaling, gcd division, conjugation signs, grade projection) runs
at C speed through map and per-n tables.  The scalar step of
Faddeev-LeVerrier on blades reads the scalar numerator alone
(_scalar_step).

The geometric product is one loop over the nonzero coefficient pairs,
with a sign mask per blade row, at every n.  Dense operands, with
nnz(u) nnz(v) >= 4**n / 5, run a straight-line function generated once
per signature and ring from the verified spinor tables of _spinor, at
n = 4 and 5 in the rational ring and n = 5 in f64: it multiplies the
operands' matrix images (64 products in place of 256 in Cl(2,2)) and
reads the blades back, exactly by a shift in the rational ring and in
f64 by a multiplication by an exact power of two, so f64 results are
the image sums rounded left to right, not the loop's.  The central part
of a product, which the closed forms' coefficients need, takes O(2**n)
(_center_of_product).

A Span is the subalgebra spanned by some blades, with 2**r coordinates
of its own for r the rank of their masks over GF(2).  Its elements are
Multivectors whose sig is the Span, and their products run the same mask
loop (_mask_product) with an r-bit sign table, visiting the nonzero
coefficients in the same ascending order of blade masks, so f64 sums
round as on blades.  The recursions of charpoly run there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from math import comb, gcd, isfinite, isnan, lcm, nan
from operator import add, attrgetter, eq, floordiv, itemgetter, mul, neg, sub

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
def _grade_picks(n, k):
    """An itemgetter that takes from a coefficient tuple with one zero
    appended the coefficients of grade k, and that zero for the others."""
    zero = 1 << n
    return itemgetter(*[m if g == k else zero for m, g in enumerate(_grades(n))])


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


# Products in a ring at an n listed for it, with nnz(u) nnz(v) >= 4**n / 5
# nonzero coefficient pairs, run the generated _image_line of the ring.
# All others run the mask loop in Multivector.__mul__.  Per product,
# 2-core x86-64, CPython 3.11, best of 5, noisy to about 30 %:
# - rational, dense: _image_line against the blade straight-line function
#   it replaced (the 4**n terms unrolled in the loop's order), with ints
#   in [-3,3] / [-300,300] / [-10**40,10**40]: at n = 4, Cl(2,2)
#   4.6-7.3 -> 3.1-4.6 us, 1.6x / 2.0-2.1x / 2.1-2.3x, and the four
#   signatures with complex images 1.2-1.4x / 1.6-2.0x / 1.2-1.8x; at
#   n = 5, 18-22 -> 8-11 us, 1.8-2.3x / 2.4-3.1x / 2.0-3.1x.
# - rational crossover: with A and B of k random blades, ints or k/d,
#   |k|, d <= 7, _image_line took 3.5-10 us at any density at n = 4,
#   and the loop 4.6-8 us at 16 pairs, 7-13 at 49 and 26-44 at 256.  At
#   n = 5 they tied near 64-100 pairs (9-23 us each).  So the kernel
#   would win from about 16 pairs at n = 4 and 100 at n = 5.  The rule
#   keeps its line at 52 and 205 pairs: a lower one moves sparse
#   products (the CLI's literals) onto the kernel, and wants its own
#   paired runs.
# - f64, n = 5, dense, all six signatures: _image_line 9.1-10.6 us
#   against 24.2-25.7 us for the blade straight-line function it
#   replaced; the loop took 0.06-0.08 us per pair, so it wins below
#   about 110-180 pairs, under the rule's 205.  The kernel's error
#   against the exact product of the same floats was 2.4-3.5e-16 of the
#   largest coefficient.
# f64 stops at n = 5.  The n = 4 kernel speeds f64 solves up too, but
# perfbench/run.py keeps one record per op, so its peak RSS grows with
# ops/s (ROADMAP item 7).  Without it and with it, two paired 15 s
# solve_f64 runs (seeds 901, 902) read ops/s 1208 -> 1892 and 1202 ->
# 1912, and peak_rss_mb 35.5 -> 40.4 (+13.8 %) and 34.3 -> 37.4
# (+9.1 %), against that metric's 10 % bound.  Enabling it is one
# entry, 4, below.  Dense exact n = 5 solves and public recursions run
# on the spinor matrices, but the rational 5 serves an explicit
# closed_n5, closed_form_det and the dense intermediate products of
# sparse closed_n5 solves.
_STRAIGHT_LINE_DIMS = {RATIONAL: (4, 5), FLOAT64: (5,)}


@lru_cache(maxsize=None)
def _image_line(n, p, ring=RATIONAL):
    """The product of two elements of Cl(p, n-p) in ring through their
    spinor images: a function of (u, v) on their numerators, generated
    from the verified tables of _spinor (product_source)."""
    from ._spinor import product_source  # _spinor imports this module

    namespace = {}
    source = product_source(Signature(p, n - p), ring)
    exec(compile(source, f"<image product Cl({p},{n - p})>", "exec"), namespace)
    return namespace["product"]


def _mask_product(u, v, masks, popcount, zero):
    """The mask loop: the product of the coefficient vectors u and v of a
    basis where e_a e_b = (-1)**popcount[b & masks[a]] e_(a^b), summed
    over the nonzero pairs with a and then b ascending."""
    out = [zero] * len(u)
    blades = range(len(u))
    terms = [(b, v[b]) for b in compress(blades, v)]
    for a in compress(blades, u):
        ca, m = u[a], masks[a]
        for b, cb in terms:
            if popcount[b & m] & 1:
                out[a ^ b] -= ca * cb
            else:
                out[a ^ b] += ca * cb
    return out


class Span:
    """The subalgebra S of Cl(p,q) spanned by the blades whose masks lie in
    one GF(2) subspace, with coordinates of its own: basis holds the r
    masks g_0 < ... < g_(r-1) of a reduced echelon basis (each pivot, the
    highest bit of one g_t, is set in no other), and compact index j
    stands for the XOR of the g_t picked by j's bits.  So XOR of indices
    is XOR of masks, and ascending indices are ascending masks.  The sign
    rule of Cl(p,q) is linear in the left mask, so S's is the mask loop's
    with the r-bit masks m'_j, bit t = parity(g_t & m_(mask of j)).

    An element of S in these coordinates is a Multivector whose sig is
    the Span: products, sums, scaling and the scalar part (index 0) work
    as on blades, and to_blades and of_blades convert."""

    __slots__ = ("sig", "basis", "full", "masks", "popcount", "ncoeffs")

    def __init__(self, sig, basis):
        self.sig, self.basis = sig, basis
        rows = _sign_masks(sig.dim, sig.p)
        full, masks = [0], [0]
        for g in basis:
            m = sum(((h & rows[g]).bit_count() & 1) << t for t, h in enumerate(basis))
            full += [f ^ g for f in full]
            masks += [x ^ m for x in masks]
        self.full, self.masks = tuple(full), tuple(masks)
        self.popcount = _grades(len(basis))
        self.ncoeffs = len(full)

    @classmethod
    def of(cls, u):
        """The span of u's nonzero blades, or None where they span all n
        generators; that holds without a look where more than 2**(n-1)
        coefficients are nonzero."""
        n, num = u.sig.dim, u._num
        if len(num) - num.count(0) > 1 << (n - 1):
            return None
        pivots = {}
        for m in compress(range(len(num)), num):
            for bit, g in pivots.items():
                if m >> bit & 1:
                    m ^= g
            if m:
                top = m.bit_length() - 1
                for bit, g in pivots.items():
                    if g >> top & 1:
                        pivots[bit] = g ^ m
                pivots[top] = m
        if len(pivots) == n:
            return None
        return cls(u.sig, tuple(pivots[bit] for bit in sorted(pivots)))

    # p, q and n of the algebra S lies in, for what reports products by
    # algebra (perfbench's tracer); no product or projection reads them.
    p = property(lambda self: self.sig.p)
    q = property(lambda self: self.sig.q)
    dim = property(lambda self: self.sig.dim)

    @property
    def holds_pseudoscalar(self):
        """Whether e_1...e_n lies in S, at S's last index if so."""
        return self.full[-1] == (1 << self.sig.dim) - 1

    def of_blades(self, u):
        """u, an element of S on blades, in S's coordinates."""
        return _build(self, u.ring, list(map(u._num.__getitem__, self.full)), u._den)

    def to_blades(self, u):
        """u, an element in S's coordinates, on the blades of Cl(p,q)."""
        num = [u._zero()] * self.sig.ncoeffs
        for m, c in zip(self.full, u._num):
            num[m] = c
        return _build(self.sig, u.ring, num, u._den)


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
    1.  Where sig is a Span, the numerators are the element's coordinates
    in that subalgebra (Span).  coeffs shows the values: floats, or an int where the denominator
    divides the numerator and a reduced Fraction otherwise.
    """

    __slots__ = ("sig", "ring", "_num", "_den")

    def __new__(cls, sig, coeffs, ring=RATIONAL):
        coeffs = [_coerce(c, ring) for c in coeffs]
        if len(coeffs) != sig.ncoeffs:
            raise ValueError(
                f"expected {sig.ncoeffs} coefficients, got {len(coeffs)}"
            )
        return _build(sig, ring, *_over_lcm(coeffs, ring))

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
        values, den = _over_lcm([_coerce(v, ring) for v in terms.values()], ring)
        num = [_coerce(0, ring)] * sig.ncoeffs
        for mask, value in zip(terms, values):
            num[mask] = value
        return _build(sig, ring, num, den)

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
        # Operands nearly always share one Signature object; the value
        # comparison runs only for distinct ones.
        if self.sig is not other.sig and self.sig != other.sig:
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
        return _max_abs(self._num, self._den)

    def nonscalar_norm(self):
        """Max absolute coefficient outside grade 0."""
        return _max_abs(self._num[1:], self._den)

    def is_zero(self):
        return not any(self._num)

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
            out = list(map(
                op, map(mul, self._num, repeat(fa)), map(mul, other._num, repeat(fb))
            ))
        return _build(self.sig, self.ring, out, den)

    def __neg__(self):
        return _build(self.sig, self.ring, list(map(neg, self._num)), self._den)

    def scale(self, value):
        return _times(self, _coerce(value, self.ring))

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
        sig, u, v = self.sig, self._num, other._num
        if type(sig) is Span:
            masks, popcount = sig.masks, sig.popcount
        else:
            n = sig.dim
            # An f64 sum is finite only if every coefficient is: the loop
            # skips zeros and never forms 0 * inf, and the kernel must not.
            if (
                n in _STRAIGHT_LINE_DIMS[self.ring]
                and (len(u) - u.count(0)) * (len(v) - v.count(0)) * 5 >= 1 << 2 * n
                and (self.ring == RATIONAL or isfinite(sum(u) + sum(v)))
            ):
                out = _image_line(n, sig.p, self.ring)(u, v)
                return _build(sig, self.ring, out, self._den * other._den)
            masks, popcount = _sign_masks(n, sig.p), _grades(n)
        out = _mask_product(u, v, masks, popcount, self._zero())
        return _build(sig, self.ring, out, self._den * other._den)

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
            and all(map(eq, self._num, other._num))
        )

    def __hash__(self):
        return hash((self.sig, self.ring, self._num, self._den))

    # -- grade structure -------------------------------------------------

    def grade_project(self, k):
        n = self.sig.dim
        if not 0 <= k <= n:
            raise ValueError(f"grade {k} out of range 0..{n}")
        pick = _grade_picks(n, k)
        return _build(self.sig, self.ring, pick((*self._num, self._zero())), self._den)

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


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _over_lcm(values, ring):
    """(numerators, den) of coerced values, ints and Fractions or floats:
    den is the lcm of their denominators, 1 for floats."""
    if ring != RATIONAL:
        return values, 1
    den = lcm(*[v.denominator for v in values if type(v) is not int])
    if den == 1:
        return values, 1
    scales = map(floordiv, repeat(den), map(_denominator, values))
    return list(map(mul, map(_numerator, values), scales)), den


def _max_abs(num, den):
    """max |c| / den over the numerators num, NaN where one of them is
    NaN: max() returns a NaN only when it comes first.  No numerator (the
    non-scalar part of a one-coefficient span) gives 0."""
    top = max(map(abs, num), default=0)
    if type(top) is float and any(map(isnan, num)):
        return nan
    return _value(top, den)


def _times(u, value):
    """u times a value of its ring, an int or Fraction or a float, with
    no coercion: a product per numerator unless value is 1/k, and one
    gcd in _build."""
    num, den = (value, 1) if u.ring == FLOAT64 else value.as_integer_ratio()
    return _build(
        u.sig, u.ring, u._num if num == 1 else list(map(mul, repeat(num), u._num)),
        den * u._den,
    )


def _scalar_step(u, length, k, differ):
    """The scalar step of Faddeev-LeVerrier on blades, from u's scalar
    numerator: c = (length/k) <u>_0, a number of u's ring (an int where
    it is one), and u - c if differ, else None.  A rational u - c changes
    the scalar numerator, and the others only where c's denominator is
    not a divisor of u's."""
    num, den = u._num, u._den
    if u.ring == FLOAT64:
        c = length / k * num[0]
        return c, (_build(u.sig, u.ring, (num[0] - c, *num[1:])) if differ else None)
    top, bottom = length * num[0], k * den
    g = gcd(top, bottom)
    top, bottom = top // g, bottom // g
    c = top if bottom == 1 else Fraction(top, bottom)
    if not differ:
        return c, None
    # u - c over lcm(den, bottom) = den * m.
    m = bottom // gcd(bottom, den)
    rest = num[1:] if m == 1 else map(mul, num[1:], repeat(m))
    first = num[0] * m - top * (den * m // bottom)
    return c, _build(u.sig, u.ring, (first, *rest), den * m)


def _build(sig, ring, num, den=1):
    """The kernel's constructor: numerators num (ints, or floats over 1)
    over den > 0, divided by their gcd with den; nothing is coerced."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = list(map(floordiv, num, repeat(g)))
            den //= g
    u = object.__new__(Multivector)
    object.__setattr__(u, "sig", sig)
    object.__setattr__(u, "ring", ring)
    object.__setattr__(u, "_num", tuple(num))
    object.__setattr__(u, "_den", den)
    return u


@lru_cache(maxsize=None)
def _conj_signs(n, choose):
    """The sign of each blade under a conjugation: (-1)**comb(grade,
    choose).  Multiplying by 1 or -1 leaves or flips each coefficient,
    signed zeros included."""
    return tuple(-1 if comb(g, choose) & 1 else 1 for g in _grades(n))


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
    signs = _conj_signs(u.sig.dim, choose)
    return _build(u.sig, u.ring, list(map(mul, u._num, signs)), u._den)


def grade_project(u, k):
    return u.grade_project(k)


def center_project(u):
    """Projection onto the center: grade 0, plus grade n when n is odd.
    In a span's coordinates (odd n) the pseudoscalar, where S holds it,
    is the last index; both parts are summed with a zero as on blades."""
    if type(u.sig) is Span:
        zero = u._zero()
        out = [zero] * u.sig.ncoeffs
        out[0] = u._num[0] + zero
        if u.sig.holds_pseudoscalar:
            out[-1] = zero + u._num[-1]
        return _build(u.sig, u.ring, out, u._den)
    n = u.sig.dim
    out = u.grade_project(0)
    if n & 1:
        out = out + u.grade_project(n)
    return out


def _center_of_product(u, v):
    """center_project(u * v) in O(2**n) products: its scalar part sums
    +-u_a v_a, and at odd n its pseudoscalar part +-u_a v_(a ^ I), over
    the nonzero u_a in ascending a, the order in which the mask loop sums
    them, so f64 values round as the loop's on every interpreter."""
    n = u.sig.dim
    v_num, zero = v._num, u._zero()
    masks = _sign_masks(n, u.sig.p)
    popcount = _grades(n)
    top = (1 << n) - 1
    out = [zero] * (1 << n)
    for k in (0, top) if n & 1 else (0,):
        total = zero
        for a in compress(range(1 << n), u._num):
            b = a ^ k
            if v_num[b]:
                if popcount[b & masks[a]] & 1:
                    total -= u._num[a] * v_num[b]
                else:
                    total += u._num[a] * v_num[b]
        out[k] = total
    return _build(u.sig, u.ring, out, u._den * v._den)


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
