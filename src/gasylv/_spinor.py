"""Spinor-matrix images of Cl(p,q): the kernel of dense recursions.

The complex spinor representation maps Cl(p,q) faithfully into complex
matrices, with N = 2**ceil(n/2): one N x N block at even n, two
N/2 x N/2 blocks at odd n.  The generators are Jordan-Wigner Pauli
strings on m = floor(n/2) qubits, times i where the generator squares
to -1; at odd n one generator is Z...Z, with opposite signs in the two
blocks, so that the pseudoscalar tells them apart.  Where the
pseudoscalar squares to -1, Cl(p,q) is M(N/2, C) and the first block
alone is faithful, so only it is kept.  Generators that square to +1
take the real X-type strings (then Z...Z) first and those that square
to -1 the Y-type ones, which keeps every image real when p = q or
p = q + 1; other signatures carry imaginary parts.

Every blade image is a signed monomial matrix, stored as its Pauli
string: three ints (x, z, k).  Its entry in row r sits in column r ^ x
and is i**k (-1)**popcount(r & z), so the tables are O(2**n).  A product
costs O(N**3) here against up to 4**n pair products in the blade loop.
For a column mask x, the entries M[r, r ^ x] are the Walsh-Hadamard
transform over z of the terms i**k c_A of the blades with that x, and
the transform is its own inverse up to the factor s, the block size:
so a conversion either way takes one transform of length s per x and
block, O(N**2 log N) additions (_hadamard), and gathers its operands
through tables built with the signature's.  The tables of a signature are
verified once, when first built, against row-by-row products of explicit
monomial matrices: the generator relations and every blade image.  So
an exact answer can be checked by substitution on its images.

Cl(p,q) is a real algebra, so where its images carry imaginary parts a
Pauli string J with J e_a J**-1 = conj e_a for every generator image
conjugates them all (the real or quaternionic structure of Lounesto's
classification).  J is found and checked with the tables; it is the
identity exactly where every image is real, and there is none where
one complex block is kept (onto).  For an image W, row r ^ x_J of W
is then row r conjugated, up to signs, so Re tr(e_A**-1 W) is twice the
sum over the rows without x_J's top bit.  product_source generates
from the tables the dense product of two elements at n = 4 and 5 in
either ring (algebra._image_line): their images, half the rows of each
product block where x_J is not 0, and the blades read back by one shift
of the exact sums, or in f64 one multiplication of the rounded sums by
an exact power of two.

SpinorMatrix offers what the Faddeev-LeVerrier recursion and the D and F
assembly use of a Multivector: products, sums and scaling, the scalar
part Re tr / N, the grade-0 and (odd n) grade-n projections from the
block traces, and the scalar constructor.  Blocks are flat row-major
lists of real and imaginary parts, the imaginary list None where it is
zero.  A central element is kept as its value on each kept block, so a
product with it is a blockwise scaling: one plain number per block, an
int, float or Fraction where the value is real and a _Gaussian only
where its imaginary part is nonzero.  block_values() reads these values
off any matrix and central() builds a matrix from them.  A matrix
carries the ring of the element it was made from.  Rational entries are
integers: SpinorMatrix.of refuses an element with a denominator (enter
scales one first), and the preimage of an image divides by N, a power
of two that divides every sum, by a shift.  Float entries are floats,
summed in one order on every interpreter (_total, and the transform's
fixed butterflies), and the preimage divides by N.  For exact matrices,
power_traces reads the traces of a matrix's powers off the baby and
giant steps of Paterson and Stockmeyer, polynomial_at evaluates a
polynomial with central coefficients on the baby steps, and combination
sums central multiples of matrices in one pass per block: what the
exact solves use in place of Faddeev-LeVerrier.

In floats the imaginary part of a preimage is rounding, so it is
dropped; the exact ring requires it to vanish.  The norms that float
tolerances read (max_abs_coeff, nonscalar_norm) are blade coefficients
of the preimage, as for a Multivector: an entry is a sum of N of them.
A matrix made by SpinorMatrix.of keeps its element as the preimage;
any other computes its preimage at most once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import isqrt, lcm
from operator import add, itemgetter, mul, neg, sub

from .algebra import FLOAT64, RATIONAL, _build, _require_finite, _times, _value
from .errors import InternalError

# The matrices pay off from this n in each ring, and once nnz(A) nnz(B)
# reaches MIN_PAIRS.  Measured on whole solves with a scalar plus k
# random blades in A and B: at n = 6..8 the blade loop won up to 5x with
# nnz = 5 or 7 and the matrices won 1.2-6.5x with nnz = 11.  At n = 5
# the time of closed_n5 on blades over that of general_odd on the
# matrices, with B's coefficients from traces, ints / k/d, median of 5,
# two sweeps, was 1.61-1.65 / 1.75-1.77 dense and 1.46-1.47 / 1.58-1.59
# at nnz = 8 in the real Cl(3,2), 1.02-1.05 / 1.10-1.14 and 0.92-1.07
# in Cl(2,3), Cl(4,1) and Cl(0,5), and 0.84-0.93 and 0.76-0.83 in the
# two H + H algebras Cl(1,4) and Cl(5,0), whose images are complex.
# The rule stays: the matrices lose only there.  f64 stays at n = 6:
# its n = 5 recursions run on blades, where dense products take the
# image kernel of algebra._image_line, not these matrices, and
# tests/fixtures/float_golden.json pins their answers bit for bit.
MIN_DIM = {RATIONAL: 5, FLOAT64: 6}
MIN_PAIRS = 64


def pays_off(a, b):
    """Whether the recursions of AX - XB = C run faster on the spinor
    matrices of A and B than on their blades; where it holds, solve's
    default takes a recursion over a closed form.  The blade loop skips
    zero coefficients, and the recursions on sparse operands stay
    sparse, so the matrices are used only for operands that are dense
    enough."""
    if a.sig.dim < MIN_DIM[a.ring]:
        return False
    nnz_a = len(a._num) - a._num.count(0)
    nnz_b = len(b._num) - b._num.count(0)
    return nnz_a * nnz_b >= MIN_PAIRS


def enter(elements, matrices=True):
    """The one way of a recursion into the integers and the matrices:
    (elements times the lcm s of their denominators, s), as matrices
    where matrices is set and pays_off holds for the first two (for one
    element, for it twice).  A value of degree k in them is s**k times
    that of the elements given."""
    _require_finite(*elements)
    for u in elements[1:]:
        elements[0]._check_compat(u)
    scale = lcm(*(u._den for u in elements))
    if scale != 1:
        elements = [_times(u, scale) for u in elements]
    if matrices and pays_off(*(elements * 2)[:2]):
        elements = [SpinorMatrix.of(u) for u in elements]
    return elements, scale


def _pauli_product(u, v):
    """(x, z, k) of the product of two signed Pauli strings."""
    return (
        u[0] ^ v[0],
        u[1] ^ v[1],
        (u[2] + v[2] + 2 * (u[0] & v[1]).bit_count()) & 3,
    )


class _Representation:
    """The tables of one signature: per kept block the blade images, and
    per column mask x and sign mask z the flat positions and the row
    signs of a monomial matrix; and the getters of the two conversions.
    Built once per signature and verified then (_verify)."""

    def __init__(self, sig):
        n, m = sig.dim, sig.dim // 2
        s = 1 << m
        x_type = [(1 << j, (1 << j) - 1, 0) for j in range(m)]
        y_type = [(1 << j, (2 << j) - 1, 3) for j in range(m)]
        z_all = [(0, s - 1, 0)] if n & 1 else []
        preferred = (x_type + z_all + y_type, y_type + z_all + x_type)
        generators = []
        for a in range(n):
            minus = a >= sig.p
            x, z, k = next(
                t for t in preferred[minus]
                if t[:2] not in {g[:2] for g in generators}
            )
            generators.append((x, z, (k + minus) & 3))
        blades = [(0, 0, 0)]
        for mask in range(1, 1 << n):
            top = mask.bit_length() - 1
            blades.append(
                _pauli_product(blades[mask ^ (1 << top)], generators[top])
            )
        # At odd n the pseudoscalar's image is i**k times the identity.
        # When it squares to -1 (k odd), Cl(p,q) is M(N/2, C) and one
        # block is already faithful: every Gaussian block is an image.
        self.onto = bool(n & 1 and blades[-1][2] & 1)
        self.sig = sig
        self.size = s
        self.count = 2 if n & 1 and not self.onto else 1
        self.degree = s * self.count
        # The second block negates Z...Z, the only string with x = 0 (none
        # is used at even n), and so every blade that contains it.
        flip = sum(1 << a for a, g in enumerate(generators) if not g[0])
        tables = [tuple(blades)]
        if self.count == 2:
            tables.append(tuple(
                (x, z, (k + 2 * (a & flip).bit_count()) & 3)
                for a, (x, z, k) in enumerate(blades)
            ))
        self.blades = tuple(tables)
        self.positions = tuple(
            tuple(r * s + (r ^ x) for r in range(s)) for x in range(s)
        )
        self.signs = tuple(
            tuple(-1 if (r & z).bit_count() & 1 else 1 for r in range(s))
            for z in range(s)
        )
        self._verify(generators, flip)
        self.conjugation = self._conjugation(generators, flip)
        # The conversions, in x-major order: entry x s + r of diagonals'
        # list is M[r, r ^ x], and scatter puts such a list back in place.
        area = s * s
        diagonals = [p for row in self.positions for p in row]
        order = [0] * area
        for j, p in enumerate(diagonals):
            order[p] = j
        self.diagonals, self.scatter = _getter(diagonals), _getter(order)
        # Per kept block, for SpinorMatrix.of: per part (real, imaginary),
        # getters from (coefficients, their negatives, 0) whose sum has
        # i**k c_A at entry x s + z for each blade A with image (x, z, k)
        # and k of the part's parity.  At odd n the blades A and A I share
        # an entry, so a part takes up to two getters; else it takes one.
        # For multivector: the getters of Re and Im of i**-k t for each
        # blade from (Re t, Im t, -Re t, -Im t), as Im i**-k t is
        # Re i**-(k + 1) t.
        ncoeffs = len(blades)
        self.spread, self.gather = [], []
        for table in self.blades:
            slots = ([[] for _ in range(area)], [[] for _ in range(area)])
            for a, (x, z, k) in enumerate(table):
                slots[k & 1][x * s + z].append(a + ncoeffs * (k >> 1))
            self.spread.append(tuple(
                tuple(
                    _getter([row[j] if j < len(row) else 2 * ncoeffs for row in part])
                    for j in range(max(map(len, part)))
                )
                for part in slots
            ))
            self.gather.append(tuple(
                _getter([((k + turn) & 3) * area + x * s + z for x, z, k in table])
                for turn in (0, 1)
            ))

    def _monomial(self, image):
        """The signed Pauli string (x, z, k) as the explicit monomial
        matrix that conversions read from the tables: per row, the
        column of its one entry and that entry as a power of i."""
        x, z, k = image
        s = self.size
        return (
            tuple(p - r * s for r, p in enumerate(self.positions[x])),
            tuple((k if sign > 0 else k + 2) & 3 for sign in self.signs[z]),
        )

    def _images(self, generators, flip, second):
        """The explicit monomial matrices of the generators in a block."""
        return [
            self._monomial((x, z, k + 2 * (second and flip >> a & 1)))
            for a, (x, z, k) in enumerate(generators)
        ]

    def _verify(self, generators, flip):
        """Raise InternalError unless, in every kept block, the generator
        images satisfy e_a e_b + e_b e_a = 2 eta_ab and every blade image
        is the ordered product of its generators' images.  Products are
        taken row by row on explicit monomial matrices, never through
        _pauli_product.  Then the tables are a homomorphism, and a
        faithful one: Cl(p,q) is simple at even n and wherever one block
        is kept, and two blocks are kept only where the pseudoscalar
        squares to +1, checked to be +1 on one block and -1 on the
        other."""
        sig, s = self.sig, self.size
        identity = tuple(range(s))
        for second, table in enumerate(self.blades):
            images = self._images(generators, flip, second)
            for a, image in enumerate(images):
                square = 2 if a >= sig.p else 0
                if _monomial_product(image, image) != (identity, (square,) * s):
                    raise InternalError(f"generator {a + 1} of {sig!r} squares wrongly")
                for b in range(a):
                    cols, powers = _monomial_product(images[b], image)
                    minus = (cols, tuple((k + 2) & 3 for k in powers))
                    if _monomial_product(image, images[b]) != minus:
                        raise InternalError(
                            f"generators {b + 1}, {a + 1} of {sig!r} do not anticommute"
                        )
            # By induction on the mask, e_A = e_(A less its top index) e_top.
            if self._monomial(table[0]) != (identity, (0,) * s):
                raise InternalError(f"the unit of {sig!r} has the wrong image")
            for mask in range(1, len(table)):
                top = mask.bit_length() - 1
                below = self._monomial(table[mask ^ (1 << top)])
                want = _monomial_product(below, images[top])
                if self._monomial(table[mask]) != want:
                    raise InternalError(f"blade image {mask} of {sig!r} is wrong")
        if self.count == 2 and {self._monomial(t[-1]) for t in self.blades} != {
            (identity, (0,) * s), (identity, (2,) * s),
        }:
            raise InternalError(f"the two blocks of {sig!r} are not told apart")

    def _conjugation(self, generators, flip):
        """J, the Pauli string (x, z, k) with J e_a J**-1 = conj e_a for
        the image e_a of every generator, or None where there is none.

        Distinct generators anticommute, so J = the image of the blade
        e_S multiplies e_a by (-1)**(|S| - [a in S]), and conj multiplies
        it by (-1)**k_a, i**k_a its phase.  Hence S is the set of the
        generators with odd k_a where they are even in number, else that
        of those with even k_a where they are odd in number.  At even n
        one of the two holds; at odd n both (S and its complement give
        one string) or neither, and neither exactly where the
        pseudoscalar's image is i**k times the identity with k odd,
        which J fixes and conj negates: where onto.  J is the identity
        exactly where every image is real.  J is checked, in every kept
        block, on explicit monomial matrices; then J W J**-1 = conj W
        for every image W, and rows r and r ^ x_J of W determine each
        other."""
        odd = sum(1 << a for a, g in enumerate(generators) if g[2] & 1)
        even = ((1 << len(generators)) - 1) ^ odd
        if not odd.bit_count() & 1:
            blade = odd
        elif even.bit_count() & 1:
            blade = even
        else:
            return None
        j = self.blades[0][blade]
        conjugator = self._monomial(j)
        for second in range(self.count):
            for a, (cols, powers) in enumerate(self._images(generators, flip, second)):
                conj = (cols, tuple(-k & 3 for k in powers))
                if _monomial_product(conjugator, (cols, powers)) != _monomial_product(
                    conj, conjugator
                ):
                    raise InternalError(
                        f"J of {self.sig!r} does not conjugate generator {a + 1}"
                    )
        return j


def _monomial_product(u, v):
    """The product of two explicit monomial matrices, (columns, powers of
    i) per row, taken row by row."""
    (u_cols, u_powers), (v_cols, v_powers) = u, v
    return (
        tuple(v_cols[c] for c in u_cols),
        tuple((k + v_powers[c]) & 3 for c, k in zip(u_cols, u_powers)),
    )


@lru_cache(maxsize=None)
def _representation(sig):
    return _Representation(sig)


class _Gaussian:
    """A complex number real + imag i with what the kernel and the
    remainder sequence (charpoly._resultant) use of a number; // is exact
    division.  An operand is read through .real and .imag, which ints,
    floats and Fractions have too.  A block value is a _Gaussian only
    where its imaginary part is nonzero (_exact)."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag=0):
        self.real, self.imag = real, imag

    def __bool__(self):
        return bool(self.real or self.imag)

    def __eq__(self, other):
        return self.real == other.real and self.imag == other.imag

    def __neg__(self):
        return _Gaussian(-self.real, -self.imag)

    def __add__(self, other):
        return _Gaussian(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        return _Gaussian(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        return _Gaussian(other.real - self.real, other.imag - self.imag)

    def __mul__(self, other):
        return _Gaussian(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def __pow__(self, k):
        out = _Gaussian(1)
        for _ in range(k):
            out = out * self
        return out

    def __floordiv__(self, other):
        num = self * other.conjugate()
        norm = other.real * other.real + other.imag * other.imag
        return _Gaussian(num.real // norm, num.imag // norm)

    def __rfloordiv__(self, other):
        return _Gaussian(other) // self

    def conjugate(self):
        return _Gaussian(self.real, -self.imag)


def _integer(value):
    """A Fraction that is an integer as an int, so matrices stay on ints."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _exact(value):
    """A block value in its one form: the real number where the imaginary
    part is zero, else a _Gaussian, each part through _integer."""
    re, im = _integer(value.real), value.imag
    return _Gaussian(re, _integer(im)) if im else re


def _entry(value, ring):
    """A scalar as a matrix entry of the ring."""
    return float(value) if ring == FLOAT64 else _exact(value)


def _total(values):
    """The sum of values, left to right from 0.  From CPython 3.12 on,
    sum() compensates float sums; every f64 sum here takes this order,
    so it rounds alike on every interpreter."""
    return reduce(add, values, 0)


def _getter(indices):
    """itemgetter(*indices), returning a tuple even for one index."""
    if len(indices) == 1:
        (index,) = indices
        return lambda values: (values[index],)
    return itemgetter(*indices)


@lru_cache(maxsize=None)
def _hadamard(s):
    """The Walsh-Hadamard transform of each run of s entries of a flat
    sequence, generated once per s: entry r of a run's transform is
    sum_z (-1)**popcount(r & z) v_z.  Each of the log2(s) stages takes
    every pair (v_j, v_(j+h)) with j & h = 0 to (v_j + v_(j+h), v_j -
    v_(j+h)), so a run costs s log2(s) additions and subtractions, in
    one fixed order (Fino and Algazi, IEEE Trans. Computers, 1976)."""
    v = [f"v{j}" for j in range(s)]
    stages = []
    h = 1
    while h < s:
        terms = (
            f"{v[j ^ h]} - {v[j]}" if j & h else f"{v[j]} + {v[j | h]}"
            for j in range(s)
        )
        stages.append(f"        {', '.join(v)}, = {', '.join(terms)}\n")
        h *= 2
    code = (
        "def transform(values):\n"
        "    out = []\n"
        f"    for {', '.join(v)}, in zip(*[iter(values)] * {s}):\n"
        + "".join(stages)
        + f"        out += ({', '.join(v)},)\n"
        "    return out\n"
    )
    namespace = {}
    exec(code, namespace)
    return namespace["transform"]


def _entrywise_sum(lists):
    """The entrywise sum of one or two lists."""
    return list(map(add, *lists)) if len(lists) > 1 else lists[0]


def _spread(source, getters):
    """The sum of what the getters take from source, or None for none."""
    return _entrywise_sum([get(source) for get in getters]) if getters else None


@lru_cache(maxsize=None)
def _matmul(s):
    """The product of two flat s x s matrices, generated once per s.  It
    unpacks b once, then each row r of a, and appends the row's s sums
    0 + r0 b_j + r1 b_(s+j) + ..., in _total's order, as one tuple.  The
    code has s**2 terms: compiling it peaks at 0.14 MB traced at s = 8
    and 30 MB at s = 128, the block size of n = 14 and 15."""
    b = [f"b{k}" for k in range(s * s)]
    r = [f"r{k}" for k in range(s)]
    sums = ", ".join(
        "0" + "".join(f" + {r[k]} * {b[k * s + j]}" for k in range(s))
        for j in range(s)
    )
    code = (
        "def product(a, b):\n"
        f"    {', '.join(b)}, = b\n"
        "    out = []\n"
        f"    for {', '.join(r)}, in zip(*[iter(a)] * {s}):\n"
        f"        out += ({sums},)\n"
        "    return out\n"
    )
    namespace = {}
    exec(code, namespace)
    return namespace["product"]


def _signed(terms):
    """The source of a signed sum of (negative, term) pairs; 0 for none."""
    text = "".join(f" {'-' if neg else '+'} {term}" for neg, term in terms)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def product_source(sig, ring):
    """The source of one function of the numerators of two elements of
    sig in ring to those of their product, through their images.

    It forms the image entries of u and v as signed sums of their
    numerators, multiplies the kept blocks, and reads coefficient A back
    as Re tr(e_A**-1 W) / N, as SpinorMatrix.multivector does, with one
    division by a power of two: a shift of the exact integer sum in the
    rational ring, and in f64 a multiplication by that power's float
    literal, which is exact unless the result is subnormal.  Every sum
    is written out, so floats are added left to right in source order
    on every interpreter.  Where J (_Representation._conjugation) moves
    rows, J W J**-1 = conj W makes the trace terms of rows r and r ^ x_J
    conjugate: only the rows without x_J's top bit are formed, each
    counted twice, and the power is one less.  A real or imaginary part
    that vanishes for every element is left out."""
    rep = _representation(sig)
    s, j = rep.size, rep.conjugation
    # x_J's top bit; 0 where J moves no row, or there is no J.
    half = 1 << j[0].bit_length() >> 1 if j else 0
    rows = [r for r in range(s) if not r & half]
    shift = rep.degree.bit_length() - 1 - bool(half)
    blades = range(len(rep.blades[0]))
    lines = [
        "def product(u, v):",
        "".join(f"u{a}, " for a in blades) + "= u",
        "".join(f"v{a}, " for a in blades) + "= v",
    ]
    readback = [[] for _ in blades]
    for b, table in enumerate(rep.blades):
        by_x = [[] for _ in range(s)]
        for a, (x, z, k) in enumerate(table):
            by_x[x].append((a, z, k))

        def entries(name, rows):
            # Entry (r, c) is the sum of i**k (-1)**popcount(r & z) times
            # the coefficient of each blade (x, z, k) with x = r ^ c.
            parts = {}
            for r in rows:
                for c in range(s):
                    terms = ([], [])
                    for a, z, k in by_x[r ^ c]:
                        sign = ((k >> 1) + (r & z).bit_count()) & 1
                        terms[k & 1].append((sign, f"{name}{a}"))
                    for part, signed in enumerate(terms):
                        if signed:
                            parts[r, c, part] = f"{name}{b}_{r}_{c}{'ri'[part]}"
                            lines.append(f"{parts[r, c, part]} = {_signed(signed)}")
            return parts

        left, right = entries("u", rows), entries("v", range(s))
        for r in rows:
            for c in range(s):
                read = by_x[r ^ c]
                for part in sorted({k & 1 for _, _, k in read}):
                    # Re: ur vr - ui vi; Im: ur vi + ui vr.
                    pairs = ((0, part, 0), (1, 1 - part, 1 - part))
                    terms = [
                        (neg, f"{left[r, i, pu]} * {right[i, c, pv]}")
                        for i in range(s)
                        for pu, pv, neg in pairs
                        if (r, i, pu) in left and (i, c, pv) in right
                    ]
                    product = f"w{b}_{r}_{c}{'ri'[part]}"
                    lines.append(f"{product} = {_signed(terms)}")
                    for a, z, k in read:
                        if k & 1 == part:
                            sign = ((k >> 1) + (r & z).bit_count()) & 1
                            readback[a].append((sign, product))
    scaled = f">> {shift}" if ring == RATIONAL else f"* {2.0 ** -shift!r}"
    lines.append("return (" + "".join(
        f"({_signed(terms)}) {scaled}, " for terms in readback
    ) + ")")
    return "\n    ".join(lines)


def _block_product(u, v, s):
    """(re, im) of the product of two Gaussian blocks, with Gauss's three
    real products when both have imaginary parts."""
    ur, ui = u
    vr, vi = v
    product = _matmul(s)
    if ui is None:
        return product(ur, vr), None if vi is None else product(ur, vi)
    if vi is None:
        return product(ur, vr), product(ui, vr)
    rr = product(ur, vr)
    ii = product(ui, vi)
    mixed = product(list(map(add, ur, ui)), list(map(add, vr, vi)))
    return (
        list(map(sub, rr, ii)),
        [t - x - y for t, x, y in zip(mixed, rr, ii)],
    )


def _block_scaled(u, z):
    """The Gaussian block u times the block value z."""
    ur, ui = u
    zr, zi = z.real, z.imag
    if not zi:
        return [zr * t for t in ur], None if ui is None else [zr * t for t in ui]
    if ui is None:
        return [zr * t for t in ur], [zi * t for t in ur]
    return (
        [zr * t - zi * w for t, w in zip(ur, ui)],
        [zr * w + zi * t for t, w in zip(ur, ui)],
    )


def _block_sum(u, v, op):
    """(re, im) of u + v or u - v, as op is add or sub."""
    ur, ui = u
    vr, vi = v
    if vi is None:
        im = ui
    elif ui is None:
        im = vi if op is add else [-t for t in vi]
    else:
        im = list(map(op, ui, vi))
    return list(map(op, ur, vr)), im


class SpinorMatrix:
    """Image of an element of Cl(p,q) over the integers or the floats,
    never changed once made: Gaussian blocks, or for a central element
    its value on each kept block (block_values), a plain number or a
    _Gaussian.  The preimage is the element a matrix was made from, or
    is computed once, on demand."""

    __slots__ = ("rep", "ring", "blocks", "center", "_preimage")

    def __init__(self, rep, ring, blocks=None, center=None):
        self.rep = rep
        self.ring = ring
        self.blocks = blocks
        self.center = center
        self._preimage = None

    @property
    def sig(self):
        return self.rep.sig

    def _like(self, blocks=None, center=None):
        """A matrix of the same signature and ring."""
        return SpinorMatrix(self.rep, self.ring, blocks, center)

    def central(self, values):
        """The central matrix of the same signature and ring whose block
        values are values; one value stands for every block."""
        values = tuple(map(_exact, values))
        return self._like(center=values * (self.rep.count // len(values)))

    # -- conversions -------------------------------------------------------

    @classmethod
    def of(cls, u):
        """The image of an f64 Multivector, or of a rational one with
        integer coefficients, which keeps u as its preimage.  Entries
        M[r, r ^ x] are the transform over z of the terms i**k c_A of
        the blades with image (x, z, k)."""
        if u._den != 1:
            raise InternalError("a rational spinor matrix holds integers only")
        rep = _representation(u.sig)
        transform = _hadamard(rep.size)
        source = (*u._num, *map(neg, u._num), 0)
        blocks = []
        for real, imag in rep.spread:
            im = _spread(source, imag)
            blocks.append((
                list(rep.scatter(transform(_spread(source, real)))),
                list(rep.scatter(transform(im))) if im and any(im) else None,
            ))
        image = cls(rep, u.ring, tuple(blocks))
        image._preimage = u
        return image

    @classmethod
    def scalar(cls, sig, value, ring=RATIONAL):
        rep = _representation(sig)
        return cls(rep, ring, center=(_entry(value, ring),) * rep.count)

    def multivector(self):
        """The preimage, computed once.  Coefficient A is
        Re tr(image(e_A)**-1 M) / N: with image (x, z, k), the sum over
        the kept blocks of Re i**-k t, where t is entry z of the
        transform over r of M[r, r ^ x].  The imaginary part is the
        coefficient of e_A times the pseudoscalar on one block at odd n,
        and rounding in floats; it must vanish otherwise."""
        if self._preimage is not None:
            return self._preimage
        rep = self.rep
        transform = _hadamard(rep.size)
        zeros = [0] * (rep.size * rep.size)
        exact = self.ring == RATIONAL
        check = exact and not rep.onto
        coeffs, imags = [], []
        for (re, im), (real, imag) in zip(self._dense().blocks, rep.gather):
            t_re = transform(rep.diagonals(re))
            if im is None:
                t_im = neg_im = zeros
            else:
                t_im = transform(rep.diagonals(im))
                neg_im = [-t for t in t_im]
            # Entry k s**2 + j is Re i**-k t_j: Re t, Im t, -Re t, -Im t.
            turns = t_re + t_im + [-t for t in t_re] + neg_im
            coeffs.append(real(turns))
            if check:
                imags.append(imag(turns))
        if check and any(_entrywise_sum(imags)):
            raise InternalError("spinor matrix outside the real algebra")
        coeffs = _entrywise_sum(coeffs)
        if exact and not any(c & (rep.degree - 1) for c in coeffs):
            # An image: N, a power of two, divides every sum.
            shift = rep.degree.bit_length() - 1
            self._preimage = _build(rep.sig, RATIONAL, [c >> shift for c in coeffs])
        elif exact:
            self._preimage = _build(rep.sig, RATIONAL, coeffs, rep.degree)
        else:
            self._preimage = _build(rep.sig, FLOAT64, [c / rep.degree for c in coeffs])
        return self._preimage

    def _dense(self):
        if self.center is None:
            return self
        s = self.rep.size
        blocks = []
        for z in self.center:
            re, im = [0] * (s * s), [0] * (s * s)
            for p in self.rep.positions[0]:
                re[p], im[p] = z.real, z.imag
            blocks.append((re, im if z.imag else None))
        return self._like(tuple(blocks))

    # -- ring operations ------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, SpinorMatrix):
            return self.scale(other)
        if self.center is not None:
            return other._times_center(self.center)
        if other.center is not None:
            return self._times_center(other.center)
        s = self.rep.size
        return self._like(tuple(
            _block_product(u, v, s) for u, v in zip(self.blocks, other.blocks)
        ))

    def scale(self, value):
        return self._times_center((_entry(value, self.ring),) * self.rep.count)

    def _times_center(self, center):
        if self.center is None:
            return self._like(tuple(
                _block_scaled(u, z) for u, z in zip(self.blocks, center)
            ))
        return self.central(v * w for v, w in zip(self.center, center))

    def __add__(self, other):
        return self._plus(other, add)

    def __sub__(self, other):
        return self._plus(other, sub)

    def _plus(self, other, op):
        if self.center is not None and other.center is not None:
            return self.central(map(op, self.center, other.center))
        return self._like(tuple(
            _block_sum(u, v, op)
            for u, v in zip(self._dense().blocks, other._dense().blocks)
        ))

    # -- projections ------------------------------------------------------------

    def _divide(self, num, den):
        return num / den if self.ring == FLOAT64 else _value(num, den)

    def block_values(self):
        """Per kept block the value tr(block) / block size."""
        if self.center is not None:
            return self.center
        diagonal = self.rep.positions[0]
        s = self.rep.size
        return tuple(
            _exact(_Gaussian(
                self._divide(_total(re[p] for p in diagonal), s),
                0 if im is None else self._divide(_total(im[p] for p in diagonal), s),
            ))
            for re, im in self.blocks
        )

    def scalar_part(self):
        """Re tr / N: the mean over the blocks of their block values."""
        values = self.block_values()
        return self._divide(_total(v.real for v in values), len(values))

    def grade_project(self, k):
        """Grade 0, or at odd n grade n: what the block values hold
        beyond the scalar part (opposite in the two blocks, or the
        imaginary part of the one block).  Both are central."""
        n = self.sig.dim
        alpha = self.scalar_part()
        if k == 0:
            return self.central((alpha,))
        if k == n and n & 1:
            return self.central(v - alpha for v in self.block_values())
        raise ValueError(f"no grade-{k} projection of a spinor matrix")

    # -- the exact check ---------------------------------------------------------

    def is_zero(self):
        if self.center is not None:
            return not any(self.center)
        return not any(
            any(part) for block in self.blocks for part in block if part is not None
        )

    def is_image(self):
        """Whether an exact matrix is the image of its preimage: that
        preimage exists, has integer coefficients and maps back onto
        the matrix."""
        try:
            u = self.multivector()
        except InternalError:
            return False
        return u._den == 1 and (SpinorMatrix.of(u) - self).is_zero()

    # -- norms, in blade coefficients --------------------------------------------

    @property
    def coeffs(self):
        """The blade coefficients, which the f64 finiteness checks read."""
        return self.multivector().coeffs

    def max_abs_coeff(self):
        return self.multivector().max_abs_coeff()

    def nonscalar_norm(self):
        """Max absolute blade coefficient outside grade 0.  The exact ring
        only tests it against zero, and takes the max absolute entry of
        M - (its scalar part) I, which is zero exactly when it is and
        needs no conversion."""
        if self.ring == FLOAT64:
            return self.multivector().nonscalar_norm()
        rest = (self - self.grade_project(0))._dense()
        return max(
            max(map(abs, part))
            for block in rest.blocks for part in block if part is not None
        )


# -- exact polynomials in a matrix ------------------------------------------------


@lru_cache(maxsize=None)
def _linear(count):
    """The entrywise sum of count lists, each times a number, generated
    once per count: [c0 * x0 + c1 * x1 + ... for each entry], one pass.
    A plain comprehension, sum(map(mul, numbers, entries)) per entry,
    made combination 1.4-1.7x as slow on the powers at n = 5..9."""
    numbers = ", ".join(f"c{k}" for k in range(count))
    lists = ", ".join(f"l{k}" for k in range(count))
    entries = ", ".join(f"x{k}" for k in range(count))
    terms = " + ".join(f"c{k} * x{k}" for k in range(count))
    code = (
        f"def linear({numbers}, {lists}):\n"
        f"    return [{terms} for {entries}, in zip({lists})]\n"
    )
    namespace = {}
    exec(code, namespace)
    return namespace["linear"]


def combination(matrices, columns):
    """sum_k T_k M_k for exact matrices M_k and the central T_k whose
    block values are columns[k] (one value stands for every block): per
    block and part one pass over the entries (_linear), with the central
    M_k on the diagonal, in place of a scaled matrix and a sum per term."""
    first = matrices[0]
    rep = first.rep
    area = rep.size * rep.size
    blocks = []
    for index in range(rep.count):
        parts = ([], [])  # (number, list) pairs of the real and imaginary part
        diagonal = 0
        for u, values in zip(matrices, columns):
            z = values[index if len(values) > 1 else 0]
            if not z:
                continue
            if u.center is not None:
                diagonal = z * u.center[index] + diagonal
                continue
            ur, ui = u.blocks[index]
            zr, zi = z.real, z.imag
            if zr:
                parts[0].append((zr, ur))
                if ui is not None:
                    parts[1].append((zr, ui))
            if zi:
                parts[1].append((zi, ur))
                if ui is not None:
                    parts[0].append((-zi, ui))
        re, im = (
            _linear(len(terms))(*(z for z, _ in terms), *(x for _, x in terms))
            if terms else None
            for terms in parts
        )
        if diagonal:
            dr, di = diagonal.real, diagonal.imag
            re = re or [0] * area
            if di:
                im = im or [0] * area
            for p in rep.positions[0]:
                re[p] += dr
                if di:
                    im[p] += di
        blocks.append((re or [0] * area, im))
    return first._like(tuple(blocks))


@lru_cache(maxsize=None)
def _transpose(s):
    """The getter of the transpose of a flat s x s matrix."""
    return _getter([c * s + r for r in range(s) for c in range(s)])


def _block_trace(u, v):
    """tr(U V) of two Gaussian blocks, v given transposed: the entrywise
    inner products Re = ur.vr - ui.vi, Im = ur.vi + ui.vr."""
    (ur, ui), (vr, vi) = u, v
    re, im = sum(map(mul, ur, vr)), 0
    if ui is not None and vi is not None:
        re -= sum(map(mul, ui, vi))
    if vi is not None:
        im += sum(map(mul, ur, vi))
    if ui is not None:
        im += sum(map(mul, ui, vr))
    return _exact(_Gaussian(re, im))


def power_traces(b, length):
    """(traces, babies) of an exact matrix b: for k = 1..length the traces
    tr(B**k) of its blocks, and the baby steps of Paterson and Stockmeyer
    (SIAM J. Comput. 1973) they were read from, for polynomial_at.  With
    m = ceil(sqrt(length)), the baby steps are B**0..B**m and the giant
    steps B**(j m), j <= J = (length - 1) // m: m - 1 products, and J - 1
    more.  tr(B**k) with k = j m + i, 1 <= i <= m, is the diagonal sum
    of B**i where j = 0, else the entrywise inner product of B**(j m)
    with the transpose of B**i: O(s**2) per block, in the Gaussian form
    where blocks are complex."""
    m = isqrt(length - 1) + 1
    babies = [SpinorMatrix.scalar(b.sig, 1, b.ring), b]
    while len(babies) <= m:
        babies.append(babies[-1] * b)
    giants = [babies[0], babies[m]]
    while len(giants) <= (length - 1) // m:
        giants.append(giants[-1] * babies[m])
    diagonal = _getter(b.rep.positions[0])
    transpose = _transpose(b.rep.size)
    transposed = {}
    traces = []
    for k in range(1, length + 1):
        j, i = divmod(k - 1, m)
        baby = babies[i + 1]
        if not j:
            traces.append(tuple(
                _exact(_Gaussian(sum(diagonal(re)), 0 if im is None else sum(diagonal(im))))
                for re, im in baby.blocks
            ))
            continue
        if i not in transposed:
            transposed[i] = [
                (transpose(re), None if im is None else transpose(im))
                for re, im in baby.blocks
            ]
        traces.append(tuple(map(_block_trace, giants[j].blocks, transposed[i])))
    return traces, babies


def polynomial_at(babies, columns):
    """sum_k T_k B**k for the central T_k whose block values are
    columns[k], from the baby steps B**0..B**m of power_traces, by
    Paterson and Stockmeyer: with q_j(B) = sum_(i=1..m) T_(j m + i) B**i
    for j >= 1, and q_0 from T_0 too, each one combination of baby steps,
    Horner's rule in B**m, (q_J B**m + q_(J-1)) B**m + ... + q_0, takes J
    products, each with the small entries of B**m as one factor."""
    m = len(babies) - 1
    top = (len(columns) - 2) // m
    out = None
    for j in range(top, 0, -1):
        part = combination(babies[1:], columns[j * m + 1:(j + 1) * m + 1])
        out = part if out is None else out * babies[m] + part
    low = combination(babies, columns[:m + 1])
    return low if out is None else out * babies[m] + low
