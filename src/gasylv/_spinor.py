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
costs O(N**3) here against up to 4**n pair products in the blade loop,
and a conversion either way O(2**n N).  The tables of a signature are
verified once, when first built, against row-by-row products of explicit
monomial matrices: the generator relations and every blade image.  So
an exact answer can be checked by substitution on its images.

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
integers: SpinorMatrix.of refuses an element with a denominator, and
the preimage leaves its division by N to the algebra's constructor.
Float entries are floats, summed in one order on every interpreter
(_total), and the preimage divides by N, a power of two.

In floats the imaginary part of a preimage is rounding, so it is
dropped; the exact ring requires it to vanish.  The norms that float
tolerances read (max_abs_coeff, nonscalar_norm) are blade coefficients
of the preimage, as for a Multivector: an entry is a sum of N of them.
A matrix computes its preimage at most once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, sub

from .algebra import FLOAT64, RATIONAL, _build, _value
from .errors import InternalError

# The matrices pay off from this n, and once nnz(A) nnz(B) reaches
# MIN_PAIRS.  Measured on whole solves with a scalar plus k random
# blades in A and B: at n = 6..8 the blade loop won up to 5x with
# nnz = 5 or 7 and the matrices won 1.2-6.5x with nnz = 11.
MIN_DIM = 6
MIN_PAIRS = 64


def pays_off(a, b):
    """Whether the recursions of AX - XB = C run faster on the spinor
    matrices of A and B than on their blades, in either ring.  The blade
    loop skips zero coefficients, and the recursions on sparse operands
    stay sparse, so the matrices are used only for operands that are
    dense enough."""
    if a.sig.dim < MIN_DIM:
        return False
    nnz_a = len(a._num) - a._num.count(0)
    nnz_b = len(b._num) - b._num.count(0)
    return nnz_a * nnz_b >= MIN_PAIRS


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
    signs of a monomial matrix.  Built once per signature and verified
    then (_verify)."""

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

        def product(u, v):
            (u_cols, u_powers), (v_cols, v_powers) = u, v
            return (
                tuple(v_cols[c] for c in u_cols),
                tuple((k + v_powers[c]) & 3 for c, k in zip(u_cols, u_powers)),
            )

        for second, table in enumerate(self.blades):
            images = [
                self._monomial((x, z, k + 2 * (second and flip >> a & 1)))
                for a, (x, z, k) in enumerate(generators)
            ]
            for a, image in enumerate(images):
                square = 2 if a >= sig.p else 0
                if product(image, image) != (identity, (square,) * s):
                    raise InternalError(f"generator {a + 1} of {sig!r} squares wrongly")
                for b in range(a):
                    cols, powers = product(images[b], image)
                    minus = (cols, tuple((k + 2) & 3 for k in powers))
                    if product(image, images[b]) != minus:
                        raise InternalError(
                            f"generators {b + 1}, {a + 1} of {sig!r} do not anticommute"
                        )
            # By induction on the mask, e_A = e_(A less its top index) e_top.
            if self._monomial(table[0]) != (identity, (0,) * s):
                raise InternalError(f"the unit of {sig!r} has the wrong image")
            for mask in range(1, len(table)):
                top = mask.bit_length() - 1
                want = product(self._monomial(table[mask ^ (1 << top)]), images[top])
                if self._monomial(table[mask]) != want:
                    raise InternalError(f"blade image {mask} of {sig!r} is wrong")
        if self.count == 2 and {self._monomial(t[-1]) for t in self.blades} != {
            (identity, (0,) * s), (identity, (2,) * s),
        }:
            raise InternalError(f"the two blocks of {sig!r} are not told apart")


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


@lru_cache(maxsize=None)
def _dot(s):
    """The dot product of two length-s sequences in _total's order, as
    one expression generated once per s: faster than sum() too."""
    return eval("lambda u, v: 0" + "".join(f" + u[{k}] * v[{k}]" for k in range(s)))


def _matmul(a, b, s):
    """Product of two flat s x s matrices."""
    rows = [a[i:i + s] for i in range(0, s * s, s)]
    cols = [b[j::s] for j in range(s)]
    dot = _dot(s)
    return [dot(row, col) for row in rows for col in cols]


def _block_product(u, v, s):
    """(re, im) of the product of two Gaussian blocks, with Gauss's three
    real products when both have imaginary parts."""
    ur, ui = u
    vr, vi = v
    if ui is None:
        return _matmul(ur, vr, s), None if vi is None else _matmul(ur, vi, s)
    if vi is None:
        return _matmul(ur, vr, s), _matmul(ui, vr, s)
    rr = _matmul(ur, vr, s)
    ii = _matmul(ui, vi, s)
    mixed = _matmul(list(map(add, ur, ui)), list(map(add, vr, vi)), s)
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
    _Gaussian.  The preimage is computed once, on demand."""

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
        integer coefficients."""
        if u._den != 1:
            raise InternalError("a rational spinor matrix holds integers only")
        rep = _representation(u.sig)
        area = rep.size * rep.size
        terms = [(a, c) for a, c in enumerate(u._num) if c]
        blocks = []
        for table in rep.blades:
            parts = ([0] * area, [0] * area)
            for a, c in terms:
                x, z, k = table[a]
                if k & 2:
                    c = -c
                target = parts[k & 1]
                for p, sign in zip(rep.positions[x], rep.signs[z]):
                    target[p] += sign * c
            re, im = parts
            blocks.append((re, im if any(im) else None))
        return cls(rep, u.ring, tuple(blocks))

    @classmethod
    def scalar(cls, sig, value, ring=RATIONAL):
        rep = _representation(sig)
        return cls(rep, ring, center=(_entry(value, ring),) * rep.count)

    def multivector(self):
        """The preimage, computed once.  Coefficient A is
        Re tr(image(e_A)**-1 M) / N.  The imaginary part is the
        coefficient of e_A times the pseudoscalar on one block at odd n,
        and rounding in floats; it must vanish otherwise."""
        if self._preimage is not None:
            return self._preimage
        rep = self.rep
        blocks = self._dense().blocks
        gathered = [
            [
                (
                    [re[p] for p in pos],
                    None if im is None else [im[p] for p in pos],
                )
                for pos in rep.positions
            ]
            for re, im in blocks
        ]
        exact = self.ring == RATIONAL
        dot = _dot(rep.size)
        coeffs = []
        for a, (x, z, k) in enumerate(rep.blades[0]):
            signs = rep.signs[z]
            total = [0, 0]
            for table, rows in zip(rep.blades, gathered):
                flip = table[a][2] != k
                for part, values in enumerate(rows[x]):
                    if values is not None:
                        t = dot(signs, values)
                        total[part] += -t if flip else t
            # Multiply by i**-k: i**-1 (u + iv) = v - iu.
            re, im = total
            for _ in range(k):
                re, im = im, -re
            if exact and im and not rep.onto:
                raise InternalError("spinor matrix outside the real algebra")
            coeffs.append(re)
        if exact:
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
