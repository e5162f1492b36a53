"""Independent oracles used only by the tests.

Deliberately naive implementations: a string-rewriting geometric
product (bubble-sorted generator words) and a dense exact Gaussian
elimination over the blade-coefficient linear system.  Neither shares
code with the library paths they check.
"""

from fractions import Fraction

from gasylv import Multivector, SylvesterProblem


def word_product(word_a, word_b, p):
    """Multiply two generator words (tuples of 1-based indices).

    Bubble-sorts the concatenation, flipping the sign per transposition,
    then cancels equal adjacent generators against the metric.
    Returns (sign, sorted_tuple).
    """
    seq = list(word_a) + list(word_b)
    sign = 1
    # bubble sort on strict inversions; equal indices stay adjacent
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            if seq[i] > p:
                sign = -sign
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return sign, tuple(out)


def mask_to_word(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask & (1 << i))


def word_to_mask(word):
    mask = 0
    for idx in word:
        mask |= 1 << (idx - 1)
    return mask


def oracle_product(u, v):
    """Triple-loop geometric product via word rewriting."""
    sig = u.sig
    coeffs = [Fraction(0)] * sig.ncoeffs
    for a, ca in enumerate(u.coeffs):
        if not ca:
            continue
        for b, cb in enumerate(v.coeffs):
            if not cb:
                continue
            sign, word = word_product(mask_to_word(a), mask_to_word(b), sig.p)
            coeffs[word_to_mask(word)] += sign * ca * cb
    return Multivector(sig, coeffs, u.ring)


def gauss_solve(matrix, rhs):
    """Solve an exact square linear system by Gaussian elimination.

    Returns the solution vector, or None if the matrix is singular.
    """
    n = len(rhs)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if aug[r][col] != 0), None
        )
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [value * inv for value in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [
                    a - factor * b for a, b in zip(aug[r], aug[col])
                ]
    return [aug[i][n] for i in range(n)]


def brute_force_sylvester(prob):
    """Solve AX - XB = C as a 2**n x 2**n linear system assembled from
    the structure constants.  Returns a Multivector or None."""
    sig = prob.sig
    size = sig.ncoeffs
    columns = []
    for j in range(size):
        blade = Multivector.blade(sig, j)
        col = prob.a * blade - blade * prob.b
        columns.append(col.coeffs)
    matrix = [[columns[j][i] for j in range(size)] for i in range(size)]
    solution = gauss_solve(matrix, list(prob.c.coeffs))
    if solution is None:
        return None
    return Multivector(sig, solution, prob.ring)


def matrix_determinant(matrix):
    """Determinant of an exact square matrix by Gaussian elimination."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det
