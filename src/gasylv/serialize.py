"""Text form of multivectors.

Grammar (whitespace-insensitive): a signed sum of terms, each term a
coefficient, a blade, or both (optionally joined by '*').  Coefficients
are decimal integers, fractions a/b, or decimal floats (float ring
only; no exponent notation, so '3e1' is always 3 times the blade e1).
Blades are 'e' (the identity), 'e134' (ascending digits, n <= 9), or
'e{1,3,14}' (comma form, required in printing once n >= 10).  Repeated
blades accumulate.

Golden fixture files use one blade term per line: 'MASK NUM/DEN'.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .algebra import FLOAT64, RATIONAL, Multivector, _grades
from .errors import NonFiniteError, ParseError

_NUMBER = re.compile(r"\d+(?:\s*/\s*\d+|\.\d+)?")
_BLADE_DIGITS = re.compile(r"e(\d+)")
_BLADE_COMMA = re.compile(r"e\{\s*(\d+(?:\s*,\s*\d+)*)\s*\}")


def _blade_mask(indices, n, offset):
    mask = 0
    prev = 0
    for idx in indices:
        if idx <= prev:
            raise ParseError(
                f"blade indices must be strictly ascending, got e{indices}",
                offset,
            )
        if idx > n:
            raise ParseError(
                f"blade index {idx} exceeds the dimension n = {n}", offset
            )
        mask |= 1 << (idx - 1)
        prev = idx
    return mask


def parse_multivector(text, sig, ring=RATIONAL):
    """Parse a multivector literal into Cl(sig.p, sig.q) over ring."""
    n = sig.dim
    zero = Fraction(0) if ring == RATIONAL else 0.0
    terms = {}
    pos = 0
    length = len(text)
    first = True
    any_term = False
    while True:
        while pos < length and text[pos].isspace():
            pos += 1
        if pos >= length:
            break
        start = pos
        sign = 1
        if text[pos] in "+-":
            if text[pos] == "-":
                sign = -1
            pos += 1
            while pos < length and text[pos].isspace():
                pos += 1
            if pos >= length:
                raise ParseError("dangling sign", pos)
        elif not first:
            raise ParseError("expected '+' or '-' between terms", pos)

        num = _NUMBER.match(text, pos)
        coef = None
        if num:
            token = num.group(0).replace(" ", "")
            if "/" in token:
                num_text, den_text = token.split("/")
                if int(den_text) == 0:
                    raise ParseError("zero denominator", pos)
                coef = Fraction(int(num_text), int(den_text))
            elif "." in token:
                if ring == RATIONAL:
                    raise ParseError(
                        "decimal-float coefficient in the rational ring", pos
                    )
                coef = float(token)
            else:
                coef = Fraction(int(token))
            pos = num.end()
            while pos < length and text[pos].isspace():
                pos += 1
            if pos < length and text[pos] == "*":
                pos += 1
                while pos < length and text[pos].isspace():
                    pos += 1

        mask = None
        if pos < length and text[pos] == "e":
            blade = _BLADE_COMMA.match(text, pos) or _BLADE_DIGITS.match(text, pos)
            if blade:
                group = blade.group(1)
                if "," in group or blade.re is _BLADE_COMMA:
                    indices = [int(part) for part in group.split(",")]
                else:
                    indices = [int(ch) for ch in group]
                mask = _blade_mask(indices, n, pos)
                pos = blade.end()
            else:
                mask = 0
                pos += 1
        if coef is None and mask is None:
            raise ParseError("expected a coefficient or a blade", pos)
        if mask is None:
            mask = 0
        if coef is None:
            coef = Fraction(1) if ring == RATIONAL else 1.0
        if ring == FLOAT64:
            try:
                value = terms.get(mask, zero) + sign * float(coef)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ParseError("coefficient outside the f64 range", start)
        else:
            value = terms.get(mask, zero) + sign * coef
        terms[mask] = value
        first = False
        any_term = True
    if not any_term:
        raise ParseError("empty multivector literal", 0)
    return Multivector.from_terms(
        sig, {mask: value for mask, value in terms.items() if value}, ring
    )


def blade_name(mask, n):
    if mask == 0:
        return "e"
    indices = [i + 1 for i in range(n) if mask & (1 << i)]
    if n >= 10:
        return "e{" + ",".join(map(str, indices)) + "}"
    return "e" + "".join(map(str, indices))


def _float_str(x):
    text = repr(x)
    if "e" not in text and "E" not in text:
        return text
    # The grammar has no exponent notation; an exact fraction keeps the
    # round trip bit-faithful (float(Fraction(x)) == x).
    frac = Fraction(x)
    return f"{frac.numerator}/{frac.denominator}"


def _int_str(value):
    try:
        return str(value)
    except ValueError:
        # Beyond sys.get_int_max_str_digits(), which limits str() but not
        # the exact conversion through Decimal.
        return str(Decimal(value))


def _scalar_str(value):
    """str(value) for an int, Fraction or float, with no limit on the
    number of digits."""
    if isinstance(value, float):
        return str(value)
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"
    return _int_str(int(value))


def _coef_str(value, decimal):
    if decimal or isinstance(value, float):
        try:
            return _float_str(float(value))
        except OverflowError:
            pass  # a rational beyond the f64 range keeps its exact form
    return _scalar_str(value)


@lru_cache(maxsize=None)
def _blade_order(n):
    """The masks of Cl(p,q), n = p + q, in printing order (grade, mask)."""
    grades = _grades(n)
    return tuple(sorted(range(1 << n), key=lambda m: (grades[m], m)))


def format_multivector(u, decimal=False):
    """Render in blade order (grade, mask); parses back to an equal
    multivector."""
    n = u.sig.dim
    coeffs = u.coeffs
    parts = []
    for mask in _blade_order(n):
        c = coeffs[mask]
        if not c:
            continue
        negative = c < 0
        mag = -c if negative else c
        body = _coef_str(mag, decimal)
        if mask != 0:
            if mag == 1 and not decimal:
                body = blade_name(mask, n)
            else:
                body = body + blade_name(mask, n)
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    if not parts:
        return "0"
    return " ".join(parts)


def dump_coeff_lines(u):
    """Fixture form: one 'MASK NUM/DEN' line per nonzero blade."""
    lines = []
    for mask, c in enumerate(u.coeffs):
        if not c:
            continue
        frac = Fraction(c)
        lines.append(f"{mask} {frac.numerator}/{frac.denominator}")
    return "\n".join(lines) + "\n"


def load_coeff_lines(text, sig, ring=RATIONAL):
    """Inverse of dump_coeff_lines; blank lines and '#' comments are
    ignored, and a bare integer is accepted in place of NUM/DEN."""
    coeffs = [Fraction(0)] * sig.ncoeffs
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            mask_text, coef_text = line.split()
            mask = int(mask_text)
            if "/" in coef_text:
                num, den = coef_text.split("/")
                coef = Fraction(int(num), int(den))
            else:
                coef = Fraction(int(coef_text))
        except ValueError as exc:
            raise ParseError(f"bad fixture line {lineno}: {raw!r}", lineno) from exc
        if not 0 <= mask < sig.ncoeffs:
            raise ParseError(f"mask {mask} out of range on line {lineno}", lineno)
        coeffs[mask] += coef
    try:
        return Multivector(sig, coeffs, ring)
    except NonFiniteError as exc:
        raise ParseError(str(exc), 0) from None
