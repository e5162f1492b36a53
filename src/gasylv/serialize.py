"""Text form of multivectors.

A literal is a sum of terms, with optional whitespace between tokens
(not inside an integer or a decimal, nor right after the 'e' of a blade).
_TERM reads one term, one line of its pattern per element:

    sign    '+' or '-', required before every term but the first
    number  the coefficient: an integer, a fraction a/b, or a decimal
            float (f64 ring only; no exponent notation, so '3e1' is
            always 3 times the blade e1)
    '*'     optional, after a number
    blade   'e' (the identity), 'e134' (ascending digits, n <= 9) or
            'e{1,3,14}' (comma form, printed once n >= 10)
    spaces  before the next term

A term has a number, a blade, or both.  Repeated blades accumulate.
An integer of more than sys.get_int_max_str_digits() digits (4300 by
default), which int() would convert in quadratic time, is a ParseError.
In the f64 ring an integer coefficient is read by float(), which has no
such limit; one beyond the f64 range is refused as such, and so is a
nonzero coefficient that rounds to 0.

Golden fixture files use one blade term per line: 'MASK NUM/DEN', with
no limit on the digits, as _int_str writes them.
"""

from __future__ import annotations

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .algebra import FLOAT64, RATIONAL, Multivector, _grades
from .errors import NonFiniteError, ParseError

# Every element is optional here; parse_multivector decides which
# combinations are terms.
_TERM = re.compile(r"""
    (?P<sign>[+-])?\s*                                                        # sign
    (?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+)|\.(?P<frac>\d+))?                   # number
    \s*(?:\*\s*)?)?                                                           # '*'
    (?P<blade>e(?:\{\s*(?P<list>\d+(?:\s*,\s*\d+)*)\s*\}|(?P<digits>\d+))?)?  # blade
    \s*                                                                       # spaces
""", re.VERBOSE)


def _int(digits, offset):
    """int(digits), refused as a parse error beyond the interpreter's
    limit on decimal digits, which guards against quadratic conversion."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"integer of more than {sys.get_int_max_str_digits()} digits", offset
        ) from None


def _blade_mask(indices, n, offset):
    mask = 0
    prev = 0
    for idx in indices:
        if idx == 0:
            raise ParseError(f"blade index 0 is outside 1..{n}", offset)
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
    terms = {}
    pos = len(text) - len(text.lstrip())
    while pos < len(text):
        term = _TERM.match(text, pos)
        if term["sign"] is None and terms:
            raise ParseError("expected '+' or '-' between terms", pos)
        if term["num"] is None and term["blade"] is None:
            if term.end() == len(text):
                raise ParseError("dangling sign", term.end())
            raise ParseError("expected a coefficient or a blade", term.end())
        num, den, frac = term.group("num", "den", "frac")
        at = term.start("num")
        if num is None:
            coef = 1
        elif den is not None:
            den = _int(den, at)
            if den == 0:
                raise ParseError("zero denominator", at)
            coef = Fraction(_int(num, at), den)
        elif frac is None and ring != FLOAT64:
            coef = _int(num, at)
        elif ring == RATIONAL:
            raise ParseError("decimal-float coefficient in the rational ring", at)
        else:
            # float() has no digit limit; a long integer is inf, refused below.
            coef = float(f"{num}.{frac or 0}")
        mask = 0
        if term["blade"] is not None:
            at = term.start("blade")
            digits = term["list"].split(",") if term["list"] else term["digits"] or ""
            mask = _blade_mask([_int(d, at) for d in digits], sig.dim, at)
        if term["sign"] == "-":
            coef = -coef
        if ring == FLOAT64:
            try:
                coef = float(coef)
            except OverflowError:
                coef = math.inf
            if not coef and ((num or "1") + (frac or "")).strip("0"):
                at = term.start("num")
                raise ParseError("nonzero coefficient rounds to 0 in f64", at)
            value = terms.get(mask, 0.0) + coef
            if not math.isfinite(value):
                raise ParseError("coefficient outside the f64 range", pos)
        else:
            value = terms.get(mask, 0) + coef
        terms[mask] = value
        pos = term.end()
    if not terms:
        raise ParseError("empty multivector literal", 0)
    nonzero = {mask: value for mask, value in terms.items() if value}
    return Multivector.from_terms(sig, nonzero, ring)


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


def _str_int(text):
    """int(text) with no limit on the digits: the inverse of _int_str."""
    try:
        return int(text)
    except ValueError:
        if not re.fullmatch(r"[+-]?\d+", text):
            raise
        return int(Decimal(text))


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
    multivector while no integer in it is longer than the input limit
    on digits (see the module docstring)."""
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
        lines.append(f"{mask} {_int_str(frac.numerator)}/{_int_str(frac.denominator)}")
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
                coef = Fraction(_str_int(num), _str_int(den))
            else:
                coef = Fraction(_str_int(coef_text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad fixture line {lineno}: {raw!r}", lineno) from exc
        if not 0 <= mask < sig.ncoeffs:
            raise ParseError(f"mask {mask} out of range on line {lineno}", lineno)
        coeffs[mask] += coef
    try:
        return Multivector(sig, coeffs, ring)
    except NonFiniteError as exc:
        raise ParseError(str(exc), 0) from None
