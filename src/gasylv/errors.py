"""Exception hierarchy shared by the whole package."""


class GasylvError(Exception):
    """Base class for all errors raised by gasylv."""


class SignatureMismatchError(GasylvError):
    """Operands live in different algebras Cl(p,q)."""


class RingMismatchError(GasylvError):
    """Operands carry coefficients from different scalar rings."""


class NonFiniteError(GasylvError):
    """A float coefficient is NaN or infinite."""


class ParseError(GasylvError):
    """Multivector literal does not match the grammar.

    Carries the character offset of the first offending token.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class SingularElementError(GasylvError):
    """Element has zero determinant and cannot be inverted."""


class SingularProblemError(GasylvError):
    """The Sylvester problem's denominator Q failed the zero test.

    Carries Q and the assembled element D for diagnostics.
    """

    def __init__(self, q, d):
        super().__init__(f"singular Sylvester problem: Q = {q}")
        self.q = q
        self.d = d


class NumericalDegradationError(GasylvError):
    """Float-mode computation left a residue above tolerance where an
    exact identity requires a pure scalar."""


class ResidualCheckFailedError(GasylvError):
    """Exact-arithmetic solution failed the residual check.

    This indicates an internal bug, never a user error.
    """


class InternalError(GasylvError):
    """An internal consistency invariant was violated."""
