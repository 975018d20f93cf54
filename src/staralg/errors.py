"""Exception hierarchy.

Everything raised on purpose by this package derives from StarError, so
callers (the CLI in particular) can tell a failed check from a usage
mistake. Expression evaluation attaches the offending subterm's text to
the exception as ``subterm`` when it can.
"""


class StarError(Exception):
    """Base class for all arithmetic, domain, and structural errors."""

    subterm: str | None = None


class GeneratorDomainError(StarError):
    """A value lies outside a generator's image interval."""


class GeneratorOverflowError(StarError):
    """A preimage or image is not representable in binary64."""


class DomainMismatchError(StarError):
    """Values over different generators, pairs or grids were combined."""


class GeneratorMismatchError(DomainMismatchError):
    """Two one-line values built over different generators were combined."""


class PairMismatchError(DomainMismatchError):
    """Two two-coordinate values built over different generator pairs were combined."""


class StarDivisionError(StarError):
    """Division by an additive zero."""


class StarUnderflowError(StarError):
    """A nonzero quotient or product rounds to the additive zero."""


class NegativeSqrtError(StarError):
    """Square root of a value below the additive zero (beyond rounding debris)."""


class MissingUnitError(StarError):
    """The operation needs a multiplicative unit the carrier does not have."""


class MissingInvolutionError(StarError):
    """The operation needs an involution the carrier does not have."""


class NotApplicableError(StarError):
    """A series precondition fails: the input is outside the validity ball."""


class BadInverseError(StarError):
    """A supplied inverse does not actually invert its element within tolerance."""


class UnsupportedSuiteError(StarError):
    """The requested axiom suite does not apply to the given carrier."""


class UnboundVariableError(StarError):
    """The expression uses ``z`` in a context where no point is bound."""


class ParseError(StarError):
    """Expression syntax error; ``offset`` is the character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset
