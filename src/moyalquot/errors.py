"""Exception taxonomy shared by every module.

The CLI maps these onto exit codes: verification failures exit 1,
parse/lowering problems exit 2, domain errors exit 3, usage errors exit 4;
any other exception is an internal error and exits 5.
"""


class MoyalQuotError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MoyalQuotError):
    """A mathematically invalid operation on otherwise well-formed values."""


class ParseFailure(MoyalQuotError):
    """Rejected textual input (expressions or atlas files)."""


class UsageFailure(MoyalQuotError):
    """Bad command-line usage."""


# -- domain errors ------------------------------------------------------------

class ZeroDenominator(DomainError):
    """Denominator is identically zero."""


class UnknownVariable(DomainError):
    """A symbol is not part of the declared variable set."""


class SubstitutionPole(DomainError):
    """A denominator became identically zero under composition."""


class VariableMismatch(DomainError):
    """Operands do not share one variable set."""


class OrderTooLarge(DomainError):
    """A truncation order exceeds what the operands carry."""


class NameCollision(DomainError):
    """Variable names of combined spaces overlap."""


class NotSymplectic(DomainError):
    """A matrix or form fails the symplectic condition."""


class NotEven(DomainError):
    """Function is not invariant under the sign involution."""


class DegenerateMatrix(DomainError):
    """A matrix that must be invertible has determinant zero."""


class MissingTransition(DomainError):
    """The atlas declares no transition for the requested chart pair."""


class ChartMismatch(DomainError):
    """Chart-local operands live on different charts."""


class BadPermutation(DomainError):
    """Not a permutation of 1..d."""


class NotInvariant(DomainError):
    """Operand fails the symmetric-group invariance check."""


class InvalidPoint(DomainError):
    """A cell point violates the open-cell constraints."""


# -- parse errors -------------------------------------------------------------

class ExprSyntaxError(ParseFailure):
    """Malformed expression text; carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ParseFailure):
    """Identifier outside the allowed variable set."""


class HInDenominator(ParseFailure):
    """The series parameter appeared in a denominator or negative power."""


class OrderOverflow(ParseFailure):
    """An expression carries h-powers beyond the context order."""


class AtlasFormatError(ParseFailure):
    """Malformed atlas file."""


# -- usage errors -------------------------------------------------------------

class UnknownSuite(UsageFailure):
    """Requested verification suite does not exist."""
