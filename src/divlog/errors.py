"""Domain errors shared by every module.

Each error carries a stable ``name`` used verbatim in structured CLI
output, so renaming a class never silently changes the wire format.
A message shows each operand through ``shown``, so an integer too long
to print as decimal digits still gives its named error.
"""


def shown(value) -> str:
    """``repr(value)``, or ``<N-bit integer>`` for an int past the
    interpreter's limit on decimal digits (4300 by default), whose
    ``repr`` raises ValueError."""
    try:
        return repr(value)
    except ValueError:
        return f"<{value.bit_length()}-bit integer>"


class DivlogError(Exception):
    """Base class for all domain errors raised by this package."""

    name = "DivlogError"


class NotNatural(DivlogError):
    """A value outside the positive integers where a natural is required.

    Zero is deliberately rejected rather than coerced: the divisibility
    lattice implemented here lives on {1, 2, 3, ...}.
    """

    name = "NotNatural"


class FactorizationLimit(DivlogError):
    """Input exceeds the factorization ceiling, or the bound below which
    primality is proven."""

    name = "FactorizationLimit"


class InvalidInterval(DivlogError):
    """Interval bounds where the bottom does not divide the top."""

    name = "InvalidInterval"


class NotMember(DivlogError):
    """A value used as an interval element that lies outside the interval."""

    name = "NotMember"


class NotBoolean(DivlogError):
    """Complement requested in an interval that is not a Boolean algebra."""

    name = "NotBoolean"


class EnumerationLimit(DivlogError):
    """An enumeration would exceed its cap: an interval's members past
    the configured element cap, or primes past the sieve's bound."""

    name = "EnumerationLimit"


class SearchLimit(DivlogError):
    """Exhaustive assignment search would exceed the configured cap."""

    name = "SearchLimit"


class NestingLimit(DivlogError):
    """A formula node built more levels high than ``MAX_DEPTH`` allows."""

    name = "NestingLimit"


class NoGreatestElement(DivlogError):
    """The oracle's candidate set had no greatest element.

    Distributivity guarantees this cannot happen on a valid interval, so
    seeing it means a logic bug, not bad input.
    """

    name = "NoGreatestElement"


class PreconditionViolated(DivlogError):
    """An operation's stated divisibility precondition does not hold."""

    name = "PreconditionViolated"


class UnboundVariable(DivlogError):
    """A formula variable has no value in the supplied assignment."""

    name = "UnboundVariable"


class FormulaSyntaxError(DivlogError):
    """Malformed formula text; ``position`` is the 0-based offending offset."""

    name = "SyntaxError"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
