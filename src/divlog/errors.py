"""Domain errors shared by every module.

Each error carries a stable ``name`` used verbatim in structured CLI
output, so renaming a class never silently changes the wire format.
A message, and the ``repr`` of a ``Value``, shows each operand through
``shown``, so an integer too long for decimal digits still prints.
"""


def shown(value) -> str:
    """``repr(value)``, or ``<N-bit integer>`` for an int past the
    interpreter's limit on decimal digits (4300 by default), whose
    ``repr`` raises ValueError; a tuple, list or dict shows its items so."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<{value.bit_length()}-bit integer>"
        if isinstance(value, tuple):  # a Counterexample's assignment, say
            return "(" + ", ".join(map(shown, value)) + "," * (len(value) == 1) + ")"
        if isinstance(value, list):
            return "[" + ", ".join(map(shown, value)) + "]"
        if isinstance(value, dict):  # a LawReport's parameters, say
            return "{" + ", ".join(f"{shown(k)}: {shown(v)}" for k, v in value.items()) + "}"
        raise


class Value:
    """An immutable value: equal (same class), hashed, pickled and
    printed by the fields named in ``_fields``, which a subclass's
    constructor sets with ``object.__setattr__`` into its slots."""

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={shown(getattr(self, name))}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"


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
    """A formula node built more levels high than ``MAX_DEPTH`` allows, or
    with more nodes than ``MAX_NODES``, a shared subtree counted once
    per place it stands."""

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
