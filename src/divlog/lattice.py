"""Meet and join of the divisibility lattice: gcd and lcm.

Both are one ``math.gcd`` / ``math.lcm`` call behind an exact-int
guard: operands that are plain ``int`` values of at least 1 go straight
through.  Anything else (a bool, a float, a string, zero, a negative,
an ``int`` subclass) goes through ``as_natural``, first operand first,
which accepts the subclass and raises NotNatural for the rest.  The
cross-checks against factorization and ``meet_euclid`` live in the test
suite; the oracle's folds are built from ``meet``, ``join`` and
``divides`` themselves.
"""

from __future__ import annotations

import math

from .errors import PreconditionViolated, shown
from .factorization import as_natural, divides


def meet(a, b) -> int:
    """Greatest common divisor: the infimum under divisibility."""
    if type(a) is not int or a < 1 or type(b) is not int or b < 1:
        a, b = as_natural(a), as_natural(b)
    return math.gcd(a, b)


def join(a, b) -> int:
    """Least common multiple: the supremum under divisibility."""
    if type(a) is not int or a < 1 or type(b) is not int or b < 1:
        a, b = as_natural(a), as_natural(b)
    return math.lcm(a, b)


def meet_euclid(a, b) -> int:
    """gcd by the bare remainder loop.

    Kept independent of ``meet`` (and of factorization) so the two can
    be checked against each other.
    """
    a = as_natural(a)
    b = as_natural(b)
    while b:
        a, b = b, a % b
    return a


def projective_identity_holds(x, y, z) -> bool:
    """Check ``meet(x, join(z, y)) == join(meet(x, z), y)`` for y | x.

    The identity always holds when y divides x, so a False return
    would indicate a defect in meet/join.
    """
    x = as_natural(x)
    y = as_natural(y)
    z = as_natural(z)
    if not divides(y, x):
        raise PreconditionViolated(f"{shown(y)} does not divide {shown(x)}")
    return meet(x, join(z, y)) == join(meet(x, z), y)
