"""Closed divisibility intervals as finite Heyting algebras.

An interval collects every number between a bottom and a top in the
divisibility order.  It is a finite distributive lattice, so negation
(pseudocomplement) and implication (relative pseudocomplement) exist
and come out in closed form: both are computed coordinatewise on prime
exponents, no search involved.  The brute-force counterpart lives in
``divlog.oracle``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import EnumerationLimit, InvalidInterval, NotBoolean, NotMember
from .factorization import as_natural, factorize

# Interval cardinality is multiplicative in the exponent gaps and can
# explode; enumeration refuses beyond this many elements by default.
DEFAULT_ENUMERATION_CAP = 100_000


@dataclass(frozen=True)
class Interval:
    """All naturals divisible by ``bottom`` and dividing ``top``.

    ``bottom`` plays the role of false and ``top`` the role of true in
    the interval's logic.  The degenerate one-element interval (bottom
    == top) is legal.  Construction fails with InvalidInterval unless
    bottom divides top.
    """

    bottom: int
    top: int

    def __post_init__(self):
        bottom = as_natural(self.bottom)
        top = as_natural(self.top)
        if top % bottom != 0:
            raise InvalidInterval(f"{bottom} does not divide {top}")
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "_bottom_vec", factorize(bottom))
        object.__setattr__(self, "_top_vec", factorize(top))

    # -- membership and enumeration ------------------------------------

    def contains(self, a) -> bool:
        """True when bottom | a and a | top."""
        a = as_natural(a)
        return a % self.bottom == 0 and self.top % a == 0

    def size(self) -> int:
        """Element count, without enumerating: the product over primes
        of (top exponent - bottom exponent + 1)."""
        count = 1
        for prime, top_e in self._top_vec.items():
            count *= top_e - self._bottom_vec[prime] + 1
        return count

    def members(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[int]:
        """Every member in ascending numeric order.

        Raises EnumerationLimit if the interval holds more than ``cap``
        elements (checked via ``size`` before any work happens).
        """
        count = self.size()
        if count > cap:
            raise EnumerationLimit(
                f"interval [{self.bottom}, {self.top}] holds {count} elements, cap is {cap}"
            )
        axes = []
        for prime, top_e in self._top_vec.items():
            low = self._bottom_vec[prime]
            axes.append([prime**e for e in range(low, top_e + 1)])
        return sorted(math.prod(combo) for combo in itertools.product(*axes))

    # -- Heyting operations ---------------------------------------------

    def neg(self, a) -> int:
        """Pseudocomplement: the greatest member whose meet with ``a``
        is the bottom.

        Coordinate rule, per prime: where ``a`` sits strictly above the
        bottom, drop to the bottom's exponent; where it sits on the
        bottom, jump to the top's exponent.
        """
        a = self._require_member(a)
        a_vec = factorize(a)
        result = 1
        # members and the bottom divide the top: its support covers them
        for prime, top_e in self._top_vec.items():
            bottom_e = self._bottom_vec[prime]
            if a_vec[prime] > bottom_e:
                e = bottom_e
            else:
                e = top_e
            result *= prime**e
        return result

    def imp(self, a, b) -> int:
        """Relative pseudocomplement: the greatest member c with
        meet(a, c) dividing ``b``.

        Coordinate rule, per prime: where ``a`` exceeds ``b``, copy
        ``b``'s exponent; elsewhere take the top's.  The bottom never
        enters, so the result is the same in any interval sharing this
        top.
        """
        a = self._require_member(a)
        b = self._require_member(b)
        a_vec = factorize(a)
        b_vec = factorize(b)
        result = 1
        for prime, top_e in self._top_vec.items():
            if a_vec[prime] > b_vec[prime]:
                e = b_vec[prime]
            else:
                e = top_e
            result *= prime**e
        return result

    def is_boolean(self) -> bool:
        """True when every element has a true complement, i.e. every
        prime's exponent gap between top and bottom is at most one."""
        return all(
            top_e - self._bottom_vec[prime] <= 1
            for prime, top_e in self._top_vec.items()
        )

    def complement(self, a) -> int:
        """Boolean complement ``top * bottom / a``.

        Only defined in Boolean intervals (NotBoolean otherwise); there
        it coincides with ``neg``.  The division is exact whenever the
        preconditions hold, so a remainder is an internal bug.
        """
        if not self.is_boolean():
            raise NotBoolean(
                f"interval [{self.bottom}, {self.top}] is not a Boolean algebra"
            )
        a = self._require_member(a)
        quotient, remainder = divmod(self.top * self.bottom, a)
        if remainder:
            raise RuntimeError(
                f"complement of {a} in [{self.bottom}, {self.top}] left a remainder"
            )
        return quotient

    # -- helpers ---------------------------------------------------------

    def _require_member(self, a) -> int:
        a = as_natural(a)
        if not self.contains(a):
            raise NotMember(f"{a} is not in the interval [{self.bottom}, {self.top}]")
        return a

    def __str__(self) -> str:
        return f"[{self.bottom}, {self.top}]"
