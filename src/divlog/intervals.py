"""Closed divisibility intervals as finite Heyting algebras.

An interval collects every number between a bottom and a top in the
divisibility order.  It is a finite distributive lattice, so negation
(pseudocomplement) and implication (relative pseudocomplement) exist
and come out in closed form.  Members stay plain integers and both
operations are gcd/lcm expressions: ``imp(a, b) = lcm(b, r)``, where
``r`` is the largest divisor of the top coprime to ``a / gcd(a, b)``,
and ``neg(a) = imp(a, bottom)``.  Both check their operands, then call
one unchecked kernel, ``_imp``, which ``formulas.evaluate`` calls
directly.
No operand is factorized and nothing is searched.  The one
factorization an interval takes is of ``top / bottom``, the exponent
gaps that give its size, its Boolean-ness, its members and, through
the largest gap, the Gödel chain on which
``divlog.formulas.check_valid`` decides valid formulas.  An interval
is an immutable ``errors.Value`` of its two bounds; the gaps, the size
and the members listed by the first ``members`` call within the cap
sit in slots beside them, with each member's offset in the product of
the primes' powers.  So does what ``check_valid``'s member walk reads
of the interval as a product of chains, one per prime, which its
first verdict sets: the largest gap, each member's exponent per prime,
read off the offsets, and the walk's lanes per variable count.
Membership tests start with the exact-int guard ``type(a) is int and
a >= 1`` and fall back to ``as_natural`` only when it fails, so
``as_natural`` decides every NotNatural.
The brute-force counterpart lives in ``divlog.oracle``.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .errors import EnumerationLimit, InvalidInterval, NotBoolean, NotMember, Value, shown
from .factorization import as_natural, factorize

# Interval cardinality is multiplicative in the exponent gaps and can
# explode; enumeration refuses beyond this many elements by default.
DEFAULT_ENUMERATION_CAP = 100_000


class Interval(Value):
    """All naturals divisible by ``bottom`` and dividing ``top``.

    ``bottom`` plays the role of false and ``top`` the role of true in
    the interval's logic.  The degenerate one-element interval (bottom
    == top) is legal.  Construction fails with InvalidInterval unless
    bottom divides top.  An interval is an immutable ``Value``: equal,
    hashed, pickled and printed by its bounds, and assigning an
    attribute raises AttributeError.
    """

    __slots__ = ("bottom", "top", "_gaps", "_size", "_members", "_offsets", "_largest", "_columns", "_slices")
    _fields = ("bottom", "top")
    bottom: int
    top: int

    def __init__(self, bottom: int, top: int):
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "top", top)
        # the checks and the one factorization run in their own method,
        # which the benchmark's tracer wraps as a construction span
        self.__post_init__()

    def __post_init__(self):
        bottom, top = as_natural(self.bottom), as_natural(self.top)
        if top % bottom != 0:
            raise InvalidInterval(f"{shown(bottom)} does not divide {shown(top)}")
        # prime -> exponent gap between top and bottom, the one factorization
        gaps = factorize(top // bottom)
        object.__setattr__(self, "_gaps", gaps)
        # the element count: the product over primes of (gap + 1)
        object.__setattr__(self, "_size", math.prod(gap + 1 for gap in gaps.values()))
        # every member ascending, listed by the first members() call,
        # which sets _offsets too; the walk's slots are set by its first verdict
        object.__setattr__(self, "_members", None)

    # -- membership and enumeration ------------------------------------

    def contains(self, a) -> bool:
        """True when bottom | a and a | top."""
        if type(a) is not int or a < 1:
            a = as_natural(a)
        return a % self.bottom == 0 and self.top % a == 0

    def size(self) -> int:
        """Element count, without enumerating: the product over primes
        of (top exponent - bottom exponent + 1), counted at construction."""
        return self._size

    def members(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list[int]:
        """Every member in ascending numeric order.

        ``cap`` is a positive integer (NotNatural otherwise); an interval
        of more than ``cap`` elements raises EnumerationLimit, checked via
        ``size`` on every call before any work.  The members are listed
        on the first call and kept; each call returns a new list.
        """
        if type(cap) is not int or cap < 1:
            as_natural(cap)
        count = self.size()
        if count > cap:
            raise EnumerationLimit(f"interval {self} holds {count} elements, cap is {shown(cap)}")
        if self._members is None:
            # the product lists each member at its offset: its exponents
            # over the bottom in mixed radix, the first prime's lowest
            ms = [self.bottom]
            for prime, gap in self._gaps.items():
                ms = [m * power for power in [prime**e for e in range(gap + 1)] for m in ms]
            offsets = sorted(range(len(ms)), key=ms.__getitem__)
            object.__setattr__(self, "_offsets", offsets)
            object.__setattr__(self, "_members", tuple([ms[i] for i in offsets]))
        return list(self._members)

    # -- the member walk's state ----------------------------------------

    def _walk_slices(self) -> dict:
        """What ``formulas.check_valid``'s member walk keeps per variable
        count.  The first call, a verdict's, sets this empty dict and
        ``_largest``, the largest gap (0 for one member)."""
        try:
            return self._slices
        except AttributeError:  # the slots are unset until then
            object.__setattr__(self, "_largest", max(self._gaps.values(), default=0))
            object.__setattr__(self, "_slices", {})
            return self._slices

    def _exponents(self, cap: int) -> tuple[bytes, ...]:
        """Per prime with a gap, each member's exponent over the bottom,
        one byte per member, ascending with the members: read off the
        offsets of the listing, within ``cap``, on the first call and
        kept in ``_columns``."""
        try:
            return self._columns
        except AttributeError:  # the slot is unset until then
            self.members(cap)  # lists the members and their offsets
            ascending, stride, exponents = itemgetter(*self._offsets), 1, []
            for gap in self._gaps.values():
                column = b"".join([bytes([e]) * stride for e in range(gap + 1)])  # in the product's order
                exponents.append(bytes(ascending(column * (self._size // len(column)))))
                stride *= gap + 1
            object.__setattr__(self, "_columns", tuple(exponents))
            return self._columns

    def _exponents_of(self, a: int) -> list[int]:
        """Each prime's exponent over the bottom in ``a``, a member."""
        a //= self.bottom
        vector = []
        for prime in self._gaps:
            e = 0
            while a % prime == 0:
                a //= prime
                e += 1
            vector.append(e)
        return vector

    # -- Heyting operations ---------------------------------------------

    def neg(self, a) -> int:
        """Pseudocomplement: the greatest member whose meet with ``a``
        is the bottom.

        This is ``a -> bottom``: per prime, where ``a`` sits strictly
        above the bottom, drop to the bottom's exponent; where it sits
        on the bottom, jump to the top's exponent.
        """
        return self._imp(self._require_member(a), self.bottom)

    def imp(self, a, b) -> int:
        """Relative pseudocomplement: the greatest member c with
        meet(a, c) dividing ``b``.

        Per prime: where ``a`` exceeds ``b``, copy ``b``'s exponent;
        elsewhere take the top's.  The bottom never enters, so the
        result is the same in any interval sharing this top.
        """
        return self._imp(self._require_member(a), self._require_member(b))

    def is_boolean(self) -> bool:
        """True when every element has a true complement, i.e. every
        prime's exponent gap between top and bottom is at most one."""
        return all(gap <= 1 for gap in self._gaps.values())

    def complement(self, a) -> int:
        """Boolean complement ``top * bottom / a``.

        Only defined in Boolean intervals (NotBoolean otherwise); there
        it coincides with ``neg``.  A member divides the top, so the
        division is exact.
        """
        if not self.is_boolean():
            raise NotBoolean(f"interval {self} is not a Boolean algebra")
        return self.top * self.bottom // self._require_member(a)

    # -- helpers ---------------------------------------------------------

    def _imp(self, a: int, b: int) -> int:
        """``a -> b`` on members, unchecked: ``lcm(b, r)``, where ``r`` is
        the top stripped of every prime of ``a / gcd(a, b)``.  Each such
        prime divides the top, so it divides ``g`` until ``r`` has shed
        it; squaring ``g`` doubles the exponents shed per round, so the
        loop runs about log2 of the top's largest exponent times.
        """
        r = self.top
        g = math.gcd(r, a // math.gcd(a, b))
        while g > 1:
            r //= g
            g = math.gcd(r, g * g)
        return math.lcm(b, r)

    def _require_member(self, a) -> int:
        if type(a) is not int or a < 1:
            a = as_natural(a)
        if a % self.bottom or self.top % a:
            raise NotMember(f"{shown(a)} is not in the interval {self}")
        return a

    def __str__(self) -> str:
        return f"[{shown(self.bottom)}, {shown(self.top)}]"
