"""Closed divisibility intervals as finite Heyting algebras.

An interval collects every number between a bottom and a top in the
divisibility order.  It is a finite distributive lattice, so negation
(pseudocomplement) and implication (relative pseudocomplement) exist
and come out in closed form.  Members stay plain integers and both
operations are gcd/lcm expressions: ``imp(a, b) = lcm(b, r)``, where
``r`` is the largest divisor of the top coprime to ``a / gcd(a, b)``,
and ``neg(a) = imp(a, bottom)``.  Both check their operands, then call
one unchecked kernel, ``_imp``, which compiled formulas call directly.
No operand is factorized and nothing is searched.  The one
factorization an interval takes is of ``top / bottom``, the exponent
gaps that give its size, its Boolean-ness and its members.  An
interval is an immutable ``errors.Value`` of its two bounds; the gaps,
the members listed by the first ``members`` call within the cap, the
count of assignments that multi-variable searches in
``divlog.formulas.check_valid`` have tried on the kernel, on the
diagonal chain that decides valid formulas or in full, and the index
tables those searches use once that count pays for them sit in slots
beside them.  Membership tests start with the exact-int
guard ``type(a) is int and a >= 1`` and fall back to ``as_natural``
only when it fails, so a bad operand raises the same NotNatural as
before.  The brute-force counterpart lives in ``divlog.oracle``.
"""

from __future__ import annotations

import itertools
import math

from .errors import EnumerationLimit, InvalidInterval, NotBoolean, NotMember, Value, shown
from .factorization import as_natural, factorize

# Interval cardinality is multiplicative in the exponent gaps and can
# explode; enumeration refuses beyond this many elements by default.
DEFAULT_ENUMERATION_CAP = 100_000

# A ceiling on memory, not a speed threshold: an interval keeps index
# tables only while each holds at most this many cells (316 members),
# about 0.8 MB a table of references.  When they pay is up to the
# count of assignments tried on the kernel, in _index_tables.
TABLE_CELL_CAP = 100_000


class Interval(Value):
    """All naturals divisible by ``bottom`` and dividing ``top``.

    ``bottom`` plays the role of false and ``top`` the role of true in
    the interval's logic.  The degenerate one-element interval (bottom
    == top) is legal.  Construction fails with InvalidInterval unless
    bottom divides top.  An interval is an immutable ``Value``: equal,
    hashed, pickled and printed by its bounds, and assigning an
    attribute raises AttributeError.
    """

    __slots__ = ("bottom", "top", "_gaps", "_members", "_tried", "_tables")
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
        object.__setattr__(self, "_gaps", factorize(top // bottom))
        # every member ascending, listed by the first members() call
        object.__setattr__(self, "_members", None)
        # assignments that searches of two or more variables tried on the kernel
        object.__setattr__(self, "_tried", 0)
        # (position, meet, join, imp), built by _index_tables() once _tried pays
        object.__setattr__(self, "_tables", None)

    # -- membership and enumeration ------------------------------------

    def contains(self, a) -> bool:
        """True when bottom | a and a | top."""
        if type(a) is not int or a < 1:
            a = as_natural(a)
        return a % self.bottom == 0 and self.top % a == 0

    def size(self) -> int:
        """Element count, without enumerating: the product over primes
        of (top exponent - bottom exponent + 1)."""
        return math.prod(gap + 1 for gap in self._gaps.values())

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
            axes = [[prime**e for e in range(gap + 1)] for prime, gap in self._gaps.items()]
            ms = sorted(self.bottom * math.prod(combo) for combo in itertools.product(*axes))
            object.__setattr__(self, "_members", tuple(ms))
        return list(self._members)

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
        it coincides with ``neg``.  The division is exact whenever the
        preconditions hold, so a remainder is an internal bug.
        """
        if not self.is_boolean():
            raise NotBoolean(f"interval {self} is not a Boolean algebra")
        a = self._require_member(a)
        quotient, remainder = divmod(self.top * self.bottom, a)
        if remainder:
            raise RuntimeError(f"complement of {shown(a)} in {self} left a remainder")
        return quotient

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

    def _diagonal(self, length: int) -> list[int]:
        """The chain ``d_0 < ... < d_(n-2) < top`` of ``n = min(G + 1,
        length)`` members, ``G`` the largest gap: ``d_i = gcd(top,
        bottom * r**i)``, where ``r`` is the product of the primes with
        a positive gap.  Per prime, ``d_i`` sits ``min(i, gap)`` above
        the bottom, a top truncation, which keeps meet, join and ``->``;
        so the chain is a subalgebra isomorphic to the Gödel chain
        ``C_n``: ``d_i -> d_j`` is the top when ``i <= j``, else ``d_j``.
        """
        r = math.prod(self._gaps)
        chain, d = [], self.bottom
        for _ in range(min(max(self._gaps.values(), default=0) + 1, length) - 1):
            chain.append(d)
            d = math.gcd(self.top, d * r)
        chain.append(self.top)
        return chain

    def _index_tables(self):
        """``(position, meet, join, imp)`` once they pay, else None.

        ``position`` maps each member to its index in the ascending
        member list; ``meet[i][j]`` is the position of the gcd of the
        members at ``i`` and ``j``, ``join`` and ``imp`` likewise for
        ``lcm`` and ``_imp``.  Building them costs about as much as
        trying as many assignments on the kernel as a table has cells,
        so the first call after ``_tried_on_closures`` has counted that
        many builds and keeps them: a one-shot search builds none, and
        an interval searched again spends on them at most about what it
        already spent on the kernel.  The count takes every assignment
        that a ``check_valid`` search of two or more variables tried on
        the kernel, on the ``_diagonal`` chain or in full, since the
        tables serve both passes.  Always None past TABLE_CELL_CAP.
        """
        if self._tables is None:
            cells = self.size() ** 2
            if cells > TABLE_CELL_CAP or self._tried < cells:
                return None
            members = self.members()
            position = {m: i for i, m in enumerate(members)}

            def table(op):
                return tuple([tuple([position[op(a, b)] for b in members]) for a in members])

            tables = (position, table(math.gcd), table(math.lcm), table(self._imp))
            object.__setattr__(self, "_tables", tables)
        return self._tables

    def _tried_on_closures(self, assignments: int) -> None:
        """Count ``assignments`` more tried on the kernel by a search
        that ``_index_tables`` would serve."""
        object.__setattr__(self, "_tried", self._tried + assignments)

    def _require_member(self, a) -> int:
        if type(a) is not int or a < 1:
            a = as_natural(a)
        if a % self.bottom or self.top % a:
            raise NotMember(f"{shown(a)} is not in the interval {self}")
        return a

    def __str__(self) -> str:
        return f"[{shown(self.bottom)}, {shown(self.top)}]"
