"""Naturals, primes and prime factorizations.

A positive integer and its prime -> exponent dict are two pictures of
the same thing; ``factorize`` and ``reconstruct`` convert between them,
and divisibility is exactly the componentwise order on exponents.  The
library computes on the integers themselves (gcd and lcm are the
coordinatewise min and max without ever factorizing); a factorization
is taken once per interval, to count and list its members.  It is
trial division by the primes below 1024, then Pollard's rho with no
randomness, up to a ceiling fixed at 2**63 - 1, within which Miller-Rabin
with fixed bases proves every part prime.
"""

from __future__ import annotations

import math
from typing import Mapping

from .errors import EnumerationLimit, FactorizationLimit, NotNatural, shown

# Inputs above this bound raise FactorizationLimit: below it the fixed
# Miller-Rabin bases are exact and rho splits any cofactor in well under
# a second: 3037000493**2, the slowest case the tests hold, takes about 0.1 s.
DEFAULT_FACTOR_LIMIT = 2**63 - 1
# primes_up_to sieves one byte per number; past this limit it refuses.
SIEVE_LIMIT = 10**7


def as_natural(value) -> int:
    """Validate that ``value`` is a positive integer and return it.

    Zero and negatives are rejected with NotNatural, never coerced.
    The hot primitives (``meet``, ``join``, ``divides``, interval
    membership) call this only when the exact-int guard ``type(value)
    is int and value >= 1`` fails, so it decides every error.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise NotNatural(f"expected a positive integer, got {shown(value)}")
    return value


def _sieve(limit: int) -> tuple[int, ...]:
    """All primes <= limit by the sieve of Eratosthenes."""
    if limit < 2:
        return ()
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i, f in enumerate(flags) if f)


def primes_up_to(limit) -> list[int]:
    """All primes <= limit, ascending.  Limits below 2 give an empty list;
    a limit above ``SIEVE_LIMIT`` (10**7) raises EnumerationLimit before
    any memory is taken."""
    if isinstance(limit, bool) or not isinstance(limit, int):
        raise NotNatural(f"expected an integer limit, got {limit!r}")
    if limit > SIEVE_LIMIT:
        raise EnumerationLimit(f"primes up to {shown(limit)} exceed the sieve bound {SIEVE_LIMIT}")
    return list(_sieve(limit))


_SMALL_BOUND = 1 << 10
_SMALL_PRIMES = _sieve(_SMALL_BOUND)  # every prime below 1024
_SMALL_SQUARE = _SMALL_BOUND * _SMALL_BOUND
# With these bases Miller-Rabin is exact below _MR_EXACT_BELOW, the
# least strong pseudoprime to all of them (Sorenson and Webster 2015),
# which covers every n <= 2**63 - 1.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def _is_prime_cofactor(n: int) -> bool:
    """Primality of an ``n`` > 1 that has no prime factor below 1024.

    Below 1024**2 such an ``n`` is prime; above, Miller-Rabin with the
    fixed bases decides.  A "composite" verdict is always exact; a
    "prime" verdict at or past ``_MR_EXACT_BELOW`` is not proven, so it
    raises FactorizationLimit instead of guessing.
    """
    if n < _SMALL_SQUARE:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise FactorizationLimit(
            f"{shown(n)} passes Miller-Rabin but lies beyond its proven bound {_MR_EXACT_BELOW}"
        )
    return True


def _rho(n: int) -> int:
    """A proper factor of a composite ``n`` with no prime factor below
    1024, by Pollard's rho (BIT 15, 1975) with Floyd's cycle search:
    ``v -> v*v + c`` from 2, for ``c = 1, 2, ...`` until one splits ``n``."""
    c = 0
    while True:
        c += 1
        x, y, g = 2, 2, 1
        while g == 1:  # x takes one step, y two, and one gcd follows
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g


def is_prime(n) -> bool:
    """Deterministic primality: trial division by the primes below 1024,
    which settles every ``n`` below 1024**2, then Miller-Rabin with the
    fixed bases 2..37, exact for every ``n`` below 3.18e23.  A larger
    ``n`` with no small factor that passes those bases is unproven and
    raises FactorizationLimit."""
    n = as_natural(n)
    for p in _SMALL_PRIMES:
        if p * p > n:
            return n > 1
        if n % p == 0:
            return n == p
    return _is_prime_cofactor(n)


def factorize(n) -> dict[int, int]:
    """Canonical prime factorization of ``n``: a dict from each prime to
    its exponent, primes ascending, exponents >= 1, ``{}`` for 1.

    Trial division strips the primes below 1024; what is left splits by
    Pollard's rho into parts that Miller-Rabin proves prime, with no
    randomness, so equal inputs give equal results.  Raises
    FactorizationLimit when ``n`` exceeds the fixed ceiling
    ``DEFAULT_FACTOR_LIMIT`` (2**63 - 1); within it the bases prove
    every part prime.
    """
    n = as_natural(n)
    if n > DEFAULT_FACTOR_LIMIT:
        raise FactorizationLimit(
            f"{shown(n)} exceeds the factorization ceiling {DEFAULT_FACTOR_LIMIT}"
        )
    entries: dict[int, int] = {}
    remaining = n
    for p in _SMALL_PRIMES:
        if p * p > remaining:
            break
        if remaining % p == 0:
            e = 0
            while remaining % p == 0:
                remaining //= p
                e += 1
            entries[p] = e
    large: list[int] = []
    pending = [remaining] if remaining > 1 else []
    while pending:
        m = pending.pop()
        if _is_prime_cofactor(m):
            large.append(m)
        else:
            d = _rho(m)
            pending += (d, m // d)
    for p in sorted(large):
        entries[p] = entries.get(p, 0) + 1
    return entries


def reconstruct(exponents: Mapping[int, int]) -> int:
    """Multiply the prime powers back into the integer they encode.

    Zero exponents are skipped; a key that is not a prime, or an
    exponent that is negative or not an integer, is a programming error
    and raises ValueError.
    """
    n = 1
    for prime, exponent in exponents.items():
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            raise ValueError(f"exponent for {prime!r} must be an integer")
        if exponent < 0:
            raise ValueError(f"negative exponent {exponent} for {prime!r}")
        if exponent == 0:
            continue
        if not isinstance(prime, int) or prime < 2 or not is_prime(prime):
            raise ValueError(f"key {prime!r} is not a prime")
        n *= prime**exponent
    return n


def divides(a, b) -> bool:
    """True when ``a`` divides ``b``; agrees with the componentwise
    exponent comparison of their factorizations."""
    if type(a) is not int or a < 1 or type(b) is not int or b < 1:
        a, b = as_natural(a), as_natural(b)
    return b % a == 0
