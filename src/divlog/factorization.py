"""Naturals, primes and prime factorizations.

A positive integer and its prime -> exponent dict are two pictures of
the same thing; ``factorize`` and ``reconstruct`` convert between them,
and divisibility is exactly the componentwise order on exponents.  The
library computes on the integers themselves (gcd and lcm are the
coordinatewise min and max without ever factorizing); a factorization
is taken once per interval, to count and list its members.  Everything
here is deterministic trial division over a cached sieve: desk-scale
correctness, no probabilistic shortcuts.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

from .errors import FactorizationLimit, NotNatural

# Inputs above this bound raise FactorizationLimit instead of grinding
# through an astronomically large sieve.
DEFAULT_FACTOR_LIMIT = 2**63 - 1

_SIEVE_START = 1 << 10


def as_natural(value) -> int:
    """Validate that ``value`` is a positive integer and return it.

    Zero and negatives are rejected with NotNatural, never coerced.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise NotNatural(f"expected a positive integer, got {value!r}")
    if value < 1:
        raise NotNatural(f"expected a positive integer, got {value}")
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

# (bound, primes) published as one tuple: readers always see a matched
# pair, and a racing recompute just replaces it with an equal value.
_prime_cache: tuple[int, tuple[int, ...]] = (0, ())


def _primes_through(limit: int) -> tuple[int, ...]:
    global _prime_cache
    bound, primes = _prime_cache
    if limit > bound:
        bound = max(limit, 2 * bound, _SIEVE_START)
        primes = _sieve(bound)
        _prime_cache = (bound, primes)
    return primes


def _prime_stream() -> Iterator[int]:
    """Yield 2, 3, 5, ... indefinitely, growing the cached sieve on demand."""
    i = 0
    primes = _primes_through(_SIEVE_START)
    while True:
        while i >= len(primes):
            primes = _primes_through(2 * _prime_cache[0])
        yield primes[i]
        i += 1


def primes_up_to(limit) -> list[int]:
    """All primes <= limit, ascending.  Limits below 2 give an empty list."""
    if isinstance(limit, bool) or not isinstance(limit, int):
        raise NotNatural(f"expected an integer limit, got {limit!r}")
    if limit < 2:
        return []
    return [p for p in _primes_through(limit) if p <= limit]


def is_prime(n) -> bool:
    """Deterministic primality by trial division up to the square root."""
    n = as_natural(n)
    if n == 1:
        return False
    for p in _prime_stream():
        if p * p > n:
            return True
        if n % p == 0:
            return n == p


def factorize(n, *, limit: int = DEFAULT_FACTOR_LIMIT) -> dict[int, int]:
    """Canonical prime factorization of ``n``: a dict from each prime to
    its exponent, primes ascending, exponents >= 1, ``{}`` for 1.

    Raises FactorizationLimit when ``n`` exceeds ``limit`` (default
    2**63 - 1), the point past which trial division stops being a
    reasonable plan.
    """
    n = as_natural(n)
    if n > limit:
        raise FactorizationLimit(f"{n} exceeds the factorization ceiling {limit}")
    entries: dict[int, int] = {}
    remaining = n
    for p in _prime_stream():
        if p * p > remaining:
            break
        if remaining % p == 0:
            e = 0
            while remaining % p == 0:
                remaining //= p
                e += 1
            entries[p] = e
    if remaining > 1:
        entries[remaining] = 1  # the one prime above the square root
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
    a = as_natural(a)
    b = as_natural(b)
    return b % a == 0
