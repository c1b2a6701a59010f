"""Prime factorization and its sparse prime -> exponent dict."""

from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from divlog import (
    DEFAULT_FACTOR_LIMIT,
    EnumerationLimit,
    FactorizationLimit,
    NotNatural,
    as_natural,
    divides,
    factorize,
    is_prime,
    primes_up_to,
    reconstruct,
)
from divlog.factorization import SIEVE_LIMIT

naturals = st.integers(min_value=1, max_value=10**6)


def test_primes_up_to_smallest():
    assert primes_up_to(2) == [2]


def test_primes_up_to_seventeen():
    assert primes_up_to(17) == [2, 3, 5, 7, 11, 13, 17]


def test_primes_below_two_are_none():
    assert primes_up_to(1) == []
    assert primes_up_to(0) == []


@pytest.mark.parametrize("bad", [2.5, True, "17", None])
def test_primes_up_to_rejects_non_integer_limits(bad):
    with pytest.raises(NotNatural):
        primes_up_to(bad)


def test_primes_up_to_stops_at_its_bound():
    # 664579 primes lie below 10**7; one past the bound is refused unsieved
    assert len(primes_up_to(SIEVE_LIMIT)) == 664579
    with pytest.raises(EnumerationLimit, match=f"sieve bound {SIEVE_LIMIT}"):
        primes_up_to(SIEVE_LIMIT + 1)


def test_is_prime_agrees_with_sieve():
    assert [n for n in range(2, 18) if is_prime(n)] == primes_up_to(17)
    assert not is_prime(1)


def test_factorize_one_is_the_empty_product():
    assert factorize(1) == {}


def test_factorize_360():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}


def test_factorize_a_prime():
    assert factorize(97) == {97: 1}


def test_reconstruct_examples():
    assert reconstruct({}) == 1
    assert reconstruct({2: 3, 3: 2, 5: 1}) == 360
    assert reconstruct({7: 2}) == 49


@given(naturals)
def test_round_trip(n):
    assert reconstruct(factorize(n)) == n


@given(naturals)
def test_canonical_sparse_form(n):
    # no zero exponents, no composite keys
    vec = factorize(n)
    for p, e in vec.items():
        assert is_prime(p)
        assert e >= 1


def test_vector_rejects_composite_keys():
    with pytest.raises(ValueError):
        reconstruct({4: 1})


def test_vector_rejects_negative_exponents():
    with pytest.raises(ValueError):
        reconstruct({2: -1})


@pytest.mark.parametrize("bad", [1.5, "2", True, None])
def test_reconstruct_rejects_non_integer_exponents(bad):
    with pytest.raises(ValueError):
        reconstruct({2: bad})


def test_vector_drops_zero_exponents():
    assert reconstruct({2: 0, 3: 1}) == reconstruct({3: 1}) == 3
    assert reconstruct({4: 0}) == 1  # a zero exponent is skipped before any check


def test_vector_lookup_defaults_to_zero():
    assert factorize(12).get(7, 0) == 0


def test_vector_support_is_sorted():
    assert list(factorize(360)) == [2, 3, 5]


def test_divides_examples():
    assert divides(6, 24)
    assert not divides(4, 6)


@given(naturals)
def test_one_divides_everything(n):
    assert divides(1, n)


def test_order_agreement_on_small_range():
    # b % a == 0 must coincide with the componentwise exponent test
    vecs = {n: factorize(n) for n in range(1, 501)}
    for a in range(1, 501):
        va = vecs[a]
        for b in range(1, 501):
            vb = vecs[b]
            componentwise = all(e <= vb.get(p, 0) for p, e in va.items())
            assert divides(a, b) == componentwise, (a, b)


@pytest.mark.parametrize("bad", [0, -3, 1.5, "6", True, None])
def test_non_naturals_are_rejected(bad):
    with pytest.raises(NotNatural):
        as_natural(bad)


def test_factorization_ceiling():
    with pytest.raises(FactorizationLimit):
        factorize(DEFAULT_FACTOR_LIMIT + 1)


# -- Cross-checks of the fast path -----------------------------------------


def _trial_division_table(limit):
    """Factorizations of 1..limit by plain trial division, each ``n`` by
    the primes found below it: the reference for ``factorize``."""
    primes, table = [], {1: {}}
    for n in range(2, limit + 1):
        entries, m = {}, n
        for p in primes:
            if p * p > m:
                break
            while m % p == 0:
                entries[p] = entries.get(p, 0) + 1
                m //= p
        if m > 1:
            entries[m] = entries.get(m, 0) + 1
        if m == n:
            primes.append(n)
        table[n] = entries
    return table


def test_agrees_with_trial_division_to_10_5():
    table = _trial_division_table(10**5)
    for n, expected in table.items():
        assert list(factorize(n).items()) == list(expected.items()), n
        assert is_prime(n) == (expected == {n: 1}), n
    primes = [n for n, expected in table.items() if expected == {n: 1}]
    for limit in (1021, 1024, 1031, 10**5):
        assert primes_up_to(limit) == [p for p in primes if p <= limit]


# (n, its factorization) at the edges of the fast path and the ceiling
EDGE_CASES = [
    (1, {}),
    (2**63 - 1, {7: 2, 73: 1, 127: 1, 337: 1, 92737: 1, 649657: 1}),
    (9223372036854775783, {9223372036854775783: 1}),  # largest prime below 2**63
    (3037000493**2, {3037000493: 2}),  # prime square near the ceiling
    (2097143**3, {2097143: 3}),
    (2147483647 * 2147483659, {2147483647: 1, 2147483659: 1}),
    (3215031751, {151: 1, 751: 1, 28351: 1}),  # strong pseudoprime to bases 2..7
    (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),  # ... to bases 2..23
    (1048573, {1048573: 1}),  # largest prime below 1024**2
    (1048583, {1048583: 1}),  # smallest prime above it
    (1021 * 1031, {1021: 1, 1031: 1}),
]


@pytest.mark.parametrize("n, expected", EDGE_CASES)
def test_edge_cases(n, expected):
    assert list(factorize(n).items()) == list(expected.items())
    assert is_prime(n) == (expected == {n: 1})
    assert all(is_prime(p) for p in expected)


def test_composites_past_the_ceiling_still_factor_exactly():
    n = (2**61 - 1) * (2**31 - 1) * (2**19 - 1)  # above the proven bound
    assert not is_prime(n)
    assert not is_prime(2**89 + 1)


@pytest.mark.parametrize(
    "n",
    [
        318665857834031151167461,  # strong pseudoprime to every base 2..37
        2**89 - 1,  # a prime, but past the bound where the bases prove it
    ],
)
def test_unproven_primality_raises(n):
    with pytest.raises(FactorizationLimit):
        is_prime(n)


_PRIME_POOL = [
    2, 3, 5, 7, 1021, 1031, 999983, 1000003, 1048573, 1048583, 2097143,
    2147483647, 2147483659, 3037000493, 4294967291, 10**12 + 39,
    2**61 - 1, 9223372036854775783,
]


@st.composite
def prime_power_products(draw):
    """A product of prime powers from the pool, at most the ceiling, and
    its factorization."""
    n, expected = 1, {}
    for p in draw(st.lists(st.sampled_from(_PRIME_POOL), unique=True, max_size=6)):
        room = 0
        while n * p ** (room + 1) <= DEFAULT_FACTOR_LIMIT:
            room += 1
        if room:
            e = draw(st.integers(1, room))
            n *= p**e
            expected[p] = e
    return n, dict(sorted(expected.items()))


@settings(deadline=timedelta(seconds=1))
@given(prime_power_products())
def test_round_trip_up_to_the_ceiling(case):
    n, expected = case
    assert list(factorize(n).items()) == list(expected.items())
    assert reconstruct(factorize(n)) == n


def test_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    assert all(sympy.isprime(p) for p in _PRIME_POOL)
    for n, _ in EDGE_CASES:
        assert factorize(n) == sympy.factorint(n), n
        assert is_prime(n) == sympy.isprime(n), n


@settings(deadline=timedelta(seconds=1))
@given(st.integers(1, DEFAULT_FACTOR_LIMIT) | st.integers(1, 10**12))
def test_agrees_with_sympy_on_random_inputs(n):
    sympy = pytest.importorskip("sympy")
    assert list(factorize(n).items()) == sorted(sympy.factorint(n).items())
    assert is_prime(n) == sympy.isprime(n)
