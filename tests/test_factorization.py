"""Prime factorization and its sparse prime -> exponent dict."""

import pytest
from hypothesis import given, strategies as st

from divlog import (
    DEFAULT_FACTOR_LIMIT,
    FactorizationLimit,
    NotNatural,
    as_natural,
    divides,
    factorize,
    is_prime,
    primes_up_to,
    reconstruct,
)

naturals = st.integers(min_value=1, max_value=10**6)


def test_primes_up_to_smallest():
    assert primes_up_to(2) == [2]


def test_primes_up_to_seventeen():
    assert primes_up_to(17) == [2, 3, 5, 7, 11, 13, 17]


def test_primes_below_two_are_none():
    assert primes_up_to(1) == []
    assert primes_up_to(0) == []


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


def test_factorization_ceiling_is_configurable():
    with pytest.raises(FactorizationLimit):
        factorize(100, limit=10)
    assert factorize(100, limit=100) == {2: 2, 5: 2}
