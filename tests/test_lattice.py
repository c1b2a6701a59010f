"""Meet/join arithmetic and the global lattice laws."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from divlog import (
    Interval,
    NotMember,
    NotNatural,
    PreconditionViolated,
    as_natural,
    divides,
    factorize,
    join,
    meet,
    meet_euclid,
    projective_identity_holds,
)

naturals = st.integers(min_value=1, max_value=10**9)


def test_meet_examples():
    assert meet(12, 18) == 6
    assert meet(1, 77) == 1


def test_join_examples():
    assert join(12, 18) == 36
    assert join(1, 77) == 77


def test_meet_euclid_examples():
    assert meet_euclid(48, 36) == 12
    assert meet_euclid(7, 13) == 1
    assert meet_euclid(9, 9) == 9


@given(naturals, naturals)
def test_meet_agrees_with_euclid_oracle(a, b):
    assert meet(a, b) == meet_euclid(a, b)


@given(naturals, naturals)
def test_product_identity(a, b):
    assert meet(a, b) * join(a, b) == a * b


@given(naturals)
def test_idempotency(a):
    assert meet(a, a) == a
    assert join(a, a) == a


@given(naturals, naturals)
def test_commutativity(a, b):
    assert meet(a, b) == meet(b, a)
    assert join(a, b) == join(b, a)


@given(naturals, naturals, naturals)
def test_associativity(a, b, c):
    assert meet(meet(a, b), c) == meet(a, meet(b, c))
    assert join(join(a, b), c) == join(a, join(b, c))


@given(naturals, naturals, naturals)
def test_mutual_distributivity(a, b, c):
    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
    assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))


@given(naturals, naturals)
def test_absorption(a, b):
    assert meet(a, join(a, b)) == a
    assert join(a, meet(a, b)) == a


@given(st.integers(1, 10**4), st.integers(1, 10**4))
def test_componentwise_exponent_agreement(a, b):
    va, vb = factorize(a), factorize(b)
    vm, vj = factorize(meet(a, b)), factorize(join(a, b))
    for p in set(va) | set(vb):
        assert vm.get(p, 0) == min(va.get(p, 0), vb.get(p, 0))
        assert vj.get(p, 0) == max(va.get(p, 0), vb.get(p, 0))


def test_projective_identity_worked_example():
    # meet(24, lcm(9, 2)) and join(gcd(24, 9), 2) both come to 6
    assert projective_identity_holds(24, 2, 9)


def test_projective_identity_requires_divisibility():
    with pytest.raises(PreconditionViolated):
        projective_identity_holds(24, 9, 2)


@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_projective_identity_degenerate_edges(x, z):
    assert projective_identity_holds(x, x, z)
    assert projective_identity_holds(x, 1, z)


@given(st.integers(1, 500), st.integers(1, 500), st.data())
def test_projective_identity_holds_for_any_divisor(x, z, data):
    y = data.draw(st.sampled_from([d for d in range(1, x + 1) if x % d == 0]))
    assert projective_identity_holds(x, y, z)


def test_meets_validate_their_arguments():
    with pytest.raises(NotNatural):
        meet(0, 5)
    with pytest.raises(NotNatural):
        join(5, -1)


# ---------------------------------------------------------------------------
# The exact-int guard against the as_natural path it short-cuts
# ---------------------------------------------------------------------------


class N(int):
    pass


GUARD_CASES = [True, False, 1.0, "6", None, 0, -3, 2**200, N(6), 1, 2, 6, 12]
GUARD_Q = Interval(2, 12)


def _outcome(fn, *args):
    """``(result type, result)``, or ``(error class, message)``."""
    try:
        value = fn(*args)
    except Exception as err:
        return type(err), str(err)
    return type(value), value


def _old_member(q, a):
    a = as_natural(a)
    if not (a % q.bottom == 0 and q.top % a == 0):
        raise NotMember(f"{a} is not in the interval [{q.bottom}, {q.top}]")
    return a


def _old_meet(a, b):
    return math.gcd(as_natural(a), as_natural(b))


def _old_join(a, b):
    a = as_natural(a)
    b = as_natural(b)
    return a * b // math.gcd(a, b)


def _old_divides(a, b):
    a = as_natural(a)
    b = as_natural(b)
    return b % a == 0


def _old_contains(q, a):
    a = as_natural(a)
    return a % q.bottom == 0 and q.top % a == 0


def _old_neg(q, a):
    return q._imp(_old_member(q, a), q.bottom)


def _old_imp(q, a, b):
    return q._imp(_old_member(q, a), _old_member(q, b))


PAIRED = [(meet, _old_meet), (join, _old_join), (divides, _old_divides)]


def _assert_guard_agrees(a, b, q=GUARD_Q):
    for new, old in PAIRED:
        assert _outcome(new, a, b) == _outcome(old, a, b), (new.__name__, a, b)
    assert _outcome(q.contains, a) == _outcome(_old_contains, q, a)
    assert _outcome(q.neg, a) == _outcome(_old_neg, q, a)
    assert _outcome(q.imp, a, b) == _outcome(_old_imp, q, a, b)


@pytest.mark.parametrize("a, b", list(itertools.product(GUARD_CASES, repeat=2)))
def test_exact_int_guard_agrees_with_as_natural(a, b):
    _assert_guard_agrees(a, b)


@given(st.integers(), st.integers(-20, 40))
def test_exact_int_guard_agrees_on_any_integer(a, b):
    _assert_guard_agrees(a, b)
    _assert_guard_agrees(b, a, Interval(1, 720))
