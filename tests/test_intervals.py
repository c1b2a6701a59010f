"""The Heyting algebra of a divisibility interval.

Closed-form negation and implication are exercised here through their
order-theoretic characterizations; the sweep-style cross-checks against
the brute-force oracle live in test_oracle.py and the acceptance suite.
"""

import copy
import pickle

import pytest
from hypothesis import example, given, strategies as st

from divlog import (
    EnumerationLimit,
    FactorizationLimit,
    Interval,
    InvalidInterval,
    Lit,
    NotBoolean,
    NotMember,
    NotNatural,
    PreconditionViolated,
    as_natural,
    divides,
    evaluate,
    factorize,
    join,
    meet,
    parse,
    primes_up_to,
    projective_identity_holds,
)
from divlog.errors import shown


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def intervals(draw, top_max=360):
    top = draw(st.integers(min_value=1, max_value=top_max))
    bottom = draw(st.sampled_from(_divisors(top)))
    return Interval(bottom, top)


@st.composite
def interval_with_member(draw, top_max=360):
    q = draw(intervals(top_max))
    return q, draw(st.sampled_from(q.members()))


@st.composite
def interval_with_pair(draw, top_max=360):
    q = draw(intervals(top_max))
    ms = q.members()
    return q, draw(st.sampled_from(ms)), draw(st.sampled_from(ms))


# -- construction -----------------------------------------------------------


def test_interval_accepts_dividing_bounds():
    q = Interval(2, 24)
    assert (q.bottom, q.top) == (2, 24)
    assert str(q) == "[2, 24]"


def test_degenerate_interval_is_legal():
    q = Interval(7, 7)
    assert q.members() == [7]
    assert q.size() == 1
    assert q.neg(7) == 7
    assert q.is_boolean()


def test_non_dividing_bounds_are_rejected():
    with pytest.raises(InvalidInterval):
        Interval(4, 6)


def test_bounds_must_be_natural():
    with pytest.raises(NotNatural):
        Interval(0, 6)


# -- membership and enumeration ---------------------------------------------


def test_membership_examples():
    q = Interval(2, 24)
    assert q.contains(6)
    assert not q.contains(3)
    assert q.contains(q.bottom) and q.contains(q.top)


def test_member_list_and_size():
    q = Interval(2, 24)
    assert q.members() == [2, 4, 6, 8, 12, 24]
    assert q.size() == 6


def test_squarefree_top_lists_all_divisors():
    assert Interval(1, 30).members() == [1, 2, 3, 5, 6, 10, 15, 30]


@given(intervals(120))
def test_size_counts_members(q):
    ms = q.members()
    assert q.size() == len(ms)
    assert ms == sorted(ms)
    assert all(q.contains(m) for m in ms)


def test_enumeration_cap_is_enforced():
    with pytest.raises(EnumerationLimit):
        Interval(1, 30).members(cap=5)


@pytest.mark.parametrize("cap", ["x", None, True, 2.0, 0, -1])
def test_enumeration_cap_must_be_a_positive_integer(cap):
    with pytest.raises(NotNatural):
        Interval(1, 30).members(cap=cap)


def test_member_list_is_a_fresh_copy():
    q = Interval(2, 24)
    first = q.members()
    first.append(5)
    first[0] = 99
    assert q.members() == [2, 4, 6, 8, 12, 24]
    assert q.members() is not q.members()


def test_cap_is_checked_after_the_members_are_listed():
    q = Interval(1, 30)
    assert len(q.members()) == 8
    with pytest.raises(EnumerationLimit):
        q.members(cap=5)
    assert q.members(cap=8) == [1, 2, 3, 5, 6, 10, 15, 30]


def test_listed_members_leave_equality_hash_and_repr_alone():
    listed, fresh = Interval(2, 24), Interval(2, 24)
    listed.members()
    assert listed == fresh and hash(listed) == hash(fresh)
    assert repr(listed) == repr(fresh) == "Interval(bottom=2, top=24)"
    assert {listed: 1}[fresh] == 1


def test_interval_is_an_immutable_value():
    q = Interval(2, 24)
    assert Interval(bottom=2, top=24) == q and hash(Interval(bottom=2, top=24)) == hash(q)
    assert q != (2, 24) and q != Interval(2, 12) and q != Interval(1, 24)
    assert pickle.loads(pickle.dumps(q)) == q == copy.deepcopy(q)
    for attr in ("bottom", "top", "other"):
        with pytest.raises(AttributeError):
            setattr(q, attr, 4)
        with pytest.raises(AttributeError):
            delattr(q, attr)
    assert (q.bottom, q.top) == (2, 24) and q.members() == [2, 4, 6, 8, 12, 24]


def test_size_never_enumerates():
    # 2^40 * 3 has 82 divisors; size must not materialize them
    q = Interval(1, (2**40) * 3)
    assert q.size() == 82
    with pytest.raises(EnumerationLimit):
        q.members(cap=50)


# -- negation ----------------------------------------------------------------


def test_negation_worked_example():
    assert Interval(2, 24).neg(6) == 8


def test_negation_of_two_in_twelve():
    assert Interval(1, 12).neg(2) == 3


@given(intervals())
def test_negation_swaps_the_bounds(q):
    assert q.neg(q.bottom) == q.top
    assert q.neg(q.top) == q.bottom


@given(interval_with_member())
def test_negation_stays_in_the_interval(qa):
    q, a = qa
    assert q.contains(q.neg(a))


@given(interval_with_member())
def test_negation_is_disjoint_from_its_argument(qa):
    q, a = qa
    assert meet(a, q.neg(a)) == q.bottom


@given(interval_with_member())
def test_triple_negation_collapses(qa):
    q, a = qa
    assert q.neg(q.neg(q.neg(a))) == q.neg(a)


def test_negation_rejects_non_members():
    with pytest.raises(NotMember):
        Interval(2, 24).neg(3)


def test_pseudocomplement_is_greatest_disjoint_element():
    for top in range(1, 61):
        for bottom in _divisors(top):
            q = Interval(bottom, top)
            for a in q.members():
                na = q.neg(a)
                assert meet(a, na) == bottom
                for c in q.members():
                    if meet(a, c) == bottom:
                        assert divides(c, na), (q, a, c)


# -- implication -------------------------------------------------------------


def test_implication_worked_example():
    assert Interval(1, 12).imp(4, 3) == 3


def test_implication_of_smaller_is_top():
    assert Interval(1, 12).imp(2, 6) == 12


@given(interval_with_member())
def test_self_implication_is_top(qa):
    q, a = qa
    assert q.imp(a, a) == q.top


@given(interval_with_pair())
def test_implication_stays_in_the_interval(qab):
    q, a, b = qab
    assert q.contains(q.imp(a, b))


@given(interval_with_pair())
def test_divisor_implication_is_top(qab):
    q, a, b = qab
    if divides(a, b):
        assert q.imp(a, b) == q.top


@given(interval_with_member())
def test_negation_is_implication_to_bottom(qa):
    q, a = qa
    assert q.neg(a) == q.imp(a, q.bottom)


def test_implication_rejects_non_members():
    q = Interval(2, 24)
    with pytest.raises(NotMember):
        q.imp(3, 6)
    with pytest.raises(NotMember):
        q.imp(6, 9)


def test_residuation_adjunction_small_sweep():
    # gcd(a, b) | c exactly when a | (b -> c)
    for top in range(1, 41):
        for bottom in _divisors(top):
            q = Interval(bottom, top)
            ms = q.members()
            for a in ms:
                for b in ms:
                    for c in ms:
                        assert divides(meet(a, b), c) == divides(a, q.imp(b, c))


@given(interval_with_pair(200))
def test_implication_ignores_the_bottom(qab):
    q, a, b = qab
    relaxed = Interval(1, q.top)
    assert relaxed.imp(a, b) == q.imp(a, b)


# -- gcd/lcm closed forms against the per-prime exponent rule ----------------

# small primes, a few larger ones and the largest prime below 10**6
RULE_PRIMES = [2, 3, 5, 7, 11, 13, 97, 1009, 65537, 999983]
RULE_TOP_MAX = 10**12


def _per_prime_imp(q, a, b):
    """The exponent rule ``imp`` replaced: per prime of the top, ``b``'s
    exponent where ``a``'s exceeds it, the top's elsewhere."""
    fa, fb = factorize(a), factorize(b)
    result = 1
    for p, top_e in factorize(q.top).items():
        a_e, b_e = fa.get(p, 0), fb.get(p, 0)
        result *= p ** (b_e if a_e > b_e else top_e)
    return result


@st.composite
def prime_power_interval_with_pair(draw):
    """An interval with top <= 10**12 built from random prime powers,
    some of them with a zero gap, and two of its members."""
    bounds = []  # (prime, bottom exponent, top exponent)
    top = 1
    for p in draw(st.lists(st.sampled_from(RULE_PRIMES), unique=True, max_size=5)):
        room = 0
        while top * p ** (room + 1) <= RULE_TOP_MAX:
            room += 1
        if room:
            top_e = draw(st.integers(1, room))
            top *= p**top_e
            bounds.append((p, draw(st.integers(0, top_e)), top_e))
    bottom = 1
    for p, bottom_e, _ in bounds:
        bottom *= p**bottom_e

    def member():
        a = 1
        for p, bottom_e, top_e in bounds:
            a *= p ** draw(st.integers(bottom_e, top_e))
        return a

    return Interval(bottom, top), member(), member()


@given(prime_power_interval_with_pair())
@example((Interval(1, 10**12 + 39), 1, 10**12 + 39))  # a prime top
@example((Interval(1, 10**12 + 39), 10**12 + 39, 1))
@example((Interval(999983, 999983 * 2**20), 999983 * 2**7, 999983 * 2**19))
def test_closed_forms_follow_the_per_prime_rule(qab):
    q, a, b = qab
    assert q.imp(a, b) == _per_prime_imp(q, a, b)
    # negation is the same rule with the bottom in place of b
    assert q.neg(a) == _per_prime_imp(q, a, q.bottom)


@pytest.mark.parametrize("e", [13000, 50000])
def test_closed_forms_on_a_top_with_a_huge_exponent_follow_the_per_prime_rule(e):
    """Construction accepts these intervals, since top / bottom is 6; the
    kernel sheds a huge exponent in about log2(e) gcd rounds."""
    q = Interval(2**e, 3 * 2 ** (e + 1))
    exponents = [(e2, e3) for e2 in (e, e + 1) for e3 in (0, 1)]  # of 2 and of 3
    top, bottom = (e + 1, 1), (e, 0)

    def number(x):
        return 2 ** x[0] * 3 ** x[1]

    def rule(a, b):
        return tuple(b_e if a_e > b_e else t_e for a_e, b_e, t_e in zip(a, b, top))

    assert sorted(map(number, exponents)) == q.members()
    for a in exponents:
        assert q.neg(number(a)) == number(rule(a, bottom))
        for b in exponents:
            assert q.imp(number(a), number(b)) == number(rule(a, b))


# -- Boolean intervals -------------------------------------------------------


def test_is_boolean_examples():
    assert Interval(1, 30).is_boolean()
    assert not Interval(1, 12).is_boolean()
    assert Interval(6, 12).is_boolean()


def test_complement_examples():
    assert Interval(6, 12).complement(6) == 12
    assert Interval(1, 30).complement(5) == 6


@given(intervals())
def test_complement_of_top_is_bottom(q):
    if q.is_boolean():
        assert q.complement(q.top) == q.bottom


def test_complement_requires_boolean_interval():
    with pytest.raises(NotBoolean):
        Interval(1, 12).complement(2)


def test_complement_requires_membership():
    with pytest.raises(NotMember):
        Interval(1, 30).complement(4)


def test_boolean_iff_excluded_middle_small_sweep():
    for top in range(1, 61):
        for bottom in _divisors(top):
            q = Interval(bottom, top)
            excluded_middle = all(join(a, q.neg(a)) == top for a in q.members())
            assert q.is_boolean() == excluded_middle, q


@given(interval_with_member())
def test_complement_agrees_with_negation_when_boolean(qa):
    q, a = qa
    if q.is_boolean():
        assert q.complement(a) == q.neg(a)
        assert q.complement(a) * a == q.top * q.bottom


# -- operands too long to print as decimal digits ------------------------------

HUGE = 10**5000  # 5001 digits, past the default limit of 4300 on int -> str
WIDE = Interval(HUGE, 8 * HUGE)  # four members, not Boolean
SMALL = Interval(1, 12)


def test_shown_is_repr_until_the_digit_limit():
    assert [shown(12), shown(-3), shown("x"), shown(None)] == ["12", "-3", "'x'", "None"]
    assert shown(HUGE) == "<16610-bit integer>"


def test_repr_shows_huge_bounds_by_their_bit_length():
    assert repr(Interval(HUGE, HUGE)) == "Interval(bottom=<16610-bit integer>, top=<16610-bit integer>)"
    assert repr(WIDE) == f"Interval(bottom={shown(HUGE)}, top={shown(8 * HUGE)})"


@pytest.mark.parametrize(
    "error, call",
    [
        pytest.param(NotNatural, lambda: meet(-HUGE, 2), id="meet"),
        pytest.param(NotNatural, lambda: as_natural(-HUGE), id="as_natural"),
        pytest.param(NotMember, lambda: SMALL.neg(HUGE), id="neg"),
        pytest.param(NotMember, lambda: SMALL.imp(2, HUGE), id="imp"),
        pytest.param(FactorizationLimit, lambda: factorize(HUGE), id="factorize"),
        pytest.param(InvalidInterval, lambda: Interval(7, HUGE), id="interval-not-dividing"),
        pytest.param(FactorizationLimit, lambda: Interval(1, HUGE), id="interval-past-ceiling"),
        pytest.param(EnumerationLimit, lambda: primes_up_to(HUGE), id="primes_up_to"),
        pytest.param(NotMember, lambda: evaluate(SMALL, parse("p"), {"p": HUGE}), id="binding"),
        pytest.param(NotMember, lambda: evaluate(SMALL, Lit(HUGE)), id="literal"),
        pytest.param(NotBoolean, lambda: WIDE.complement(HUGE), id="complement"),
        pytest.param(EnumerationLimit, lambda: WIDE.members(3), id="members"),
        pytest.param(
            PreconditionViolated, lambda: projective_identity_holds(HUGE, 3, 1), id="projective"
        ),
    ],
)
def test_huge_operands_get_their_named_error(error, call):
    with pytest.raises(error) as info:
        call()
    assert shown(HUGE) in str(info.value)
