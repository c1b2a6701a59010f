"""Brute-force oracle semantics and the sweep reports."""

import math
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from divlog import (
    DivlogError,
    Interval,
    LawReport,
    oracle_imp,
    oracle_neg,
    verify_heyting,
    verify_lattice_laws,
    verify_projective,
)

HEYTING_REPORT_NAMES = [
    "neg_formula_vs_oracle",
    "imp_formula_vs_oracle",
    "residuation_adjunction",
    "boolean_equivalences",
    "imp_bottom_independence",
]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def interval_with_pair(draw, top_max=120):
    top = draw(st.integers(min_value=1, max_value=top_max))
    bottom = draw(st.sampled_from(_divisors(top)))
    q = Interval(bottom, top)
    ms = q.members()
    return q, draw(st.sampled_from(ms)), draw(st.sampled_from(ms))


def test_oracle_negation_examples():
    assert oracle_neg(Interval(1, 12), 2) == 3
    assert oracle_neg(Interval(2, 24), 6) == 8


def test_oracle_implication_example():
    assert oracle_imp(Interval(1, 12), 4, 3) == 3


def _same_error(expected_call, call):
    """``call`` raises the error class and message ``expected_call`` does."""
    with pytest.raises(DivlogError) as expected:
        expected_call()
    with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
        call()


@pytest.mark.parametrize("a", [3, 48, 0, True, 2.5, "6"])
def test_oracle_neg_takes_members_only(a):
    q = Interval(2, 24)
    _same_error(lambda: q.neg(a), lambda: oracle_neg(q, a))


@pytest.mark.parametrize("a, b", [(3, 5), (4, 5), (5, 4), (3, 0), (0, 5), (4, None)])
def test_oracle_imp_takes_members_only(a, b):
    q = Interval(2, 24)
    _same_error(lambda: q.imp(a, b), lambda: oracle_imp(q, a, b))


@given(interval_with_pair())
def test_closed_forms_match_the_oracle(qab):
    q, a, b = qab
    assert q.neg(a) == oracle_neg(q, a)
    assert q.imp(a, b) == oracle_imp(q, a, b)


def test_lattice_law_report_counts():
    reports = verify_lattice_laws(12)
    assert [r.law_name for r in reports] == [
        "idempotency",
        "commutativity",
        "associativity",
        "mutual_distributivity",
    ]
    cases = {r.law_name: r.cases_checked for r in reports}
    assert cases == {
        "idempotency": 12,
        "commutativity": 144,
        "associativity": 1728,
        "mutual_distributivity": 3456,  # both dual forms
    }
    assert all(r.passed for r in reports)
    assert all(r.counterexamples == () for r in reports)


def test_projective_report_counts_divisor_triples():
    report = verify_projective(10)
    assert report.law_name == "projective_identity"
    assert report.passed
    # sum of divisor counts over 1..10 is 27, times 10 choices of z
    assert report.cases_checked == 270


def test_heyting_sweep_passes_on_small_tops():
    reports = verify_heyting(30)
    assert [r.law_name for r in reports] == HEYTING_REPORT_NAMES
    assert all(r.passed for r in reports)
    assert all(r.skipped == () for r in reports)


def test_size_cap_records_skipped_intervals():
    reports = verify_heyting(16, size_cap=4)
    skipped = {(s["bottom"], s["top"]): s["size"] for s in reports[0].skipped}
    assert skipped == {(1, 12): 6, (1, 16): 5}
    # the skip list is shared and the surviving cases still pass
    assert all(r.skipped == reports[0].skipped for r in reports)
    assert all(r.passed for r in reports)


def test_heyting_sweep_builds_each_interval_once(monkeypatch):
    built, post_init = [], Interval.__post_init__

    def counted(self):
        built.append((self.top, self.bottom))
        post_init(self)

    monkeypatch.setattr(Interval, "__post_init__", counted)
    verify_heyting(48, size_cap=8)
    assert built == [(top, bottom) for top in range(1, 49) for bottom in _divisors(top)]
    assert len(built) == 198


def test_reports_are_reproducible():
    assert verify_heyting(20) == verify_heyting(20)
    assert verify_lattice_laws(8) == verify_lattice_laws(8)


def test_report_serialization_shape():
    doc = verify_projective(5).to_dict()
    assert list(doc) == [
        "law_name",
        "parameters",
        "cases_checked",
        "skipped",
        "counterexamples",
    ]
    assert doc["counterexamples"] == []
    assert doc["cases_checked"] == 10 * 5  # 10 divisor pairs, 5 values of z


def test_law_report_passed_reflects_counterexamples():
    clean = LawReport(law_name="x", parameters={}, cases_checked=1)
    dirty = LawReport(
        law_name="x", parameters={}, cases_checked=1, counterexamples=({"a": 1},)
    )
    assert clean.passed and not dirty.passed


def test_sweep_flags_a_corrupted_negation(monkeypatch):
    # the oracle must catch a deliberately wrong closed form
    monkeypatch.setattr(Interval, "neg", lambda self, a: self.top)
    reports = {r.law_name: r for r in verify_heyting(6)}
    assert not reports["neg_formula_vs_oracle"].passed


def test_sweep_flags_a_corrupted_implication(monkeypatch):
    monkeypatch.setattr(Interval, "imp", lambda self, a, b: self.top)
    reports = {r.law_name: r for r in verify_heyting(6)}
    assert not reports["imp_formula_vs_oracle"].passed


# -- pinned report documents --------------------------------------------------

SKIPPED_16_4 = [{"bottom": 1, "top": 12, "size": 6}, {"bottom": 1, "top": 16, "size": 5}]


def _doc(law_name, parameters, cases_checked, skipped=()):
    return {
        "law_name": law_name,
        "parameters": parameters,
        "cases_checked": cases_checked,
        "skipped": list(skipped),
        "counterexamples": [],
    }


def test_lattice_law_documents_are_pinned():
    assert [r.to_dict() for r in verify_lattice_laws(12)] == [
        _doc("idempotency", {"max": 12, "domain": "[1,12]"}, 12),
        _doc("commutativity", {"max": 12, "domain": "[1,12]^2"}, 144),
        _doc("associativity", {"max": 12, "domain": "[1,12]^3"}, 1728),
        _doc(
            "mutual_distributivity",
            {
                "max": 12,
                "domain": "2 x [1,12]^3",
                "forms": ["meet_over_join", "join_over_meet"],
            },
            3456,
        ),
    ]


def test_projective_document_is_pinned():
    assert verify_projective(10).to_dict() == _doc(
        "projective_identity",
        {"max": 10, "domain": "triples in [1,10]^3 with y | x"},
        270,
    )


def test_heyting_documents_are_pinned():
    params = {"top_max": 16, "size_cap": 4}
    expected = [
        ("neg_formula_vs_oracle", "(interval, member) pairs", 99),
        ("imp_formula_vs_oracle", "(interval, member, member) triples", 253),
        ("residuation_adjunction", "(interval, a, b, c) member triples", 759),
        ("boolean_equivalences", "intervals", 48),
        (
            "imp_bottom_independence",
            "(interval, proper coarser bottom, member pair) tuples",
            182,
        ),
    ]
    assert [r.to_dict() for r in verify_heyting(16, size_cap=4)] == [
        _doc(name, {**params, "domain": domain}, cases, SKIPPED_16_4)
        for name, domain, cases in expected
    ]


def test_sweeps_flag_a_corrupted_join(monkeypatch):
    # join(a, b) = a * b keeps commutativity and associativity but
    # breaks idempotency, meet-over-join distributivity and projectivity
    monkeypatch.setattr("divlog.oracle.join", lambda a, b: a * b)
    reports = {r.law_name: r for r in verify_lattice_laws(6)}
    assert reports["commutativity"].passed
    assert reports["associativity"].passed
    assert reports["idempotency"].counterexamples == tuple(
        {"a": a, "identity": "join", "lhs": a * a, "rhs": a} for a in range(2, 7)
    )
    distributivity = reports["mutual_distributivity"].counterexamples
    assert len(distributivity) == 31
    assert distributivity[0] == {
        "a": 2, "b": 2, "c": 2, "form": "meet_over_join", "lhs": 2, "rhs": 4
    }
    assert {c["form"] for c in distributivity} == {"meet_over_join"}
    assert all(list(c) == ["a", "b", "c", "form", "lhs", "rhs"] for c in distributivity)
    keys = [(c["a"], c["b"], c["c"]) for c in distributivity]
    assert keys == sorted(keys)

    projective = verify_projective(6).counterexamples
    assert len(projective) == 19
    assert projective[:2] == (
        {"x": 2, "y": 2, "z": 2, "lhs": 2, "rhs": 4},
        {"x": 2, "y": 2, "z": 4, "lhs": 2, "rhs": 4},
    )
    assert all(list(c) == ["x", "y", "z", "lhs", "rhs"] for c in projective)


def test_sweeps_flag_a_corrupted_meet(monkeypatch):
    # meet(a, b) = 1 keeps commutativity, associativity and the
    # meet-over-join form but breaks idempotency, join-over-meet and
    # projectivity: the sweeps must reach the function they verify
    monkeypatch.setattr("divlog.oracle.meet", lambda a, b: 1)
    reports = {r.law_name: r for r in verify_lattice_laws(6)}
    assert reports["commutativity"].passed
    assert reports["associativity"].passed
    assert reports["idempotency"].counterexamples == tuple(
        {"a": a, "identity": "meet", "lhs": 1, "rhs": a} for a in range(2, 7)
    )
    distributivity = reports["mutual_distributivity"].counterexamples
    assert len(distributivity) == 5 * 6 * 6
    assert {c["form"] for c in distributivity} == {"join_over_meet"}
    assert distributivity[0] == {
        "a": 2, "b": 1, "c": 1, "form": "join_over_meet", "lhs": 2, "rhs": 1
    }

    projective = verify_projective(6).counterexamples
    # every (x, y) with 1 < y | x <= 6, times the six values of z
    assert len(projective) == 8 * 6
    assert projective[0] == {"x": 2, "y": 2, "z": 1, "lhs": 1, "rhs": 2}
    assert all(c["lhs"] == 1 and c["rhs"] == c["y"] for c in projective)


def test_sweeps_flag_a_corrupted_commutativity(monkeypatch):
    # meet(a, b) = a keeps idempotency, associativity and both distributive
    # forms; commutativity fails once per ordered pair a != b
    monkeypatch.setattr("divlog.oracle.meet", lambda a, b: a)
    reports = verify_lattice_laws(7)
    assert [r.law_name for r in reports if not r.passed] == ["commutativity"]
    assert reports[1].counterexamples == tuple(
        {"a": a, "b": b, "identity": "meet", "lhs": a, "rhs": b}
        for a in range(1, 8)
        for b in range(1, 8)
        if a != b
    )


def test_sweeps_list_the_meet_form_first_per_value(monkeypatch):
    # join(a, b) = |a - b| or 1 is commutative but breaks associativity and
    # both distributive forms; each value a lists its meet_over_join cases,
    # then its join_over_meet ones, each in (b, c) order
    def join(a, b):
        return abs(a - b) or 1

    monkeypatch.setattr("divlog.oracle.join", join)
    reports = {r.law_name: r for r in verify_lattice_laws(6)}
    assert reports["commutativity"].passed
    associativity = reports["associativity"].counterexamples
    assert len(associativity) == 128
    assert associativity[0] == {"a": 1, "b": 1, "c": 3, "identity": "join", "lhs": 2, "rhs": 1}
    assert {c["identity"] for c in associativity} == {"join"}

    meet, values = math.gcd, range(1, 7)
    forms = {
        "meet_over_join": lambda a, b, c: (meet(a, join(b, c)), join(meet(a, b), meet(a, c))),
        "join_over_meet": lambda a, b, c: (join(a, meet(b, c)), meet(join(a, b), join(a, c))),
    }
    expected = tuple(
        {"a": a, "b": b, "c": c, "form": form, "lhs": lhs, "rhs": rhs}
        for a in values
        for form, sides in forms.items()
        for b in values
        for c in values
        for lhs, rhs in [sides(a, b, c)]
        if lhs != rhs
    )
    assert len(expected) == 188
    assert {c["form"] for c in expected if c["a"] == 2} == set(forms)
    assert reports["mutual_distributivity"].counterexamples == expected


def test_heyting_sweep_reports_a_failing_oracle(monkeypatch):
    # with join(a, b) = a * b the oracle's fold leaves the interval and it
    # finds no greatest element; the sweep records those cases, it does not stop
    monkeypatch.setattr("divlog.oracle.join", lambda a, b: a * b)
    reports = {r.law_name: r for r in verify_heyting(30)}
    assert list(reports) == HEYTING_REPORT_NAMES
    assert not reports["neg_formula_vs_oracle"].passed
    assert not reports["imp_formula_vs_oracle"].passed
    assert not reports["imp_bottom_independence"].passed
    assert reports["neg_formula_vs_oracle"].counterexamples[0] == {
        "bottom": 2, "top": 2, "a": 2, "formula": 2,
        "oracle_error": "join of candidates disjoint from 2 in [2, 2] does not qualify",
    }
    assert reports["imp_formula_vs_oracle"].counterexamples[0] == {
        "bottom": 2, "top": 2, "a": 2, "b": 2, "formula": 2,
        "oracle_error": "join of candidates for 2 -> 2 in [2, 2] does not qualify",
    }
    assert reports["imp_bottom_independence"].counterexamples[0] == {
        "bottom": 2, "top": 4, "coarser_bottom": 1, "a": 2, "b": 2,
        "expected": 4, "recomputed": 4,
        "oracle_error": "join of candidates for 2 -> 2 in [1, 4] does not qualify",
    }
    for name in ("neg_formula_vs_oracle", "imp_formula_vs_oracle"):
        for case in reports[name].counterexamples:
            assert ("oracle" in case) != ("oracle_error" in case)


class _Stop(Exception):
    pass


def _stop(*args):
    raise _Stop


@pytest.mark.parametrize(
    "sweep, first_law",
    [(verify_lattice_laws, "_idempotency"), (verify_projective, "_projective")],
)
def test_sweeps_take_their_domain_one_slice_at_a_time(monkeypatch, sweep, first_law):
    """A sweep over [1, 10**6] holds no list of its slices: stopped at the
    first case, it has allocated less than a megabyte."""
    monkeypatch.setattr(f"divlog.oracle.{first_law}", _stop)
    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            sweep(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
