"""Brute-force oracle semantics and the sweep reports."""

import json
import math
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import divlog.oracle
from divlog import (
    DivlogError,
    Interval,
    LawReport,
    NoGreatestElement,
    NotNatural,
    oracle_imp,
    oracle_neg,
    verify_heyting,
    verify_lattice_laws,
    verify_projective,
)
from divlog.cli import main
from divlog.errors import shown
from divlog.lattice import join as lattice_join

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


# the domains the benchmark's oracle-sweep workload runs, and their case counts
BENCHMARK_SWEEPS = {
    "laws": (
        ["--max", "32"],
        {"idempotency": 32, "commutativity": 1_024, "associativity": 32_768, "mutual_distributivity": 65_536},
    ),
    "projective": (["--max", "60"], {"projective_identity": 15_660}),
    "heyting": (
        ["--top-max", "48"],
        {
            "neg_formula_vs_oracle": 540,
            "imp_formula_vs_oracle": 2_090,
            "residuation_adjunction": 10_686,
            "boolean_equivalences": 198,
            "imp_bottom_independence": 1_712,
        },
    ),
}


@pytest.mark.parametrize("sweep", BENCHMARK_SWEEPS)
def test_the_benchmark_domains_pass_with_every_case_counted(capsys, sweep):
    options, cases = BENCHMARK_SWEEPS[sweep]
    assert main(["--json", "verify", sweep, *options]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == {"passed": True}
    assert all(r["counterexamples"] == [] and r["skipped"] == [] for r in doc["report"])
    assert {r["law_name"]: r["cases_checked"] for r in doc["report"]} == cases


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


@pytest.mark.parametrize("sweep", [verify_lattice_laws, verify_projective])
def test_sweeps_take_their_domain_one_slice_at_a_time(monkeypatch, sweep):
    """A sweep over [1, 10**6] holds no list of its slices or of a row:
    its row-wise pass gives up at the first meet or join call, the
    per-case laws stop there, and by then it has allocated less than a
    megabyte."""
    monkeypatch.setattr("divlog.oracle.meet", _stop)
    monkeypatch.setattr("divlog.oracle.join", _stop)
    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            sweep(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("sweep, arg", [(verify_lattice_laws, 100), (verify_heyting, 200)])
def test_sweeps_keep_their_tables_within_the_cell_cap(sweep, arg):
    """The README's bound: each of a laws sweep's two tables keeps at
    most TABLE_CELL_CAP cells, and the values above n with the slice's
    operands as many more, at most 40 bytes each with an int of its own;
    verify_heyting(200) keeps far fewer."""
    tracemalloc.start()
    try:
        reports = sweep(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak < 3 * divlog.oracle.TABLE_CELL_CAP * 40


@pytest.mark.parametrize(
    "sweep, n, law",
    [(verify_lattice_laws, 1000, "_idempotency"), (verify_lattice_laws, 10**6, "_idempotency"),
     (verify_projective, 10**6, "_projective")],
)
def test_a_sweep_past_the_cell_cap_hands_over_within_the_bound(monkeypatch, sweep, n, law):
    """At n = 1000 the values above n in the rows of [1, n] do not fit
    the slice's share of TABLE_CELL_CAP cells: the row-wise pass stops
    collecting them once they pass it.  At n = 10**6 one row of n cells
    alone would not fit: the pass fills no row.  Either way it hands the
    sweep to the per-case laws, here stopped at their first slice,
    within the README's bound.  meet and join stop after two rows of
    10**6 calls, so a pass that fills rows there ends too."""
    calls = iter(range(2 * 10**6))

    def counted(op):
        def call(a, b):
            if next(calls, None) is None:
                raise _Stop
            return op(a, b)
        return call

    monkeypatch.setattr("divlog.oracle.meet", counted(divlog.oracle.meet))
    monkeypatch.setattr("divlog.oracle.join", counted(divlog.oracle.join))
    monkeypatch.setattr(f"divlog.oracle.{law}", _stop)
    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            sweep(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * divlog.oracle.TABLE_CELL_CAP * 40


@pytest.mark.parametrize(
    "sweep, n",
    [*[(verify_lattice_laws, n) for n in (1, 2, 24, 32)],
     *[(verify_projective, n) for n in (1, 24, 60)]],
)
def test_clean_sweeps_never_reach_the_per_case_laws(monkeypatch, sweep, n):
    """The row-wise pass takes any exception for a failure, so a bug of
    its own would only make a clean sweep slow: with every per-case law
    raising, the clean sweeps still pass."""
    for law in ("_idempotency", "_commutativity", "_associativity", "_distributivity",
                "_projective"):
        monkeypatch.setattr(f"divlog.oracle.{law}", _stop)
    reports = sweep(n)
    assert all(r.passed for r in (reports if isinstance(reports, list) else [reports]))


# -- the per-case sweeps, kept as the reference ------------------------------
#
# These are the sweeps as they were before the laws read meet and join from
# tables and the Heyting sweep called the oracle's unchecked folds: every case
# calls ``divlog.oracle.meet`` and ``join`` as the module binds them at that
# moment, and the oracle scans ``q.members()`` behind the public checks.


def _report(name, parameters, cases, found, skipped=()):
    return LawReport(name, parameters, cases, tuple(found), tuple(skipped))


def reference_verify_lattice_laws(n):
    meet, join = divlog.oracle.meet, divlog.oracle.join
    values = range(1, n + 1)
    ops = (("meet", meet), ("join", join))
    idem, comm, assoc, dist = [], [], [], []
    for a in values:
        for name, op in ops:
            if op(a, a) != a:
                idem.append({"a": a, "identity": name, "lhs": op(a, a), "rhs": a})
        for name, op in ops:
            for b in values:
                lhs, rhs = op(a, b), op(b, a)
                if lhs != rhs:
                    comm.append({"a": a, "b": b, "identity": name, "lhs": lhs, "rhs": rhs})
        for name, op in ops:
            for b in values:
                ab = op(a, b)
                for c in values:
                    lhs, rhs = op(ab, c), op(a, op(b, c))
                    if lhs != rhs:
                        assoc.append(
                            {"a": a, "b": b, "c": c, "identity": name, "lhs": lhs, "rhs": rhs}
                        )
        for form, op, dual in (("meet_over_join", meet, join), ("join_over_meet", join, meet)):
            for b in values:
                ab = op(a, b)
                for c in values:
                    lhs, rhs = op(a, dual(b, c)), dual(ab, op(a, c))
                    if lhs != rhs:
                        dist.append({"a": a, "b": b, "c": c, "form": form, "lhs": lhs, "rhs": rhs})
    return [
        _report("idempotency", {"max": n, "domain": f"[1,{n}]"}, n, idem),
        _report("commutativity", {"max": n, "domain": f"[1,{n}]^2"}, n**2, comm),
        _report("associativity", {"max": n, "domain": f"[1,{n}]^3"}, n**3, assoc),
        _report(
            "mutual_distributivity",
            {"max": n, "domain": f"2 x [1,{n}]^3", "forms": ["meet_over_join", "join_over_meet"]},
            2 * n**3,
            dist,
        ),
    ]


def reference_verify_projective(n):
    meet, join = divlog.oracle.meet, divlog.oracle.join
    values = range(1, n + 1)
    found, cases = [], 0
    for x in values:
        ys = _divisors(x)
        for y in ys:
            for z in values:
                lhs = meet(x, join(z, y))
                rhs = join(meet(x, z), y)
                if lhs != rhs:
                    found.append({"x": x, "y": y, "z": z, "lhs": lhs, "rhs": rhs})
        cases += len(ys) * n
    domain = f"triples in [1,{n}]^3 with y | x"
    return _report("projective_identity", {"max": n, "domain": domain}, cases, found)


def reference_oracle_neg(q, a):
    a = q._require_member(a)
    meet, join = divlog.oracle.meet, divlog.oracle.join
    best = q.bottom
    for c in q.members():
        if meet(a, c) == q.bottom:
            best = join(best, c)
    if meet(a, best) != q.bottom or not q.contains(best):
        raise NoGreatestElement(
            f"join of candidates disjoint from {shown(a)} in {q} does not qualify"
        )
    return best


def reference_oracle_imp(q, a, b):
    a, b = q._require_member(a), q._require_member(b)
    meet, join, divides = divlog.oracle.meet, divlog.oracle.join, divlog.oracle.divides
    best = q.bottom
    for c in q.members():
        if divides(meet(a, c), b):
            best = join(best, c)
    if not divides(meet(a, best), b) or not q.contains(best):
        raise NoGreatestElement(
            f"join of candidates for {shown(a)} -> {shown(b)} in {q} does not qualify"
        )
    return best


def _reference_scan(oracle, *args):
    try:
        return "oracle", oracle(*args)
    except NoGreatestElement as err:
        return "oracle_error", str(err)


def reference_verify_heyting(n, size_cap=512):
    meet, join = divlog.oracle.meet, divlog.oracle.join
    skipped = []
    found = {name: [] for name in HEYTING_REPORT_NAMES}
    cases = dict.fromkeys(HEYTING_REPORT_NAMES, 0)
    for top in range(1, n + 1):
        by_bottom = {bottom: Interval(bottom, top) for bottom in _divisors(top)}
        for bottom, q in by_bottom.items():
            if q.size() > size_cap:
                skipped.append({"bottom": bottom, "top": top, "size": q.size()})
                continue
            ms = q.members()
            imp = {(a, b): q.imp(a, b) for a in ms for b in ms}
            where = {"bottom": bottom, "top": top}

            for a in ms:
                formula = q.neg(a)
                key, scanned = _reference_scan(reference_oracle_neg, q, a)
                if formula != scanned:
                    found["neg_formula_vs_oracle"].append(
                        {**where, "a": a, "formula": formula, key: scanned}
                    )
            for a in ms:
                for b in ms:
                    key, scanned = _reference_scan(reference_oracle_imp, q, a, b)
                    if imp[a, b] != scanned:
                        found["imp_formula_vs_oracle"].append(
                            {**where, "a": a, "b": b, "formula": imp[a, b], key: scanned}
                        )
            for a in ms:
                for b in ms:
                    m_ab = meet(a, b)
                    for c in ms:
                        if (c % m_ab == 0) != (imp[b, c] % a == 0):
                            found["residuation_adjunction"].append(
                                {**where, "a": a, "b": b, "c": c,
                                 "meet_ab": m_ab, "imp_bc": imp[b, c]}
                            )

            by_gaps = q.is_boolean()
            by_excluded_middle = all(join(a, q.neg(a)) == top for a in ms)
            by_formula = all(top * bottom % a == 0 and q.neg(a) == top * bottom // a for a in ms)
            ok = by_gaps == by_excluded_middle == by_formula
            if ok and by_gaps:
                ok = all(q.complement(a) == q.neg(a) for a in ms)
            if not ok:
                found["boolean_equivalences"].append(
                    {**where, "exponent_gaps": by_gaps,
                     "excluded_middle": by_excluded_middle, "complement_formula": by_formula}
                )

            coarser_bottoms = _divisors(bottom)[:-1]
            for coarser_bottom in coarser_bottoms:
                coarse = by_bottom[coarser_bottom]
                for a in ms:
                    for b in ms:
                        expected, recomputed = imp[a, b], coarse.imp(a, b)
                        ok, error = recomputed == expected, {}
                        if ok and coarser_bottom == 1:
                            key, scanned = _reference_scan(reference_oracle_imp, coarse, a, b)
                            ok = scanned == expected
                            if key == "oracle_error":
                                error = {key: scanned}
                        if not ok:
                            found["imp_bottom_independence"].append(
                                {**where, "coarser_bottom": coarser_bottom, "a": a, "b": b,
                                 "expected": expected, "recomputed": recomputed, **error}
                            )

            size = len(ms)
            for name, count in zip(
                HEYTING_REPORT_NAMES,
                (size, size**2, size**3, 1, len(coarser_bottoms) * size**2),
            ):
                cases[name] += count
    domains = (
        "(interval, member) pairs",
        "(interval, member, member) triples",
        "(interval, a, b, c) member triples",
        "intervals",
        "(interval, proper coarser bottom, member pair) tuples",
    )
    return [
        _report(name, {"top_max": n, "size_cap": size_cap, "domain": domain},
                cases[name], found[name], skipped)
        for name, domain in zip(HEYTING_REPORT_NAMES, domains)
    ]


def _join_zero_at_2_3(a, b):
    return 0 if (a, b) == (2, 3) else lattice_join(a, b)


_NAN = float("nan")


def _join_nan_at_2_3(a, b):
    return _NAN if (a, b) in ((2, 3), (3, 2)) else lattice_join(a, b)


def _join_minus_six_at_2_3(a, b):
    return -6 if (a, b) == (2, 3) else lattice_join(a, b)


def _meet_float_at_2_4(a, b):
    if type(a) is float or type(b) is float:
        return 1
    return 2.0 if (a, b) == (2, 4) else math.gcd(int(a), int(b))


# every corruption the tests above apply, and those that reach the edges
# of the tables: a result below [1, n], raised on or carried along, one
# above it, a float equal to an int, which no table may read as that int,
# one shared nan, which list equality takes as equal to itself where the
# per-case != does not, a negative int, which a list would read from its
# end, operand order off the table, and rows past the cell ceiling,
# filled again whenever a case needs them
CORRUPTIONS = {
    "clean": {},
    "join is the product": {"divlog.oracle.join": lambda a, b: a * b},
    "meet is 1": {"divlog.oracle.meet": lambda a, b: 1},
    "meet is its first operand": {"divlog.oracle.meet": lambda a, b: a},
    "join is the distance": {"divlog.oracle.join": lambda a, b: abs(a - b) or 1},
    "neg is the top": {"divlog.intervals.Interval.neg": lambda self, a: self.top},
    "imp is the top": {"divlog.intervals.Interval.imp": lambda self, a, b: self.top},
    "join(2, 3) is 0": {"divlog.oracle.join": _join_zero_at_2_3},
    "meet is gcd + 1": {"divlog.oracle.meet": lambda a, b: math.gcd(a, b) + 1},
    "join(2, 3) is 0, which gcd and lcm take": {
        "divlog.oracle.meet": math.gcd,
        "divlog.oracle.join": lambda a, b: 0 if (a, b) == (2, 3) else math.lcm(a, b),
    },
    "meet is gcd + 1, join its first operand": {
        "divlog.oracle.meet": lambda a, b: math.gcd(a, b) + 1,
        "divlog.oracle.join": lambda a, b: a,
    },
    "meet(2, 4) is the float 2.0, and 1 on a float": {
        "divlog.oracle.meet": _meet_float_at_2_4,
        "divlog.oracle.join": lambda a, b: math.lcm(int(a), int(b)),
    },
    "join of 2 and 3, in either order, is one shared nan": {"divlog.oracle.join": _join_nan_at_2_3},
    "join(2, 3) is -6": {"divlog.oracle.join": _join_minus_six_at_2_3},
    "rows of 40 cells": {"divlog.oracle.TABLE_CELL_CAP": 40},
    "no row kept": {"divlog.oracle.TABLE_CELL_CAP": 1},
}

SWEEPS = [
    *[(verify_lattice_laws, reference_verify_lattice_laws, (n,)) for n in (1, 2, 6, 9, 24)],
    *[(verify_projective, reference_verify_projective, (n,)) for n in (1, 6, 17, 40)],
    *[(verify_heyting, reference_verify_heyting, args) for args in ((1,), (16, 4), (48,))],
]


def _outcome(sweep, args):
    """The report documents, or the error class and message."""
    try:
        reports = sweep(*args)
    except DivlogError as err:
        return type(err), str(err)
    return [r.to_dict() for r in (reports if isinstance(reports, list) else [reports])]


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize(
    "sweep, reference, args",
    SWEEPS,
    ids=[f"{sweep.__name__}{args}" for sweep, _, args in SWEEPS],
)
def test_sweeps_match_the_per_case_reference(monkeypatch, corruption, sweep, reference, args):
    for target, value in CORRUPTIONS[corruption].items():
        monkeypatch.setattr(target, value)
    assert _outcome(sweep, args) == _outcome(reference, args)


@pytest.mark.parametrize(
    "args, top, a, b, imp_reports",
    [
        ((12,), 12, 4, 6, 1),  # [1, 12] is swept: the oracle check folds (4, 6) first
        ((60, 6), 60, 12, 20, 0),  # [1, 60] is skipped: only [4, 60] needs the fold
    ],
)
def test_an_implication_fold_on_one_to_top_is_run_once_and_reported_by_both_laws(
    monkeypatch, args, top, a, b, imp_reports
):
    """The folds on [1, top] sit in one table per top, shared by the
    oracle check and the bottom-independence check and filled on first
    use: a fold that finds no greatest element for one pair is run
    once, and both laws report it as the per-case reference does."""
    message = f"join of candidates for {a} -> {b} in [1, {top}] does not qualify"

    def refusing(fold, calls):
        def patched(q, *args):
            if (q.bottom, q.top, *args[-2:]) == (1, top, a, b):
                calls.append(args[-2:])
                raise NoGreatestElement(message)
            return fold(q, *args)
        return patched

    swept, per_case = [], []
    monkeypatch.setattr("divlog.oracle._imp_fold", refusing(divlog.oracle._imp_fold, swept))
    monkeypatch.setitem(globals(), "reference_oracle_imp", refusing(reference_oracle_imp, per_case))
    reports = _outcome(verify_heyting, args)
    assert reports == _outcome(reference_verify_heyting, args)
    assert (swept, per_case) == ([(a, b)], [(a, b)] * (imp_reports + 1))
    errors = {
        r["law_name"]: [c for c in r["counterexamples"] if "oracle_error" in c] for r in reports
    }
    one = Interval(1, top)
    assert errors["imp_formula_vs_oracle"] == [
        {"bottom": 1, "top": top, "a": a, "b": b, "formula": one.imp(a, b), "oracle_error": message}
    ][:imp_reports]
    assert errors["imp_bottom_independence"] == [
        {"bottom": math.gcd(a, b), "top": top, "coarser_bottom": 1, "a": a, "b": b,
         "expected": Interval(math.gcd(a, b), top).imp(a, b), "recomputed": one.imp(a, b),
         "oracle_error": message}
    ]


@pytest.mark.parametrize("args", [(60,), (60, 6)], ids=["all swept", "[1, top] past the cap"])
def test_each_top_keeps_the_folds_of_one_to_top_alone(monkeypatch, args):
    """Only the folds of [1, top] are read twice, so a top's table holds
    those alone, one per member pair asked for; every fold, kept or
    not, runs once."""
    tables, folded = {}, Counter()
    scan, fold = divlog.oracle._imp_scan, divlog.oracle._imp_fold

    def recording_scan(q, ms, a, b, folds):
        tables[q.top] = folds
        return scan(q, ms, a, b, folds)

    def counting_fold(q, ms, a, b):
        folded[q.bottom, q.top, a, b] += 1
        return fold(q, ms, a, b)

    monkeypatch.setattr("divlog.oracle._imp_scan", recording_scan)
    monkeypatch.setattr("divlog.oracle._imp_fold", counting_fold)
    assert all(r.passed for r in verify_heyting(*args))
    assert set(folded.values()) == {1}
    for top, folds in tables.items():
        asked = {(a, b) for bottom, t, a, b in folded if (bottom, t) == (1, top)}
        assert set(folds) == asked and asked <= {(a, b) for a in Interval(1, top).members()
                                                 for b in Interval(1, top).members()}
    assert len(tables[60]) == (144 if args == (60,) else 72)


def _meet_true_at_2_3(a, b):
    if type(a) is not int or type(b) is not int:
        return 7
    return True if (a, b) in ((2, 3), (3, 2)) else math.gcd(a, b)


def test_a_value_equal_to_an_int_is_not_read_as_that_int(monkeypatch):
    """A dict takes True for the key 1, where the per-case laws call meet
    on True: without the exact-int check on every value it reads, the
    row-wise pass would say PASS here."""
    monkeypatch.setattr("divlog.oracle.meet", _meet_true_at_2_3)
    monkeypatch.setattr("divlog.oracle.join", math.lcm)
    swept = _outcome(verify_lattice_laws, (6,))
    assert swept == _outcome(reference_verify_lattice_laws, (6,))
    assert not all(r["counterexamples"] == [] for r in swept)


def test_a_join_result_of_zero_raises_as_the_call_does(monkeypatch):
    monkeypatch.setattr("divlog.oracle.join", _join_zero_at_2_3)
    for sweep in (verify_lattice_laws, verify_projective, verify_heyting):
        with pytest.raises(NotNatural, match="got 0"):
            sweep(6)


@pytest.mark.parametrize("cap, calls_in_all", [(100_000, 10_163), (48, 99_096)])
def test_lattice_laws_fill_each_kept_row_once(monkeypatch, cap, calls_in_all):
    """While the tables fit in ``cap`` cells, the sweep calls meet once
    per pair of [1, 24], to fill its rows; every other call has an
    operand above 24, a join result.  At a cap of 48 cells the values
    above 24 in join's rows do not fit before a single meet call, and
    the per-case laws make every call."""
    calls = []

    def meet(a, b):
        calls.append((a, b))
        return math.gcd(a, b)

    monkeypatch.setattr("divlog.oracle.meet", meet)
    monkeypatch.setattr("divlog.oracle.TABLE_CELL_CAP", cap)
    assert all(r.passed for r in verify_lattice_laws(24))
    inside = Counter((a, b) for a, b in calls if a <= 24 and b <= 24)
    assert sorted(inside) == [(a, b) for a in range(1, 25) for b in range(1, 25)]
    if cap == 100_000:
        assert set(inside.values()) == {1}
    else:
        assert min(inside.values()) > 1
    # the per-case laws make 99,096 calls, 21,558 of them outside [1, 24]
    assert len(calls) == calls_in_all
