"""Acceptance gate: nine exhaustive checks the package must pass.

Every tolerance is an exact zero-counterexample count; the one timing
budget is a 60 second ceiling on the full lattice-law sweep.  Each test
prints a single PASS/FAIL line directly to the terminal (bypassing
capture) so the gate outcome is visible in any pytest run.
"""

import time

import pytest

from divlog import (
    Interval,
    check_valid,
    factorize,
    join,
    meet,
    meet_euclid,
    parse,
    reconstruct,
    verify_heyting,
    verify_lattice_laws,
    verify_projective,
)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.fixture(scope="module")
def heyting_reports():
    # one sweep shared by criteria 3, 4 and 6: every interval with
    # top <= 200 and a dividing bottom, size-capped at 512
    return {r.law_name: r for r in verify_heyting(200, 512)}


@pytest.fixture
def announce(capsys):
    def _announce(index, label, ok):
        with capsys.disabled():
            print(f"[acceptance {index}/9] {label}: {'PASS' if ok else 'FAIL'}")

    return _announce


def test_01_lattice_laws_exhaustive_to_100(announce):
    started = time.perf_counter()
    reports = verify_lattice_laws(100)
    elapsed = time.perf_counter() - started

    problems = [
        f"{r.law_name}: {len(r.counterexamples)} counterexamples"
        for r in reports
        if not r.passed
    ]
    expected_cases = {
        "idempotency": 100,
        "commutativity": 100**2,
        "associativity": 100**3,
        "mutual_distributivity": 2 * 100**3,
    }
    actual_cases = {r.law_name: r.cases_checked for r in reports}
    if actual_cases != expected_cases:
        problems.append(f"case counts {actual_cases} != {expected_cases}")
    if elapsed >= 60.0:
        problems.append(f"sweep took {elapsed:.1f}s, budget is 60s")

    announce(1, "lattice laws over all of [1,100]", not problems)
    assert not problems, "; ".join(problems)


def test_02_projective_identity_to_100(announce):
    report = verify_projective(100)

    problems = [f"counterexample {c}" for c in report.counterexamples[:3]]
    if report.cases_checked != 48200:
        problems.append(
            f"expected 48200 triples with y | x, swept {report.cases_checked}"
        )

    announce(2, "projective identity on divisor triples in [1,100]", not problems)
    assert not problems, "; ".join(problems)


def test_03_closed_forms_match_the_oracle(announce, heyting_reports):
    expected_cases = {
        "neg_formula_vs_oracle": 3722,
        "imp_formula_vs_oracle": 19428,
    }
    problems = []
    for name, cases in expected_cases.items():
        report = heyting_reports[name]
        if report.cases_checked != cases:
            problems.append(f"{name}: swept {report.cases_checked}, expected {cases}")
        if report.skipped:
            # every interval with top <= 200 fits inside the 512 cap
            problems.append(f"{name}: {len(report.skipped)} intervals skipped")
        problems += [f"{name}: {c}" for c in report.counterexamples[:3]]

    announce(3, "neg/imp closed forms equal oracle maxima, tops <= 200", not problems)
    assert not problems, "; ".join(problems)


def test_04_residuation_adjunction(announce, heyting_reports):
    report = heyting_reports["residuation_adjunction"]

    problems = [f"counterexample {c}" for c in report.counterexamples[:3]]
    if report.cases_checked != 142628:
        problems.append(f"swept {report.cases_checked} triples, expected 142628")

    announce(4, "residuation: gcd(a,b) | c iff a | (b -> c)", not problems)
    assert not problems, "; ".join(problems)


def test_05_boolean_iff_excluded_middle(announce):
    excluded_middle = parse("p | ~p")
    problems = []
    swept = 0
    for top in range(1, 121):
        for bottom in _divisors(top):
            q = Interval(bottom, top)
            swept += 1
            found = check_valid(q, excluded_middle)
            if q.is_boolean() != (found is None):
                problems.append(
                    f"{q}: is_boolean={q.is_boolean()} but counterexample={found}"
                )

    if check_valid(Interval(1, 30), excluded_middle) is not None:
        problems.append("[1, 30] must validate p | ~p")
    found = check_valid(Interval(1, 12), excluded_middle)
    expected_value = join(2, Interval(1, 12).neg(2))
    if found is None or found.value != 6 or found.value != expected_value:
        problems.append(f"[1, 12] must fail p | ~p at value 6, got {found}")

    announce(5, f"Boolean iff excluded middle, {swept} intervals", not problems)
    assert not problems, "; ".join(problems)


def test_06_boolean_complement_formula(announce, heyting_reports):
    report = heyting_reports["boolean_equivalences"]

    problems = [f"counterexample {c}" for c in report.counterexamples[:3]]
    if report.cases_checked != 1098:
        problems.append(f"swept {report.cases_checked} intervals, expected 1098")

    # direct form of the claim: complements multiply back to top*bottom
    rechecked = 0
    for top in range(1, 201):
        for bottom in _divisors(top):
            q = Interval(bottom, top)
            if not q.is_boolean():
                continue
            for a in q.members():
                rechecked += 1
                if q.neg(a) * a != top * bottom:
                    problems.append(f"{q}: neg({a}) != {top}*{bottom}/{a}")

    announce(6, f"Boolean complement is top*bottom/a, {rechecked} members", not problems)
    assert not problems, "; ".join(problems)


AXIOMS = [
    "p -> (q -> p)",
    "(p -> (q -> r)) -> ((p -> q) -> (p -> r))",
    "p & q -> p",
    "p & q -> q",
    "p -> p | q",
    "q -> p | q",
    "(p -> r) -> ((q -> r) -> (p | q -> r))",
    "F -> p",
]


def test_07_intuitionistic_axioms_and_peirce_failure(announce):
    axioms = [(text, parse(text)) for text in AXIOMS]
    problems = []
    swept = 0
    for top in range(1, 121):
        for bottom in _divisors(top):
            q = Interval(bottom, top)
            if q.size() > 64:
                continue
            swept += 1
            for text, axiom in axioms:
                found = check_valid(q, axiom)
                if found is not None:
                    problems.append(f"{q}: axiom {text!r} fails at {found}")
            for a in q.members():
                # negation must be definable as implication to falsum
                if q.neg(a) != q.imp(a, q.bottom):
                    problems.append(f"{q}: ~{a} != ({a} -> F)")

    peirce = check_valid(Interval(1, 4), parse("((p -> q) -> p) -> p"))
    if peirce is None or peirce.assignment != (("p", 2), ("q", 1)) or peirce.value != 2:
        problems.append(f"Peirce law in [1, 4]: expected p=2 q=1 value 2, got {peirce}")

    announce(7, f"intuitionistic axioms valid in {swept} intervals, Peirce fails", not problems)
    assert not problems, "; ".join(problems[:5])


def test_08_round_trip_and_euclid_agreement(announce):
    problems = []

    bad_round_trips = sum(
        1 for n in range(1, 10**5 + 1) if reconstruct(factorize(n)) != n
    )
    if bad_round_trips:
        problems.append(f"{bad_round_trips} factorization round-trip failures")

    disagreements = sum(
        1
        for a in range(1, 1001)
        for b in range(1, 1001)
        if meet(a, b) != meet_euclid(a, b)
    )
    if disagreements:
        problems.append(f"{disagreements} meet/meet_euclid disagreements")

    announce(8, "round trip to 10^5, Euclid agreement on [1,1000]^2", not problems)
    assert not problems, "; ".join(problems)


def test_09_goedel_chains_decide_linearity_and_excluded_middle(announce):
    """Each interval is a product of Gödel chains C_(gap + 1).  Linearity
    holds in every chain, so in every interval; ``p | ~p`` holds in C_n
    exactly for n < 3 (its threshold n* = 3), so exactly in the intervals
    whose gaps are all at most 1: the Boolean ones."""
    linearity, excluded_middle = parse("(p -> q) | (q -> p)"), parse("p | ~p")
    problems = []
    swept = 0
    for top in range(1, 201):
        for bottom in _divisors(top):
            q = Interval(bottom, top)
            swept += 1
            found = check_valid(q, linearity)
            if found is not None:
                problems.append(f"{q}: linearity fails at {found}")
            if (check_valid(q, excluded_middle) is None) != q.is_boolean():
                problems.append(f"{q}: p | ~p decided against is_boolean={q.is_boolean()}")
    if swept != 1098:
        problems.append(f"swept {swept} intervals, expected 1098")
    threshold = [n for n in range(1, 9) if check_valid(Interval(1, 2 ** (n - 1)), excluded_middle)]
    if threshold != list(range(3, 9)):
        problems.append(f"p | ~p refuted in the chains C_n for n in {threshold}, expected 3..8")

    announce(9, f"linearity in all {swept} intervals, p | ~p iff Boolean (n* = 3)", not problems)
    assert not problems, "; ".join(problems[:5])
