"""Brute-force semantics and exhaustive law sweeps.

The closed-form interval operations in ``divlog.intervals`` are checked
here against their definitions: negation as the greatest element
disjoint from ``a``, implication as the greatest element whose meet
with ``a`` stays below ``b``.  The oracle finds those maxima by folding
join over every qualifying member and then asserting the fold result
qualifies itself, which simultaneously produces the maximum and proves
the candidate set has one.  ``oracle_neg`` and ``oracle_imp`` check
their operands and list the members, then run one unchecked fold each,
``_neg_fold`` and ``_imp_fold``, which the Heyting sweep calls directly
with the members it listed once per interval.  Each top keeps one table
of the implication folds of ``[1, top]``, filled on first use, which
the oracle check and the bottom-independence check share; a fold in
any other interval is read once and not kept.

The ``verify_*`` functions run whole-range sweeps through one law
runner, ``_run_laws``.  A law is a name, its parameter entries and a
check over one slice of the domain: one value ``a`` for the lattice
laws, one ``x`` for the projective identity, one interval within the
size cap for the Heyting laws.  The runner hands every slice to every
check, sums the case counts, keeps the counterexamples in sweep order
and returns one LawReport per law, ready for structured output.

The sweeps verify the ``meet``, ``join`` and ``divides`` this module
binds.  The lattice and projective sweeps take ``meet`` and ``join``
when they start, each as an ``(op, row)`` pair whose ``row`` comes from
``_rows``, and call them once per distinct pair of ``[1, n]``, filling
a row on first use; they read a cell wherever an operand is an exact
int in ``[1, n]`` and call ``op`` per case for any other operand, such
as an lcm above ``n``.  A row ``x`` is kept when
``x <= TABLE_CELL_CAP // n``, the rows a sweep asks for first; another
row is filled again whenever a case needs it.  The Heyting sweep and
the oracle call ``meet``, ``join`` and ``divides`` per member scanned.
"""

from __future__ import annotations

from typing import Any

from .errors import NoGreatestElement, Value, shown
from .factorization import as_natural, divides
from .intervals import Interval
from .lattice import join, meet

DEFAULT_SIZE_CAP = 512  # verify_heyting skips (and lists) larger intervals

# A ceiling on memory, not a speed threshold: the rows a sweep's _rows
# keeps hold at most this many cells, about 0.8 MB of references
# (every row for n up to 316).
TABLE_CELL_CAP = 100_000


class LawReport(Value):
    """Outcome of one exhaustive sweep.

    ``cases_checked`` equals the cardinality of the declared sweep
    domain described by ``parameters``; the sweep succeeded exactly
    when ``counterexamples`` is empty.  Intervals skipped for size are
    listed, never silently dropped.
    """

    __slots__ = _fields = ("law_name", "parameters", "cases_checked", "counterexamples", "skipped")

    def __init__(self, law_name: str, parameters: dict[str, Any], cases_checked: int,
                 counterexamples: tuple = (), skipped: tuple = ()):
        object.__setattr__(self, "law_name", law_name)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "cases_checked", cases_checked)
        object.__setattr__(self, "counterexamples", counterexamples)
        object.__setattr__(self, "skipped", skipped)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict[str, Any]:
        return {
            "law_name": self.law_name,
            "parameters": dict(self.parameters),
            "cases_checked": self.cases_checked,
            "skipped": [dict(s) for s in self.skipped],
            "counterexamples": [dict(c) for c in self.counterexamples],
        }


# ---------------------------------------------------------------------------
# Brute-force Heyting operations
# ---------------------------------------------------------------------------


def oracle_neg(q: Interval, a) -> int:
    """Greatest member disjoint from ``a``, by exhaustive scan; ``a`` must
    be a member, checked as by ``q.neg``."""
    a = q._require_member(a)
    return _neg_fold(q, q.members(), a)


def oracle_imp(q: Interval, a, b) -> int:
    """Greatest member c with meet(a, c) dividing ``b``, by exhaustive
    scan; ``a`` and ``b`` must be members, checked as by ``q.imp``."""
    a = q._require_member(a)
    b = q._require_member(b)
    return _imp_fold(q, q.members(), a, b)


def _neg_fold(q: Interval, members, a: int) -> int:
    """``oracle_neg`` on a member ``a`` of ``q``, unchecked, scanning
    ``members``: every member of ``q``."""
    bottom = q.bottom
    best = bottom  # always qualifies: meet(a, bottom) == bottom
    for c in members:
        if meet(a, c) == bottom:
            best = join(best, c)
    if meet(a, best) != bottom or not q.contains(best):
        raise NoGreatestElement(
            f"join of candidates disjoint from {shown(a)} in {q} does not qualify"
        )
    return best


def _imp_fold(q: Interval, members, a: int, b: int) -> int:
    """``oracle_imp`` on members ``a`` and ``b`` of ``q``, unchecked,
    scanning ``members``: every member of ``q``."""
    best = q.bottom
    for c in members:
        if divides(meet(a, c), b):
            best = join(best, c)
    if not divides(meet(a, best), b) or not q.contains(best):
        raise NoGreatestElement(
            f"join of candidates for {shown(a)} -> {shown(b)} in {q} does not qualify"
        )
    return best


# ---------------------------------------------------------------------------
# The law runner
# ---------------------------------------------------------------------------


def _run_laws(slices, parameters, laws, skipped=()) -> list[LawReport]:
    """One LawReport per ``(name, parameter entries, check)`` in ``laws``.

    Every check sees every slice of the domain as ``check(*slice,
    found)``: it appends the slice's counterexamples to ``found``, in
    order, and returns how many cases the slice holds for its law.
    ``skipped`` is read after the walk, so the slices may fill it.
    """
    cases = [0] * len(laws)
    found = [[] for _ in laws]
    for s in slices:
        for i, (_, _, check) in enumerate(laws):
            cases[i] += check(*s, found[i])
    skipped = tuple(skipped)
    return [
        LawReport(
            law_name=name,
            parameters={**parameters, **entries},
            cases_checked=count,
            counterexamples=tuple(bad),
            skipped=skipped,
        )
        for (name, entries, _), count, bad in zip(laws, cases, found)
    ]


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# Global lattice-law sweeps: one slice per value ``a`` (``x`` for the
# projective identity), the other variables range over ``values``, and
# meet and join are read from tables of the sweep
# ---------------------------------------------------------------------------


def _rows(op, n: int):
    """``row(x)``, one lattice operation over [1, n]^2 for one sweep a row at a time.

    ``row(x)`` is None unless ``x`` is an exact int in [1, n]; then it
    is a list whose entry ``y`` holds ``op(x, y)`` for each ``y`` in
    [1, n] (entry 0 is unused).  A row is filled by ``n`` calls when a
    case first needs it and kept when ``x <= TABLE_CELL_CAP // n``, as
    every sweep first asks for its rows in ascending order.  The laws
    read a cell only at exact ints in [1, n] and call ``op`` on any
    other value, so every result is the call's.
    """
    rows, kept = {}, TABLE_CELL_CAP // n  # x -> row for the rows kept; the last x kept

    def row(x):
        if type(x) is not int or not 0 < x <= n:
            return None
        r = rows.get(x)
        if r is None:
            r = [None]
            r += [op(x, y) for y in range(1, n + 1)]
            if x <= kept:
                rows[x] = r
        return r

    return row


def verify_lattice_laws(max_value) -> list[LawReport]:
    """Exhaustively check the four lattice laws on [1, max_value].

    Idempotency sweeps single values, commutativity pairs,
    associativity triples (both operations per case), and mutual
    distributivity both dual forms over all triples, so its declared
    domain is twice the triple count.  Each law is written once over
    an operation and its dual and run for meet, then join, so a value
    ``a`` lists its meet counterexamples before its join ones.  Every
    slice reads the same two ``(op, row)`` pairs, of the ``meet`` and
    ``join`` this module binds when the sweep starts.
    """
    n = as_natural(max_value)
    values = range(1, n + 1)
    ops = (("meet", (meet, _rows(meet, n))), ("join", (join, _rows(join, n))))
    return _run_laws(
        ((a, values, ops) for a in values),
        {"max": n},
        [
            ("idempotency", {"domain": f"[1,{n}]"}, _idempotency),
            ("commutativity", {"domain": f"[1,{n}]^2"}, _commutativity),
            ("associativity", {"domain": f"[1,{n}]^3"}, _associativity),
            (
                "mutual_distributivity",
                {"domain": f"2 x [1,{n}]^3", "forms": ["meet_over_join", "join_over_meet"]},
                _distributivity,
            ),
        ],
    )


def _idempotency(a, values, ops, found) -> int:
    for name, (_, row) in ops:
        aa = row(a)[a]
        if aa != a:
            found.append({"a": a, "identity": name, "lhs": aa, "rhs": a})
    return 1


def _commutativity(a, values, ops, found) -> int:
    for name, (_, row) in ops:
        ra = row(a)
        for b in values:
            lhs, rhs = ra[b], row(b)[a]
            if lhs != rhs:
                found.append({"a": a, "b": b, "identity": name, "lhs": lhs, "rhs": rhs})
    return len(values)


def _associativity(a, values, ops, found) -> int:
    n = len(values)
    for name, (op, row) in ops:
        ra = row(a)
        for b in values:
            ab, rb = ra[b], row(b)
            rab = row(ab)
            for c in values:
                lhs = op(ab, c) if rab is None else rab[c]
                bc = rb[c]
                rhs = ra[bc] if type(bc) is int and 0 < bc <= n else op(a, bc)
                if lhs != rhs:
                    found.append(
                        {"a": a, "b": b, "c": c, "identity": name, "lhs": lhs, "rhs": rhs}
                    )
    return n * n


def _distributivity(a, values, ops, found) -> int:
    # Both dual forms are part of the declared domain, hence 2 cases per (b, c).
    n = len(values)
    (_, m), (_, j) = ops
    for form, (op, row), (dual, dual_row) in (("meet_over_join", m, j), ("join_over_meet", j, m)):
        ra = row(a)
        for b in values:
            ab, rb = ra[b], dual_row(b)
            rab = dual_row(ab)
            for c in values:
                bc = rb[c]
                lhs = ra[bc] if type(bc) is int and 0 < bc <= n else op(a, bc)
                ac = ra[c]
                if rab is not None and type(ac) is int and 0 < ac <= n:
                    rhs = rab[ac]
                else:
                    rhs = dual(ab, ac)
                if lhs != rhs:
                    found.append({"a": a, "b": b, "c": c, "form": form, "lhs": lhs, "rhs": rhs})
    return 2 * n * n


def verify_projective(max_value) -> LawReport:
    """Check meet(x, join(z, y)) == join(meet(x, z), y) for every triple
    in [1, max_value]^3 with y dividing x.

    Every slice reads an ``(op, row)`` pair of ``meet`` and one of
    ``join`` with its operands swapped, whose row ``y`` is join's column
    ``y``; both are the functions this module binds when the sweep starts.
    """
    n = as_natural(max_value)
    values = range(1, n + 1)
    join_ = join
    joined = lambda y, z: join_(z, y)  # join with its operands swapped
    meets, joins = (meet, _rows(meet, n)), (joined, _rows(joined, n))
    domain = {"domain": f"triples in [1,{n}]^3 with y | x"}
    return _run_laws(
        ((x, values, meets, joins) for x in values),
        {"max": n},
        [("projective_identity", domain, _projective)],
    )[0]


def _projective(x, values, meets, joins, found) -> int:
    n = len(values)
    ys = _divisors(x)
    (meet_, meet_row), (joined, joined_row) = meets, joins
    rx = meet_row(x)
    for y in ys:
        ry = joined_row(y)  # ry[z] == join(z, y)
        for z in values:
            zy = ry[z]
            lhs = rx[zy] if type(zy) is int and 0 < zy <= n else meet_(x, zy)
            xz = rx[z]
            rhs = ry[xz] if type(xz) is int and 0 < xz <= n else joined(y, xz)
            if lhs != rhs:
                found.append({"x": x, "y": y, "z": z, "lhs": lhs, "rhs": rhs})
    return len(ys) * n


# ---------------------------------------------------------------------------
# Interval sweeps: closed-form operations against the oracle, one slice
# per interval that fits the size cap
# ---------------------------------------------------------------------------


def verify_heyting(top_max, size_cap: int = DEFAULT_SIZE_CAP) -> list[LawReport]:
    """Sweep every interval with top <= top_max and every dividing bottom.

    Intervals larger than ``size_cap`` are recorded as skipped.  Five
    properties are checked exhaustively on the rest:

    * negation formula == oracle, per member;
    * implication formula == oracle, per member pair;
    * residuation, per member triple: meet(a, b) | c iff a | imp(b, c);
    * Boolean equivalences, per interval: the exponent-gap test, the
      excluded middle, and the top*bottom/a complement formula agree;
    * bottom-independence of implication, per (interval, coarser
      bottom, member pair): recomputing in the coarser interval yields
      the same value, cross-checked against the oracle when the
      coarser bottom is 1.
    """
    n = as_natural(top_max)
    size_cap = as_natural(size_cap)
    skipped = []
    return _run_laws(
        _intervals(n, size_cap, skipped),
        {"top_max": n, "size_cap": size_cap},
        [
            ("neg_formula_vs_oracle", {"domain": "(interval, member) pairs"}, _neg_vs_oracle),
            (
                "imp_formula_vs_oracle",
                {"domain": "(interval, member, member) triples"},
                _imp_vs_oracle,
            ),
            (
                "residuation_adjunction",
                {"domain": "(interval, a, b, c) member triples"},
                _residuation,
            ),
            ("boolean_equivalences", {"domain": "intervals"}, _boolean_equivalences),
            (
                "imp_bottom_independence",
                {"domain": "(interval, proper coarser bottom, member pair) tuples"},
                _imp_bottom_independence,
            ),
        ],
        skipped,
    )


def _intervals(n: int, size_cap: int, skipped: list):
    """Yield ``(q, members, imp table, {bottom: interval}, folds)`` for
    every interval with top <= n and at most ``size_cap`` members, the
    last two built once per top, ``folds`` the implication folds of
    ``[1, top]`` that ``_imp_scan`` keeps; append the larger ones to ``skipped``."""
    for top in range(1, n + 1):
        by_bottom, folds = {bottom: Interval(bottom, top) for bottom in _divisors(top)}, {}
        for bottom, q in by_bottom.items():
            size = q.size()
            if size > size_cap:
                skipped.append({"bottom": bottom, "top": top, "size": size})
                continue
            ms = q.members()
            yield q, ms, {(a, b): q.imp(a, b) for a in ms for b in ms}, by_bottom, folds


def _scan(oracle, *args):
    """``("oracle", value)``, or ``("oracle_error", message)`` when the
    oracle's fold finds no greatest element: a case that fails either
    way, and is reported under that key instead of ending the sweep."""
    try:
        return "oracle", oracle(*args)
    except NoGreatestElement as err:
        return "oracle_error", str(err)


def _imp_scan(q, ms, a, b, folds):
    """``_scan(_imp_fold, q, ms, a, b)``, folded on first use; for
    ``[1, top]``, the one interval whose folds ``_imp_bottom_independence``
    reads again, kept in ``folds``, its top's table, under ``(a, b)``."""
    table = folds if q.bottom == 1 else {}
    if (a, b) not in table:
        table[a, b] = _scan(_imp_fold, q, ms, a, b)
    return table[a, b]


def _neg_vs_oracle(q, ms, imp, by_bottom, folds, found) -> int:
    for a in ms:
        formula = q.neg(a)
        key, scanned = _scan(_neg_fold, q, ms, a)
        if formula != scanned:
            found.append(
                {"bottom": q.bottom, "top": q.top, "a": a, "formula": formula, key: scanned}
            )
    return len(ms)


def _imp_vs_oracle(q, ms, imp, by_bottom, folds, found) -> int:
    for a in ms:
        for b in ms:
            key, scanned = _imp_scan(q, ms, a, b, folds)
            if imp[a, b] != scanned:
                found.append(
                    {"bottom": q.bottom, "top": q.top, "a": a, "b": b,
                     "formula": imp[a, b], key: scanned}
                )
    return len(ms) ** 2


def _residuation(q, ms, imp, by_bottom, folds, found) -> int:
    for a in ms:
        for b in ms:
            m_ab = meet(a, b)
            for c in ms:
                if (c % m_ab == 0) != (imp[b, c] % a == 0):
                    found.append(
                        {"bottom": q.bottom, "top": q.top, "a": a, "b": b, "c": c,
                         "meet_ab": m_ab, "imp_bc": imp[b, c]}
                    )
    return len(ms) ** 3


def _boolean_equivalences(q, ms, imp, by_bottom, folds, found) -> int:
    bottom, top = q.bottom, q.top
    by_gaps = q.is_boolean()
    by_excluded_middle = all(join(a, q.neg(a)) == top for a in ms)
    product = top * bottom
    by_formula = all(q.neg(a) == product // a for a in ms)
    ok = by_gaps == by_excluded_middle == by_formula
    if ok and by_gaps:
        # the dedicated complement operation must agree with neg
        ok = all(q.complement(a) == q.neg(a) for a in ms)
    if not ok:
        found.append(
            {"bottom": bottom, "top": top, "exponent_gaps": by_gaps,
             "excluded_middle": by_excluded_middle, "complement_formula": by_formula}
        )
    return 1


def _imp_bottom_independence(q, ms, imp, by_bottom, folds, found) -> int:
    coarser_bottoms = _divisors(q.bottom)[:-1]  # proper divisors
    for coarser_bottom in coarser_bottoms:
        coarse = by_bottom[coarser_bottom]
        # q's members are members of coarse; the oracle scans [1, top] only
        coarse_ms = coarse.members() if coarser_bottom == 1 else None
        for a in ms:
            for b in ms:
                expected = imp[a, b]
                recomputed = coarse.imp(a, b)
                ok = recomputed == expected
                error = {}
                if ok and coarser_bottom == 1:
                    key, scanned = _imp_scan(coarse, coarse_ms, a, b, folds)
                    ok = scanned == expected
                    if key == "oracle_error":
                        error = {key: scanned}
                if not ok:
                    found.append(
                        {"bottom": q.bottom, "top": q.top,
                         "coarser_bottom": coarser_bottom, "a": a, "b": b,
                         "expected": expected, "recomputed": recomputed, **error}
                    )
    return len(coarser_bottoms) * len(ms) ** 2
