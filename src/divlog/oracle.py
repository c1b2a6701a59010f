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
when they start and have two paths.  A row-wise pass reads them off
``_Table``s, whose row ``x`` holds ``op(x, y)`` for every ``y`` in
``[1, n]`` and any exact int ``x >= 1``, and only decides whether every
law holds on the whole domain; when it does, each report passes with
its declared case count.  Any other outcome, a differing row, a value
that is not an exact int >= 1, operands past the cell cap or any
``Exception`` from ``op``, runs the whole sweep again through the
per-case laws, in the per-case reference's order of calls, which write
every report and raise its first error.  The Heyting sweep and the
oracle call ``meet``, ``join`` and ``divides`` per member scanned; each
top keeps the implication tables of its swept intervals, which the
bottom-independence check reads.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any

from .errors import NoGreatestElement, Value, shown
from .factorization import as_natural, divides
from .intervals import Interval
from .lattice import join, meet

DEFAULT_SIZE_CAP = 512  # verify_heyting skips (and lists) larger intervals

# A ceiling on memory, not a speed threshold: each table of a row-wise
# pass keeps rows of at most this many cells, about 0.8 MB of
# references (every row of [1, n] for n up to 316), and the values
# above n with the operands of the slice at hand keep at most as many
# more; a Heyting top keeps the implication tables of at most this many
# member pairs.
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


def _run_laws(slices, parameters, laws, skipped=(), cases=None) -> list[LawReport]:
    """One LawReport per ``(name, parameter entries, check)`` in ``laws``.

    Every check sees every slice of the domain as ``check(*slice,
    found)``: it appends the slice's counterexamples to ``found``, in
    order, and returns how many cases the slice holds for its law.
    ``skipped`` is read after the walk, so the slices may fill it.
    ``cases``, the counts to start from, declares cases that hold.
    """
    cases = [0] * len(laws) if cases is None else cases
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
# Global lattice-law sweeps: a row-wise pass that only says PASS, else one
# slice per value ``a`` (``x`` for the projective identity), case by case
# ---------------------------------------------------------------------------


class _Table:
    """One lattice operation for one sweep: ``row(x)[y - 1] == op(x, y)``
    for every exact int ``x >= 1`` and each ``y`` in [1, n].

    A row is filled by ``n`` calls when a case first needs it and kept
    while the table's ``room`` of ``TABLE_CELL_CAP`` cells holds it; a
    row not kept is filled again whenever a case needs it.  Every cell
    is checked to be an exact int >= 1, so every value a pass reads off
    a table is one.
    """

    __slots__ = ("op", "n", "room", "rows")

    def __init__(self, op, n: int):
        self.op, self.n, self.room, self.rows = op, n, TABLE_CELL_CAP, {}

    def row(self, x: int) -> list:
        r = self.rows.get(x)
        if r is None:
            n = self.n
            r = _exact(list(map(self.op, repeat(x), range(1, n + 1))))
            if self.room >= n:
                self.room -= n
                self.rows[x] = r
        return r

    def cells(self, x: int, keys) -> dict:
        """``cells[v] == op(x, v)`` for each ``v`` in ``keys``, called once
        each, and for each ``v`` in [1, n] off row ``x`` when ``x`` is too."""
        cells = dict(zip(range(1, self.n + 1), self.row(x))) if x <= self.n else {}
        cells.update(zip(keys, map(self.op, repeat(x), keys)))
        return cells


def _exact(cells):
    """``cells``, when every one is an exact int >= 1: list ``==`` would
    take one shared ``nan`` as equal to itself, a list would read a
    negative int from its end, and a dict take ``True`` for ``1``."""
    if cells and ({int} != set(map(type, cells)) or min(cells) < 1):
        raise ValueError("a value off the tables")
    return cells


def verify_lattice_laws(max_value) -> list[LawReport]:
    """Exhaustively check the four lattice laws on [1, max_value].

    Idempotency sweeps single values, commutativity pairs,
    associativity triples (both operations per case), and mutual
    distributivity both dual forms over all triples, so its declared
    domain is twice the triple count.  Each law is written once over
    an operation and its dual and run for meet, then join, so a value
    ``a`` lists its meet counterexamples before its join ones.
    """
    n = as_natural(max_value)
    values = range(1, n + 1)
    ops = (("meet", meet), ("join", join))
    laws = [
        ("idempotency", {"domain": f"[1,{n}]"}, _idempotency),
        ("commutativity", {"domain": f"[1,{n}]^2"}, _commutativity),
        ("associativity", {"domain": f"[1,{n}]^3"}, _associativity),
        (
            "mutual_distributivity",
            {"domain": f"2 x [1,{n}]^3", "forms": ["meet_over_join", "join_over_meet"]},
            _distributivity,
        ),
    ]
    if _lattice_laws_hold(n, *(_Table(op, n) for _, op in ops)):
        return _run_laws((), {"max": n}, laws, cases=[n, n**2, n**3, 2 * n**3])
    return _run_laws(((a, values, ops) for a in values), {"max": n}, laws)


def _lattice_laws_hold(n: int, meets: _Table, joins: _Table) -> bool:
    """Whether the four lattice laws hold on [1, n], read off the tables.

    One list comparison of exact ints, gathered at C level, stands for
    the per-case ``lhs != rhs`` of a whole ``(a, b)`` row of cases.  The
    slice's operands ``op(a, v)`` come from row ``a`` and from calls on
    ``above``, the values above ``n`` in the rows of [1, n]; the two
    share ``TABLE_CELL_CAP`` cells, or the pass gives up, before it
    fills any row when one row alone would not fit.
    """
    if n > TABLE_CELL_CAP:
        return False
    values = range(1, n + 1)
    try:  # any error: the per-case laws raise the per-case order's first
        above = set()
        for t in (joins, meets):
            for x in values:
                above.update(filter(n.__lt__, t.row(x)))
                if 2 * len(above) + n > TABLE_CELL_CAP:
                    return False
        for a in values:
            for t, dual in ((meets, joins), (joins, meets)):
                row = t.row  # every key asked is an exact int >= 1
                ra = row(a)
                if ra[a - 1] != a or ra != [row(b)[a - 1] for b in values]:
                    return False  # idempotency, commutativity
                across = t.cells(a, above)  # across[v] == op(a, v), one side of
                _exact(across.values())  # each comparison below
                for b, ab in zip(values, ra):
                    # op(op(a, b), c) == op(a, op(b, c))
                    if row(ab) != list(map(across.__getitem__, row(b))):
                        return False
                # op(a, dual(b, c)) == dual(op(a, b), op(a, c)), one right
                # side per value ab of ra, for every b with op(a, b) == ab
                by_ab, distinct = {}, set(ra)
                outside = set(filter(n.__lt__, distinct))
                for b, ab in zip(values, ra):
                    by_ab.setdefault(ab, []).append(b)
                for ab, bs in by_ab.items():
                    cells = dual.cells(ab, outside if ab <= n else distinct)  # dual(ab, v)
                    rhs = list(map(cells.__getitem__, ra))
                    for b in bs:
                        if list(map(across.__getitem__, dual.row(b))) != rhs:
                            return False
    except Exception:
        return False
    return True


# The per-case laws, in the per-case reference's order of calls


def _idempotency(a, values, ops, found) -> int:
    for name, op in ops:
        aa = op(a, a)
        if aa != a:
            found.append({"a": a, "identity": name, "lhs": aa, "rhs": a})
    return 1


def _commutativity(a, values, ops, found) -> int:
    for name, op in ops:
        for b in values:
            lhs, rhs = op(a, b), op(b, a)
            if lhs != rhs:
                found.append({"a": a, "b": b, "identity": name, "lhs": lhs, "rhs": rhs})
    return len(values)


def _associativity(a, values, ops, found) -> int:
    for name, op in ops:
        for b in values:
            ab = op(a, b)
            for c in values:
                lhs, rhs = op(ab, c), op(a, op(b, c))
                if lhs != rhs:
                    found.append(
                        {"a": a, "b": b, "c": c, "identity": name, "lhs": lhs, "rhs": rhs}
                    )
    return len(values) ** 2


def _distributivity(a, values, ops, found) -> int:
    # Both dual forms are part of the declared domain, hence 2 cases per (b, c).
    (_, m), (_, j) = ops
    for form, op, dual in (("meet_over_join", m, j), ("join_over_meet", j, m)):
        for b in values:
            ab = op(a, b)
            for c in values:
                lhs, rhs = op(a, dual(b, c)), dual(ab, op(a, c))
                if lhs != rhs:
                    found.append({"a": a, "b": b, "c": c, "form": form, "lhs": lhs, "rhs": rhs})
    return 2 * len(values) ** 2


def verify_projective(max_value) -> LawReport:
    """Check meet(x, join(z, y)) == join(meet(x, z), y) for every triple
    in [1, max_value]^3 with y dividing x.

    The row-wise pass reads a table of ``meet`` and one of ``join`` with
    its operands swapped, whose row ``y`` is join's column ``y``.
    """
    n = as_natural(max_value)
    values = range(1, n + 1)
    m, j = meet, join
    law = [("projective_identity", {"domain": f"triples in [1,{n}]^3 with y | x"}, _projective)]
    if _projective_holds(n, _Table(m, n), _Table(lambda y, z: j(z, y), n)):
        return _run_laws((), {"max": n}, law, cases=[n * sum(n // d for d in values)])[0]
    return _run_laws(((x, values, m, j) for x in values), {"max": n}, law)[0]


def _projective_holds(n: int, meets: _Table, joins: _Table) -> bool:
    """Whether the projective identity holds on its whole domain, read
    off the tables where both operands lie in [1, n]; False before any
    row is filled when one row alone would not fit ``TABLE_CELL_CAP``."""
    if n > TABLE_CELL_CAP:
        return False
    meet_, joined = meets.op, joins.op
    try:  # any error: the per-case law raises the per-case order's first
        for x in range(1, n + 1):
            rx = meets.row(x)
            for y in _divisors(x):
                ry = joins.row(y)  # ry[z - 1] == join(z, y)
                for zy, xz in zip(ry, rx):
                    lhs = rx[zy - 1] if zy <= n else meet_(x, zy)
                    rhs = ry[xz - 1] if xz <= n else joined(y, xz)
                    if lhs != rhs:
                        return False
    except Exception:
        return False
    return True


def _projective(x, values, meet_, join_, found) -> int:
    ys = _divisors(x)
    for y in ys:
        for z in values:
            lhs, rhs = meet_(x, join_(z, y)), join_(meet_(x, z), y)
            if lhs != rhs:
                found.append({"x": x, "y": y, "z": z, "lhs": lhs, "rhs": rhs})
    return len(ys) * len(values)


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
    """Yield ``(q, members, negations, imp table, {bottom: interval},
    {bottom: imp table}, folds)`` for every interval with top <= n and
    at most ``size_cap`` members; append the larger ones to ``skipped``.

    The last three are one top's: its intervals, the imp tables of those
    swept so far (each coarser bottom's comes first), kept while they
    hold at most ``TABLE_CELL_CAP`` cells together, and ``folds``, the
    implication folds of ``[1, top]`` that ``_imp_scan`` keeps.
    """
    for top in range(1, n + 1):
        by_bottom = {bottom: Interval(bottom, top) for bottom in _divisors(top)}
        imps, folds, room = {}, {}, TABLE_CELL_CAP
        for bottom, q in by_bottom.items():
            size = q.size()
            if size > size_cap:
                skipped.append({"bottom": bottom, "top": top, "size": size})
                continue
            ms = q.members()
            imp = {(a, b): q.imp(a, b) for a in ms for b in ms}
            if len(imp) <= room:
                room -= len(imp)
                imps[bottom] = imp
            yield q, ms, [q.neg(a) for a in ms], imp, by_bottom, imps, folds


def _scan(oracle, *args):
    """``("oracle", value)``, or ``("oracle_error", message)`` when the
    oracle's fold finds no greatest element: a case that fails either
    way, and is reported under that key instead of ending the sweep."""
    try:
        return "oracle", oracle(*args)
    except NoGreatestElement as err:
        return "oracle_error", str(err)


def _imp_scan(q, ms, a, b, folds):
    """``_scan(_imp_fold, q, ms, a, b)``; for ``[1, top]``, the one
    interval whose folds ``_imp_bottom_independence`` reads again, kept
    in ``folds``, its top's table, under ``(a, b)`` and folded on first use."""
    if q.bottom != 1:
        return _scan(_imp_fold, q, ms, a, b)
    scanned = folds.get((a, b))
    if scanned is None:
        scanned = folds[a, b] = _scan(_imp_fold, q, ms, a, b)
    return scanned


def _neg_vs_oracle(q, ms, negs, imp, by_bottom, imps, folds, found) -> int:
    for a, formula in zip(ms, negs):
        key, scanned = _scan(_neg_fold, q, ms, a)
        if formula != scanned:
            found.append(
                {"bottom": q.bottom, "top": q.top, "a": a, "formula": formula, key: scanned}
            )
    return len(ms)


def _imp_vs_oracle(q, ms, negs, imp, by_bottom, imps, folds, found) -> int:
    for a in ms:
        for b in ms:
            key, scanned = _imp_scan(q, ms, a, b, folds)
            if imp[a, b] != scanned:
                found.append(
                    {"bottom": q.bottom, "top": q.top, "a": a, "b": b,
                     "formula": imp[a, b], key: scanned}
                )
    return len(ms) ** 2


def _residuation(q, ms, negs, imp, by_bottom, imps, folds, found) -> int:
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


def _boolean_equivalences(q, ms, negs, imp, by_bottom, imps, folds, found) -> int:
    bottom, top = q.bottom, q.top
    by_gaps = q.is_boolean()
    by_excluded_middle = all(join(a, na) == top for a, na in zip(ms, negs))
    product = top * bottom
    by_formula = all(na == product // a for a, na in zip(ms, negs))
    ok = by_gaps == by_excluded_middle == by_formula
    if ok and by_gaps:
        # the dedicated complement operation must agree with neg
        ok = all(q.complement(a) == na for a, na in zip(ms, negs))
    if not ok:
        found.append(
            {"bottom": bottom, "top": top, "exponent_gaps": by_gaps,
             "excluded_middle": by_excluded_middle, "complement_formula": by_formula}
        )
    return 1


def _imp_bottom_independence(q, ms, negs, imp, by_bottom, imps, folds, found) -> int:
    coarser_bottoms = _divisors(q.bottom)[:-1]  # proper divisors
    for coarser_bottom in coarser_bottoms:
        # coarse.imp(a, b), read off its table where the top keeps one
        coarse, coarse_imp = by_bottom[coarser_bottom], imps.get(coarser_bottom)
        # q's members are members of coarse; the oracle scans [1, top] only
        coarse_ms = coarse.members() if coarser_bottom == 1 else None
        for a in ms:
            for b in ms:
                expected = imp[a, b]
                recomputed = coarse.imp(a, b) if coarse_imp is None else coarse_imp[a, b]
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
