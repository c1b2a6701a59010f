"""The CLI's robustness contract: every call ends in an answer or a named
error, in bounded time and memory.

One seeded hypothesis test draws argv for every subcommand and option,
with operands that are huge (4,000 digits), signed, zero, malformed or
non-ASCII, formulas nested past ``MAX_DEPTH`` or over many variables,
and the two environment caps set to bad values, and runs
``divlog.cli.main`` in process.  Each call must exit 0, 1 or 2 (an
argparse ``SystemExit(2)`` counts as 2), print one ``error[Name]:``
line or a usage message on stderr and never a traceback, return within
5 s and peak under 64 MB of traced memory.  Sweep sizes stay small
(``--max`` <= 12, ``--top-max`` <= 30), since a long sweep is long by
design, and so does the search cap: at the default of 10**6
assignments a full search is a long sweep too.  The default profile
runs a small budget; ``--hypothesis-profile=fuzz`` (tests/conftest.py)
a larger one.

A second seeded test fuzzes ``check_valid`` through the public API: on
drawn intervals of up to four primes and gaps up to 31, so that the
member walk splits one variable's members into blocks, pads the last
block and iterates leading variables, and on drawn formulas of 0-3
variables with literals, a fresh interval, the same one reused and an
equal fresh one give the same result or the same error class and
message, each call within the same time and memory bounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, seed, settings, strategies as st

from divlog import (
    BOTTOM, TOP, And, Counterexample, DivlogError, Imp, Interval, Lit, Not, Or, Var, check_valid, evaluate, variables,
)
from divlog.cli import main
from divlog.formulas import MAX_DEPTH

_SECONDS = 5.0
_PEAK_BYTES = 64 * 2**20
_WALK_CAP = 20_000  # the assignments of a drawn interval and formula, at most

_GAPS = [1, 2, 6, 12, 30, 360, 1441440, 963761198400]  # top / bottom of a drawn valid interval
_SPECIAL = _GAPS + [2**62, 2**63 - 1, 2**63, 3037000493**2]
_MALFORMED = [
    "", "abc", "1.5", "0x10", "1e3", " 12 ", "1_000", "+7", "-0", "--", "\x00",
    "١٢", "１２", "²", "٣x", "9" * 4400,
]
_NUMBER = st.one_of(
    st.integers(-50, 400).map(str),
    st.sampled_from(_SPECIAL).map(str),
    st.integers(10**3999, 10**4000 - 1).map(str),  # 4,000 digits
    st.sampled_from(_MALFORMED),
)
_SMALL = st.integers(-3, 12).map(str) | st.sampled_from(["abc", "", "١٢"])  # a --max


@st.composite
def _interval(draw) -> tuple[list[str], st.SearchStrategy[str]]:
    """``--bottom``/``--top`` options, a valid interval half the time, and
    the operands to draw in it: often a member of a valid one."""
    if draw(st.booleans()):
        bottom, gap = draw(st.integers(1, 60)), draw(st.sampled_from(_GAPS))
        members = [bottom * math.gcd(gap, d) for d in (1, draw(st.integers(1, 400)), gap)]
        # four branches of members against the four of _NUMBER: a member half the time
        bounds, operand = [bottom, bottom * gap], st.one_of(*[st.sampled_from(members).map(str)] * 4, _NUMBER)
    else:
        bounds, operand = [draw(_NUMBER), draw(_NUMBER)], _NUMBER
    return ["--bottom", str(bounds[0]), "--top", str(bounds[1])], operand


def _extend(children):
    binary = st.tuples(children, st.sampled_from(["&", "|", "->"]), children)
    return children.map(lambda f: f"~{f}") | binary.map(lambda t: f"({t[0]} {t[1]} {t[2]})")


_NAMES = ["p", "q", "r", "x_1", "π"]
_WELL_FORMED = st.recursive(st.sampled_from(_NAMES + ["T", "F", "1", "2", "6"]), _extend, max_leaves=10)
_FORMULA = st.one_of(
    _WELL_FORMED,
    _WELL_FORMED,
    st.sampled_from([
        "~" * (MAX_DEPTH + 1) + "p",
        "(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1),
        " & ".join(["p"] * (MAX_DEPTH + 2)),
        " | ".join(f"p{i}" for i in range(60)),
        "(p0 -> p1) | (p1 -> p2) | (p2 -> p3) | (p3 -> p4) | (p4 -> p0)",
        "9" * 4400, "", "p &", "(p", "p)", "p -> -> q", "p ∧ q", "p ²", "T F",
    ]),
    st.text(max_size=12),
)


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from([
        "factor", "gcd", "lcm", "divides", "interval", "neg", "imp", "complement",
        "eval", "taut", "verify", "help", "garbage",
    ]))
    if command == "factor":
        args = [draw(_NUMBER)]
    elif command in ("gcd", "lcm", "divides"):
        args = [draw(_NUMBER), draw(_NUMBER)]
    elif command == "interval":
        args = draw(_interval())[0] + [draw(st.sampled_from(["list", "size", "is-boolean", "all"]))]
    elif command in ("neg", "complement", "imp"):
        args, operand = draw(_interval())
        args += [draw(operand) for _ in range(2 if command == "imp" else 1)]
    elif command in ("eval", "taut"):
        args, operand = draw(_interval())
        formula = draw(_FORMULA)
        # "--" ends the options, so that a formula such as "-> p" is read as one
        args += ["--", formula] if formula.startswith("-") else [formula]
        if command == "eval":
            for name in draw(st.lists(st.sampled_from(_NAMES + [""]), max_size=6)):
                args[:0] = ["--let", name + draw(st.sampled_from(["=", "=", "=", "", "=="])) + draw(operand)]
    elif command == "verify":
        # each sweep is given its size: the defaults are long sweeps
        sweep = draw(st.sampled_from(["laws", "heyting", "projective", "other"]))
        args = [sweep]
        if sweep in ("laws", "projective"):
            args += ["--max", draw(_SMALL)]
        if sweep == "heyting":
            args += ["--top-max", draw(st.integers(-3, 30).map(str) | st.sampled_from(["abc", ""]))]
            if draw(st.booleans()):
                args += ["--size-cap", draw(_NUMBER)]
    elif command == "help":
        command, args = draw(st.sampled_from(["-h", "factor", "verify"])), ["-h"]
    else:
        return draw(st.lists(st.text(max_size=8), max_size=4))
    where = draw(st.sampled_from(["none", "front", "back"]))
    return (["--json"] if where == "front" else []) + [command, *args] + (["--json"] if where == "back" else [])


# None leaves the variable unset.  The search cap is never left at its
# default: a full search of 10**6 assignments is a long sweep.
_ENUM_CAP = st.sampled_from([None, "0", "-3", "abc", "1", "50", "1000000"])
_SEARCH_CAP = st.sampled_from(["0", "-3", "abc", "1", "500", "20000"])


def _run(argv):
    """``main(argv)`` in process: (status, stdout, stderr, seconds, peak bytes)."""
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exit_:
                status = exit_.code
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return status, out.getvalue(), err.getvalue(), seconds, peak


@seed(1)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argv(), _ENUM_CAP, _SEARCH_CAP)
@example(["factor", "9" * 4000], None, "0")
@example(["taut", "--bottom", "1", "--top", "1441440", "--", "~" * (MAX_DEPTH + 1) + "p"], None, "abc")
@example(["interval", "--bottom", "1", "--top", "963761198400", "list"], "-3", "1")
def test_every_call_ends_in_an_answer_or_a_named_error(argv, enum_cap, search_cap):
    with pytest.MonkeyPatch.context() as mp:
        if enum_cap is None:
            mp.delenv("DIVLOG_ENUM_CAP", raising=False)
        else:
            mp.setenv("DIVLOG_ENUM_CAP", enum_cap)
        mp.setenv("DIVLOG_SEARCH_CAP", search_cap)
        status, out, err, seconds, peak = _run(argv)
    assert status in (0, 1, 2), (status, err)
    assert "Traceback" not in err
    if status == 2:
        assert re.match(r"usage: divlog|divlog: DIVLOG_(ENUM|SEARCH)_CAP must be", err), err
    elif out.startswith("usage: divlog"):  # -h
        assert status == 0 and err == ""
    elif out.startswith("{"):  # --json
        document = json.loads(out, parse_int=str)  # an int past the digit limit reads too
        assert err == "" and ("error" in document) == (status == 1), document
    elif status == 1:
        assert re.fullmatch(r"error\[[A-Za-z]+\]: .*\n", err), err
    else:
        assert err == ""
    assert seconds < _SECONDS, (argv, seconds)
    assert peak < _PEAK_BYTES, (argv, peak)


@st.composite
def _walk_case(draw) -> tuple[tuple[int, int], object, int, list[dict]]:
    """``(bounds, formula, cap, picks)``: a formula over 0-3 of ``p``,
    ``q`` and ``r`` whose literals are mostly members; an interval of up
    to four primes with gaps up to 31, ``top / bottom`` below 2**63 and
    at most ``_WALK_CAP`` assignments to those variables; a search cap,
    mostly ``_WALK_CAP``; and three assignments of members to the
    variables.  Sizes near that bound make the member walk split one
    variable's members into blocks or iterate leading variables."""
    names = draw(st.sampled_from([[], ["p"], ["p", "q"], ["p", "q", "r"]]))
    primes, gaps, quotient, size = [], [], 1, 1
    # 0-4 primes, ascending: large gaps on small primes leave room below
    # 2**63 for more primes, and the block split needs three or four
    for prime in sorted(draw(st.permutations([2, 3, 5, 7]))[: draw(st.sampled_from(range(5)))]):
        most = 0  # the largest gap within both bounds
        while most < 31 and quotient * prime ** (most + 1) < 2**63 and (size * (most + 2)) ** len(names) <= _WALK_CAP:
            most += 1
        if most:
            gaps.append(draw(st.sampled_from(range(1, most + 1))))
            primes.append(prime)
            quotient, size = quotient * prime ** gaps[-1], size * (gaps[-1] + 1)
    bottom = draw(st.integers(1, 12))
    member = st.tuples(*[st.integers(0, gap) for gap in gaps]).map(
        lambda es: bottom * math.prod([p**e for p, e in zip(primes, es)]))
    atom = st.sampled_from([TOP, BOTTOM, *map(Var, names)])
    leaf = st.one_of(atom, member.map(Lit), st.integers(1, 40).map(Lit))
    formula = draw(st.recursive(leaf, lambda sub: st.one_of(
        sub.map(Not), *[st.builds(kind, sub, sub) for kind in (And, Or, Imp)]), max_leaves=8))
    for name in names:  # every drawn variable occurs
        if name not in variables(formula):
            formula = draw(st.sampled_from([And, Or, Imp]))(*draw(st.permutations([formula, Var(name)])))
    cap = draw(st.sampled_from([1, _WALK_CAP, _WALK_CAP, _WALK_CAP]))
    picks = draw(st.lists(st.fixed_dictionaries({name: member for name in names}), min_size=3, max_size=3))
    return (bottom, bottom * quotient), formula, cap, picks


def _verdict(q, formula, cap):
    """``check_valid(q, formula, cap)``, or the class and message of the
    domain error it raised, within the time and memory bounds."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        try:
            result = check_valid(q, formula, cap)
        except DivlogError as error:
            result = type(error), str(error)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < _SECONDS, (q, formula, seconds)
    assert peak < _PEAK_BYTES, (q, formula, peak)
    return result


@seed(1)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_walk_case())
# 4,608 members over four primes, G = 31: five blocks of 1,024, the last padded
@example(((1, 2**31 * 3**11 * 5**3 * 7**2), Imp(Var("p"), Or(Var("p"), Lit(2))), _WALK_CAP, [{"p": 2**31 * 7}]))
@example(((1, 2**31 * 3**11 * 5**3 * 7**2), Imp(Var("p"), And(Var("p"), Lit(2**30 * 3**11 * 5**3 * 7**2))), _WALK_CAP,
          [{"p": 2**30}, {"p": 2**31}]))
# 24 members over two primes: one of three variables leads
@example(((1, 2**5 * 3**3), Or(Imp(Var("p"), Var("q")), Imp(Var("q"), And(Lit(6), Var("r")))), _WALK_CAP,
          [{"p": 2, "q": 27, "r": 1}, {"p": 4, "q": 2, "r": 1}]))
def test_a_verdict_is_the_same_on_fresh_reused_and_equal_intervals(case):
    """``check_valid`` on a fresh interval, again on the same one, whose
    member walk is then kept, and on an equal fresh one: one outcome.  A
    counterexample's value is what ``evaluate`` gives there, and each
    drawn assignment that a valid verdict covers, or that comes before
    the counterexample, evaluates to the top."""
    bounds, formula, cap, picks = case
    q = Interval(*bounds)
    fresh = _verdict(q, formula, cap)
    assert _verdict(q, formula, cap) == fresh == _verdict(Interval(*bounds), formula, cap), (bounds, formula)
    if fresh is None or isinstance(fresh, Counterexample):
        first = fresh and tuple(value for _, value in fresh.assignment)
        for env in picks:  # names sorted, so the values are in the counterexample's order
            if first is None or tuple(env[name] for name in sorted(env)) < first:
                assert evaluate(q, formula, env) == q.top, (bounds, formula, env)
        if first is not None:
            assert fresh.value == evaluate(q, formula, dict(fresh.assignment)) != q.top
