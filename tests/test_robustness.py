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

from divlog.cli import main
from divlog.formulas import MAX_DEPTH

_SECONDS = 5.0
_PEAK_BYTES = 64 * 2**20

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
