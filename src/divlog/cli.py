"""Command-line surface: lattice arithmetic, interval algebra, formula
evaluation, and exhaustive law sweeps, with plain or JSON output.

Exit status: 0 on success, 1 on a domain error (reported in the output
document) or on a ``verify`` sweep that found a counterexample, 2 on a
usage error.  ``DIVLOG_ENUM_CAP`` overrides the cap on the members
``interval ... list`` prints, and ``DIVLOG_SEARCH_CAP`` the one cap on
the assignments ``taut`` searches; these two and the sweep options
``--max``, ``--top-max`` and ``--size-cap`` take positive integers, and
any other value is a usage error naming the option.  Output into a pipe
whose reader has gone (``divlog ... | head``) exits with status 1 and no
traceback: stdout is pointed at the null device, as the Python
``signal`` documentation recommends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DivlogError, FormulaSyntaxError
from .factorization import divides, factorize
from .formulas import DEFAULT_SEARCH_CAP, check_valid, evaluate, parse
from .intervals import DEFAULT_ENUMERATION_CAP, Interval
from .lattice import join, meet
from .oracle import DEFAULT_SIZE_CAP, verify_heyting, verify_lattice_laws, verify_projective


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _env_cap(name: str, default: int) -> int:
    raw = os.environ.get(name, "")
    try:
        return _positive(raw) if raw else default
    except argparse.ArgumentTypeError as err:
        print(f"divlog: {name} {err}", file=sys.stderr)
        raise SystemExit(2)


def _binding(text: str) -> tuple[str, int]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected var=value, got {text!r}")
    try:
        return name, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"value for {name!r} must be an integer")


# ---------------------------------------------------------------------------
# Handlers: each returns (result payload, plain text, report list or None)
# ---------------------------------------------------------------------------


def _plain(compute):
    """Handler for a command whose result prints as itself: booleans as
    true/false, lists one item per line."""

    def handler(args):
        value = compute(args)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, list):
            text = "\n".join(map(str, value))
        else:
            text = str(value)
        return value, text, None

    return handler


def _cmd_factor(args):
    vector = factorize(args.n)
    result = {"n": args.n, "factors": {str(p): e for p, e in vector.items()}}
    body = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in vector.items())
    return result, f"{args.n} = {body or 1}", None


def _interval(args):
    q = Interval(args.bottom, args.top)
    if args.action == "size":
        return q.size()
    if args.action == "is-boolean":
        return q.is_boolean()
    return q.members(_env_cap("DIVLOG_ENUM_CAP", DEFAULT_ENUMERATION_CAP))


def _cmd_taut(args):
    q, formula = Interval(args.bottom, args.top), parse(args.formula)
    found = check_valid(q, formula, _env_cap("DIVLOG_SEARCH_CAP", DEFAULT_SEARCH_CAP))
    if found is None:
        return {"valid": True}, "valid", None
    result = {"valid": False, "counterexample": dict(found.assignment), "value": found.value}
    bindings = "".join(f"{n}={v} " for n, v in found.assignment)
    return result, f"counterexample: {bindings}(value {found.value})", None


def _sweep(run):
    """Handler for a ``verify`` sweep; ``run(args)`` returns its reports."""

    def handler(args):
        reports = run(args)
        text = "\n".join(
            f"{r.law_name}: cases={r.cases_checked} "
            f"counterexamples={len(r.counterexamples)} "
            f"skipped={len(r.skipped)} {'PASS' if r.passed else 'FAIL'}"
            for r in reports
        )
        return {"passed": all(r.passed for r in reports)}, text, reports

    return handler


# ---------------------------------------------------------------------------
# Command table: (name, help, arguments, handler or (dest, sub-table))
# ---------------------------------------------------------------------------

_INT = {"type": int}
_A = ("a", _INT)
_B = ("b", _INT)
_INTERVAL = [
    ("--bottom", {"type": int, "required": True, "help": "interval bottom"}),
    ("--top", {"type": int, "required": True, "help": "interval top"}),
]
_MAX = ("--max", {"type": _positive, "default": 100})

_SWEEPS = [
    ("laws", "lattice laws on [1, MAX]", [_MAX], _sweep(lambda a: verify_lattice_laws(a.max))),
    (
        "heyting",
        "interval operations against the oracle",
        [
            ("--top-max", {"type": _positive, "default": 60}),
            ("--size-cap", {"type": _positive, "default": DEFAULT_SIZE_CAP}),
        ],
        _sweep(lambda a: verify_heyting(a.top_max, a.size_cap)),
    ),
    (
        "projective",
        "meet/join projective identity on [1, MAX]",
        [_MAX],
        _sweep(lambda a: [verify_projective(a.max)]),
    ),
]

_COMMANDS = [
    ("factor", "prime factorization of N", [("n", _INT)], _cmd_factor),
    ("gcd", "greatest common divisor (lattice meet)", [_A, _B], _plain(lambda a: meet(a.a, a.b))),
    ("lcm", "least common multiple (lattice join)", [_A, _B], _plain(lambda a: join(a.a, a.b))),
    ("divides", "does A divide B?", [_A, _B], _plain(lambda a: divides(a.a, a.b))),
    (
        "interval",
        "inspect the interval [BOTTOM, TOP]",
        [*_INTERVAL, ("action", {"choices": ["list", "size", "is-boolean"]})],
        _plain(_interval),
    ),
    (
        "neg",
        "pseudocomplement of A in the interval",
        [*_INTERVAL, _A],
        _plain(lambda a: Interval(a.bottom, a.top).neg(a.a)),
    ),
    (
        "imp",
        "relative pseudocomplement A -> B in the interval",
        [*_INTERVAL, _A, _B],
        _plain(lambda a: Interval(a.bottom, a.top).imp(a.a, a.b)),
    ),
    (
        "complement",
        "Boolean complement top*bottom/A (Boolean intervals only)",
        [*_INTERVAL, _A],
        _plain(lambda a: Interval(a.bottom, a.top).complement(a.a)),
    ),
    (
        "eval",
        "evaluate a formula in the interval",
        [
            *_INTERVAL,
            ("formula", {}),
            (
                "--let",
                {"action": "append", "type": _binding, "metavar": "VAR=VALUE",
                 "help": "bind a variable (repeatable)"},
            ),
        ],
        _plain(
            lambda a: evaluate(Interval(a.bottom, a.top), parse(a.formula), dict(a.let or []))
        ),
    ),
    (
        "taut",
        "exhaustive validity check in the interval",
        [*_INTERVAL, ("formula", {})],
        _cmd_taut,
    ),
    ("verify", "run exhaustive law sweeps", [], ("sweep", _SWEEPS)),
]


def _populate(parser, arguments, target):
    """Give ``parser`` its arguments and --json, then either a handler or,
    for a ``(dest, table)`` target, one subcommand per table row."""
    for name, options in arguments:
        parser.add_argument(name, **options)
    # SUPPRESS keeps a subparser from clobbering a --json given earlier
    parser.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit a structured JSON document instead of plain text",
    )
    if callable(target):
        parser.set_defaults(handler=target)
        return
    dest, table = target
    sub = parser.add_subparsers(dest=dest, required=True, metavar=dest.upper())
    for name, help_text, sub_arguments, sub_target in table:
        _populate(sub.add_parser(name, help=help_text), sub_arguments, sub_target)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divlog",
        description="Divisibility-lattice logic: gcd/lcm arithmetic, interval "
        "Heyting algebras, formula evaluation, and exhaustive law sweeps.",
    )
    _populate(parser, [], ("command", _COMMANDS))
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    as_json = getattr(args, "json", False)

    try:
        result, text, reports = args.handler(args)
    except DivlogError as err:
        error = {"name": err.name, "message": str(err)}
        if isinstance(err, FormulaSyntaxError):
            error["position"] = err.position
        if not as_json:
            print(f"error[{error['name']}]: {error['message']}", file=sys.stderr)
            return 1
        output, status = {"command": argv, "error": error}, 1
    else:
        output = {"command": argv, "result": result} if as_json else text
        if as_json and reports is not None:
            output["report"] = [r.to_dict() for r in reports]
        # a sweep that found counterexamples is a failure, in either format
        status = 0 if reports is None or all(r.passed for r in reports) else 1

    try:
        print(json.dumps(output, indent=2) if as_json else output)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: keep the interpreter's exit flush from failing too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
