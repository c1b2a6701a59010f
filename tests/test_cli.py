"""End-to-end checks of the command-line surface."""

import json
import subprocess
import sys

import pytest

from divlog import Interval
from divlog.cli import main

HEYTING_REPORT_NAMES = [
    "neg_formula_vs_oracle",
    "imp_formula_vs_oracle",
    "residuation_adjunction",
    "boolean_equivalences",
    "imp_bottom_independence",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- arithmetic subcommands ---------------------------------------------------


def test_factor_text(capsys):
    assert run_cli(capsys, "factor", "360") == (0, "360 = 2^3 * 3^2 * 5\n", "")


def test_factor_of_one(capsys):
    assert run_cli(capsys, "factor", "1") == (0, "1 = 1\n", "")


def test_factor_of_prime(capsys):
    assert run_cli(capsys, "factor", "97") == (0, "97 = 97\n", "")


def test_gcd_and_lcm(capsys):
    assert run_cli(capsys, "gcd", "12", "18") == (0, "6\n", "")
    assert run_cli(capsys, "lcm", "12", "18") == (0, "36\n", "")


@pytest.mark.parametrize("head", [[], ["--json"]])
def test_lcm_past_the_digit_limit_prints_whole(head):
    a, b = 10**4000 + 1, 10**4000 + 3  # coprime: the lcm has 8001 digits
    proc = subprocess.run(
        [sys.executable, "-m", "divlog.cli", *head, "lcm", str(a), str(b)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    digits = json.loads(proc.stdout, parse_int=str)["result"] if head else proc.stdout[:-1]
    # read back in two parts, each within this interpreter's digit limit
    assert digits.isdecimal() and len(digits) == 8001
    assert int(digits[:4000]) * 10**4001 + int(digits[4000:]) == a * b


def test_printing_past_the_digit_limit_puts_the_limit_back(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "lcm", str(10**4000 + 1), str(10**4000 + 3))
    assert (code, len(out)) == (0, 8002)
    assert sys.get_int_max_str_digits() == limit


def test_divides(capsys):
    assert run_cli(capsys, "divides", "6", "24") == (0, "true\n", "")
    assert run_cli(capsys, "divides", "4", "6") == (0, "false\n", "")


# -- interval subcommands -----------------------------------------------------


def test_interval_list_streams_one_member_per_line(capsys):
    code, out, _ = run_cli(capsys, "interval", "--bottom", "2", "--top", "24", "list")
    assert code == 0
    assert out.splitlines() == ["2", "4", "6", "8", "12", "24"]


def test_interval_size_and_booleanness(capsys):
    assert run_cli(capsys, "interval", "--bottom", "2", "--top", "24", "size")[:2] == (0, "6\n")
    assert run_cli(capsys, "interval", "--bottom", "1", "--top", "30", "is-boolean")[:2] == (0, "true\n")
    assert run_cli(capsys, "interval", "--bottom", "1", "--top", "12", "is-boolean")[:2] == (0, "false\n")


def test_interval_size_avoids_enumeration(capsys):
    top = str((2**40) * 3)
    assert run_cli(capsys, "interval", "--bottom", "1", "--top", top, "size")[:2] == (0, "82\n")


def test_neg_imp_complement(capsys):
    assert run_cli(capsys, "neg", "--bottom", "2", "--top", "24", "6")[:2] == (0, "8\n")
    assert run_cli(capsys, "imp", "--bottom", "1", "--top", "12", "4", "3")[:2] == (0, "3\n")
    assert run_cli(capsys, "complement", "--bottom", "1", "--top", "30", "5")[:2] == (0, "6\n")


# -- formulas -----------------------------------------------------------------


def test_eval_formula(capsys):
    assert run_cli(capsys, "eval", "--bottom", "1", "--top", "12", "2 | ~2")[:2] == (0, "6\n")


def test_eval_with_let_bindings(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--bottom", "1", "--top", "12", "p -> 6", "--let", "p=4"
    )
    assert (code, out) == (0, "6\n")


def test_taut_valid(capsys):
    assert run_cli(capsys, "taut", "--bottom", "6", "--top", "12", "p | ~p")[:2] == (0, "valid\n")


@pytest.mark.parametrize(
    "top, text, line",
    [
        ("4", "((p->q)->p)->p", "counterexample: p=2 q=1 (value 2)"),
        # refuted on the chain, then found by the member walk over 288 members
        ("1441440", "((p -> q) -> p) -> p", "counterexample: p=2 q=1 (value 90090)"),
        ("36", "((p -> q) -> r) -> ((r -> p) -> p)", "counterexample: p=2 q=1 r=1 (value 18)"),
    ],
    ids=["four members", "288 members", "three variables"],
)
def test_taut_counterexample(capsys, top, text, line):
    code, out, _ = run_cli(capsys, "taut", "--bottom", "1", "--top", top, text)
    assert (code, out) == (0, line + "\n")


@pytest.mark.parametrize(
    "binding, message",
    [("p", "expected var=value, got 'p'"), ("p=x", "value for 'p' must be an integer")],
)
def test_bad_let_binding_is_a_usage_error(capsys, binding, message):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--bottom", "1", "--top", "12", "p", "--let", binding])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# -- verify -------------------------------------------------------------------


def test_verify_projective_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "projective", "--max", "10")
    assert code == 0
    assert out == "projective_identity: cases=270 counterexamples=0 skipped=0 PASS\n"


def test_verify_laws_text_has_four_lines(capsys):
    code, out, _ = run_cli(capsys, "verify", "laws", "--max", "6")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "idempotency",
        "commutativity",
        "associativity",
        "mutual_distributivity",
    ]
    assert all(line.endswith("PASS") for line in out.splitlines())


def test_verify_laws_json_reports(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "laws", "--max", "10")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"] == {"passed": True}
    assert [r["law_name"] for r in doc["report"]] == [
        "idempotency",
        "commutativity",
        "associativity",
        "mutual_distributivity",
    ]
    assert all(r["counterexamples"] == [] for r in doc["report"])


def test_verify_heyting_json_reports(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "verify", "heyting", "--top-max", "12", "--size-cap", "64"
    )
    doc = json.loads(out)
    assert code == 0
    assert [r["law_name"] for r in doc["report"]] == HEYTING_REPORT_NAMES


# -- output document contract -------------------------------------------------


@pytest.mark.parametrize(
    "argv, result",
    [
        (["gcd", "12", "18"], 6),
        (["factor", "360"], {"n": 360, "factors": {"2": 3, "3": 2, "5": 1}}),
        (
            ["taut", "--bottom", "1", "--top", "4", "p | ~p"],
            {"valid": False, "counterexample": {"p": 2}, "value": 2},
        ),
        (["taut", "--bottom", "1", "--top", "36", "~p | ~~p"], {"valid": True}),
    ],
    ids=["gcd", "factor", "taut counterexample", "taut valid"],
)
def test_json_document_shape(capsys, argv, result):
    code, out, _ = run_cli(capsys, "--json", *argv)
    assert code == 0
    assert json.loads(out) == {"command": ["--json", *argv], "result": result}


def test_json_flag_works_in_both_positions(capsys):
    _, before, _ = run_cli(capsys, "--json", "lcm", "4", "6")
    _, after, _ = run_cli(capsys, "lcm", "4", "6", "--json")
    assert json.loads(before)["result"] == json.loads(after)["result"] == 12


def test_json_round_trips(capsys):
    _, out, _ = run_cli(capsys, "verify", "laws", "--max", "5", "--json")
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_identical_argv_is_byte_identical(capsys):
    argv = ["--json", "verify", "heyting", "--top-max", "12", "--size-cap", "64"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second


# -- errors and exit statuses -------------------------------------------------


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["interval", "--bottom", "5", "--top", "24", "size"],
            "error[InvalidInterval]: 5 does not divide 24",
        ),
        (
            ["taut", "--bottom", "1", "--top", "4", "p & (q"],
            "error[SyntaxError]: expected ')' (at position 6)",
        ),
        (
            ["taut", "--bottom", "1", "--top", "4", "p ) $"],
            "error[SyntaxError]: unexpected character '$' (at position 4)",
        ),
    ],
    ids=["interval", "unclosed parenthesis", "bad character"],
)
def test_domain_error_text_mode(capsys, argv, line):
    assert run_cli(capsys, *argv) == (1, "", line + "\n")


def test_domain_error_json_mode(capsys):
    code, out, _ = run_cli(capsys, "--json", "complement", "--bottom", "1", "--top", "12", "2")
    doc = json.loads(out)
    assert code == 1
    assert doc["error"]["name"] == "NotBoolean"
    assert "result" not in doc


def test_not_member_error(capsys):
    code, out, _ = run_cli(capsys, "--json", "neg", "--bottom", "2", "--top", "24", "3")
    assert code == 1
    assert json.loads(out)["error"]["name"] == "NotMember"


@pytest.mark.parametrize("text, position", [("p &", 3), ("p & (q", 6)])
def test_syntax_error_carries_position(capsys, text, position):
    code, out, _ = run_cli(capsys, "--json", "eval", "--bottom", "1", "--top", "12", text)
    doc = json.loads(out)
    assert code == 1
    assert doc["error"]["name"] == "SyntaxError"
    assert doc["error"]["position"] == position


@pytest.mark.parametrize(
    "command, text",
    [
        ("eval", "\u00b2"),
        ("taut", "9" * 5000),
        ("eval", "~" * 3000 + "p"),
        ("taut", "p" + " & p" * 5000),
    ],
)
def test_cli_reports_bad_formulas_without_a_traceback(command, text):
    proc = subprocess.run(
        [sys.executable, "-m", "divlog.cli", "--json", command, "--bottom", "1", "--top", "12", text],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert '"name": "SyntaxError"' in proc.stdout
    assert "Traceback" not in proc.stderr


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("raw, top", [("3", "30"), ("1", "4")])  # 8 and 3 members
def test_enum_cap_env_override(monkeypatch, capsys, raw, top):
    monkeypatch.setenv("DIVLOG_ENUM_CAP", raw)
    code, out, _ = run_cli(capsys, "--json", "interval", "--bottom", "1", "--top", top, "list")
    assert code == 1
    assert json.loads(out)["error"]["name"] == "EnumerationLimit"


def test_search_cap_env_override(monkeypatch, capsys):
    monkeypatch.setenv("DIVLOG_SEARCH_CAP", "10")
    code, out, _ = run_cli(capsys, "--json", "taut", "--bottom", "1", "--top", "12", "p | q")
    assert code == 1
    assert json.loads(out)["error"]["name"] == "SearchLimit"


@pytest.mark.parametrize("raw", ["0", "x", "1"])
def test_taut_ignores_the_enumeration_cap(monkeypatch, capsys, raw):
    monkeypatch.setenv("DIVLOG_ENUM_CAP", raw)
    assert run_cli(capsys, "taut", "--bottom", "1", "--top", "4", "p | ~p") == (
        0,
        "counterexample: p=2 (value 2)\n",
        "",
    )


def conjunction(names):
    """``names`` joined by ``&`` into a tree of height about log2(len(names))."""
    if len(names) == 1:
        return names[0]
    half = len(names) // 2
    return f"({conjunction(names[:half])}) & ({conjunction(names[half:])})"


def test_taut_over_thousands_of_variables_is_a_search_limit():
    text = conjunction([f"v{i}" for i in range(6000)])
    proc = subprocess.run(
        [sys.executable, "-m", "divlog.cli", "--json", "taut", "--bottom", "1", "--top", "12", text],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == {
        "name": "SearchLimit",
        "message": "6**6000 assignments over 6000 variables exceed the cap 1000000",
    }
    assert proc.stderr == ""


def test_garbage_env_cap_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("DIVLOG_ENUM_CAP", "lots")
    with pytest.raises(SystemExit) as exc:
        main(["interval", "--bottom", "1", "--top", "30", "list"])
    assert exc.value.code == 2


# the one command that reads each cap
ENV_CAP_COMMANDS = {
    "DIVLOG_ENUM_CAP": ["interval", "--bottom", "1", "--top", "4", "list"],
    "DIVLOG_SEARCH_CAP": ["taut", "--bottom", "1", "--top", "4", "p | ~p"],
}


@pytest.mark.parametrize("name", ["DIVLOG_ENUM_CAP", "DIVLOG_SEARCH_CAP"])
@pytest.mark.parametrize("raw", ["0", "-5"])
def test_non_positive_env_cap_is_a_usage_error(monkeypatch, capsys, name, raw):
    monkeypatch.setenv(name, raw)
    with pytest.raises(SystemExit) as exc:
        main(ENV_CAP_COMMANDS[name])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} must be a positive integer, got {raw!r}" in captured.err


@pytest.mark.parametrize(
    "sweep, option",
    [("laws", "--max"), ("projective", "--max"), ("heyting", "--top-max"), ("heyting", "--size-cap")],
)
@pytest.mark.parametrize("raw", ["0", "-3", "x"])
def test_non_positive_sweep_option_is_a_usage_error(capsys, sweep, option, raw):
    with pytest.raises(SystemExit) as exc:
        main(["verify", sweep, option, raw])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be a positive integer, got {raw!r}" in captured.err


def test_failed_sweep_exits_one_with_the_usual_output(monkeypatch, capsys):
    monkeypatch.setattr(Interval, "neg", lambda self, a: self.top)
    code, out, _ = run_cli(capsys, "verify", "heyting", "--top-max", "6")
    assert code == 1
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == HEYTING_REPORT_NAMES
    failed = [line.split(":")[0] for line in lines if line.endswith(" FAIL")]
    assert failed == ["neg_formula_vs_oracle", "boolean_equivalences"]

    code, out, _ = run_cli(capsys, "--json", "verify", "heyting", "--top-max", "6")
    doc = json.loads(out)
    assert code == 1
    assert doc["result"] == {"passed": False}
    assert [r["law_name"] for r in doc["report"] if r["counterexamples"]] == failed


@pytest.mark.parametrize("module", ["divlog.cli", "divlog"])
def test_module_entry_point_runs(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "factor", "97"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "97 = 97\n"
    # no command is a usage error
    proc = subprocess.run([sys.executable, "-m", module], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "the following arguments are required: COMMAND" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["--json", "neg", "--bottom", "2", "--top", "24", "5"],  # error document
        ["verify", "laws", "--max", "5"],  # passing sweep
    ],
)
def test_closed_stdout_pipe_exits_one_without_traceback(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "divlog.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader leaves before any output is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert b"Traceback" not in err


# -- what a cold call loads ----------------------------------------------------

# Runs ``main`` on its arguments in a fresh interpreter, then prints the
# modules loaded before divlog was imported and those loaded at the end.
LOADED = """
import sys
before = set(sys.modules)
from divlog.cli import main
status = main(sys.argv[1:])
print(" ".join(before), file=sys.stderr)
print(" ".join(sys.modules), file=sys.stderr)
sys.exit(status)
"""
HEAVY = {"divlog.formulas", "divlog.oracle", "dataclasses", "json"}


def cold_call(*argv):
    """Exit status, stdout, and the modules the call loaded and had at the end."""
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv], capture_output=True, text=True)
    before, after = (set(line.split()) for line in proc.stderr.splitlines()[-2:])
    return proc.returncode, proc.stdout, after - before, after


@pytest.mark.parametrize(
    "argv, out",
    [
        (["gcd", "12", "18"], "6\n"),
        (["factor", "360"], "360 = 2^3 * 3^2 * 5\n"),
        (["neg", "--bottom", "2", "--top", "24", "6"], "8\n"),
        (["imp", "--bottom", "1", "--top", "12", "4", "3"], "3\n"),
        (["interval", "--bottom", "2", "--top", "24", "list"], "2\n4\n6\n8\n12\n24\n"),
    ],
)
def test_arithmetic_calls_load_no_formula_oracle_or_json_module(argv, out):
    status, stdout, loaded, _ = cold_call(*argv)
    assert (status, stdout) == (0, out)
    assert "divlog.intervals" in loaded
    assert loaded & HEAVY == set()


def test_json_output_loads_json():
    status, stdout, _, modules = cold_call("--json", "neg", "--bottom", "2", "--top", "24", "6")
    assert status == 0 and json.loads(stdout)["result"] == 8
    assert "json" in modules


@pytest.mark.parametrize(
    "argv, out, module",
    [
        (["taut", "--bottom", "1", "--top", "6", "p | ~p"], "valid\n", "divlog.formulas"),
        (
            ["verify", "projective", "--max", "8"],
            "projective_identity: cases=160 counterexamples=0 skipped=0 PASS\n",
            "divlog.oracle",
        ),
        (["eval", "--bottom", "1", "--top", "12", "p -> 6", "--let", "p=4"], "6\n", "divlog.formulas"),
        (
            ["verify", "laws", "--max", "2"],
            "idempotency: cases=2 counterexamples=0 skipped=0 PASS\n"
            "commutativity: cases=4 counterexamples=0 skipped=0 PASS\n"
            "associativity: cases=8 counterexamples=0 skipped=0 PASS\n"
            "mutual_distributivity: cases=16 counterexamples=0 skipped=0 PASS\n",
            "divlog.oracle",
        ),
        (
            ["verify", "heyting", "--top-max", "2"],
            "neg_formula_vs_oracle: cases=4 counterexamples=0 skipped=0 PASS\n"
            "imp_formula_vs_oracle: cases=6 counterexamples=0 skipped=0 PASS\n"
            "residuation_adjunction: cases=10 counterexamples=0 skipped=0 PASS\n"
            "boolean_equivalences: cases=3 counterexamples=0 skipped=0 PASS\n"
            "imp_bottom_independence: cases=1 counterexamples=0 skipped=0 PASS\n",
            "divlog.oracle",
        ),
    ],
)
def test_formula_and_sweep_calls_load_their_module(argv, out, module):
    status, stdout, loaded, _ = cold_call(*argv)
    assert (status, stdout) == (0, out)
    assert module in loaded
    assert "dataclasses" not in loaded  # the value classes need no class generator
