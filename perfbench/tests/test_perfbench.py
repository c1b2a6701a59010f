"""The benchmark's own tests: tiny runs of each workload, the checks
catching deliberately corrupted operations, and the tracer's arithmetic.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import divlog
import divlog.oracle
import reference as ref
import run
import tracing
import workloads
from divlog import Interval

ROOT = Path(__file__).resolve().parents[2]
TINY_CYCLE = (("laws", 5), ("projective", 6), ("heyting", 8))


def tiny(name, seed=7):
    if name == "oracle-sweep":
        return workloads.OracleSweep(seed, cycle=TINY_CYCLE)
    if name == "taut-mix":
        return workloads.TautMix(seed, shapes=((1, 1), (2,), (2, 1)),
                                 random_per_interval=2, over_cap_ops=1)
    return workloads.CliCold(seed, blocks=3)


def account(wl, corrupt=lambda: None):
    """Set up, apply ``corrupt``, run every operation once, check them all."""
    wl.setup()
    corrupt()
    acct = run.Accounting(wl)
    for i in range(len(wl.ops)):
        acct.add(i, workloads.attempt(wl.run, i))
    return acct


def test_benchmark_json_names_every_metric_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_pinned_sweep_counts_match_the_domain_sizes():
    for key, pinned in workloads.OracleSweep.PINNED.items():
        assert workloads.law_cases(*key) == pinned
    assert workloads.law_cases("projective", 10) == {"projective_identity": 270}


def test_reference_factorization_and_primality():
    for n in range(1, 2000):
        pairs = ref.factor(n)
        assert math.prod(p**e for p, e in pairs) == n
        assert all(ref.is_prime(p) for p, _ in pairs)
    assert [n for n in range(50) if ref.is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert ref.is_prime(ref.next_prime(10**12)) and not ref.is_prime(999983 * 1000003)


def test_reference_heyting_operations_match_divlog():
    q = Interval(2, 72)
    for a in q.members():
        assert ref.neg(2, 72, a) == q.neg(a)
        for b in q.members():
            assert ref.imp(2, 72, a, b) == q.imp(a, b)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_is_correct(name):
    acct = account(tiny(name))
    assert acct.counts[workloads.FAILED] == 0, acct.reasons
    assert acct.counts["attempted"] == acct.counts[workloads.OK] + acct.counts[workloads.EXPECTED]
    assert acct.work > 0


def test_expected_errors_are_counted_as_such():
    taut = account(tiny("taut-mix"))
    cli = account(tiny("cli-cold"))
    assert taut.counts[workloads.EXPECTED] == 1  # the over-cap request
    assert cli.counts[workloads.EXPECTED] == 1  # the NotMember call of block 3
    assert "failed_ratio=0.0" in cli.line()


def test_corrupted_negation_fails_the_taut_check(monkeypatch):
    acct = account(tiny("taut-mix"), lambda: monkeypatch.setattr(
        Interval, "neg", lambda self, a: self.bottom))
    assert acct.counts[workloads.FAILED] > 0
    assert "failed_ratio=0.0" not in acct.line()


def test_meet_off_by_one_fails_the_sweep_check(monkeypatch):
    acct = account(tiny("oracle-sweep"), lambda: monkeypatch.setattr(
        divlog.oracle, "meet", lambda a, b: math.gcd(a, b) + 1))
    assert acct.counts[workloads.FAILED] == acct.counts["attempted"]


def test_wrong_cli_output_fails_the_cli_check():
    wl = tiny("cli-cold")
    i = next(k for k, call in enumerate(wl.calls) if call[0] == "factor_prime")
    status, out, err, rss = wl.run(i)
    prime = wl.calls[i][2][0]
    wrong = workloads.CallResult(status, out.replace(str(prime), str(prime + 2)), err, rss)
    assert wl.check(i, ("ok", wrong))[0] == workloads.FAILED
    assert wl.check(i, ("ok", workloads.CallResult(1, out, err, rss)))[0] == workloads.FAILED


def test_self_time_is_duration_minus_child_coverage():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    summary = tracer.summary()
    inner = [tracer.end[i] - tracer.start[i] for i in (1, 2)]
    outer = tracer.end[0] - tracer.start[0]
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["self_ns"] == outer - sum(inner)
    assert list(tracer.parent) == [-1, 0, 0]


def test_install_wraps_cross_module_bindings_and_restores_them():
    originals = (divlog.oracle.meet, divlog.intervals.factorize, Interval.neg)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert divlog.oracle.meet is not originals[0]
        Interval(2, 24).neg(6)
        divlog.oracle_neg(Interval(1, 12), 2)
    finally:
        restore()
    assert (divlog.oracle.meet, divlog.intervals.factorize, Interval.neg) == originals
    summary = tracer.summary()
    assert summary["intervals.neg"]["calls"] == 1
    assert summary["oracle.oracle_neg"]["calls"] == 1
    assert summary["lattice.meet"]["calls"] > 0
    assert tracer.counts["factorization.as_natural"] > 0


def test_traced_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    args = argparse.Namespace(seed=3)
    metrics = []
    for _ in range(2):
        wl = tiny("taut-mix", seed=3)
        wl.setup()
        acct, values = run.traced_run(wl, args)
        assert acct.counts[workloads.FAILED] == 0
        metrics.append({k: v for k, (v, _) in values.items()
                        if k.endswith((".calls", ".cases", ".assignments"))})
    assert metrics[0] == metrics[1]
    assert metrics[0]["formulas.check_valid.calls"] == len(tiny("taut-mix", seed=3).ops)
    header, spans = tracing.load(tmp_path / "taut-mix-seed3" / "parent.spans")
    assert header["spans"] == len(spans) > 0


def test_command_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "taut-mix", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= run.MIN_SAMPLES
    assert list(last["metrics"]) == [name for name, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert "stamp: " in proc.stdout and "accounting: " in proc.stdout


def test_timed_run_states_times_at_the_reference_speed(monkeypatch, capsys):
    monkeypatch.setattr(run, "setup_probes", lambda args: [])
    wl = tiny("taut-mix")
    wl.setup()
    # a machine at half the reference speed
    monkeypatch.setattr(wl, "calibrate", lambda: 2 * wl.CAL_REF_S)
    args = argparse.Namespace(workload="taut-mix", seed=7, seconds=0.01)
    acct, metrics = run.timed_run(wl, args, (0.1, 0.1))
    line = next(s for s in capsys.readouterr().out.splitlines() if s.startswith("raw: "))
    raw = {k: float(v) for k, v in (kv.split("=") for kv in line.split()[1:])}
    assert acct.counts[workloads.FAILED] == 0
    assert metrics["ops_per_s"][0] == pytest.approx(2 * raw["ops_per_s"])
    assert metrics["work_per_s"][0] == pytest.approx(2 * raw["work_per_s"])
    assert metrics["latency_p50_ms"][0] == pytest.approx(raw["latency_p50_ms"] / 2)
    assert metrics["latency_p90_ms"][0] == pytest.approx(raw["latency_p90_ms"] / 2)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "taut-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
