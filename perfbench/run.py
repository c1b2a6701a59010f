"""Run one workload of the divlog benchmark and print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: oracle-sweep, taut-mix, cli-cold (see perfbench/README.md).
Run it from the root of a checkout; divlog is imported from ``src/``.

With ``--trace 0`` the workload runs untraced for S seconds and the
end-to-end metrics are reported, their times stated at a reference
machine speed measured as the run goes (see ``timed_run``).  With
``--trace 1`` a fixed list of operations runs once untraced and once
under the span tracer, and the per-layer metrics are reported; S does
not apply.  Either way every output is checked, the lines before the
last one give the stamp, the raw operation counts and the metrics in
readable form, and the last line is one JSON object: {"correct",
"attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import EXPECTED, FAILED, OK, ROOT, SRC, attempt  # noqa: E402

TRACE_DIR = ROOT / ".bench_trace"
# (name, unit, better) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("work_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_PROBES = 10
SETUP_SLICES = 7
# p90 needs at least ten samples above it
MIN_SAMPLES = 110


class Accounting:
    """Attempted, succeeded, expected-error and failed operations, and work."""

    def __init__(self, workload):
        self.workload = workload
        self.counts = {"attempted": 0, OK: 0, EXPECTED: 0, FAILED: 0}
        self.work = 0
        self.reasons: list[str] = []
        self._memo = {}

    def add(self, i, outcome, times=1):
        """Account ``times`` operations ``i`` that all gave ``outcome``."""
        key = (i, outcome)
        try:
            verdict = self._memo.get(key)
        except TypeError:  # unhashable outcome: check it every time
            key, verdict = None, None
        if verdict is None:
            verdict = self.workload.check(i, outcome)
            if key is not None:
                self._memo[key] = verdict
        status, work, reason = verdict
        self.counts["attempted"] += times
        self.counts[status] += times
        self.work += work * times
        if status == FAILED and len(self.reasons) < 5:
            self.reasons.append(reason)

    def line(self) -> str:
        c = self.counts
        ratio = c[FAILED] / c["attempted"] if c["attempted"] else 0.0
        return (f"accounting: attempted={c['attempted']} succeeded={c[OK]} "
                f"expected_error={c[EXPECTED]} failed={c[FAILED]} failed_ratio={ratio}")


def stamp(workload: str, seed: int) -> dict:
    """Where the numbers come from: commit, interpreter, machine, seed."""
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                sha = loose.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        sha = line.split()[0]
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "workload": workload, "seed": seed}


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks, as numpy's default."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def setup_times(raw_s: float) -> tuple[float, float]:
    """A set-up time as measured and at the reference speed.  Set-up is
    mostly this process's own work, so it is scaled by the calibration
    slice's reference time over its median time right after."""
    slices = [workloads.calibration_slice() for _ in range(SETUP_SLICES)]
    return raw_s, raw_s * workloads.SLICE_REF_S / statistics.median(slices)


def setup_probes(args) -> list[tuple[float, float]]:
    """Set-up times of fresh processes doing only the set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, cwd=ROOT, check=True)
        times.append(tuple(json.loads(proc.stdout.splitlines()[-1])))
    return times


def timed_run(wl, args, own_setup):
    # A shared host's speed drifts by a third and more over seconds to
    # minutes, with other tenants' load.  So the loop times, every
    # ``wl.cal_every`` operations, a fixed piece of divlog-free work
    # (``wl.calibrate``), and states each batch's operation times at the
    # speed at which that work takes ``wl.CAL_REF_S``: times are scaled
    # by CAL_REF_S over the median calibration time of their batch.  A
    # change to divlog moves the scaled times as it moves the raw ones;
    # the raw figures are printed beside them.
    #
    # Repeated operations mostly repeat their outcome, so outcomes are
    # tallied rather than kept one by one: the run's own storage must not
    # grow with the speed of the machine and show in peak_rss_mb.
    raw = array("d")
    scaled = array("d")
    factors = []
    tally: Counter = Counter()
    unhashable = []
    n_ops = len(wl.ops)
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline or i < MIN_SAMPLES:
        batch = array("d")
        calibrations = []
        for k in range(wl.batch):
            if k % wl.cal_every == 0:
                calibrations.append(wl.calibrate())
            s = time.perf_counter()
            outcome = attempt(wl.run, i % n_ops)
            batch.append(time.perf_counter() - s)
            try:
                tally[i % n_ops, outcome] += 1
            except TypeError:
                unhashable.append((i % n_ops, outcome))
            i += 1
        factor = wl.CAL_REF_S / statistics.median(calibrations)
        factors.append(factor)
        raw.extend(batch)
        scaled.extend(t * factor for t in batch)
    rss_kb = wl.peak_rss_kb([outcome for _, outcome in [*tally, *unhashable]])
    acct = Accounting(wl)
    for (idx, outcome), times in tally.items():
        acct.add(idx, outcome, times)
    for idx, outcome in unhashable:
        acct.add(idx, outcome)
    setups = [own_setup] + setup_probes(args)
    wall = sum(scaled)
    scaled = sorted(scaled)
    p90 = percentile(scaled, 0.9)
    values = {
        "setup_s": statistics.median(scaled_s for _, scaled_s in setups),
        "ops_per_s": len(scaled) / wall,
        "work_per_s": acct.work / wall,
        "latency_p50_ms": percentile(scaled, 0.5) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }
    raw_wall = sum(raw)
    raw = sorted(raw)
    print(f"timed: busy_s={raw_wall} ops={len(raw)} work={acct.work} batches={len(factors)} "
          f"latency_samples={len(scaled)} beyond_p90={sum(x > p90 for x in scaled)} "
          f"setup_samples_s={[raw_s for raw_s, _ in setups]}")
    print(f"speed: calibration_ref_s={wl.CAL_REF_S} factor_median={statistics.median(factors)} "
          f"factor_min={min(factors)} factor_max={max(factors)}")
    print(f"raw: ops_per_s={len(raw) / raw_wall} work_per_s={acct.work / raw_wall} "
          f"latency_p50_ms={percentile(raw, 0.5) * 1e3} latency_p90_ms={percentile(raw, 0.9) * 1e3} "
          f"setup_s={statistics.median(raw_s for raw_s, _ in setups)}")
    print(f"{wl.op_unit}_per_s: {values['ops_per_s']} 1/s")
    if wl.work_unit != wl.op_unit:
        print(f"{wl.work_unit}_per_s: {values['work_per_s']} 1/s")
    return acct, {name: (values[name], unit) for name, unit, _ in END_TO_END}


def traced_run(wl, args):
    ops = wl.trace_ops()
    run_dir = TRACE_DIR / f"{wl.name}-seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    untraced = [(i, attempt(wl.run, i)) for i in ops]
    untraced_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    traced = wl.traced_pass(ops, tracer, run_dir)
    traced_s = time.perf_counter() - t0

    acct = Accounting(wl)
    for i, outcome in untraced + traced:
        acct.add(i, outcome)
    tracer.dump(run_dir / "parent.spans")
    values = tracing.per_layer_metrics(
        *wl.layer_inputs(tracer), traced_s / untraced_s, tracing.span_cost_ns())
    print(f"traced: ops={len(ops)} untraced_s={untraced_s} traced_s={traced_s} "
          f"spans_in={os.path.relpath(run_dir, ROOT)}")
    return acct, {name: (values[name], unit) for name, unit, _ in tracing.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "divlog" / "__init__.py").is_file():
        print(f"run.py: no divlog sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    own_setup = setup_times(time.perf_counter() - T_START)
    if args.setup_probe:
        print(json.dumps(own_setup))
        return 0
    import divlog
    if not Path(divlog.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"run.py: imported divlog from {divlog.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        acct, metrics = traced_run(wl, args)
    else:
        acct, metrics = timed_run(wl, args, own_setup)
    print("stamp: " + json.dumps(stamp(args.workload, args.seed)))
    print(acct.line())
    for reason in acct.reasons:
        print(f"failure: {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": acct.counts[FAILED] == 0,
        "attempted": acct.counts["attempted"],
        "failed": acct.counts[FAILED],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
