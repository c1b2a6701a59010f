"""Span tracing at divlog's module boundaries, for the benchmark's traced runs.

``install`` replaces divlog's public functions, in every module that
binds them (``divlog.oracle.meet``, ``divlog.intervals.factorize``, the
package namespace, ...), and the ``Interval`` methods with wrappers that
record a span: name, start, end and the span that was open when it
began.  The benchmark opens one root span per operation, so every span
of one operation descends from the same root.  Spans stay in memory as
flat arrays and are written once, by ``Tracer.dump``, when the run ends.

A span's self time is its duration minus the time its child spans
cover.  Calls are strictly nested in one thread, so the children of a
span never overlap and their coverage is the sum of their durations.
None of the traced functions calls itself, so the inclusive time summed
per name counts no interval twice.

Leaf checks that run millions of times (``as_natural``, membership,
size) are counted without a span: a span would cost more than the call,
and their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import reference as ref

# home module -> functions traced with a span
SPANS = {
    "factorization": ("factorize", "divides", "is_prime", "primes_up_to", "reconstruct"),
    "lattice": ("meet", "join", "meet_euclid", "projective_identity_holds"),
    "formulas": ("parse", "evaluate", "check_valid", "format_formula"),
    "oracle": ("oracle_neg", "oracle_imp", "verify_lattice_laws", "verify_projective", "verify_heyting"),
    "cli": ("main", "build_parser"),
}
# home module -> functions only counted
COUNTS = {"factorization": ("as_natural",)}
# Interval attribute -> traced name; construction runs in __post_init__
INTERVAL_SPANS = {
    "__post_init__": "construct",
    "neg": "neg",
    "imp": "imp",
    "members": "members",
    "complement": "complement",
    "is_boolean": "is_boolean",
}
INTERVAL_COUNTS = {"contains": "contains", "size": "size"}
# traced names whose arguments and results are kept for the summary
CAPTURED = ("formulas.check_valid", "oracle.verify_lattice_laws",
            "oracle.verify_projective", "oracle.verify_heyting")

LAW_NAMES = (
    "idempotency", "commutativity", "associativity", "mutual_distributivity",
    "projective_identity", "neg_formula_vs_oracle", "imp_formula_vs_oracle",
    "residuation_adjunction", "boolean_equivalences", "imp_bottom_independence",
)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [
        ("factorization.factorize.calls", "count", "lower"),
        ("factorization.factorize.self_ms", "ms", "lower"),
        ("factorization.as_natural.calls", "count", "lower"),
        ("lattice.meet.calls", "count", "lower"),
        ("lattice.join.calls", "count", "lower"),
        ("lattice.self_ms", "ms", "lower"),
        ("lattice.ns_per_call", "ns", "lower"),
        ("intervals.construct.calls", "count", "lower"),
        ("intervals.construct.us_per_call", "us", "lower"),
        ("intervals.neg.calls", "count", "lower"),
        ("intervals.imp.calls", "count", "lower"),
        ("intervals.op.us_per_call", "us", "lower"),
        ("intervals.members.calls", "count", "lower"),
        ("intervals.self_ms", "ms", "lower"),
        ("formulas.parse.calls", "count", "lower"),
        ("formulas.parse.self_ms", "ms", "lower"),
        ("formulas.check_valid.calls", "count", "lower"),
        ("formulas.assignments", "count", "lower"),
        ("formulas.us_per_assignment", "us", "lower"),
        ("formulas.self_ms", "ms", "lower"),
        ("oracle.oracle_neg.calls", "count", "lower"),
        ("oracle.oracle_imp.calls", "count", "lower"),
        ("oracle.self_ms", "ms", "lower"),
    ]
    + [(f"oracle.{law}.cases", "count", "higher") for law in LAW_NAMES]
    + [
        ("oracle.verify_lattice_laws.ms", "ms", "lower"),
        ("oracle.verify_projective.ms", "ms", "lower"),
        ("oracle.verify_heyting.ms", "ms", "lower"),
        ("cli.python_floor_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("cli.build_parser_ms", "ms", "lower"),
        ("cli.main_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.span_cost_ns", "ns", "lower"),
    ]
)


class Tracer:
    """Spans and counts of one process, held in memory until ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.captured: dict[str, list] = defaultdict(list)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """``fn`` recording one span per call."""
        nid = self._id(name)
        ids, parents, starts, ends, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter_ns
        keep = self.captured[name].append if name in CAPTURED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if keep is not None:
                keep((args, result))
            return result

        return traced

    def wrap_count(self, fn, name: str):
        """``fn`` counting its calls, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one operation."""
        idx = len(self.name_id)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.stack.pop()

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns and self ns."""
        n = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        for i, nid in enumerate(self.name_id):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_ns"] += dur[i]
            row["self_ns"] += dur[i] - covered[i]
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the four arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.name_id),
                  "counts": dict(self.counts),
                  "arrays": ["name_id:i", "parent:i", "start_ns:q", "end_ns:q"]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(f)


def load(path: Path):
    """Read back a ``Tracer.dump`` file as (header, [(name, start, end, parent)])."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "q", "q"):
            arr = array(code)
            arr.fromfile(f, n)
            arrays.append(arr)
    ids, parents, starts, ends = arrays
    names = header["names"]
    return header, [(names[ids[i]], starts[i], ends[i], parents[i]) for i in range(n)]


def install(tracer: Tracer):
    """Wrap divlog's boundaries in every loaded divlog module; return a
    function that puts the originals back."""
    from divlog.intervals import Interval

    replacements = {}
    for home, names in SPANS.items():
        module = sys.modules.get(f"divlog.{home}")
        for name in names if module else ():
            fn = getattr(module, name)
            replacements[id(fn)] = (fn, tracer.wrap(fn, f"{home}.{name}"))
    for home, names in COUNTS.items():
        module = sys.modules[f"divlog.{home}"]
        for name in names:
            fn = getattr(module, name)
            replacements[id(fn)] = (fn, tracer.wrap_count(fn, f"{home}.{name}"))

    undo = []
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "divlog" or key.startswith("divlog."))]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    for attr, name in INTERVAL_SPANS.items():
        fn = Interval.__dict__[attr]
        setattr(Interval, attr, tracer.wrap(fn, f"intervals.{name}"))
        undo.append((Interval, attr, fn))
    for attr, name in INTERVAL_COUNTS.items():
        fn = Interval.__dict__[attr]
        setattr(Interval, attr, tracer.wrap_count(fn, f"intervals.{name}"))
        undo.append((Interval, attr, fn))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def span_cost_ns(samples: int = 200_000) -> float:
    """Calibrated cost of one empty span: traced minus bare no-op calls."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "calibrate.noop")
    best = []
    for fn in (noop, traced):
        runs = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for _ in range(samples // 5):
                fn()
            runs.append(time.perf_counter_ns() - t0)
        best.append(min(runs) / (samples // 5))
    return best[1] - best[0]


def layer_totals(summary, layer: str, field: str) -> int:
    return sum(row[field] for name, row in summary.items()
               if name.split(".", 1)[0] == layer)


def per_layer_metrics(summary, counts, assignments: int, law_cases, cli_ms, overhead_ratio, span_ns):
    """Every PER_LAYER metric from merged span summaries and counts.

    ``cli_ms`` holds the four ``cli.*`` medians (zero where no CLI ran).
    A rate over zero calls is reported as 0.
    """
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def row(name):
        return summary.get(name, empty)

    def ratio(num, den, scale):
        return num / den / scale if den else 0.0

    lattice_calls = layer_totals(summary, "lattice", "calls")
    lattice_self = layer_totals(summary, "lattice", "self_ns")
    ops = [row("intervals.neg"), row("intervals.imp")]
    values = {
        "factorization.factorize.calls": row("factorization.factorize")["calls"],
        "factorization.factorize.self_ms": row("factorization.factorize")["self_ns"] / 1e6,
        "factorization.as_natural.calls": counts.get("factorization.as_natural", 0),
        "lattice.meet.calls": row("lattice.meet")["calls"],
        "lattice.join.calls": row("lattice.join")["calls"],
        "lattice.self_ms": lattice_self / 1e6,
        "lattice.ns_per_call": ratio(lattice_self, lattice_calls, 1),
        "intervals.construct.calls": row("intervals.construct")["calls"],
        "intervals.construct.us_per_call": ratio(
            row("intervals.construct")["total_ns"], row("intervals.construct")["calls"], 1e3),
        "intervals.neg.calls": row("intervals.neg")["calls"],
        "intervals.imp.calls": row("intervals.imp")["calls"],
        "intervals.op.us_per_call": ratio(
            sum(r["total_ns"] for r in ops), sum(r["calls"] for r in ops), 1e3),
        "intervals.members.calls": row("intervals.members")["calls"],
        "intervals.self_ms": layer_totals(summary, "intervals", "self_ns") / 1e6,
        "formulas.parse.calls": row("formulas.parse")["calls"],
        "formulas.parse.self_ms": row("formulas.parse")["self_ns"] / 1e6,
        "formulas.check_valid.calls": row("formulas.check_valid")["calls"],
        "formulas.assignments": assignments,
        "formulas.us_per_assignment": ratio(
            row("formulas.check_valid")["total_ns"], assignments, 1e3),
        "formulas.self_ms": layer_totals(summary, "formulas", "self_ns") / 1e6,
        "oracle.oracle_neg.calls": row("oracle.oracle_neg")["calls"],
        "oracle.oracle_imp.calls": row("oracle.oracle_imp")["calls"],
        "oracle.self_ms": layer_totals(summary, "oracle", "self_ns") / 1e6,
    }
    for law in LAW_NAMES:
        values[f"oracle.{law}.cases"] = law_cases.get(law, 0)
    for fn in ("verify_lattice_laws", "verify_projective", "verify_heyting"):
        values[f"oracle.{fn}.ms"] = row(f"oracle.{fn}")["total_ns"] / 1e6
    for key in ("python_floor_ms", "import_ms", "build_parser_ms", "main_ms"):
        values[f"cli.{key}"] = cli_ms.get(key, 0.0)
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.span_cost_ns"] = span_ns
    return values


def captured_work(tracer: Tracer, variables_of):
    """Assignments searched by the captured check_valid calls, counted
    as the benchmark counts them, and the cases of the captured
    verify_* reports, by law name.

    ``variables_of(formula)`` must not call traced code.
    """
    assignments = 0
    for (q, formula, *_), found in tracer.captured.get("formulas.check_valid", ()):
        values = ref.members(q.bottom, q.top)
        if found is None:
            assignments += len(values) ** len(variables_of(formula))
        else:
            assignments += ref.assignment_index(found.assignment, values) + 1
    law_cases: Counter = Counter()
    for name in CAPTURED[1:]:
        for _, result in tracer.captured.get(name, ()):
            for report in result if isinstance(result, list) else [result]:
                law_cases[report.law_name] += report.cases_checked
    return assignments, law_cases
