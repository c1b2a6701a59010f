"""The benchmark's workloads: inputs from a seed, one operation at a time,
and a check of every output against ``reference``.

Every workload has the same shape.  ``setup`` imports divlog, builds the
inputs and warms up.  ``run(i)`` performs operation ``i`` through
divlog's public API (or the ``divlog`` command) and returns what it
returned.  ``check(i, outcome)`` judges one outcome and says how much
work it stood for: law cases, searched assignments or CLI calls.
``batch`` is how many consecutive operations the timed loop runs
between two looks at the clock, and ``calibrate()`` times one run of a
fixed piece of divlog-free work, done every ``cal_every`` operations of
a batch: the timed loop states every batch's times at the speed at which
that work takes ``CAL_REF_S`` (see ``run.timed_run``).  ``trace_ops`` is
the fixed list of operations the traced run performs, ``traced_pass``
performs them under the tracer, and ``layer_inputs`` gathers what the
per-layer metrics are computed from.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import reference as ref
import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
TMP_DIR = ROOT / ".bench_tmp"

OK, EXPECTED, FAILED = "ok", "expected_error", "failed"

KNOWN_VALID = ("(p -> q) | (q -> p)", "(p & (p -> q)) -> q", "~p | ~~p")
# valid exactly in the Boolean intervals
NON_BOOLEAN_INVALID = ("p | ~p", "((p -> q) -> p) -> p", "~~p -> p")
SEARCH_CAP = 1_000_000  # divlog's default DEFAULT_SEARCH_CAP


# calibration_slice's time at the reference speed: roughly its time on
# the machine the baseline was taken on, when that is not busy
SLICE_REF_S = 0.0007


def calibration_slice() -> float:
    """Seconds that a fixed piece of pure-Python work, dicts, tuples and
    ``math.gcd`` and nothing of divlog, takes now."""
    t0 = time.perf_counter()
    acc = {}
    total = 0
    for k in range(2000):
        acc[k % 61] = (k, math.gcd(k, 360))
        total += acc[k % 61][1]
    return time.perf_counter() - t0


def attempt(fn, i):
    """('ok', result), ('error', name, message) for a DivlogError, or
    ('crash', traceback) for anything else: one operation never stops
    the run."""
    from divlog import DivlogError
    try:
        return ("ok", fn(i))
    except DivlogError as err:
        return ("error", err.name, str(err))
    except Exception:
        return ("crash", traceback.format_exc(limit=4))


class Workload:
    """What the three workloads share; each names its operation and its
    unit of work (``op_unit``, ``work_unit``) for the readable report."""

    name = ""
    op_unit = work_unit = ""
    batch = 1
    cal_every = 1
    CAL_REF_S = SLICE_REF_S
    ops: list

    def calibrate(self) -> float:
        return calibration_slice()

    def run(self, i):
        raise NotImplementedError

    def trace_ops(self) -> list[int]:
        return list(range(len(self.ops)))

    def peak_rss_kb(self, outcomes) -> int:
        """Peak RSS of the process that did the work; ``outcomes`` are
        the distinct outcomes of the timed operations."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def traced_pass(self, ops, tracer, run_dir: Path):
        """Perform ``ops`` with the tracer's wrappers installed."""
        restore = tracing.install(tracer)
        try:
            outcomes = []
            for i in ops:
                with tracer.span(f"bench.{self.name}"):
                    outcomes.append((i, attempt(self.run, i)))
            return outcomes
        finally:
            restore()

    def layer_inputs(self, tracer):
        """(span summary, counts, assignments, law cases, cli medians)."""
        from divlog import variables
        assignments, cases = tracing.captured_work(tracer, variables)
        return tracer.summary(), dict(tracer.counts), assignments, cases, {}


def law_cases(kind: str, n: int) -> dict[str, int]:
    """Cases each report of one verify call must count, computed here."""
    if kind == "laws":
        return {"idempotency": n, "commutativity": n * n,
                "associativity": n**3, "mutual_distributivity": 2 * n**3}
    if kind == "projective":
        return {"projective_identity": n * sum(len(ref.members(1, x)) for x in range(1, n + 1))}
    sizes = []
    indep = 0
    for top in range(1, n + 1):
        for bottom in ref.members(1, top):
            size = len(ref.members(bottom, top))
            if size <= 512:
                sizes.append(size)
                indep += size * size * (len(ref.members(1, bottom)) - 1)
    return {
        "neg_formula_vs_oracle": sum(sizes),
        "imp_formula_vs_oracle": sum(s * s for s in sizes),
        "residuation_adjunction": sum(s**3 for s in sizes),
        "boolean_equivalences": len(sizes),
        "imp_bottom_independence": indep,
    }


def random_formula(rng: random.Random, names, depth: int) -> str:
    """A complete tree of binary connectives ``depth`` deep over ``names``,
    each node negated with probability 1/5."""
    if depth == 0:
        text = rng.choice(names)
    else:
        op = rng.choice(("&", "|", "->", "->"))
        text = f"({random_formula(rng, names, depth - 1)} {op} {random_formula(rng, names, depth - 1)})"
    return "~" + text if rng.random() < 0.2 else text


def uses_all(text: str, names) -> bool:
    """Whether every one of ``names`` occurs in formula ``text``."""
    return ref.variables(ref.parse(text)) == sorted(names)


class OracleSweep(Workload):
    """The ``divlog verify`` family on fixed domains.

    The laws sweep is almost all ``meet``/``join``; the heyting sweep is
    the oracle scanning interval members.  At these sizes each takes a
    comparable share of a cycle.  The domains are fixed, so the seed is
    recorded but changes nothing.
    """

    name = "oracle-sweep"
    op_unit, work_unit = "verify_calls", "cases"
    # heyting runs twice per cycle: the cycle's four calls then put the
    # median latency inside the heyting calls and p90 inside the laws
    # call, never on the boundary between two kinds of call
    CYCLE = (("laws", 32), ("heyting", 48), ("projective", 60), ("heyting", 48))
    WARMUP = (("laws", 6), ("projective", 6), ("heyting", 6))
    # cases_checked of each report for CYCLE's parameters; the tests
    # recompute them with ``law_cases``
    PINNED = {
        ("laws", 32): {"idempotency": 32, "commutativity": 1024,
                       "associativity": 32768, "mutual_distributivity": 65536},
        ("projective", 60): {"projective_identity": 15660},
        ("heyting", 48): {"neg_formula_vs_oracle": 540, "imp_formula_vs_oracle": 2090,
                          "residuation_adjunction": 10686, "boolean_equivalences": 198,
                          "imp_bottom_independence": 1712},
    }

    def __init__(self, seed: int, cycle=CYCLE):
        self.seed = seed
        self.ops = list(cycle)
        self.batch = len(self.ops)

    def setup(self):
        import divlog
        self.divlog = divlog
        for kind, n in self.WARMUP:
            self._verify(kind, n)

    def _verify(self, kind, n):
        if kind == "laws":
            return self.divlog.verify_lattice_laws(n)
        if kind == "projective":
            return [self.divlog.verify_projective(n)]
        return self.divlog.verify_heyting(n)

    def run(self, i):
        return self._verify(*self.ops[i])

    def check(self, i, outcome):
        if outcome[0] != "ok":
            return FAILED, 0, f"{self.ops[i]}: {outcome}"
        key = self.ops[i]
        expected = self.PINNED.get(key) or law_cases(*key)
        got = {r.law_name: r.cases_checked for r in outcome[1]}
        if got != expected:
            return FAILED, 0, f"{key}: cases {got} != {expected}"
        bad = [r.law_name for r in outcome[1] if not r.passed or r.skipped]
        if bad:
            return FAILED, 0, f"{key}: reports not passed {bad}"
        return OK, sum(got.values()), ""


class TautMix(Workload):
    """Seeded ``check_valid`` calls, many per interval.

    Interval shapes (the exponent gap per prime) are fixed, so every
    seed sees the same algebras; the seed picks the primes, the base
    exponents, the random formulas and the order.  Each interval gets
    the known-valid formulas (full searches), the formulas that are
    invalid unless the interval is Boolean (early exits in the others),
    random formulas over 1-3 variables (mostly early exits) and random
    instances of valid schemas (full searches).  The variables of a
    random formula are limited so that its full search stays within
    SEARCH_BUDGET assignments, and every one of them occurs in it, so
    that a search's length, and with it the batch's cost, does not hang
    on which variables the seed happened to draw.  A few requests
    exceed the search cap and must raise SearchLimit.
    """

    name = "taut-mix"
    op_unit, work_unit = "verdicts", "assignments"
    SHAPES = ((1, 1), (1, 1, 1), (2,), (3,), (2, 1), (1, 1, 1, 1),
              (2, 2), (3, 1), (4,), (2, 1, 1), (5,), (3, 2))
    OVER_CAP_SHAPE = (4, 4, 4)  # 125 members: 125**3 assignments > SEARCH_CAP
    OVER_CAP_FORMULA = "((p -> q) | (q -> r)) | (r -> p)"
    OVER_CAP_OPS = 4
    PER_SHAPE = 6
    RANDOM_PER_INTERVAL = 5
    # valid in every Heyting algebra whose subdirect factors are chains,
    # whatever formulas replace a and b
    SCHEMAS = ("{a} -> ({b} -> {a})", "({a} & {b}) -> {a}", "{a} -> ({a} | {b})",
               "({a} -> {b}) | ({b} -> {a})", "~~({a} | ~{a})", "(({a} -> {b}) & {a}) -> {b}")
    SEARCH_BUDGET = 1000
    # random formulas are rarely valid, but a valid one is a full search:
    # fewer variables keep that rare case from swinging a batch's work
    RANDOM_BUDGET = 64
    SAMPLES_PER_VERDICT = 8
    # a slice every 50 verdicts costs about 1% of the timed loop
    cal_every = 50
    PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    TOP_LIMIT = 10**12

    def __init__(self, seed: int, shapes=SHAPES, random_per_interval=RANDOM_PER_INTERVAL,
                 over_cap_ops=OVER_CAP_OPS):
        self.seed = seed
        rng = random.Random(seed)
        self.bounds = [self._bounds(rng, s) for s in shapes for _ in range(self.PER_SHAPE)]
        self.bounds.append(self._bounds(rng, self.OVER_CAP_SHAPE))
        over = len(self.bounds) - 1
        ops = []  # (interval index, formula text, "valid" | "boolean" | None)
        for j, (bottom, top) in enumerate(self.bounds[:over]):
            size = len(ref.members(bottom, top))
            ops += [(j, text, "valid") for text in KNOWN_VALID]
            ops += [(j, text, "boolean") for text in NON_BOOLEAN_INVALID]
            allowed = [k for k in (1, 2, 3) if size**k <= self.SEARCH_BUDGET]
            cheap = [k for k in allowed if size**k <= self.RANDOM_BUDGET]
            for r in range(random_per_interval):
                names = ("p", "q", "r")[: cheap[r % len(cheap)]]
                text = random_formula(rng, names, 2)
                while not uses_all(text, names):
                    text = random_formula(rng, names, 2)
                ops.append((j, text, None))
                names = ("p", "q", "r")[: allowed[r % len(allowed)]]
                while True:
                    schema = rng.choice(self.SCHEMAS)
                    a, b = (random_formula(rng, names, 1) for _ in "ab")
                    text = schema.format(a=a, b=b)
                    if uses_all(text, names):
                        break
                ops.append((j, text, "valid"))
        ops += [(over, self.OVER_CAP_FORMULA, None)] * over_cap_ops
        rng.shuffle(ops)
        self.ops = ops
        self.batch = len(ops)

    def _bounds(self, rng, shape):
        while True:
            primes = rng.sample(self.PRIMES, len(shape) + 1)
            bottom = top = 1
            for p, gap in zip(primes, shape):
                base = rng.randrange(3)
                bottom *= p**base
                top *= p ** (base + gap)
            if rng.random() < 0.5:  # a prime with no gap, present in both bounds
                frozen = primes[-1] ** rng.randint(1, 2)
                bottom *= frozen
                top *= frozen
            if top < self.TOP_LIMIT:
                return bottom, top

    def setup(self):
        import divlog
        self.divlog = divlog
        self.intervals = [divlog.Interval(b, t) for b, t in self.bounds]
        for q in self.intervals[:-1]:
            divlog.check_valid(q, divlog.parse("~p | ~~p"))

    def run(self, i):
        j, text, _ = self.ops[i]
        return self.divlog.check_valid(self.intervals[j], self.divlog.parse(text))

    def _evaluator(self, j, node):
        from divlog import oracle_imp, oracle_neg
        q = self.intervals[j]
        bottom, top = self.bounds[j]
        return lambda env: ref.evaluate(
            node, bottom, top, env,
            neg_fn=lambda a: oracle_neg(q, a), imp_fn=lambda a, b: oracle_imp(q, a, b))

    def check(self, i, outcome):
        j, text, expect = self.ops[i]
        bottom, top = self.bounds[j]
        values = ref.members(bottom, top)
        node = ref.parse(text)
        names = ref.variables(node)
        total = len(values) ** len(names)
        where = f"{text!r} in [{bottom}, {top}]"
        if outcome[0] == "error" and outcome[1] == "SearchLimit" and total > SEARCH_CAP:
            return EXPECTED, 0, ""
        if outcome[0] != "ok" or total > SEARCH_CAP:
            return FAILED, 0, f"{where}: {outcome}"
        found = outcome[1]
        expect_valid = {"valid": True, "boolean": ref.is_boolean(bottom, top)}.get(expect)
        value_at = self._evaluator(j, node)
        rng = random.Random(f"{self.seed}:{i}")
        if found is None:
            if expect_valid is False:
                return FAILED, 0, f"{where}: valid, expected a counterexample"
            probes = {0, total - 1, *(rng.randrange(total) for _ in range(self.SAMPLES_PER_VERDICT))}
            for k in sorted(probes):
                env = ref.assignment_at(k, names, values)
                if value_at(env) != top:
                    return FAILED, 0, f"{where}: valid, but {env} gives {value_at(env)}"
            return OK, total, ""
        if expect_valid is True:
            return FAILED, 0, f"{where}: counterexample {found}, expected valid"
        if [n for n, _ in found.assignment] != names or any(v not in values for _, v in found.assignment):
            return FAILED, 0, f"{where}: malformed counterexample {found}"
        index = ref.assignment_index(found.assignment, values)
        got = value_at(dict(found.assignment))
        if got != found.value or got == top:
            return FAILED, 0, f"{where}: counterexample {found} evaluates to {got}"
        for k in {rng.randrange(index) for _ in range(self.SAMPLES_PER_VERDICT) if index}:
            if value_at(ref.assignment_at(k, names, values)) != top:
                return FAILED, 0, f"{where}: assignment {k} precedes counterexample {found}"
        return OK, index + 1, ""


class CallResult(NamedTuple):
    """What one child process left behind."""

    status: int
    out: str
    err: str
    maxrss_kb: int


class CliCold(Workload):
    """A closed loop of one client running ``python -m divlog.cli`` calls.

    The stream is made of blocks of one heavy call and three light ones.
    Heavy calls take operands whose trial division grows the sieve past
    10**6 (a prime near 10**12, a product of two primes near 10**6);
    light calls rotate through the other subcommands, two of which are
    expected domain errors.  Each call is a fresh interpreter, so it
    pays start-up, import, parser building and a cold sieve, as users do.
    """

    name = "cli-cold"
    op_unit = work_unit = "calls"
    BLOCKS = 100
    # the first ten blocks hold three verify calls: laws, projective, heyting
    TRACE_BLOCKS = 10
    HEAVY = ("factor_prime", "factor_semiprime", "neg_prime", "list_semiprime")
    LIGHT = ("factor", "gcd", "neg", "imp", "eval", "taut", "list", "verify",
             "not_member", "invalid_interval")
    VERIFY = (("laws", "--max", 5), ("projective", "--max", 8), ("heyting", "--top-max", 8))
    FLOOR_SAMPLES = 11
    # the calibration is a ``python -c pass`` child, one per block: the
    # same start-up every call pays, about a tenth of a block's time;
    # CAL_REF_S is its time at the reference speed
    batch = 28
    cal_every = 4
    CAL_REF_S = 0.07

    def __init__(self, seed: int, blocks: int = BLOCKS):
        self.seed = seed
        rng = random.Random(seed)
        primes12 = [ref.next_prime(10**12 + rng.randrange(10**7)) for _ in range(2)]
        semiprimes = []
        for _ in range(2):
            p = ref.next_prime(rng.randrange(900_000, 990_000))
            semiprimes.append(p * ref.next_prime(p + 1 + rng.randrange(5000)))
        self.calls = []  # (kind, as_json, params)
        for b in range(blocks):
            heavy = self.HEAVY[b % len(self.HEAVY)]
            big = (primes12 if heavy in ("factor_prime", "neg_prime") else semiprimes)[rng.randrange(2)]
            self.calls.append((heavy, rng.random() < 0.5, self._heavy_params(rng, heavy, big)))
            for k in range(3):
                kind = self.LIGHT[(3 * b + k) % len(self.LIGHT)]
                self.calls.append((kind, rng.random() < 0.5, self._light_params(rng, kind)))
        self.ops = [self._argv(c) for c in self.calls]
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("DIVLOG_") and k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = str(SRC)
        self.children: list[dict] = []

    @staticmethod
    def _heavy_params(rng, kind, big):
        if kind == "neg_prime":
            return (1, big, rng.choice((1, big)))
        if kind == "list_semiprime":
            return (1, big)
        return (big,)

    def _light_params(self, rng, kind):
        if kind == "factor":
            return (rng.randrange(2, 10**6),)
        if kind == "gcd":
            g = rng.randrange(1, 10**4)
            return (g * rng.randrange(1, 10**5), g * rng.randrange(1, 10**5))
        if kind == "verify":
            done = sum(call[0] == "verify" for call in self.calls)
            return self.VERIFY[done % len(self.VERIFY)]
        bottom, top = self._small_interval(rng, 8 if kind == "taut" else 48)
        values = ref.members(bottom, top)
        if kind == "neg":
            return (bottom, top, rng.choice(values))
        if kind == "imp":
            return (bottom, top, rng.choice(values), rng.choice(values))
        if kind == "list":
            return (bottom, top)
        if kind == "not_member":
            return (bottom, top, top * rng.choice((2, 3, 5, 7)))
        if kind == "invalid_interval":
            return (top * 2, top, 1)
        names = ("p", "q")[: rng.randint(1, 2)]
        if kind == "taut":
            pool = KNOWN_VALID + NON_BOOLEAN_INVALID
            text = rng.choice(pool) if rng.random() < 0.5 else random_formula(rng, names, 3)
            return (bottom, top, text)
        text = random_formula(rng, names, 3)
        return (bottom, top, text, tuple((n, rng.choice(values)) for n in names))

    @staticmethod
    def _small_interval(rng, max_size):
        while True:
            bottom = top = 1
            for p in rng.sample((2, 3, 5, 7, 11, 13), rng.randint(1, 3)):
                e = rng.randint(1, 3)
                base = rng.randint(0, e)
                bottom *= p**base
                top *= p**e
            if len(ref.members(bottom, top)) <= max_size:
                return bottom, top

    @staticmethod
    def _argv(call):
        kind, as_json, params = call
        head = ["--json"] if as_json else []
        if kind in ("factor", "factor_prime", "factor_semiprime"):
            return head + ["factor", str(params[0])]
        if kind == "gcd":
            return head + ["gcd", *map(str, params)]
        if kind == "verify":
            sweep, flag, n = params
            return head + ["verify", sweep, flag, str(n)]
        bounds = ["--bottom", str(params[0]), "--top", str(params[1])]
        if kind in ("list", "list_semiprime"):
            return head + ["interval", *bounds, "list"]
        if kind in ("neg", "neg_prime", "not_member", "invalid_interval"):
            return head + ["neg", *bounds, str(params[2])]
        if kind == "imp":
            return head + ["imp", *bounds, str(params[2]), str(params[3])]
        if kind == "taut":
            return head + ["taut", *bounds, params[2]]
        lets = [f"--let={n}={v}" for n, v in params[3]]
        return head + ["eval", *bounds, params[2], *lets]

    def _spawn(self, cmd) -> CallResult:
        TMP_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryFile(dir=TMP_DIR) as out, tempfile.TemporaryFile(dir=TMP_DIR) as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return CallResult(proc.returncode, out.read().decode(), err.read().decode(),
                              usage.ru_maxrss)

    def setup(self):
        self._spawn([sys.executable, "-m", "divlog.cli", "gcd", "12", "18"])

    def calibrate(self) -> float:
        t0 = time.perf_counter()
        self._spawn([sys.executable, "-c", "pass"])
        return time.perf_counter() - t0

    def run(self, i):
        return self._spawn([sys.executable, "-m", "divlog.cli", *self.ops[i]])

    def trace_ops(self):
        return list(range(4 * self.TRACE_BLOCKS))

    def peak_rss_kb(self, outcomes) -> int:
        """Peak RSS of the largest child."""
        return max(o[1].maxrss_kb for o in outcomes if o[0] == "ok")

    def traced_pass(self, ops, tracer, run_dir: Path):
        """Perform ``ops`` under the launcher, which traces each child."""
        outcomes = []
        for i in ops:
            summary_path = run_dir / f"call-{len(self.children)}.json"
            cmd = [sys.executable, str(LAUNCHER), str(summary_path), *self.ops[i]]
            with tracer.span(f"bench.{self.name}"):
                outcomes.append((i, attempt(lambda _: self._spawn(cmd), i)))
            self.children.append(json.loads(summary_path.read_text()))
        return outcomes

    def layer_inputs(self, tracer):
        """The children's spans and counts, summed, and the CLI medians."""
        summary, counts, assignments, cases, _ = super().layer_inputs(tracer)
        for child in self.children:
            for name, row in child["spans"].items():
                mine = summary.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
                for field in mine:
                    mine[field] += row[field]
            for name, n in child["counts"].items():
                counts[name] = counts.get(name, 0) + n
            assignments += child["assignments"]
            cases.update(child["law_cases"])

        def median_ms(values):
            return statistics.median(values) / 1e6

        cli_ms = {
            "python_floor_ms": self.python_floor_ms(),
            "import_ms": median_ms(c["import_ns"] for c in self.children),
            "build_parser_ms": median_ms(c["spans"].get("cli.build_parser", {}).get("total_ns", 0)
                                         for c in self.children),
            "main_ms": median_ms(c["spans"].get("cli.main", {}).get("total_ns", 0)
                                 for c in self.children),
        }
        return summary, counts, assignments, cases, cli_ms

    def python_floor_ms(self) -> float:
        """Median wall time of ``python -c pass`` children."""
        return statistics.median(self.calibrate() for _ in range(self.FLOOR_SAMPLES)) * 1e3

    # -- checking --------------------------------------------------------

    def check(self, i, outcome):
        kind, as_json, params = self.calls[i]
        where = " ".join(self.ops[i])
        if outcome[0] != "ok":
            return FAILED, 0, f"{where}: {outcome}"
        status, out, err, _ = outcome[1]
        try:
            reason = self._check_output(kind, as_json, params, status, out, err)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output ({exc!r}): {out!r} {err!r}"
        if reason:
            return FAILED, 0, f"{where}: {reason}"
        return (EXPECTED if kind in ("not_member", "invalid_interval") else OK), 1, ""

    def _check_output(self, kind, as_json, params, status, out, err):
        if kind in ("not_member", "invalid_interval"):
            name = "NotMember" if kind == "not_member" else "InvalidInterval"
            if status != 1:
                return f"exit status {status}, expected 1"
            if as_json:
                got = json.loads(out)["error"]["name"]
            else:
                m = re.match(r"error\[(\w+)\]", err)
                got = m and m.group(1)
            return None if got == name else f"error {got!r}, expected {name}"
        if status != 0:
            return f"exit status {status}: {err.strip()}"
        result = json.loads(out)["result"] if as_json else out
        if kind.startswith("factor"):
            n = params[0]
            if as_json:
                got = {int(p): e for p, e in result["factors"].items()}
            else:
                head, _, body = out.strip().partition(" = ")
                got = {}
                for term in body.split(" * "):
                    p, _, e = term.partition("^")
                    if p != "1":
                        got[int(p)] = int(e or 1)
            if math.prod(p**e for p, e in got.items()) != n:
                return f"factors {got} do not multiply to {n}"
            if not all(ref.is_prime(p) for p in got) or got != dict(ref.factor(n)):
                return f"factors {got} are not the prime factorization {ref.factor(n)}"
            return None
        if kind == "verify":
            sweep, _, n = params
            expected = law_cases(sweep, n)
            if as_json:
                doc = json.loads(out)
                got = {r["law_name"]: r["cases_checked"] for r in doc["report"]}
                passed = doc["result"]["passed"] and not any(r["counterexamples"] for r in doc["report"])
            else:
                lines = [re.match(r"(\w+): cases=(\d+) counterexamples=0 skipped=0 PASS$", s)
                         for s in out.splitlines()]
                passed = all(lines)
                got = {m.group(1): int(m.group(2)) for m in lines if m}
            return None if passed and got == expected else f"reports {got}, expected {expected}"
        if kind == "taut":
            bottom, top, text = params
            want = self._first_counterexample(bottom, top, text)
            if as_json:
                got = None if result["valid"] else (
                    tuple(result["counterexample"].items()), result["value"])
            elif out.strip() == "valid":
                got = None
            else:
                m = re.match(r"counterexample: (.*?) ?\(value (\d+)\)$", out.strip())
                pairs = tuple((n, int(v)) for n, v in (b.split("=") for b in m.group(1).split()))
                got = (pairs, int(m.group(2)))
            return None if got == want else f"got {got}, expected {want}"
        if kind in ("list", "list_semiprime"):
            got = result if as_json else [int(s) for s in out.split()]
            want = list(ref.members(params[0], params[1]))
            return None if got == want else f"members {got}, expected {want}"
        value = result if as_json else int(out.strip())
        if kind == "gcd":
            want = math.gcd(*params)
        elif kind in ("neg", "neg_prime"):
            want = ref.neg(*params)
        elif kind == "imp":
            want = ref.imp(*params)
        else:
            bottom, top, text, env = params
            want = ref.evaluate(ref.parse(text), bottom, top, dict(env))
        return None if value == want else f"value {value}, expected {want}"

    @staticmethod
    def _first_counterexample(bottom, top, text):
        node = ref.parse(text)
        names = ref.variables(node)
        values = ref.members(bottom, top)
        for k in range(len(values) ** len(names)):
            env = ref.assignment_at(k, names, values)
            value = ref.evaluate(node, bottom, top, env)
            if value != top:
                return tuple((n, env[n]) for n in names), value
        return None


WORKLOADS = {w.name: w for w in (OracleSweep, TautMix, CliCold)}
