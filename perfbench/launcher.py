"""Run one ``divlog`` CLI call under the benchmark tracer.

Usage: python launcher.py SUMMARY_PATH ARG...

Imports ``divlog.cli`` (timing the import), installs the tracer's
wrappers, calls ``divlog.cli.main(ARG...)`` and exits with its status.
On the way out it writes a JSON summary to SUMMARY_PATH (import time,
per-span-name totals, counts, searched assignments, law cases) and its
spans next to it, as SUMMARY_PATH with the suffix ``.spans``.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import json  # noqa: E402

import tracing  # noqa: E402


def run(summary_path: Path, argv: list[str]) -> int:
    t0 = time.perf_counter_ns()
    import divlog.cli
    import_ns = time.perf_counter_ns() - t0

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    status = 2
    try:
        status = divlog.cli.main(argv)
    finally:
        restore()
        sys.stdout.flush()
        assignments, law_cases = tracing.captured_work(tracer, divlog.variables)
        summary = {"import_ns": import_ns, "status": status, "spans": tracer.summary(),
                   "counts": dict(tracer.counts), "assignments": assignments,
                   "law_cases": dict(law_cases)}
        summary_path.write_text(json.dumps(summary))
        tracer.dump(summary_path.with_suffix(".spans"))
    return status


if __name__ == "__main__":
    sys.exit(run(Path(sys.argv[1]), sys.argv[2:]))
