#!/usr/bin/env python3
"""End-to-end benchmark of the equivalence checker.

Run from the repository root::

    python3 perfbench/run.py --workload compiled-dd --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``compiled-dd``  -- Table 1 "Compiled" block, 18 checks, ``combined``.
* ``optimized-dd`` -- Table 1 "Optimized" block, 18 checks, ``combined``.
* ``table1-zx``    -- both blocks under ``zx``, 36 checks.
* ``service-mix``  -- seeded fuzz pairs through ``repro serve``.

The in-process workloads time whole passes over their checks: at least
one, and another only while it should end within ``--seconds``; a
cell's latency is its median over the passes, so there is always one
latency per cell.  ``service-mix`` sends batches until ``--seconds``
have passed; its latency is one batch round trip.  With
``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the run repeats its measurement once more
with spans around every layer call and reports the per-layer metrics.

End-to-end timings other than ``setup_s`` are in reference seconds: raw
seconds divided by the run's slowdown on a fixed speed-reference loop
(``common.SpeedReference``, sampled between checks in-process and between
batches in ``service-mix``), because the same pass varies by 20-40%
between runs on a shared host.  Latency quantiles are Harrell-Davis
estimates; the tail is the highest quantile with ten samples above it,
capped at the 90th percentile in ``service-mix``.  Raw seconds, sample
counts and percentiles are in the report.

A wrong verdict, a traced verdict that differs from the untraced one,
spans covering less than 95% of a traced request, a verdict that the
cache answers differently, or a server process left after shutdown make
the run exit with code 1.  Per-check rows, run metadata (git SHA,
Python, nproc, seed) and spans are written to ``.perfbench/`` in the
repository root.  Without the checker sources (``src/repro``) the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
IN_PROCESS = ("compiled-dd", "optimized-dd", "table1-zx")
WORKLOADS = IN_PROCESS + ("service-mix",)

import common  # noqa: E402  (after HERE is known; standard library only)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: one instance per block, a few batches")
    return parser.parse_args(argv)


def _metrics(args, import_s: float, measurement, reference):
    """``(correct, attempted, failed, values, report)`` of one run."""
    rows = measurement.rows
    attempted = len(rows)
    wrong = sum(1 for r in rows if r["wrong"])
    failed = sum(1 for r in rows if r["failed"]) + measurement.problems
    factor = reference.factor
    p50, tail_value, samples = common.latency_metrics(measurement.latencies, factor,
                                                        measurement.tail_cap)
    setup_s = import_s + measurement.setup_s
    values = {
        "checks_per_s": attempted / measurement.wall * factor,
        "latency_p50_s": p50,
        "latency_tail_s": tail_value,
        "decided_share": sum(1 for r in rows if r["verdict"] in common.SOUND) / attempted,
        # Not divided by the speed factor: import and start-up times do not
        # follow the reference loop (compiled-dd, 10 runs on a 2-vCPU VM:
        # IQR/median 0.19 divided, 0.14 raw).
        "setup_s": setup_s,
        "peak_rss_mb": measurement.peak_rss_mb,
    }
    report = {
        "rows": rows,
        "samples": samples,
        "raw_checks_per_s": attempted / measurement.wall,
        "import_s": import_s,
        "speed_factor": factor,
        "speed_samples_s": reference.samples,
        **measurement.report,
    }
    correct = wrong == 0 and measurement.problems == 0
    if args.trace:
        traced = measurement.traced_rows
        coverage = min(measurement.coverages)
        layers = {name: 0.0 for name in common.PER_LAYER}
        layers.update(measurement.layers)
        layers["trace.overhead_s"] = measurement.traced_wall - measurement.repeated_wall
        layers["trace.span_coverage_min"] = coverage
        layers["trace.requests"] = len(measurement.coverages)
        attempted += len(traced)
        failed += sum(1 for r in traced if r["failed"])
        correct = (correct and not any(r["wrong"] for r in traced)
                   and measurement.mismatches == 0
                   and coverage >= common.MIN_SPAN_COVERAGE)
        report.update(traced_rows=traced, verdict_mismatches=measurement.mismatches,
                      coverages=measurement.coverages, layers=layers)
        values = layers
    return correct, attempted, failed, values, report


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no checker sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    def log(line: str) -> None:
        print(line, flush=True)

    reference = common.SpeedReference()
    import_start = time.perf_counter()
    if args.workload == "service-mix":
        import service_mix  # imports the client side of repro

        import_s = time.perf_counter() - import_start
        workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
        measurement = service_mix.run(ROOT, workdir, args.seed, args.seconds,
                                      bool(args.trace), args.tiny, reference, log)
    else:
        import table1  # imports the in-process checker

        import_s = time.perf_counter() - import_start
        measurement = table1.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.tiny, reference, log)
    correct, attempted, failed, values, report = _metrics(args, import_s, measurement,
                                                          reference)
    units = common.PER_LAYER if args.trace else common.END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report["meta"] = {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": bool(args.trace),
        "git_sha": common.git_sha(ROOT),
        "python": platform.python_version(),
        "nproc": common.nproc(),
        "unix_time": time.time(),
        "total_s": time.perf_counter() - _START,
    }
    report["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    log(f"report: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
