"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload service-mixed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` spends half of ``--seconds`` untraced and half traced and
reports the per-layer metrics, with the tracing overhead as the difference.
Every line but the last is a JSON run record (host, versions, seed,
workload-specific metrics with units, span table).  The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when every correctness check passed.

The program is imported from ``src/`` next to this directory; scratch files
go to a fresh directory under ``.perfbench_tmp/`` that is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sqlite3
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads
import yardstick

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have passed.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
# Percentile levels a tail may be reported at, highest first.
TAIL_LEVELS = (99.0, 95.0, 90.0, 80.0, 75.0, 66.0, 50.0)
# Run-record names of the operation kinds whose name differs.
OP_METRICS = {
    "keyed": "keyed_single",
    "cold_grid": "calibrate_grid",
    "cold_hub": "calibrate_hub",
    "cold_blocks": "calibrate_blocks",
}


def tail(values: list, ceiling: float) -> tuple:
    """(percentile, value): the highest level up to ``ceiling`` with at least
    ten samples beyond it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    for level in TAIL_LEVELS:
        if level <= ceiling and n * (100.0 - level) / 100.0 >= 10:
            rank = min(n - 1, max(0, int(round(level / 100.0 * n)) - 1))
            return level, ordered[rank]
    return 50.0, statistics.median(ordered) if ordered else 0.0


def end_to_end(workload, phase, setup_times: list) -> dict:
    """The end-to-end metrics of BENCHMARK.json."""
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (phase.rate(), "1/s"),
        "op_p50_ms": (phase.typical(workload.dominant), "ms"),
        "heavy_p50_ms": (workload.heavy_ms(phase), "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_record_metrics(workload, phase, checks, attempted: int) -> dict:
    """The workload-specific view, per operation kind and in the workload's
    own terms: ``[value, unit]`` or ``[value, unit, note]``; times are
    scaled to the reference host speed unless named ``raw``."""
    metrics = {"ops_per_s": [phase.rate(), "1/s"]}
    for kind in phase.kinds():
        samples = phase.samples(kind)
        name = OP_METRICS.get(kind, kind)
        metrics[f"{name}_p50_ms"] = [statistics.median(samples), "ms"]
        level, value = tail(samples, 99.0)
        metrics[f"{name}_tail_ms"] = [value, "ms", f"p{level:g} of n={len(samples)}"]
    level, value = tail(phase.samples(workload.dominant), workload.tail_level)
    metrics["op_tail_ms"] = [value, "ms", f"p{level:g} of n={len(phase.samples(workload.dominant))}"]
    if phase.samples("cold_blocks"):
        metrics["calibrate_cold_s"] = [workload.heavy_ms(phase) / 1e3, "s"]
    if phase.samples("recalibrate"):
        metrics["recalibrate_s"] = [statistics.median(phase.samples("recalibrate")) / 1e3, "s"]
    for name, value in workload.run_record(phase).items():
        metrics[name] = value
    metrics["op_p50_raw_ms"] = [statistics.median(phase.samples(workload.dominant, raw=True)), "ms"]
    metrics["error_rate"] = [checks.failed / attempted, "failed/attempted"]
    return metrics


def per_layer(workload, untraced, traced, spans) -> dict:
    """The per-layer metrics of BENCHMARK.json from the traced half; the
    tracing overhead compares it with the untraced half."""
    metrics = tracer.layer_metrics(spans, traced.releases)
    metrics.update(workload.layer_extras())
    for family in ("grid", "hub", "blocks"):
        samples = untraced.samples("cold_" + family)
        metrics[f"calibrate.{family}_s"] = statistics.median(samples) / 1e3 if samples else 0.0
    base = untraced.typical(workload.dominant)
    over = traced.typical(workload.dominant) - base
    metrics["trace.overhead_ms"] = over
    metrics["trace.overhead_pct"] = 100.0 * over / base
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in spec}


def run(args, workload) -> tuple:
    """Set up, measure and check one workload; returns the run record, the
    result metrics, and the attempted and failed counts."""
    import numpy

    checks = workloads.Checks()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
    }
    try:
        with yardstick.Sampler() as sampler:
            setup = workloads.Phase(sampler)
            started = time.perf_counter()
            while setup.n_ops < SETUP_REPEATS or time.perf_counter() - started < SETUP_SECONDS:
                start = time.perf_counter()
                workload.setup()
                setup.add("setup", start)
            untraced = workloads.Phase(sampler)
            if args.trace:
                workload.measure(args.seconds / 2, tracer.NullTracer(), untraced, checks)
                spans = tracer.Tracer()
                traced = workloads.Phase(sampler)
                spans.install()
                try:
                    workload.measure(args.seconds / 2, spans, traced, checks)
                finally:
                    spans.uninstall()
            else:
                workload.measure(args.seconds, tracer.NullTracer(), untraced, checks)
        workload.check(checks)
        setup_times = [ms / 1e3 for ms in setup.samples("setup")]
        if args.trace:
            metrics = per_layer(workload, untraced, traced, spans)
            record["absent_spans"] = spans.absent
            record["spans"] = tracer.span_table(tracer.summarize(spans))
        else:
            metrics = end_to_end(workload, untraced, setup_times)
        attempted = untraced.n_ops + checks.attempted + (traced.n_ops if args.trace else 0)
        record["metrics"] = run_record_metrics(workload, untraced, checks, attempted)
        record["metrics"]["yardstick_ms"] = [statistics.median(sampler.kernel_ms), "ms"]
        record["metrics"]["yardstick_samples"] = [len(sampler.kernel_ms), "count"]
        record["setup_s"] = setup_times
        record["setup_raw_s"] = [ms / 1e3 for ms in setup.samples("setup", raw=True)]
        record["failures"] = checks.messages
    finally:
        workload.close()
    return record, metrics, attempted, checks.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("service-mixed", "engine-warm", "calibrate-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if workload.one_cpu:
            # Before the program starts threads, which inherit it.
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        record, metrics, attempted, failed = run(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
