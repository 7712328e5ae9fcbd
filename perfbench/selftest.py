"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload on small inputs, untraced and traced, and checks that
each metric named in ``BENCHMARK.json`` is emitted exactly once with its
unit, that the correctness checks pass, that a missing layer function is
reported as an absent span, and that the runner refuses to produce a result
when the program source is missing.  Exits 0 when all hold.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def tiny(name: str, workdir: Path):
    if name == "service-mixed":
        return workloads.ServiceMixed(3, workdir, tenants=2, preserved=5, passes=1)
    if name == "engine-warm":
        return workloads.EngineWarm(3, workdir, network=("blocks", 3, 4))
    return workloads.CalibrateCold(
        3, workdir, grid=("grid", 3, 3), hub=("hub", 2, 3), blocks=("blocks", 3, 4), edits=4
    )


def check_metrics(label: str, metrics: dict, spec: list, problems: list) -> None:
    names = [m["name"] for m in spec]
    if sorted(metrics) != sorted(names):
        problems.append(f"{label}: metric names differ: {sorted(set(metrics) ^ set(names))}")
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{label}: {m['name']} has unit {got.get('unit')!r}, not {m['unit']!r}")
        if not isinstance(got.get("value"), float) or not math.isfinite(got["value"]):
            problems.append(f"{label}: {m['name']} value {got.get('value')!r} is not a finite float")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        for w in spec["workloads"]:
            for trace in (0, 1):
                args = argparse.Namespace(workload=w["name"], seed=3, seconds=0.2, trace=trace)
                workload = tiny(w["name"], workdir)
                record, metrics, attempted, failed = run.run(args, workload)
                label = f"{w['name']} trace={trace}"
                if failed or attempted < 1:
                    problems.append(f"{label}: {failed} of {attempted} failed: {record['failures']}")
                wanted = spec["per_layer"] if trace else spec["end_to_end"]
                check_metrics(label, metrics, wanted, problems)
                if not trace and any(m["value"] <= 0 for m in metrics.values()):
                    problems.append(f"{label}: an end-to-end metric is not positive")

        # A layer function that is gone is an absent span, not a crash.
        probe = tracer.Tracer()
        probe.points = tracer.LAYER_POINTS + (
            ("repro.service.ledger", "TenantLedger", "no_such_method", "ledger.gone", None),
            ("repro.no_such_module", None, "f", "gone", None),
        )
        probe.install()
        probe.uninstall()
        if len(probe.absent) != 2:
            problems.append(f"absent spans reported as {probe.absent}")

        # Without the program source the runner fails and prints no result.
        bare = workdir / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "engine-warm",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append("runner produced a result without the program source")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
