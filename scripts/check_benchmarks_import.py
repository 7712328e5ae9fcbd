"""CI gate: every benchmark script must at least import.

Benchmarks are not collected by the tier-1 suite (``bench_*.py`` naming), so
a refactor can silently break them.  This script imports each module under
``benchmarks/`` (which executes its module level: imports, constants,
fixture definitions — not the timed bodies) and fails loudly on the first
error.  Run from the repository root; also exercised as a tier-1 test by
``tests/test_benchmarks_import.py``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Benchmarks that must exist — a rename or deletion of one of these is a
#: coverage regression the glob alone would silently absorb.
REQUIRED = frozenset(
    {
        "benchmarks.bench_accounting",
        "benchmarks.bench_chaos",
        "benchmarks.bench_engine_throughput",
        "benchmarks.bench_inference",
        "benchmarks.bench_parallel_calibration",
        "benchmarks.bench_service",
        "benchmarks.bench_streaming",
        "benchmarks.bench_structured",
        "benchmarks.bench_temporal",
        "benchmarks.bench_wasserstein",
    }
)


#: Modules that must import with **numpy blocked** — the stdlib-only
#: tooling floor.  These run in a bare CI container before dependencies
#: install (``python -m repro lint``, fault-injection arming), so a
#: stray numpy import at any of their module levels is a regression.
STDLIB_ONLY = frozenset(
    {
        "repro",
        "repro.exceptions",
        "repro.faults",
        "repro.faults.points",
        "repro.staticcheck",
        "repro.staticcheck.cli",
        "repro.staticcheck.rules",
        "repro.__main__",
    }
)


def benchmark_modules() -> list[str]:
    """Dotted module names for every ``benchmarks/*.py`` file."""
    return sorted(
        f"benchmarks.{path.stem}"
        for path in (ROOT / "benchmarks").glob("*.py")
        if path.stem != "__init__"
    )


def check_stdlib_only_imports() -> int:
    """Import every :data:`STDLIB_ONLY` module in a numpy-less subprocess.

    Blocking is simulated by pre-seeding ``sys.modules['numpy'] = None``
    (the stdlib convention: importing a ``None`` entry raises
    ``ImportError``), which behaves exactly like the module being absent.
    """
    import os
    import subprocess

    probe = (
        "import sys; sys.modules['numpy'] = None; import importlib; "
        f"[importlib.import_module(m) for m in {sorted(STDLIB_ONLY)!r}]; "
        "print('stdlib-only floor imports cleanly without numpy')"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        print("FAIL: stdlib-only floor pulled in numpy (or failed to import)")
    return result.returncode


def main() -> int:
    # The repo root (for the ``benchmarks`` namespace package) and ``src``
    # (for ``repro``) must both be importable, however the script is invoked.
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    if check_stdlib_only_imports() != 0:
        return 1
    missing = REQUIRED - set(benchmark_modules())
    if missing:
        print(f"required benchmark module(s) missing from benchmarks/: {sorted(missing)}")
        return 1
    failures = []
    for name in benchmark_modules():
        try:
            importlib.import_module(name)
            print(f"ok: {name}")
        except Exception as error:  # noqa: BLE001 - report every breakage
            failures.append((name, error))
            print(f"FAIL: {name}: {error!r}")
    if failures:
        print(f"{len(failures)} benchmark module(s) failed to import")
        return 1
    print(f"all {len(benchmark_modules())} benchmark modules import cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
