#!/usr/bin/env python
"""One-command repository health gate: docs, imports, invariant lint.

Folds the standalone checkers into a single runner so CI lanes (and
humans) need exactly one invocation::

    python scripts/check_all.py            # everything
    python scripts/check_all.py --bare     # stdlib-only subset (no numpy)

Checks, in order:

1. **doc-links** — every path referenced by README.md / docs resolves
   (:mod:`check_doc_links`).
2. **import-safety** — the stdlib-only floor imports with numpy blocked
   (:func:`check_benchmarks_import.check_stdlib_only_imports`).
3. **lint** — ``python -m repro lint --strict`` over the repo
   (:mod:`repro.staticcheck`).
4. **benchmarks-import** — every ``benchmarks/*.py`` imports (needs
   numpy; skipped under ``--bare``).
5. **calibration-golden** — every Algorithm 2 calibration pinned in
   ``tests/data/calibration_golden.json`` reproduces bit for bit
   (:mod:`calibration_golden`; needs numpy; skipped under ``--bare``).

``--bare`` runs only what a dependency-less container can: doc-links,
import-safety, and the lint (all pure stdlib).  Exit status is non-zero
if any selected check fails; every check runs even after a failure so
one pass reports everything.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ensure_paths() -> None:
    for entry in (str(ROOT / "scripts"), str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def check_doc_links() -> int:
    import check_doc_links as docs

    missing = docs.missing_references()
    if missing:
        for document, reference in missing:
            print(f"FAIL: {document}: broken reference '{reference}'")
        return 1
    print(f"doc-links: all references in {', '.join(docs.DOCUMENTS)} resolve")
    return 0


def check_import_safety() -> int:
    import check_benchmarks_import as bench

    return bench.check_stdlib_only_imports()


def check_lint() -> int:
    from repro.staticcheck.cli import main as lint_main

    return lint_main([str(ROOT), "--strict"])


def check_benchmarks() -> int:
    import check_benchmarks_import as bench

    missing = bench.REQUIRED - set(bench.benchmark_modules())
    if missing:
        print(f"FAIL: required benchmark module(s) missing: {sorted(missing)}")
        return 1
    import importlib

    failures = 0
    for name in bench.benchmark_modules():
        try:
            importlib.import_module(name)
        except Exception as error:  # noqa: BLE001 - report every breakage
            failures += 1
            print(f"FAIL: {name}: {error!r}")
    if failures:
        return 1
    print(
        f"benchmarks-import: all {len(bench.benchmark_modules())} "
        "benchmark modules import cleanly"
    )
    return 0


def check_calibration_golden() -> int:
    import calibration_golden

    return calibration_golden.check()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bare",
        action="store_true",
        help="run only the stdlib-only checks (no numpy required)",
    )
    args = parser.parse_args(argv)
    _ensure_paths()

    checks = [
        ("doc-links", check_doc_links),
        ("import-safety", check_import_safety),
        ("lint", check_lint),
    ]
    if not args.bare:
        checks.append(("benchmarks-import", check_benchmarks))
        checks.append(("calibration-golden", check_calibration_golden))

    failed = []
    for name, runner in checks:
        print(f"== {name} ==")
        try:
            status = runner()
        except Exception as error:  # noqa: BLE001 - a crash is a failure too
            print(f"FAIL: {name} crashed: {error!r}")
            status = 1
        if status != 0:
            failed.append(name)
        print()
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
