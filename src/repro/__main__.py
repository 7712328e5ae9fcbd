"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``experiments``
    Run one (or all) paper experiments at the full or fast profile.
``verify``
    Numerically verify the Pufferfish inequality for MQMExact on a small
    chain instantiation (a self-check of the installed build).  Calibration
    goes through the serving engine, so this also exercises the cache path.
``calibrate``
    Run the Table 2 synthetic calibration sweep serially and sharded across
    ``--workers`` processes (:class:`repro.parallel.ParallelCalibrator`),
    printing wall times, the speedup, and the bit-identity check as JSON.
``serve``
    Run the multi-tenant privacy service (:mod:`repro.service`) on a local
    HTTP port over a durable tenant-ledger store (``--store``: a SQLite
    database path, whatever its suffix; when omitted, a private SQLite
    ``:memory:`` database that dies with the process).  Several service
    processes may share one store — budgets hold across all of them.
``lint``
    Run the stdlib-only AST invariant linter (:mod:`repro.staticcheck`)
    over a tree: lock discipline, check-then-act atomicity, crash-
    exception safety, determinism, fault-point conformance, transaction
    discipline.  Pure stdlib — works before numpy installs.
``info``
    Print version and the experiment inventory.

The serving, streaming, accounting and temporal measurements are
benchmarks, not commands: see ``benchmarks/bench_<name>.py``.
"""

from __future__ import annotations

import argparse
import sys

EXPERIMENTS = (
    "fig4_synthetic",
    "fig4_activity",
    "table1_activity",
    "table2_runtime",
    "table3_power",
    "section3_flu",
    "section44_running_example",
    "general_networks",
    "structured_scenarios",
)


def _cmd_experiments(args: argparse.Namespace) -> int:
    import importlib

    from repro.experiments.config import FAST, FULL

    profile = FAST if args.profile == "fast" else FULL
    names = EXPERIMENTS if args.name == "all" else (args.name,)
    for name in names:
        module = importlib.import_module(f"repro.experiments.{name}")
        print(f"=== {name} ({profile.name} profile) ===")
        if name == "fig4_synthetic":
            module.main(profile.synthetic)
        elif name in ("fig4_activity", "table1_activity"):
            module.main(profile.activity)
        elif name == "table2_runtime":
            module.main(profile.activity, profile.power)
        elif name == "table3_power":
            module.main(profile.power)
        else:
            module.main()
        print()
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.analysis.verification import verify_pufferfish
    from repro.core.framework import entrywise_instantiation
    from repro.core.models import MarkovChainModel
    from repro.core.mqm_chain import MQMExact
    from repro.core.queries import StateFrequencyQuery
    from repro.distributions.chain_family import FiniteChainFamily
    from repro.distributions.markov import MarkovChain
    from repro.serving import PrivacyEngine

    chain = MarkovChain([0.6, 0.4], [[0.85, 0.15], [0.2, 0.8]])
    length = args.length
    inst = entrywise_instantiation(length, 2, [MarkovChainModel(chain, length)])
    query = StateFrequencyQuery(1, length)
    mech = MQMExact(FiniteChainFamily([chain]), args.epsilon, max_window=length)
    engine = PrivacyEngine(mech)
    scale = engine.calibrate(query, np.zeros(length, dtype=int)).scale
    report = verify_pufferfish(inst, query, scale, args.epsilon)
    print(report.summary())
    return 0 if report.satisfied else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.table2_runtime import parallel_sweep_timings

    report = parallel_sweep_timings(
        args.workers,
        epsilon=args.epsilon,
        length=args.length,
        grid_points=args.grid_points,
    )
    print(json.dumps(report, indent=2))
    # A scale mismatch between the serial and sharded paths would be a
    # correctness bug, not a performance result — fail loudly.
    return 0 if report["bit_identical"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import create_app
    from repro.service.server import serve

    app = create_app(
        args.store,
        reservation_ttl=args.reservation_ttl,
        request_timeout=args.request_timeout,
        max_concurrency=args.max_concurrency,
    )
    serve(app, host=args.host, port=args.port)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.staticcheck import cli as lint_cli

    argv = [args.root, "--format", args.format]
    if args.select:
        argv += ["--select", args.select]
    if args.strict:
        argv.append("--strict")
    if args.list_rules:
        argv.append("--list-rules")
    return lint_cli.main(argv)


def _cmd_info(_args: argparse.Namespace) -> int:
    import repro

    print(f"pufferfish-repro {repro.__version__}")
    print("experiments:", ", ".join(EXPERIMENTS))
    print("see README.md for the quickstart, docs/architecture.md for the layer")
    print("diagram, and docs/api.md for the public API reference")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    # Accept dashed spellings (structured-scenarios == structured_scenarios).
    p_exp.add_argument(
        "name",
        type=lambda s: s.replace("-", "_"),
        choices=("all", *EXPERIMENTS),
    )
    p_exp.add_argument("--profile", choices=("fast", "full"), default="fast")
    p_exp.set_defaults(func=_cmd_experiments)

    def positive_int(value: str) -> int:
        parsed = int(value)
        if parsed < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
        return parsed

    p_verify = sub.add_parser("verify", help="numeric Pufferfish self-check")
    p_verify.add_argument("--epsilon", type=float, default=1.0)
    p_verify.add_argument("--length", type=positive_int, default=5)
    p_verify.set_defaults(func=_cmd_verify)

    p_cal = sub.add_parser(
        "calibrate",
        help="serial vs sharded calibration of the Table 2 sweep (JSON output)",
    )
    p_cal.add_argument(
        "--workers", type=positive_int, default=None,
        help="worker processes for the sharded run (default: CPU count)",
    )
    p_cal.add_argument("--epsilon", type=float, default=1.0)
    p_cal.add_argument("--length", type=positive_int, default=100)
    p_cal.add_argument(
        "--grid-points", type=positive_int, default=5,
        help="per-axis (p0, p1) grid resolution; the paper's Table 2 uses 9",
    )
    p_cal.set_defaults(func=_cmd_calibrate)

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant privacy service over HTTP"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787)
    p_serve.add_argument(
        "--store", default=None,
        help="tenant-ledger SQLite database path (any suffix); omit for a "
        "private SQLite :memory: database (no durability across restarts)",
    )
    p_serve.add_argument(
        "--reservation-ttl", type=float, default=3600.0,
        help="seconds before an abandoned reservation stops counting "
        "against admission",
    )
    p_serve.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="per-request wall-clock deadline in seconds; past it the "
        "client gets 503 RequestTimeout with Retry-After",
    )
    p_serve.add_argument(
        "--max-concurrency", type=int, default=64,
        help="requests in flight before new ones are refused with "
        "503 ServiceSaturated + Retry-After (backpressure, not queueing)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_lint = sub.add_parser(
        "lint",
        help="AST invariant lint over the tree (stdlib-only; rules R1-R6)",
    )
    p_lint.add_argument(
        "root", nargs="?", default=".",
        help="tree to lint (default: current directory)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )
    p_lint.add_argument(
        "--select", default=None,
        help="comma list of rule ids/names to run (default: all)",
    )
    p_lint.add_argument(
        "--strict", action="store_true",
        help="also fail on suppressions that no longer suppress anything",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_info = sub.add_parser("info", help="version and inventory")
    p_info.set_defaults(func=_cmd_info)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
