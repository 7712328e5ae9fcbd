"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``experiments``
    Run one (or all) paper experiments at the full or fast profile.
``verify``
    Numerically verify the Pufferfish inequality for MQMExact on a small
    chain instantiation (a self-check of the installed build).  Calibration
    goes through the serving engine, so this also exercises the cache path.
``throughput``
    Quick cold-versus-warm serving demonstration: releases/second with
    per-release recalibration versus a warm :class:`repro.serving.
    PrivacyEngine`, printed as JSON.
``stream``
    Streaming-session demonstration: steady-state per-release latency of a
    :class:`repro.serving.ReleaseSession` drained in chunks versus repeated
    single ``release()`` calls on a warm engine, plus a seeded
    stream-equals-batch-prefix self-check, printed as JSON (exit 1 if the
    prefix check ever fails).
``accounting``
    Accountant comparison demonstration: drain one epsilon budget through a
    streamed Markov Quilt workload under linear (Theorem 4.4) and Rényi
    accounting — Laplace and Gaussian noise — and report how many releases
    each regime served, printed as JSON (exit 1 if Rényi ever serves fewer
    than linear, which the inf-order grid entry makes impossible).
``calibrate``
    Run the Table 2 synthetic calibration sweep serially and sharded across
    ``--workers`` processes (:class:`repro.parallel.ParallelCalibrator`),
    printing wall times, the speedup, and the bit-identity check as JSON.
``serve``
    Run the multi-tenant privacy service (:mod:`repro.service`) on a local
    HTTP port over a durable tenant-ledger store (``--store``: a SQLite
    database path, whatever its suffix; in-memory when omitted).  Several
    service processes may share one store — budgets hold across all of
    them.
``lint``
    Run the stdlib-only AST invariant linter (:mod:`repro.staticcheck`)
    over a tree: lock discipline, check-then-act atomicity, crash-
    exception safety, determinism, fault-point conformance, transaction
    discipline.  Pure stdlib — works before numpy installs.
``info``
    Print version and the experiment inventory.
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


def _demo_chain_workload(length: int):
    """The 4-state MQM chain workload shared by the serving demos
    (``throughput`` and ``stream``): ``(family, data, query)``."""
    from repro.core.queries import StateFrequencyQuery
    from repro.distributions.chain_family import FiniteChainFamily
    from repro.distributions.markov import MarkovChain

    chain = MarkovChain(
        [0.25, 0.25, 0.25, 0.25],
        [
            [0.7, 0.1, 0.1, 0.1],
            [0.1, 0.7, 0.1, 0.1],
            [0.1, 0.1, 0.7, 0.1],
            [0.1, 0.1, 0.1, 0.7],
        ],
    ).with_stationary_initial()
    family = FiniteChainFamily([chain])
    data = chain.sample(length, rng=0)
    query = StateFrequencyQuery(1, length)
    return family, data, query


def _cmd_throughput(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.core.mqm_chain import MQMExact
    from repro.serving import PrivacyEngine

    length = args.length
    family, data, query = _demo_chain_workload(length)

    cold_releases = min(args.releases, 20)
    start = time.perf_counter()
    for _ in range(cold_releases):
        MQMExact(family, args.epsilon, max_window=args.window).release(data, query, rng=1)
    cold_seconds = time.perf_counter() - start

    engine = PrivacyEngine(MQMExact(family, args.epsilon, max_window=args.window), rng=1)
    engine.calibrate(query, data)
    start = time.perf_counter()
    engine.release_repeated(data, query, args.releases)
    warm_seconds = time.perf_counter() - start

    cold_rps = cold_releases / cold_seconds
    warm_rps = args.releases / warm_seconds
    print(
        json.dumps(
            {
                "workload": {"mechanism": "MQMExact", "length": length, "k": 4},
                "cold": {"releases": cold_releases, "seconds": cold_seconds, "rps": cold_rps},
                "warm": {"releases": args.releases, "seconds": warm_seconds, "rps": warm_rps},
                "speedup": warm_rps / cold_rps,
            },
            indent=2,
        )
    )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.core.mqm_chain import MQMExact
    from repro.serving import PrivacyEngine

    family, data, query = _demo_chain_workload(args.length)

    def make_engine() -> PrivacyEngine:
        return PrivacyEngine(
            MQMExact(family, args.epsilon, max_window=args.window), rng=1
        )

    # Baseline: repeated single release() calls on a warm engine (per-call
    # cache lookup + query evaluation + scalar-sized noise draw).
    single_engine = make_engine()
    single_engine.calibrate(query, data)
    single_n = min(args.releases, 500)
    start = time.perf_counter()
    for _ in range(single_n):
        single_engine.release(data, query)
    single_seconds = time.perf_counter() - start

    # Streamed: one session drained in chunks.
    stream_engine = make_engine()
    stream_engine.calibrate(query, data)
    session = stream_engine.stream(
        data, query, rng=2, block_size=args.block_size, max_releases=args.releases
    )
    start = time.perf_counter()
    drained = 0
    while True:
        chunk = session.take(args.chunk)
        if not chunk:
            break
        drained += len(chunk)
    stream_seconds = time.perf_counter() - start

    # Self-check: the streamed values are the release_batch prefix, bit for
    # bit, under a shared seed.
    check_n = 64
    prefix = [
        r.value
        for r in make_engine().stream(data, query, rng=3, block_size=7).take(check_n)
    ]
    batch = [
        r.value
        for r in make_engine().release_batch([(data, query)] * check_n, rng=3)
    ]
    bit_identical = prefix == batch

    single_rps = single_n / single_seconds
    stream_rps = drained / stream_seconds
    print(
        json.dumps(
            {
                "workload": {
                    "mechanism": "MQMExact",
                    "length": args.length,
                    "k": 4,
                    "max_window": args.window,
                    "epsilon": args.epsilon,
                },
                "single": {
                    "releases": single_n,
                    "seconds": single_seconds,
                    "rps": single_rps,
                },
                "stream": {
                    "releases": drained,
                    "seconds": stream_seconds,
                    "rps": stream_rps,
                    "per_release_us": 1e6 * stream_seconds / max(drained, 1),
                    "chunk": args.chunk,
                    "block_size": args.block_size,
                },
                "speedup": stream_rps / single_rps,
                "session_stats": session.close(),
                "bit_identical_prefix": bit_identical,
            },
            indent=2,
        )
    )
    # A streamed value differing from the batched path would be a
    # correctness bug, not a performance result — fail loudly.
    return 0 if bit_identical else 1


def _cmd_accounting(args: argparse.Namespace) -> int:
    import json

    from repro.core import GaussianMarkovQuiltMechanism, MarkovQuiltMechanism
    from repro.core.accounting import RenyiAccountant
    from repro.core.composition import CompositionAccountant
    from repro.core.queries import CountQuery
    from repro.distributions.structured import hub_and_spoke_network
    from repro.exceptions import BudgetExhaustedError
    from repro.serving import PrivacyEngine

    import numpy as np

    network = hub_and_spoke_network(3, 2)
    data = np.ones(len(network.nodes))
    query = CountQuery()

    def drain(mechanism, accountant) -> dict:
        """Serve releases from one budget until the accountant refuses."""
        engine = PrivacyEngine(mechanism, accountant=accountant, rng=0)
        with engine.stream(data, query, block_size=64) as session:
            try:
                while True:
                    next(session)
            except BudgetExhaustedError as error:
                ledger = error.ledger()
            return {
                "served": session.n_yielded,
                "spent": engine.spent_epsilon(),
                "refusal": ledger,
            }

    def laplace() -> MarkovQuiltMechanism:
        return MarkovQuiltMechanism([network], args.epsilon)

    def gaussian() -> GaussianMarkovQuiltMechanism:
        return GaussianMarkovQuiltMechanism(
            [network], args.epsilon, delta=args.delta
        )

    def renyi() -> RenyiAccountant:
        return RenyiAccountant(budget=args.budget, delta=args.delta)

    report = {
        "workload": {
            "network": "hub_and_spoke(3, 2)",
            "epsilon": args.epsilon,
            "delta": args.delta,
            "budget": args.budget,
        },
        "laplace_linear": drain(laplace(), CompositionAccountant(budget=args.budget)),
        "laplace_renyi": drain(laplace(), renyi()),
        "gaussian_renyi": drain(gaussian(), renyi()),
    }
    ratio = report["laplace_renyi"]["served"] / max(
        report["laplace_linear"]["served"], 1
    )
    report["renyi_vs_linear_ratio"] = ratio
    print(json.dumps(report, indent=2))
    # Rényi accounting stopping before linear would be a correctness bug
    # (the inf-order grid entry pins it to the linear total) — fail loudly.
    return 0 if ratio >= 1.0 else 1


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


def _cmd_temporal(args: argparse.Namespace) -> int:
    import json
    import math
    import time

    from repro.core import MarkovQuiltMechanism, SlidingWindowAccountant
    from repro.distributions import TemporalNetwork
    from repro.distributions.structured import (
        BlockQuiltGenerator,
        block_node,
        household_blocks_network,
    )
    from repro.exceptions import BudgetExhaustedError

    import numpy as np

    blocks = tuple(
        tuple(block_node(i, j) for j in range(args.block_size))
        for i in range(args.blocks)
    )
    generator = BlockQuiltGenerator(blocks)
    base = household_blocks_network(args.blocks, args.block_size)

    temporal = TemporalNetwork(base)
    start = time.perf_counter()
    mechanism, cold_report = temporal.calibrated_mechanism(
        args.epsilon, quilt_generator=generator
    )
    cold_seconds = time.perf_counter() - start
    sigma_cold = mechanism.sigma_max()

    # Perturb one CPD and recalibrate: only quilts whose separator closures
    # touch the edited node should recompute.
    edited = block_node(0, args.block_size - 1)
    k = base.n_states(edited)
    shape = base.cpd(edited).shape
    cpd = np.full(shape, 1.0 / k)
    temporal.update_cpd(edited, cpd)

    start = time.perf_counter()
    warm_mechanism, warm_report = temporal.calibrated_mechanism(
        args.epsilon, quilt_generator=generator
    )
    warm_seconds = time.perf_counter() - start

    fresh = MarkovQuiltMechanism(
        [temporal.network], args.epsilon, quilt_generator=generator
    )
    fresh.sigma_max()
    bit_identical = fresh._sigma_cache == warm_mechanism._sigma_cache

    # Sliding-window budget drain: each window admits exactly
    # floor(budget / epsilon) releases, and expiry reclaims them forever.
    accountant = SlidingWindowAccountant(budget=args.budget)
    expected = math.floor(args.budget / args.epsilon)
    per_window: list[int] = []
    for _ in range(args.windows):
        served = 0
        try:
            while True:
                accountant.record(args.epsilon)
                served += 1
        except BudgetExhaustedError:
            pass
        per_window.append(served)
        accountant.advance_window()
    windows_ok = all(count == expected for count in per_window)

    print(
        json.dumps(
            {
                "workload": {
                    "network": f"household_blocks({args.blocks}, {args.block_size})",
                    "nodes": len(temporal.nodes),
                    "epsilon": args.epsilon,
                    "budget": args.budget,
                    "windows": args.windows,
                },
                "cold": {
                    "seconds": cold_seconds,
                    "recomputed_nodes": cold_report.recomputed_nodes,
                    "sigma_max": sigma_cold,
                },
                "incremental": {
                    "seconds": warm_seconds,
                    "edited_node": edited,
                    "reused_nodes": warm_report.reused_nodes,
                    "recomputed_nodes": warm_report.recomputed_nodes,
                    "reuse_fraction": warm_report.reuse_fraction,
                    "speedup": cold_seconds / max(warm_seconds, 1e-12),
                },
                "bit_identical": bit_identical,
                "sliding_window": {
                    "expected_per_window": expected,
                    "served_per_window": per_window,
                    "sustained": windows_ok,
                },
            },
            indent=2,
        )
    )
    # A reused sigma differing from the from-scratch calibration, or a window
    # admitting the wrong number of releases, would be a correctness bug, not
    # a performance result — fail loudly.
    return 0 if bit_identical and windows_ok else 1


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

    p_verify = sub.add_parser("verify", help="numeric Pufferfish self-check")
    p_verify.add_argument("--epsilon", type=float, default=1.0)
    p_verify.add_argument("--length", type=int, default=5)
    p_verify.set_defaults(func=_cmd_verify)

    def positive_int(value: str) -> int:
        parsed = int(value)
        if parsed < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
        return parsed

    p_tp = sub.add_parser(
        "throughput", help="cold vs warm-cache serving demo (JSON output)"
    )
    p_tp.add_argument("--epsilon", type=float, default=1.0)
    p_tp.add_argument("--length", type=positive_int, default=2000)
    p_tp.add_argument("--window", type=positive_int, default=64)
    p_tp.add_argument("--releases", type=positive_int, default=1000)
    p_tp.set_defaults(func=_cmd_throughput)

    p_stream = sub.add_parser(
        "stream",
        help="streamed vs repeated-single-release serving demo (JSON output)",
    )
    p_stream.add_argument("--epsilon", type=float, default=1.0)
    p_stream.add_argument("--length", type=positive_int, default=2000)
    p_stream.add_argument("--window", type=positive_int, default=64)
    p_stream.add_argument("--releases", type=positive_int, default=5000)
    p_stream.add_argument(
        "--chunk", type=positive_int, default=100,
        help="releases drawn per session.take() call",
    )
    p_stream.add_argument(
        "--block-size", type=positive_int, default=256,
        help="releases worth of noise pre-drawn per vectorized block",
    )
    p_stream.set_defaults(func=_cmd_stream)

    p_acc = sub.add_parser(
        "accounting",
        help="linear vs Rényi releases-per-budget demo (JSON output)",
    )
    p_acc.add_argument("--epsilon", type=float, default=0.2)
    p_acc.add_argument("--delta", type=float, default=1e-5)
    p_acc.add_argument("--budget", type=float, default=12.0)
    p_acc.set_defaults(func=_cmd_accounting)

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

    p_temporal = sub.add_parser(
        "temporal",
        help="incremental recalibration + sliding-window budget demo "
        "(JSON output)",
    )
    p_temporal.add_argument("--epsilon", type=float, default=0.5)
    p_temporal.add_argument(
        "--blocks", type=positive_int, default=6,
        help="independent household blocks in the scenario network",
    )
    p_temporal.add_argument(
        "--block-size", type=positive_int, default=4,
        help="chain length inside each block",
    )
    p_temporal.add_argument("--budget", type=float, default=2.0)
    p_temporal.add_argument(
        "--windows", type=positive_int, default=5,
        help="sliding windows to drain in the budget demo",
    )
    p_temporal.set_defaults(func=_cmd_temporal)

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant privacy service over HTTP"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787)
    p_serve.add_argument(
        "--store", default=None,
        help="tenant-ledger SQLite database path (any suffix); omit for "
        "in-memory (no durability)",
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
