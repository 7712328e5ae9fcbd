"""Benchmark E8 — streaming sessions: steady-state latency vs single releases.

The serving question this answers: once the cache is warm, what does *one
more release* cost?  Repeated single ``PrivacyEngine.release()`` calls pay a
cache-key computation, a query evaluation, and a scalar-sized noise draw per
release; a :class:`~repro.serving.ReleaseSession` pays those once per
session and draws each take's noise in one vectorized call, leaving a ledger
append per release.  The acceptance gate is streamed steady-state
throughput at least 5x repeated single releases; in practice it is far
higher.

Correctness rides along in every mode (quick included): the streamed values,
drained in uneven takes, are asserted bit-identical to the
``release_batch`` prefix under a shared seed, and a budget-capped session is
asserted to stop at exactly the budgeted count with an exact ledger.  The
machine-readable trajectory is recorded to ``results/BENCH_streaming.json``.
"""

import time

import numpy as np
import pytest

from benchmarks.recording import QUICK, QUICK_SKIP_REASON, record_trajectory
from repro.core.mqm_chain import MQMExact
from repro.core.queries import StateFrequencyQuery
from repro.distributions.chain_family import FiniteChainFamily
from repro.distributions.markov import MarkovChain
from repro.exceptions import BudgetExhaustedError
from repro.serving import PrivacyEngine

EPSILON = 1.0
LENGTH = 400 if QUICK else 2000
WINDOW = 32 if QUICK else 64
STREAM_RELEASES = 500 if QUICK else 20000
SINGLE_RELEASES = 50 if QUICK else 500
CHUNK = 100
PREFIX_CHECK = 64
#: Uneven takes that drain the prefix check: each take draws its own noise.
PREFIX_CHUNKS = (1, 7, 13, 43)


@pytest.fixture(scope="module")
def workload():
    chain = MarkovChain(
        np.full(4, 0.25),
        [
            [0.7, 0.1, 0.1, 0.1],
            [0.1, 0.7, 0.1, 0.1],
            [0.1, 0.1, 0.7, 0.1],
            [0.1, 0.1, 0.1, 0.7],
        ],
    ).with_stationary_initial()
    family = FiniteChainFamily([chain])
    data = chain.sample(LENGTH, rng=0)
    query = StateFrequencyQuery(1, LENGTH)
    return family, data, query


def _engine(family, **kwargs) -> PrivacyEngine:
    return PrivacyEngine(MQMExact(family, EPSILON, max_window=WINDOW), rng=1, **kwargs)


def _single_release_seconds(engine, data, query, n: int) -> float:
    start = time.perf_counter()
    for _ in range(n):
        engine.release(data, query)
    return time.perf_counter() - start


def _streamed_seconds(engine, data, query, n: int) -> float:
    session = engine.stream(data, query, rng=2, max_releases=n)
    start = time.perf_counter()
    while session.take(CHUNK):
        pass
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def streaming_report(workload):
    family, data, query = workload

    single_engine = _engine(family)
    single_engine.calibrate(query, data)
    single_seconds = _single_release_seconds(
        single_engine, data, query, SINGLE_RELEASES
    )

    stream_engine = _engine(family)
    stream_engine.calibrate(query, data)
    stream_seconds = _streamed_seconds(stream_engine, data, query, STREAM_RELEASES)

    # Correctness (every mode): seeded stream == release_batch prefix.
    prefix_session = _engine(family).stream(data, query, rng=3)
    prefix = [
        r.value for chunk in PREFIX_CHUNKS for r in prefix_session.take(chunk)
    ]
    batch = [
        r.value
        for r in _engine(family).release_batch([(data, query)] * PREFIX_CHECK, rng=3)
    ]
    identical = prefix == batch

    # Correctness (every mode): a budgeted session stops at exactly the
    # budgeted count with an exact ledger and never over-spends.
    budget_n = 25
    budgeted = _engine(family, epsilon_budget=budget_n * EPSILON)
    session = budgeted.stream(data, query, rng=4)
    yielded = 0
    ledger = None
    try:
        for _ in session:
            yielded += 1
    except BudgetExhaustedError as error:
        ledger = error.ledger()

    single_rps = SINGLE_RELEASES / single_seconds
    stream_rps = STREAM_RELEASES / stream_seconds
    entries = [
        {
            "op": "steady_state",
            "length": LENGTH,
            "single_releases": SINGLE_RELEASES,
            "single_seconds": single_seconds,
            "single_rps": single_rps,
            "stream_releases": STREAM_RELEASES,
            "stream_seconds": stream_seconds,
            "stream_rps": stream_rps,
            "stream_per_release_us": 1e6 * stream_seconds / STREAM_RELEASES,
            "chunk": CHUNK,
            "speedup": stream_rps / single_rps,
        },
        {
            "op": "prefix_bit_identity",
            "length": LENGTH,
            "n": PREFIX_CHECK,
            "chunks": list(PREFIX_CHUNKS),
            "identical": identical,
            "speedup": None,
        },
        {
            "op": "budget_ledger",
            "length": LENGTH,
            "budget": budget_n * EPSILON,
            "yielded": yielded,
            "ledger": ledger,
            "speedup": None,
        },
    ]
    record_trajectory(
        "streaming",
        entries,
        meta={
            "mechanism": "MQMExact",
            "epsilon": EPSILON,
            "max_window": WINDOW,
            "k": 4,
        },
    )
    return {
        "entries": entries,
        "identical": identical,
        "yielded": yielded,
        "ledger": ledger,
        "speedup": stream_rps / single_rps,
    }


def test_streaming_trajectory_recorded(streaming_report):
    """The measurement runs in every mode and records sane numbers."""
    steady = streaming_report["entries"][0]
    assert steady["stream_rps"] > 0 and steady["single_rps"] > 0


def test_streamed_prefix_is_bit_identical(streaming_report):
    """Correctness in every mode: stream == release_batch prefix, bit for
    bit, under a shared seed."""
    assert streaming_report["identical"] is True


def test_budgeted_session_never_overspends(streaming_report):
    """Correctness in every mode: a budget of 25*eps yields exactly 25
    releases and the refusal carries the exact ledger."""
    assert streaming_report["yielded"] == 25
    ledger = streaming_report["ledger"]
    assert ledger is not None
    assert ledger["spent"] == pytest.approx(25 * EPSILON)
    assert ledger["remaining"] == pytest.approx(0.0)
    assert ledger["n_completed"] == 25


@pytest.mark.perf
@pytest.mark.skipif(QUICK, reason=QUICK_SKIP_REASON)
def test_streaming_speedup_gate(streaming_report):
    """Acceptance: steady-state streamed releases >= 5x repeated single
    release() calls on the warm MQM chain workload."""
    assert streaming_report["speedup"] >= 5.0


def test_streamed_release_rate(benchmark, workload):
    family, data, query = workload
    engine = _engine(family)
    engine.calibrate(query, data)
    session = engine.stream(data, query, rng=2)
    chunk = benchmark.pedantic(lambda: session.take(256), rounds=3, iterations=1)
    assert len(chunk) == 256


def test_single_release_rate(benchmark, workload):
    family, data, query = workload
    engine = _engine(family)
    engine.calibrate(query, data)
    result = benchmark.pedantic(
        lambda: engine.release(data, query), rounds=3, iterations=1
    )
    assert result.noise_scale > 0
