"""Benchmark E9 — accounting: releases served per budget, Rényi vs linear.

The serving question this answers: from one fixed privacy budget, how many
more releases does Rényi-Pufferfish strong composition serve than the
Theorem 4.4 linear ledger?  The measurement is **deterministic** — stop
counts depend only on the accounting arithmetic, not on wall-clock — so the
acceptance gate runs in every mode, quick included:

* ``RenyiAccountant`` must serve at least **1.5x** the linear release count
  on the paper-scale workload (epsilon = 0.2 per release, delta = 1e-5,
  budget = 12) — the headline claim of the accounting subsystem.
* The Gaussian mechanism under Rényi accounting must beat the Laplace
  Rényi count again (its cost curve is a genuine curve, not a pure-epsilon
  envelope), and the linear count must equal ``floor(budget / epsilon)``
  exactly.

A throughput entry rides along for regression tracking (ledger appends per
second under streaming for both accountants), and the machine-readable
trajectory is recorded to ``results/BENCH_accounting.json``.
"""

import time

import numpy as np
import pytest

from benchmarks.recording import QUICK, record_trajectory
from repro.core.accounting import RenyiAccountant
from repro.core.composition import CompositionAccountant
from repro.core.gaussian import GaussianMarkovQuiltMechanism
from repro.core.markov_quilt import MarkovQuiltMechanism
from repro.core.queries import CountQuery
from repro.distributions.structured import hub_and_spoke_network
from repro.exceptions import BudgetExhaustedError
from repro.serving import PrivacyEngine

EPSILON = 0.2
DELTA = 1e-5
BUDGET = 12.0
GATE = 1.5
THROUGHPUT_RELEASES = 200 if QUICK else 2000


@pytest.fixture(scope="module")
def workload():
    network = hub_and_spoke_network(3, 2)
    data = np.ones(len(network.nodes))
    return network, data, CountQuery()


def _drain(network, data, query, mechanism, accountant):
    """Serve one stream until the accountant refuses; count and time it."""
    engine = PrivacyEngine(mechanism, accountant=accountant, rng=0)
    start = time.perf_counter()
    with engine.stream(data, query) as session:
        try:
            while True:
                next(session)
        except BudgetExhaustedError:
            pass
        seconds = time.perf_counter() - start
        return session.n_yielded, engine.spent_epsilon(), seconds


@pytest.fixture(scope="module")
def accounting_report(workload):
    network, data, query = workload

    def laplace():
        return MarkovQuiltMechanism([network], EPSILON)

    def gaussian():
        return GaussianMarkovQuiltMechanism([network], EPSILON, delta=DELTA)

    def renyi():
        return RenyiAccountant(budget=BUDGET, delta=DELTA)

    linear_served, linear_spent, linear_seconds = _drain(
        network, data, query, laplace(), CompositionAccountant(budget=BUDGET)
    )
    renyi_served, renyi_spent, renyi_seconds = _drain(
        network, data, query, laplace(), renyi()
    )
    gaussian_served, gaussian_spent, _ = _drain(
        network, data, query, gaussian(), renyi()
    )

    ratio = renyi_served / linear_served
    entries = [
        {
            "op": "releases_per_budget",
            "mechanism": "MarkovQuilt(laplace)",
            "accountant": "CompositionAccountant",
            "served": linear_served,
            "spent": linear_spent,
            "seconds": linear_seconds,
            "speedup": None,
        },
        {
            "op": "releases_per_budget",
            "mechanism": "MarkovQuilt(laplace)",
            "accountant": "RenyiAccountant",
            "served": renyi_served,
            "spent": renyi_spent,
            "seconds": renyi_seconds,
            "speedup": ratio,
        },
        {
            "op": "releases_per_budget",
            "mechanism": "GaussianMarkovQuilt",
            "accountant": "RenyiAccountant",
            "served": gaussian_served,
            "spent": gaussian_spent,
            "speedup": gaussian_served / linear_served,
        },
    ]
    record_trajectory(
        "accounting",
        entries,
        meta={
            "network": "hub_and_spoke(3, 2)",
            "epsilon": EPSILON,
            "delta": DELTA,
            "budget": BUDGET,
            "gate": GATE,
        },
    )
    return {
        "entries": entries,
        "linear": linear_served,
        "renyi": renyi_served,
        "gaussian": gaussian_served,
        "ratio": ratio,
    }


def test_accounting_trajectory_recorded(accounting_report):
    """The measurement runs in every mode and records sane counts."""
    assert all(e["served"] > 0 for e in accounting_report["entries"])


def test_linear_count_is_exact(accounting_report):
    """Theorem 4.4 arithmetic: floor(budget / epsilon) releases, exactly."""
    assert accounting_report["linear"] == int(BUDGET / EPSILON)


def test_renyi_serves_1_5x_gate(accounting_report):
    """Acceptance (deterministic, every mode): Rényi accounting serves at
    least 1.5x the linear release count from the same budget."""
    assert accounting_report["ratio"] >= GATE


def test_gaussian_renyi_beats_laplace_renyi(accounting_report):
    """The Gaussian curve composes strictly tighter than the pure-epsilon
    envelope the Laplace mechanism is charged with."""
    assert accounting_report["gaussian"] > accounting_report["renyi"]


def test_renyi_never_overspends(accounting_report):
    entries = accounting_report["entries"]
    assert all(e["spent"] <= BUDGET + 1e-9 for e in entries)


def test_renyi_ledger_append_rate(benchmark, workload):
    """Regression tracker: RDP grid updates per ledger append stay cheap."""
    network, data, query = workload
    engine = PrivacyEngine(
        MarkovQuiltMechanism([network], EPSILON),
        accountant=RenyiAccountant(delta=DELTA),
        rng=1,
    )
    session = engine.stream(data, query, rng=2)
    chunk = benchmark.pedantic(
        lambda: session.take(THROUGHPUT_RELEASES), rounds=3, iterations=1
    )
    assert len(chunk) == THROUGHPUT_RELEASES
