"""Benchmark E11 — fault-injection overhead and chaos-mode exactness.

Two questions the robustness work must answer with numbers:

* **What do the fault points cost when nothing is injected?**  Every
  durable transaction now calls :func:`repro.faults.fire` a handful of
  times.  With no injector installed that is one global read and a
  ``None`` check — but the claim deserves a measurement: we drain the
  same ledger with no injector, then with an installed injector whose
  rules never match, and record the throughput ratio.
* **What does a chaos schedule cost, and does exactness survive it?**
  The same drain — keyed charges of one release each, the service's
  keyed ``/release`` debit — runs under a seeded schedule of transient
  store errors absorbed by
  :class:`~repro.service.retry.RetryingLedgerStore`.  The wall-time
  ratio quantifies the retry tax; the deterministic gates assert the
  ledger still lands on exactly ``floor(budget / epsilon)`` releases and
  that an idempotency-key replay never re-debits, even once the budget
  is spent.

Gates (run in every mode, quick included): clean-drain exactness,
chaos-drain exactness, and idempotent replay.  Rates land in
``results/BENCH_chaos.json`` for trajectory tracking.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.recording import QUICK, record_trajectory
from repro.exceptions import BudgetExhaustedError
from repro.faults import FaultRule, injected
from repro.service.ledger import TenantLedger
from repro.service.retry import RetryingLedgerStore, RetryPolicy
from repro.service.stores import SQLiteLedgerStore

EPSILON = 0.5
CAP = 40 if QUICK else 200  # releases per drain
BUDGET = CAP * EPSILON

#: Transient-only schedule: every fault is retryable, so the drain must
#: finish — the injector adds failures, the retry layer absorbs them.
CHAOS_RULES = [
    FaultRule("ledger.sqlite.begin", error="sqlite_busy", probability=0.05, times=None),
    FaultRule("ledger.sqlite.commit", error="io", probability=0.05, times=None),
    FaultRule("ledger.sqlite.commit.after", error="io", probability=0.05, times=None),
]


def _drain(store, tag: str) -> "tuple[int, float]":
    """Keyed charges of one release each until refusal."""
    ledger = TenantLedger(store, tag)
    ledger.create(budget=BUDGET)
    served = 0
    start = time.perf_counter()
    while True:
        try:
            ledger.charge(
                1, EPSILON, idempotency_key=f"{tag}-{served}", response={"i": served}
            )
        except BudgetExhaustedError:
            break
        served += 1
    seconds = time.perf_counter() - start
    return served, seconds


@pytest.fixture(scope="module")
def chaos_report(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench_chaos")
    store = RetryingLedgerStore(
        SQLiteLedgerStore(base / "ledgers.sqlite"),
        RetryPolicy(max_attempts=6, base_delay=0.0005, max_delay=0.005),
    )
    try:
        # -- clean drain: fault points present, no injector installed ------
        clean_served, clean_seconds = _drain(store, "clean")

        # -- armed-but-idle: injector installed, rules never match ---------
        idle_rules = [FaultRule("no.such.point", error="io", times=None)]  # repro-lint: disable=R5 -- deliberately unmatched: measures armed-but-idle overhead
        with injected(idle_rules, seed=0):
            idle_served, idle_seconds = _drain(store, "idle")

        # -- chaos drain: transient faults absorbed by the retry layer -----
        with injected(CHAOS_RULES, seed=42) as injector:
            chaos_served, chaos_seconds = _drain(store, "chaos")
            faults_fired = len(injector.history)

        snapshots = {
            tag: TenantLedger(store, tag).snapshot()
            for tag in ("clean", "idle", "chaos")
        }

        # -- gate: idempotent replay never re-debits -----------------------
        replay_ledger = TenantLedger(store, "replay")
        replay_ledger.create(budget=EPSILON)
        first = replay_ledger.charge(
            1, EPSILON, idempotency_key="replay-key", response={"answer": 41}
        )
        # The first charge spent the budget; the replay still answers.
        again = replay_ledger.charge(
            1,
            EPSILON,
            idempotency_key="replay-key",
            response={"answer": 42},  # must NOT replace the original
        )
        replay_exact = (
            first[:2] == ({"answer": 41}, False)
            and again[:2] == ({"answer": 41}, True)
            and replay_ledger.snapshot()["n_releases"] == 1
        )
    finally:
        store.close()

    clean_rps = clean_served / clean_seconds
    idle_rps = idle_served / idle_seconds
    chaos_rps = chaos_served / chaos_seconds
    entries = [
        {
            "op": "drain_clean",
            "releases": clean_served,
            "seconds": clean_seconds,
            "rps": clean_rps,
            "speedup": None,
        },
        {
            "op": "drain_injector_idle",
            "releases": idle_served,
            "seconds": idle_seconds,
            "rps": idle_rps,
            "speedup": idle_rps / clean_rps,
        },
        {
            "op": "drain_chaos",
            "releases": chaos_served,
            "seconds": chaos_seconds,
            "rps": chaos_rps,
            "speedup": chaos_rps / clean_rps,
            "faults_fired": faults_fired,
        },
    ]
    record_trajectory(
        "chaos",
        entries,
        meta={
            "store": "sqlite+retry",
            "epsilon": EPSILON,
            "cap": CAP,
            "clean_exact": snapshots["clean"]["n_releases"] == CAP,
            "chaos_exact": snapshots["chaos"]["n_releases"] == CAP,
            "replay_exact": replay_exact,
        },
    )
    return {
        "entries": entries,
        "served": {
            "clean": clean_served,
            "idle": idle_served,
            "chaos": chaos_served,
        },
        "snapshots": snapshots,
        "faults_fired": faults_fired,
        "replay_exact": replay_exact,
    }


def test_chaos_trajectory_recorded(chaos_report):
    """The measurement runs in every mode and records sane rates."""
    assert all(
        entry["rps"] > 0 and entry["seconds"] > 0
        for entry in chaos_report["entries"]
    )


def test_clean_drain_exactness(chaos_report):
    """Deterministic gate: the fault-point-instrumented path still serves
    exactly floor(budget/eps) with no injector installed."""
    assert chaos_report["served"]["clean"] == CAP
    assert chaos_report["snapshots"]["clean"]["n_releases"] == CAP
    assert chaos_report["snapshots"]["clean"]["spent_epsilon"] == pytest.approx(
        BUDGET
    )


def test_chaos_drain_exactness(chaos_report):
    """Deterministic gate: transient faults cost wall time, never budget —
    the chaos drain lands on the identical cap, nothing stranded."""
    assert chaos_report["faults_fired"] > 0, "schedule never fired: dead gate"
    assert chaos_report["served"]["chaos"] == CAP
    snapshot = chaos_report["snapshots"]["chaos"]
    assert snapshot["n_releases"] == CAP
    assert snapshot["spent_epsilon"] == pytest.approx(BUDGET)
    assert snapshot["reserved_releases"] == 0


def test_idempotent_replay_never_redebits(chaos_report):
    """Deterministic gate: same key, second call → original response, one
    debit (the mechanism HTTP retries rely on for exactly-once)."""
    assert chaos_report["replay_exact"]
