"""Tenant ledgers: durable accounting plus reservation admission.

Covers the reserve -> consume -> release-unused cycle, its refusal
taxonomy, TTL reclamation of abandoned reservations, restart rehydration
(bit-identical Rényi state through the store), and the
:class:`~repro.service.ledger.ReservationAccountant` driving a real
:class:`~repro.serving.engine.PrivacyEngine`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GaussianMarkovQuiltMechanism, MarkovQuiltMechanism
from repro.core.accounting import RenyiAccountant
from repro.core.queries import CountQuery
from repro.distributions.structured import hub_and_spoke_network
from repro.exceptions import (
    BudgetExhaustedError,
    PrivacyParameterError,
    ReservationError,
    UnknownReservationError,
    UnknownTenantError,
    ValidationError,
)
from repro.service.ledger import ReservationAccountant, TenantLedger
from repro.service.stores import SQLiteLedgerStore


@pytest.fixture()
def ledger():
    return TenantLedger(SQLiteLedgerStore(":memory:"), "acme")


def _created(ledger, *, budget=2.0, accountant="linear", **kwargs):
    ledger.create(budget=budget, accountant=accountant, **kwargs)
    return ledger


# -- lifecycle -------------------------------------------------------------
def test_operations_require_created_tenant(ledger):
    with pytest.raises(UnknownTenantError):
        ledger.reserve(1, 0.5)
    with pytest.raises(UnknownTenantError):
        ledger.snapshot()
    with pytest.raises(UnknownTenantError):
        ledger.consume("nope", epsilon=0.5)
    assert not ledger.exists()


def test_create_is_idempotent_and_never_rewrites(ledger):
    _created(ledger, budget=2.0)
    ledger.reserve(1, 0.5)
    again = ledger.create(budget=99.0)  # ignored: existing ledger wins
    assert again["budget"] == 2.0
    assert again["n_reservations"] == 1
    with pytest.raises(ValidationError):
        ledger.create(budget=2.0, exist_ok=False)


def test_tenant_name_validation():
    store = SQLiteLedgerStore(":memory:")
    with pytest.raises(ValidationError):
        TenantLedger(store, "")
    with pytest.raises(ValidationError):
        TenantLedger(store, "a/b")
    with pytest.raises(ValidationError):
        TenantLedger(store, "ok", reservation_ttl=0)


# -- admission -------------------------------------------------------------
def test_reservations_never_over_commit(ledger):
    _created(ledger, budget=2.0)
    ledger.reserve(3, 0.5)
    ledger.reserve(1, 0.5)  # exactly fills the budget
    with pytest.raises(BudgetExhaustedError) as excinfo:
        ledger.reserve(1, 0.5)
    payload = excinfo.value.ledger()
    assert payload["budget"] == 2.0
    assert payload["spent"] == 0.0  # nothing consumed yet, all reserved


def test_release_unused_returns_budget(ledger):
    _created(ledger, budget=2.0)
    first = ledger.reserve(4, 0.5)
    with pytest.raises(BudgetExhaustedError):
        ledger.reserve(1, 0.5)
    assert ledger.release_unused(first.reservation_id) == 4
    ledger.reserve(4, 0.5)  # the budget came back
    # Unknown/already-released ids are a no-op, not an error.
    assert ledger.release_unused(first.reservation_id) == 0


def test_consume_exactly_once_and_refusals(ledger):
    _created(ledger, budget=2.0)
    res = ledger.reserve(2, 0.5)
    after = ledger.consume(res.reservation_id, epsilon=0.5)
    assert (after.n_consumed, after.n_remaining) == (1, 1)
    with pytest.raises(ReservationError, match="epsilon"):
        ledger.consume(res.reservation_id, epsilon=0.25)
    with pytest.raises(ReservationError, match="left"):
        ledger.consume(res.reservation_id, 2, epsilon=0.5)
    ledger.consume(res.reservation_id, epsilon=0.5)
    snapshot = ledger.snapshot()
    assert snapshot["spent_epsilon"] == pytest.approx(1.0)
    with pytest.raises(ReservationError):
        ledger.consume(res.reservation_id, epsilon=0.5)  # drained
    ledger.release_unused(res.reservation_id)
    with pytest.raises(UnknownReservationError):
        ledger.consume(res.reservation_id, epsilon=0.5)


class _SyncLog(SQLiteLedgerStore):
    """Records the ``sync`` flag of every transaction."""

    def __init__(self) -> None:
        super().__init__(":memory:")
        self.log: list = []

    def transact(self, tenant, *, sync=True):
        self.log.append(sync)
        return super().transact(tenant, sync=sync)


def test_only_debits_need_a_flush():
    """Holds and returns commit unsynced (a power loss undoing one only
    over-holds budget until the sweep); creation and every debit commit
    synced."""
    store = _SyncLog()
    ledger = _created(TenantLedger(store, "acme"), budget=2.0)
    res = ledger.reserve(3, 0.5)
    ledger.consume(res.reservation_id, epsilon=0.5)
    ledger.consume_idempotent(
        res.reservation_id, 1, epsilon=0.5, idempotency_key="k", response={}
    )
    ledger.release_unused(res.reservation_id)
    ledger.sweep()
    assert store.log == [True, False, True, True, False, True]


def test_refused_consume_changes_nothing(ledger):
    _created(ledger, budget=2.0)
    res = ledger.reserve(1, 0.5)
    before = ledger.snapshot()
    with pytest.raises(ReservationError):
        ledger.consume(res.reservation_id, epsilon=0.9)
    assert ledger.snapshot() == before


def test_expired_reservations_stop_counting(ledger):
    ledger = TenantLedger(ledger.store, "acme", reservation_ttl=0.05)
    _created(ledger, budget=2.0)
    stale = ledger.reserve(4, 0.5)  # fills the whole budget
    with pytest.raises(BudgetExhaustedError):
        ledger.reserve(1, 0.5)
    import time

    time.sleep(0.1)
    fresh = ledger.reserve(4, 0.5)  # stale one no longer counts
    assert fresh.n_reserved == 4
    # The expired id is dead, not resurrected.
    with pytest.raises(UnknownReservationError):
        ledger.consume(stale.reservation_id, epsilon=0.5)


def test_admission_prices_renyi_composition(ledger):
    """Rényi admission uses preview() — strong composition, so (for many
    small-epsilon releases) more fit than the linear ``budget/epsilon``
    cap; admission and consumption agree on the arithmetic."""
    budget, epsilon = 10.0, 0.1
    linear_cap = int(budget / epsilon)  # 100
    ledger = TenantLedger(ledger.store, "renyi-t")
    ledger.create(budget=budget, accountant="renyi", delta=1e-5)
    res = ledger.reserve(linear_cap + 20, epsilon)  # overdraws linearly
    for _ in range(linear_cap + 20):
        ledger.consume(res.reservation_id, epsilon=epsilon)
    snapshot = ledger.snapshot()
    assert snapshot["n_releases"] == linear_cap + 20
    assert snapshot["spent_epsilon"] <= budget


def test_parameter_validation(ledger):
    _created(ledger)
    with pytest.raises(PrivacyParameterError):
        ledger.reserve(0, 0.5)
    with pytest.raises(PrivacyParameterError):
        ledger.reserve(1, -0.5)
    res = ledger.reserve(1, 0.5)
    with pytest.raises(PrivacyParameterError):
        ledger.consume(res.reservation_id, 0, epsilon=0.5)
    with pytest.raises(ValidationError):
        ledger.create(budget=2.0, accountant="exotic")


@pytest.mark.parametrize("accountant", ["linear", "renyi", "sliding"])
def test_stored_nan_budget_fails_closed(accountant):
    """A NaN budget written before non-finite budgets were refused is
    refused when the ledger is read back, not treated as unlimited."""
    store = SQLiteLedgerStore(":memory:")
    ledger = _created(TenantLedger(store, "acme"), accountant=accountant)

    def poison(txn):
        txn.state["accountant"]["budget"] = float("nan")

    store.run("acme", poison)
    with pytest.raises(PrivacyParameterError, match="budget"):
        ledger.reserve(1, 0.5)
    assert store.peek("acme")["reservations"] == {}


# -- durability ------------------------------------------------------------
def test_restart_rehydrates_renyi_bit_identically(tmp_path):
    """Gaussian releases with mechanism curves, through the store, across a
    simulated restart: the rehydrated accountant's running curve and
    eps(delta) match bit for bit — no envelope slack."""
    network = hub_and_spoke_network(3, 2)
    data = np.ones(len(network.nodes))
    mechanism = GaussianMarkovQuiltMechanism([network], 0.4, delta=1e-5)
    path = tmp_path / "ledgers.sqlite"

    store = SQLiteLedgerStore(path)
    ledger = TenantLedger(store, "acme")
    ledger.create(budget=6.0, accountant="renyi", delta=1e-5)
    res = ledger.reserve(9, 0.4)
    accountant = ReservationAccountant(ledger, res)
    engine = PrivacyEngineFactory(mechanism, accountant)
    engine.release_repeated(data, CountQuery(), 9)
    live = ledger.accountant()
    store.close()

    reopened = SQLiteLedgerStore(path)
    try:
        rehydrated = TenantLedger(reopened, "acme").accountant()
        assert isinstance(rehydrated, RenyiAccountant)
        assert rehydrated.total_epsilon() == live.total_epsilon()
        assert np.array_equal(rehydrated._rdp, live._rdp)
        assert len(rehydrated) == 9
    finally:
        reopened.close()


def PrivacyEngineFactory(mechanism, accountant):
    from repro.serving import PrivacyEngine

    return PrivacyEngine(mechanism, accountant=accountant, rng=0)


# -- ReservationAccountant through the engine ------------------------------
@pytest.fixture()
def workload():
    network = hub_and_spoke_network(3, 2)
    return (
        MarkovQuiltMechanism([network], 0.5),
        np.ones(len(network.nodes)),
        CountQuery(),
    )


def test_reservation_accountant_drives_engine(workload):
    mechanism, data, query = workload
    ledger = TenantLedger(SQLiteLedgerStore(":memory:"), "acme")
    ledger.create(budget=5.0)
    res = ledger.reserve(6, 0.5)
    accountant = ReservationAccountant(ledger, res)
    engine = PrivacyEngineFactory(mechanism, accountant)

    engine.release_repeated(data, query, 4)
    assert accountant.n_remaining == 2
    assert ledger.snapshot()["spent_epsilon"] == pytest.approx(2.0)

    # Overrunning the session sub-budget refuses atomically: nothing durable
    # or local moves, and the refusal carries the session ledger.
    with pytest.raises(BudgetExhaustedError) as excinfo:
        engine.release_repeated(data, query, 3)
    assert excinfo.value.ledger()["budget"] == pytest.approx(3.0)
    assert accountant.n_remaining == 2
    assert ledger.snapshot()["spent_epsilon"] == pytest.approx(2.0)


def test_reservation_accountant_streams(workload):
    mechanism, data, query = workload
    ledger = TenantLedger(SQLiteLedgerStore(":memory:"), "acme")
    ledger.create(budget=5.0)
    res = ledger.reserve(5, 0.5)
    engine = PrivacyEngineFactory(mechanism, ReservationAccountant(ledger, res))

    with engine.stream(data, query, block_size=2) as session:
        with pytest.raises(BudgetExhaustedError) as excinfo:
            while True:
                next(session)
    # Stops at exactly the reservation size; the durable ledger agrees.
    assert session.n_yielded == 5
    assert excinfo.value.n_completed == 5
    assert ledger.snapshot()["spent_epsilon"] == pytest.approx(2.5)


def test_reservation_accountant_rejects_foreign_epsilon(workload):
    mechanism, data, query = workload
    ledger = TenantLedger(SQLiteLedgerStore(":memory:"), "acme")
    ledger.create(budget=5.0)
    res = ledger.reserve(2, 0.25)  # reserved at a different epsilon
    accountant = ReservationAccountant(ledger, res)
    with pytest.raises(ReservationError, match="reserved epsilon"):
        accountant.record(0.5, quilt_signature=("n", ()))
