"""Tenant ledgers: durable accounting plus reservation admission.

Covers the reserve -> consume -> release-unused cycle, its refusal
taxonomy, TTL reclamation of abandoned reservations, restart rehydration
(bit-identical Rényi state through the store), the cap on client keys,
the one-transaction ``charge``, keyless and keyed, and the
:class:`~repro.service.ledger.ReservationAccountant` and
:class:`~repro.service.ledger.ChargeAccountant` driving a real
:class:`~repro.serving.engine.PrivacyEngine`."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.core import GaussianMarkovQuiltMechanism, MarkovQuiltMechanism
from repro.core.accounting import RenyiAccountant, signature_digest
from repro.core.queries import CountQuery
from repro.distributions.structured import (
    BlockQuiltGenerator,
    block_node,
    household_blocks_network,
    hub_and_spoke_network,
)
from repro.exceptions import (
    BudgetExhaustedError,
    PrivacyParameterError,
    ReservationError,
    UnknownReservationError,
    UnknownTenantError,
    ValidationError,
)
from repro.service import PrivacyService, Workload
from repro.service.ledger import ChargeAccountant, ReservationAccountant, TenantLedger
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
    assert ledger.store.peek(ledger.tenant) is None  # no row was written


def test_create_is_idempotent_and_never_rewrites(ledger):
    _created(ledger, budget=2.0)
    ledger.reserve(1, 0.5)
    again = ledger.create(budget=99.0)  # ignored: existing ledger wins
    assert again["budget"] == 2.0
    assert again["n_reservations"] == 1


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
    ledger.charge(1, 0.5, idempotency_key="k", response={})
    ledger.release_unused(res.reservation_id)
    ledger.sweep()
    assert store.log == [True, False, True, True, False, True]


def test_a_stream_chunk_is_one_synced_transaction():
    """The service debits an 8-value chunk in one synced transaction, not
    one per value; a keyless release is one synced charge, with no hold
    and no return."""
    service = PrivacyService(_SyncLog())
    log = service.store.inner.log
    try:
        service.create_tenant("acme", {"budget": 20.0})
        session = service.open_stream(
            "acme", {"workload": "hub-laplace", "n_reserved": 8}
        )["session_id"]
        log.clear()
        assert service.stream_next(session, {"n": 8})["n"] == 8
        assert log == [True]
        log.clear()
        assert service.release("acme", {"workload": "hub-laplace", "n": 5})["n"] == 5
        assert log == [True]
    finally:
        service.close()


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
    # Counts are integers (a fractional one is refused, not truncated) and
    # epsilon is a positive number (NaN too is refused).
    for n_releases, epsilon in ((0, 0.5), (1, -0.5), (2.5, 0.5), (1, float("nan"))):
        with pytest.raises(PrivacyParameterError):
            ledger.reserve(n_releases, epsilon)
    res = ledger.reserve(1, 0.5)
    before = ledger.store.peek(ledger.tenant)
    for n_releases in (0, 1.0, "1"):
        with pytest.raises(PrivacyParameterError):
            ledger.consume(res.reservation_id, n_releases, epsilon=0.5)
    assert ledger.store.peek(ledger.tenant) == before
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

    with engine.stream(data, query) as session:
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
    before = ledger.snapshot()
    with pytest.raises(ReservationError, match="epsilon"):
        accountant.record(0.5, quilt_signature=("n", ()))
    assert ledger.snapshot() == before


def test_reservation_accountant_admits_a_signature_and_its_digest():
    """The ledger's tenant accountant is the one same-quilt check, so a
    quilt and its digest are one release class here too."""
    ledger = TenantLedger(SQLiteLedgerStore(":memory:"), "acme")
    ledger.create(budget=5.0)
    accountant = ReservationAccountant(ledger, ledger.reserve(3, 0.5))
    accountant.record(0.5, quilt_signature=("q",))
    accountant.record(0.5, quilt_signature=signature_digest(("q",)))
    assert accountant.is_composable and len(accountant) == 2
    before = ledger.snapshot()
    with pytest.raises(PrivacyParameterError, match="different active Markov quilts"):
        accountant.record(0.5, quilt_signature=("r",))
    assert ledger.snapshot() == before
    assert accountant.n_remaining == 1 and accountant.is_composable


def test_a_known_key_replays_at_the_record_cap(monkeypatch):
    import repro.service.ledger as ledger_module

    monkeypatch.setattr(ledger_module, "MAX_IDEMPOTENCY_RECORDS", 4)
    ledger = _created(
        TenantLedger(SQLiteLedgerStore(":memory:"), "acme"), budget=10.0
    )

    def charge(key, response):
        return ledger.charge(1, 0.5, idempotency_key=key, response=response)[:2]

    for i in range(4):
        assert charge(f"k{i}", {"i": i}) == ({"i": i}, False)
    before = ledger.store.peek("acme")
    with pytest.raises(ReservationError, match="idempotency records") as refused:
        charge("k4", {"i": 4})
    assert 0 < refused.value.retry_after <= ledger_module.IDEMPOTENCY_TTL
    assert ledger.store.peek("acme") == before
    assert charge("k2", {"i": "ignored"}) == ({"i": 2}, True)
    assert ledger.snapshot()["n_releases"] == 4


def test_a_keyed_charge_refuses_a_bad_key_before_the_store():
    store = _SyncLog()
    ledger = _created(TenantLedger(store, "acme"))
    store.log.clear()
    for key in ("", 7):
        with pytest.raises(ValidationError, match="idempotency_key"):
            ledger.charge(1, 0.5, idempotency_key=key, response={})
    assert store.log == []


# -- charge: admit and debit in one transaction ------------------------------
def test_charge_is_one_synced_transaction_answered_from_its_state():
    store = _SyncLog()
    ledger = _created(TenantLedger(store, "acme"), budget=2.0)
    store.log.clear()
    snapshot = ledger.charge(3, 0.5, quilt_signature=("q",))
    assert store.log == [True]
    assert snapshot == ledger.snapshot()
    assert (snapshot["n_releases"], snapshot["spent_epsilon"]) == (3, 1.5)
    assert snapshot["n_reservations"] == 0
    with pytest.raises(PrivacyParameterError, match="different active Markov quilts"):
        ledger.charge(1, 0.5, quilt_signature=("r",))
    assert ledger.snapshot() == snapshot


def test_charge_refuses_exactly_like_reserve():
    """The same admission arithmetic over outstanding reservations, the
    same payload, Retry-After only while a reservation is outstanding; a
    refused charge persists nothing."""
    ledger = _created(TenantLedger(SQLiteLedgerStore(":memory:"), "acme"))
    ledger.charge(1, 0.5)
    held = ledger.reserve(2, 0.5)
    before = ledger.store.peek("acme")
    with pytest.raises(BudgetExhaustedError) as charged:
        ledger.charge(2, 0.5)
    with pytest.raises(BudgetExhaustedError) as reserved:
        ledger.reserve(2, 0.5)
    assert ledger.store.peek("acme") == before

    def fields(error):
        return {k: v for k, v in error.payload().items() if k != "message"}

    assert fields(charged.value) == fields(reserved.value)
    assert charged.value.retry_after == ledger.reservation_ttl
    assert ledger.charge(1, 0.5)["n_releases"] == 2  # fits beside the hold
    ledger.release_unused(held.reservation_id)
    with pytest.raises(BudgetExhaustedError) as final:
        ledger.charge(3, 0.5)
    assert final.value.retry_after is None
    assert final.value.ledger()["spent"] == 1.0


def test_charge_drops_expired_reservations():
    ledger = _created(
        TenantLedger(SQLiteLedgerStore(":memory:"), "acme", reservation_ttl=0.05)
    )
    ledger.reserve(4, 0.5)  # holds the whole budget
    with pytest.raises(BudgetExhaustedError):
        ledger.charge(1, 0.5)
    import time

    time.sleep(0.1)
    snapshot = ledger.charge(4, 0.5)
    assert (snapshot["n_releases"], snapshot["n_reservations"]) == (4, 0)


def test_charge_accountant_drives_engine(workload):
    mechanism, data, query = workload
    ledger = _created(TenantLedger(SQLiteLedgerStore(":memory:"), "acme"))
    accountant = ChargeAccountant(ledger)
    engine = PrivacyEngineFactory(mechanism, accountant)
    engine.release_repeated(data, query, 3)
    assert accountant.snapshot == ledger.snapshot()
    assert len(accountant) == 3
    assert engine.spent_epsilon() == pytest.approx(1.5)
    assert engine.remaining_budget() == pytest.approx(0.5)

    # Overrunning the tenant budget refuses before any noise: the ledger,
    # the adapter and the engine's counter stay where they were.
    with pytest.raises(BudgetExhaustedError) as excinfo:
        engine.release_repeated(data, query, 2)
    assert excinfo.value.ledger()["spent"] == pytest.approx(1.5)
    assert accountant.snapshot == ledger.snapshot()
    assert (len(accountant), engine.n_releases) == (3, 3)


# -- rows written before signatures were digests ---------------------------
#: A tenant row as the service wrote it while quilt signatures were stored
#: as tagged tuples: one keyless release at epsilon 2.0 of the
#: ``household_blocks_network(6, 5)`` mechanism with its
#: ``BlockQuiltGenerator`` (12 of its 30 active quilts are non-empty), on a
#: linear tenant with budget 8.0.
LEGACY_BLOCKS_ROW = (
    '{"version": 1, "accountant": {"kind": "linear", "budget": 8.0, '
    '"count": 1, "signatures": [{"tuple": [{"tuple": ["b0_0", {"tuple": '
    '["b0_3"]}]}, {"tuple": ["b0_1", {"tuple": []}]}, {"tuple": ["b0_2", '
    '{"tuple": []}]}, {"tuple": ["b0_3", {"tuple": []}]}, {"tuple": '
    '["b0_4", {"tuple": ["b0_1"]}]}, {"tuple": ["b1_0", {"tuple": '
    '["b1_3"]}]}, {"tuple": ["b1_1", {"tuple": []}]}, {"tuple": ["b1_2", '
    '{"tuple": []}]}, {"tuple": ["b1_3", {"tuple": []}]}, {"tuple": '
    '["b1_4", {"tuple": ["b1_1"]}]}, {"tuple": ["b2_0", {"tuple": '
    '["b2_3"]}]}, {"tuple": ["b2_1", {"tuple": []}]}, {"tuple": ["b2_2", '
    '{"tuple": []}]}, {"tuple": ["b2_3", {"tuple": []}]}, {"tuple": '
    '["b2_4", {"tuple": ["b2_1"]}]}, {"tuple": ["b3_0", {"tuple": '
    '["b3_3"]}]}, {"tuple": ["b3_1", {"tuple": []}]}, {"tuple": ["b3_2", '
    '{"tuple": []}]}, {"tuple": ["b3_3", {"tuple": []}]}, {"tuple": '
    '["b3_4", {"tuple": ["b3_1"]}]}, {"tuple": ["b4_0", {"tuple": '
    '["b4_3"]}]}, {"tuple": ["b4_1", {"tuple": []}]}, {"tuple": ["b4_2", '
    '{"tuple": []}]}, {"tuple": ["b4_3", {"tuple": []}]}, {"tuple": '
    '["b4_4", {"tuple": ["b4_1"]}]}, {"tuple": ["b5_0", {"tuple": '
    '["b5_3"]}]}, {"tuple": ["b5_1", {"tuple": []}]}, {"tuple": ["b5_2", '
    '{"tuple": []}]}, {"tuple": ["b5_3", {"tuple": []}]}, {"tuple": '
    '["b5_4", {"tuple": ["b5_1"]}]}]}], "worst": 2.0}, "reservations": '
    '{}, "idempotency": {}}'
)


def _blocks_workload(epsilon: float) -> Workload:
    blocks = tuple(tuple(block_node(i, j) for j in range(5)) for i in range(6))
    mechanism = MarkovQuiltMechanism(
        [household_blocks_network(6, 5)],
        epsilon,
        quilt_generator=BlockQuiltGenerator(blocks),
    )
    return Workload(f"blocks-{epsilon:g}", mechanism, np.ones(30), CountQuery())


def test_a_row_with_tagged_tuple_signatures_keeps_serving(tmp_path):
    """The row restores to the same spend, the same quilt's next release is
    admitted and leaves the row in digest form, and another quilt is
    refused (at epsilon 1.0 every active quilt is the empty separator)."""
    path = tmp_path / "ledgers.sqlite"
    store = SQLiteLedgerStore(path)
    with store.transact("acme") as txn:
        txn.state = json.loads(LEGACY_BLOCKS_ROW)
    restored = TenantLedger(store, "acme").accountant()
    assert restored.total_epsilon() == 2.0
    assert len(restored) == 1
    assert restored.is_composable
    store.close()

    same, other = _blocks_workload(2.0), _blocks_workload(1.0)
    service = PrivacyService(
        str(path), workloads={same.name: same, other.name: other}
    )
    try:
        service.release("acme", {"workload": same.name})
        signatures = service.store.peek("acme")["accountant"]["signatures"]
        assert len(signatures) == 1
        assert re.fullmatch(r"[0-9a-f]{64}", signatures[0])
        with pytest.raises(PrivacyParameterError, match="Markov quilts"):
            service.release("acme", {"workload": other.name})
        snapshot = service.ledger("acme").snapshot()
        assert snapshot["spent_epsilon"] == 4.0
        assert snapshot["n_releases"] == 2
        assert snapshot["n_reservations"] == 0
    finally:
        service.close()
