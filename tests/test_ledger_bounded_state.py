"""Tenant state stays bounded: O(live reservations + client keys).

Budget enforcement only needs the accountant's aggregates, so a tenant's
stored state must not grow with the releases it serves: accountants keep
aggregates only, and keyless charges and consumes keep no replay record
(a retried cycle replays from the store's ``committed`` flag); only
client idempotency keys outlive a release, until their TTL.  These tests
pin that at ledger level over 10,000 releases (charges from one thread
and from eight) and for every accountant kind, for an in-process engine's
accountant over 10,000 streamed releases, at service level over the HTTP
surface (whatever the network's size: a row keeps the quilt signature as
a digest), and for states written while keyless consumes kept ``retry.``
records (swept whatever their age, while the client key beside them still
replays through a keyed charge) or while accountants kept an audit trail
(the startup sweep strips it)."""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import GaussianMarkovQuiltMechanism, MarkovQuiltMechanism
from repro.core.accounting import RenyiAccountant
from repro.core.queries import CountQuery
from repro.distributions.structured import (
    BlockQuiltGenerator,
    block_node,
    household_blocks_network,
    hub_and_spoke_network,
)
from repro.service import Workload, create_app, default_workloads
from repro.service.ledger import TenantLedger
from repro.service.stores import SQLiteLedgerStore
from repro.service.testing import TestClient
from repro.serving import PrivacyEngine

EPSILON = 0.5  # a power of two: aggregate sums stay exact floats
CHECKPOINTS = (100, 1_000, 10_000)
SLACK_BYTES = 16  # counters gain digits; nothing else may grow


def _ledger(accountant: str = "linear") -> TenantLedger:
    ledger = TenantLedger(SQLiteLedgerStore(":memory:"), "acme")
    ledger.create(budget=None, accountant=accountant)
    return ledger


def _state_size(ledger: TenantLedger) -> int:
    state = ledger.store.peek(ledger.tenant)
    assert state["idempotency"] == {}
    return len(json.dumps(state))


def _assert_flat(sizes: "dict[int, int]") -> None:
    assert sorted(sizes) == list(CHECKPOINTS)
    base = sizes[CHECKPOINTS[0]]
    assert all(abs(size - base) <= SLACK_BYTES for size in sizes.values()), sizes


def _shape(value):
    """``value`` with numbers blanked and strings replaced by their length:
    what may not change while counters and running sums gain digits."""
    if isinstance(value, dict):
        return {key: _shape(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_shape(item) for item in value]
    return len(value) if isinstance(value, str) else None


def test_keyless_cycles_keep_state_flat():
    ledger = _ledger()
    sizes = {}
    for n in range(1, CHECKPOINTS[-1] + 1):
        reservation = ledger.reserve(1, EPSILON)
        ledger.consume(reservation.reservation_id, epsilon=EPSILON)
        ledger.release_unused(reservation.reservation_id)
        if n in CHECKPOINTS:
            sizes[n] = _state_size(ledger)
    _assert_flat(sizes)
    snapshot = ledger.snapshot()
    assert snapshot["n_releases"] == CHECKPOINTS[-1]
    assert snapshot["n_reservations"] == 0


@pytest.mark.parametrize("threads", [1, 8])
def test_keyless_charges_keep_state_flat(threads):
    """10,000 charges, from one thread or split over eight: a charge keeps
    no reservation and no replay record, so the row only gains digits."""
    ledger = _ledger()

    def charge(count: int) -> None:
        handle = TenantLedger(ledger.store, ledger.tenant)
        for _ in range(count):
            handle.charge(1, EPSILON)

    sizes, done = {}, 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # dense interleavings between charges
    try:
        for checkpoint in CHECKPOINTS:
            todo = checkpoint - done
            workers = [
                threading.Thread(
                    target=charge, args=(todo // threads + (i < todo % threads),)
                )
                for i in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
                assert not worker.is_alive()
            done = checkpoint
            sizes[checkpoint] = _state_size(ledger)
    finally:
        sys.setswitchinterval(interval)
    _assert_flat(sizes)
    snapshot = ledger.snapshot()
    assert snapshot["n_releases"] == CHECKPOINTS[-1]
    assert snapshot["n_reservations"] == 0


def test_consumes_on_one_open_reservation_keep_state_flat():
    ledger = _ledger()
    reservation = ledger.reserve(CHECKPOINTS[-1], EPSILON)
    sizes = {}
    for n in range(1, CHECKPOINTS[-1] + 1):
        ledger.consume(reservation.reservation_id, epsilon=EPSILON)
        if n in CHECKPOINTS:
            sizes[n] = _state_size(ledger)
    _assert_flat(sizes)
    assert ledger.snapshot()["n_releases"] == CHECKPOINTS[-1]


@pytest.mark.parametrize("accountant", ["linear", "renyi", "sliding"])
def test_every_accountant_keeps_state_flat(accountant):
    """A Rényi state holds a running sum per order, and each sum gains
    digits, so flat is the state's shape here, not its byte count."""
    ledger = _ledger(accountant)
    reservation = ledger.reserve(1_000, EPSILON)
    shapes = {}
    for n in range(1, 1_001):
        ledger.consume(reservation.reservation_id, epsilon=EPSILON)
        if n in (10, 100, 1_000):
            shapes[n] = _shape(ledger.store.peek(ledger.tenant))
    assert shapes[10] == shapes[100] == shapes[1_000], shapes


@pytest.mark.parametrize(
    "make_engine",
    [
        lambda network: PrivacyEngine(MarkovQuiltMechanism([network], EPSILON)),
        lambda network: PrivacyEngine(
            GaussianMarkovQuiltMechanism([network], EPSILON), accountant="renyi"
        ),
    ],
    ids=["default", "gaussian-renyi"],
)
def test_streaming_engine_accountant_keeps_state_flat(make_engine):
    """An engine's own accountant is its aggregates too: 10,000 streamed
    releases (one debit each) leave its ``state_dict`` the same shape and
    under 2 KB."""
    network = hub_and_spoke_network(3, 2)
    engine = make_engine(network)
    shapes, sizes = {}, {}
    with engine.stream(np.ones(len(network.nodes)), CountQuery(), rng=0) as session:
        for n in range(1, CHECKPOINTS[-1] + 1):
            next(session)
            if n in CHECKPOINTS:
                state = engine.accountant.state_dict()
                shapes[n] = _shape(state)
                sizes[n] = len(json.dumps(state))
    assert len(engine.accountant) == CHECKPOINTS[-1]
    assert all(shape == shapes[CHECKPOINTS[0]] for shape in shapes.values()), shapes
    assert max(sizes.values()) < 2048, sizes


def test_service_default_tenant_row_stays_flat():
    """A tenant created with no options serves keyless releases without
    its row growing."""
    app = create_app()
    client = TestClient(app)
    try:
        assert client.post("/tenants/acme", {"budget": 1e6}).status == 200
        sizes = {}
        for n in range(1, 201):
            release = client.post("/tenants/acme/release", {"workload": "hub-laplace"})
            assert release.status == 200
            if n in (2, 200):
                sizes[n] = len(json.dumps(app.service.store.peek("acme")))
        assert abs(sizes[200] - sizes[2]) <= SLACK_BYTES, sizes
    finally:
        app.service.close()


def test_tenant_row_size_does_not_depend_on_the_network():
    """A 30-node blocks tenant's row is the size of a 7-node hub tenant's:
    the row keeps the quilt signature as a fixed-size digest."""
    blocks = tuple(tuple(block_node(i, j) for j in range(5)) for i in range(6))
    mechanism = MarkovQuiltMechanism(
        [household_blocks_network(6, 5)],
        2.0,
        quilt_generator=BlockQuiltGenerator(blocks),
    )
    workloads = {
        **default_workloads(),
        "blocks": Workload("blocks", mechanism, np.ones(30), CountQuery()),
    }
    app = create_app(workloads=workloads)
    client = TestClient(app)
    try:
        sizes = {}
        for tenant, workload in (("hub", "hub-laplace"), ("blocks", "blocks")):
            assert client.post(f"/tenants/{tenant}", {"budget": 1e6}).status == 200
            for n in range(1, 201):
                release = client.post(
                    f"/tenants/{tenant}/release", {"workload": workload}
                )
                assert release.status == 200
                if n in (1, 200):
                    row = app.service.store.peek(tenant)
                    sizes[tenant, n] = len(json.dumps(row))
        assert abs(sizes["blocks", 200] - sizes["hub", 200]) <= SLACK_BYTES, sizes
        assert abs(sizes["blocks", 200] - sizes["blocks", 1]) <= SLACK_BYTES, sizes
    finally:
        app.service.close()


def test_service_keyless_releases_and_closed_stream_leave_no_state():
    app = create_app()
    client = TestClient(app)
    try:
        assert client.post("/tenants/acme", {"budget": 100.0}).status == 200
        for seed in range(5):
            single = client.post(
                "/tenants/acme/release", {"workload": "hub-laplace", "seed": seed}
            )
            assert single.status == 200
        batch = client.post(
            "/tenants/acme/release", {"workload": "hub-laplace", "n": 4}
        )
        assert batch.status == 200
        opened = client.post(
            "/tenants/acme/stream", {"workload": "hub-laplace", "n_reserved": 6}
        ).json()
        session = f"/sessions/{opened['session_id']}"
        for _ in range(2):
            assert client.post(f"{session}/next", {"n": 2}).status == 200
        assert client.delete(session).json()["n_returned"] == 2

        snapshot = client.get("/tenants/acme").json()
        assert snapshot["n_releases"] == 5 + 4 + 4
        assert snapshot["idempotency_records"] == 0
        assert snapshot["n_reservations"] == 0
    finally:
        app.service.close()


def _legacy_state(ledger: TenantLedger) -> None:
    """Write what a keyless consume once left behind — ``retry.<uuid>``
    records, fresh and old — next to a fresh client key."""

    def record(created_at: float, response) -> dict:
        return {
            "response": response,
            "reservation_id": "0" * 32,
            "n_releases": 1,
            "epsilon": EPSILON,
            "created_at": created_at,
        }

    replay = {
        "reservation_id": "0" * 32,
        "epsilon": EPSILON,
        "n_reserved": 1,
        "n_consumed": 1,
    }
    now = time.time()
    with ledger.store.transact(ledger.tenant) as txn:
        txn.state["idempotency"] = {
            "retry." + "a" * 32: record(now, replay),
            "retry." + "b" * 32: record(now - 120.0, replay),
            "client-key": record(now, {"values": [1.5]}),
        }


def test_sweep_drops_legacy_retry_records_whatever_their_age():
    ledger = TenantLedger(SQLiteLedgerStore(":memory:"), "acme")
    ledger.create(budget=10.0, accountant="linear")
    _legacy_state(ledger)

    report = ledger.sweep()
    assert report["pruned_idempotency_records"] == 2
    assert ledger.snapshot()["idempotency_records"] == 1
    response, replayed, snapshot = ledger.charge(
        1, EPSILON, idempotency_key="client-key", response={"values": [9.5]}
    )
    assert (response, replayed) == ({"values": [1.5]}, True)
    assert snapshot["n_releases"] == 0
    assert ledger.sweep()["pruned_idempotency_records"] == 0


@pytest.mark.parametrize("route", ["startup", "admin"])
def test_service_sweeps_legacy_retry_records(tmp_path, route):
    path = tmp_path / "ledgers.sqlite"
    store = SQLiteLedgerStore(path)
    ledger = TenantLedger(store, "acme")
    ledger.create(budget=10.0, accountant="linear")
    if route == "startup":
        _legacy_state(ledger)
    store.close()

    app = create_app(str(path))  # sweeps at construction
    client = TestClient(app)
    try:
        if route == "admin":
            _legacy_state(app.service.ledger("acme"))
            report = client.post("/admin/recover").json()
            assert report["tenants"]["acme"]["pruned_idempotency_records"] == 2
        assert client.get("/tenants/acme").json()["idempotency_records"] == 1
        replay = client.post(
            "/tenants/acme/release",
            {"workload": "hub-laplace", "idempotency_key": "client-key"},
        ).json()
        assert (replay["values"], replay["replayed"]) == ([1.5], True)
        assert replay["ledger"]["n_releases"] == 0
    finally:
        app.service.close()


def test_startup_sweep_strips_a_legacy_trail(tmp_path):
    path = tmp_path / "ledgers.sqlite"
    store = SQLiteLedgerStore(path)
    ledger = TenantLedger(store, "acme")
    ledger.create(budget=10.0, accountant="renyi")
    spent = RenyiAccountant(budget=10.0)
    spent.record_many(3, EPSILON)
    spent.record(EPSILON)
    group = {
        "epsilon": EPSILON,
        "mechanism": "MQM",
        "quilt_signature": None,
        "rdp_orders": None,
        "rdp_values": None,
    }
    with store.transact("acme") as txn:
        # The row as a trail-keeping accountant once wrote it.
        txn.state["accountant"] = {
            **spent.state_dict(),
            "audit_trail": True,
            "trail": [{"n": 3, **group}, {"n": 1, **group}],
        }
    assert "trail" in store.peek("acme")["accountant"]
    before = ledger.snapshot()
    store.close()

    app = create_app(str(path))  # sweeps at construction
    try:
        accountant_state = app.service.store.peek("acme")["accountant"]
        assert "trail" not in accountant_state
        assert "audit_trail" not in accountant_state
        after = TestClient(app).get("/tenants/acme").json()
        assert after["spent_epsilon"] == before["spent_epsilon"]
        assert after["n_releases"] == before["n_releases"] == 4
    finally:
        app.service.close()
