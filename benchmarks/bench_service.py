"""Benchmark E10 — the multi-tenant privacy service end to end.

The serving question: what does the durable-ledger HTTP front-end cost per
release, cold versus warm?  *Cold* is a fresh service process against a
fresh store — the first release pays calibration plus tenant-ledger
creation.  *Warm* comes in two shapes: single releases (every keyless
request pays one synced store transaction that admits and debits it,
plus HTTP dispatch: the service's worst case and its per-request
durability price) and batched releases (that one transaction amortized
over ``n`` releases: the steady state a throughput deployment actually
runs).  A streamed session sits between — admission amortized over the
whole reservation, one durable consume per chunk.

Four deterministic correctness gates run in every mode, quick included:

* **Restart rehydration is bit-identical**: Gaussian releases (mechanism-
  supplied RDP curves) through the service, then a simulated restart over
  the same store — the rehydrated tenant's ``eps(delta)`` must equal the
  pre-restart value exactly (``==``, no envelope slack), and the
  continuation must refuse at the same point.
* **Admission exactness**: a linear tenant must serve exactly
  ``floor(budget / epsilon)`` releases before 429, however the requests
  are sliced.
* **One transaction per single and per stream chunk**: a counting store
  must see exactly one store transaction for each warm keyless single
  release (``txn_per_keyless_single``), each keyed one, whose response
  commits with its debit (``txn_per_keyed_single``), and each stream
  chunk (``txn_per_stream_chunk``).

Wall-clock entries (requests/second for cold, warm, and streamed paths)
are recorded to ``results/BENCH_service.json`` for trajectory tracking;
the warm-vs-cold speedup gate only runs in full mode on the perf lane.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.recording import QUICK, QUICK_SKIP_REASON, record_trajectory
from repro.service import SQLiteLedgerStore, create_app
from repro.service.testing import TestClient

EPSILON = 0.5  # the demo workloads' per-release epsilon
SINGLE_RELEASES = 10 if QUICK else 40
BATCH_SIZE = 50
N_BATCHES = 2 if QUICK else 8
STREAM_RELEASES = 40 if QUICK else 200
COLD_TRIALS = 2 if QUICK else 5
WARM_VS_COLD_GATE = 2.0


class _CountingStore(SQLiteLedgerStore):
    """A SQLite ledger store that counts its transactions."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.transactions = 0

    def transact(self, tenant, *, sync=True):
        self.transactions += 1
        return super().transact(tenant, sync=sync)


def _new_client(store_path) -> TestClient:
    return TestClient(create_app(str(store_path)))


@pytest.fixture(scope="module")
def service_report(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench_service")

    # -- cold: fresh process, fresh store, first release pays everything --
    cold_seconds = []
    for trial in range(COLD_TRIALS):
        store_path = base / f"cold_{trial}.sqlite"
        client = _new_client(store_path)
        start = time.perf_counter()
        assert client.post("/tenants/t", {"budget": 1e6}).status == 200
        response = client.post(
            "/tenants/t/release", {"workload": "hub-laplace", "n": 1}
        )
        cold_seconds.append(time.perf_counter() - start)
        assert response.status == 200
        client.app.service.close()
    cold_rps = 1.0 / (sum(cold_seconds) / len(cold_seconds))

    # -- warm: steady state on one long-lived service + store --------------
    store = _CountingStore(base / "warm.sqlite")
    client = TestClient(create_app(store))
    client.post("/tenants/t", {"budget": 1e6})
    client.post("/tenants/t/release", {"workload": "hub-laplace", "n": 1})

    # Single releases: the per-request durability price (1 transaction).
    transactions = store.transactions
    start = time.perf_counter()
    for _ in range(SINGLE_RELEASES):
        assert (
            client.post(
                "/tenants/t/release", {"workload": "hub-laplace", "n": 1}
            ).status
            == 200
        )
    single_seconds = time.perf_counter() - start
    single_rps = SINGLE_RELEASES / single_seconds
    txn_per_keyless_single = (store.transactions - transactions) / SINGLE_RELEASES

    # Keyed single releases: still one transaction, the response included.
    transactions = store.transactions
    for i in range(SINGLE_RELEASES):
        response = client.post(
            "/tenants/t/release",
            {"workload": "hub-laplace", "n": 1, "idempotency_key": f"keyed-{i}"},
        )
        assert response.status == 200
    txn_per_keyed_single = (store.transactions - transactions) / SINGLE_RELEASES

    # Batched releases: one transaction per BATCH_SIZE releases.
    start = time.perf_counter()
    for _ in range(N_BATCHES):
        response = client.post(
            "/tenants/t/release", {"workload": "hub-laplace", "n": BATCH_SIZE}
        )
        assert response.status == 200
    warm_seconds = time.perf_counter() - start
    warm_releases = N_BATCHES * BATCH_SIZE
    warm_rps = warm_releases / warm_seconds

    # -- streamed: admission amortized over one reservation ---------------
    sid = client.post(
        "/tenants/t/stream",
        {"workload": "hub-laplace", "n_reserved": STREAM_RELEASES},
    ).json()["session_id"]
    transactions = store.transactions
    start = time.perf_counter()
    drained = chunks = 0
    while drained < STREAM_RELEASES:
        chunk = client.post(f"/sessions/{sid}/next", {"n": 50}).json()
        assert chunk["n"] > 0
        drained += chunk["n"]
        chunks += 1
    stream_seconds = time.perf_counter() - start
    txn_per_stream_chunk = (store.transactions - transactions) / chunks
    client.delete(f"/sessions/{sid}")
    stream_rps = drained / stream_seconds
    client.app.service.close()

    # -- gate: restart rehydration is bit-identical -----------------------
    rehydrate_path = base / "rehydrate.sqlite"
    first = _new_client(rehydrate_path)
    first.post(
        "/tenants/r", {"budget": 6.0, "accountant": "renyi", "delta": 1e-5}
    )
    spent = first.post(
        "/tenants/r/release", {"workload": "hub-gaussian", "n": 9, "seed": 0}
    ).json()["ledger"]["spent_epsilon"]
    first.app.service.close()
    reborn = _new_client(rehydrate_path)
    snapshot = reborn.get("/tenants/r").json()
    rehydration_exact = (
        snapshot["spent_epsilon"] == spent and snapshot["n_releases"] == 9
    )
    reborn.app.service.close()

    # -- gate: admission exactness ----------------------------------------
    exact_path = base / "exact.sqlite"
    exact = _new_client(exact_path)
    exact.post("/tenants/x", {"budget": 3.0, "accountant": "linear"})
    served = 0
    for n in (2, 1, 2, 1, 1, 1, 1):  # 9 requested > floor(3.0/0.5) = 6
        response = exact.post(
            "/tenants/x/release", {"workload": "hub-laplace", "n": n}
        )
        if response.status == 200:
            served += response.json()["n"]
    refused = exact.post(
        "/tenants/x/release", {"workload": "hub-laplace", "n": 1}
    )
    admission_exact = served == int(3.0 / EPSILON) and refused.status == 429
    exact.app.service.close()

    entries = [
        {
            "op": "release_cold",
            "trials": COLD_TRIALS,
            "seconds": sum(cold_seconds) / len(cold_seconds),
            "rps": cold_rps,
            "speedup": None,
        },
        {
            "op": "release_warm_single",
            "releases": SINGLE_RELEASES,
            "seconds": single_seconds,
            "rps": single_rps,
            "speedup": single_rps / cold_rps,
        },
        {
            "op": "release_warm_batched",
            "releases": warm_releases,
            "batch_size": BATCH_SIZE,
            "seconds": warm_seconds,
            "rps": warm_rps,
            "speedup": warm_rps / cold_rps,
        },
        {
            "op": "stream_warm",
            "releases": drained,
            "seconds": stream_seconds,
            "rps": stream_rps,
            "speedup": stream_rps / cold_rps,
        },
    ]
    record_trajectory(
        "service",
        entries,
        meta={
            "store": "sqlite",
            "workload": "hub-laplace",
            "epsilon": EPSILON,
            "gate": WARM_VS_COLD_GATE,
            "rehydration_exact": rehydration_exact,
            "admission_exact": admission_exact,
            "txn_per_keyless_single": txn_per_keyless_single,
            "txn_per_keyed_single": txn_per_keyed_single,
            "txn_per_stream_chunk": txn_per_stream_chunk,
        },
    )
    return {
        "entries": entries,
        "cold_rps": cold_rps,
        "single_rps": single_rps,
        "warm_rps": warm_rps,
        "stream_rps": stream_rps,
        "rehydration_exact": rehydration_exact,
        "admission_exact": admission_exact,
        "txn_per_keyless_single": txn_per_keyless_single,
        "txn_per_keyed_single": txn_per_keyed_single,
        "txn_per_stream_chunk": txn_per_stream_chunk,
    }


def test_service_trajectory_recorded(service_report):
    """The measurement runs in every mode and records sane rates."""
    assert all(
        entry["rps"] > 0 and entry["seconds"] > 0
        for entry in service_report["entries"]
    )


def test_restart_rehydration_bit_identical(service_report):
    """Deterministic gate, every mode: no envelope slack across restarts."""
    assert service_report["rehydration_exact"]


def test_admission_exactness(service_report):
    """Deterministic gate, every mode: exactly floor(budget/eps) served."""
    assert service_report["admission_exact"]


def test_keyless_single_and_stream_chunk_are_one_transaction(service_report):
    """Deterministic gate, every mode: one store transaction per keyless
    single release and per stream chunk."""
    assert service_report["txn_per_keyless_single"] == 1
    assert service_report["txn_per_stream_chunk"] == 1


def test_keyed_single_is_one_transaction(service_report):
    """Deterministic gate, every mode: a keyed single release is one store
    transaction too (the pre-``charge`` keyed path read three and two
    peeks)."""
    assert service_report["txn_per_keyed_single"] == 1


@pytest.mark.perf
def test_warm_batched_beats_cold(service_report):
    """Steady-state batched releases must beat the cold path by the gate
    factor (single warm releases are *expected* to lose to cold — they pay
    one durable transaction per release; the trajectory records them for
    regression tracking, not as a speedup claim)."""
    if QUICK:
        pytest.skip(QUICK_SKIP_REASON)
    assert (
        service_report["warm_rps"]
        >= WARM_VS_COLD_GATE * service_report["cold_rps"]
    )
