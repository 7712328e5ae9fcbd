"""Reservation admission under concurrency: tenants never over-commit.

The acceptance bar for the durable ledger: N workers — threads in one
process, then genuinely separate OS processes — hammering one shared store
with reserve/consume cycles must stop at **exactly** ``floor(budget /
epsilon)`` total releases for a linear tenant.  Not approximately: one
release too many is a privacy violation, one too few means admission
leaked budget (reservations not returned).  The SQLite store is
hammered, by threads at a file and at a shared ``:memory:`` database; the
cross-process runs use inline ``-c`` programs against the same store path,
exactly like a fleet of service processes sharing a ledger."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.exceptions import BudgetExhaustedError
from repro.service.ledger import TenantLedger
from repro.service.stores import SQLiteLedgerStore

SRC = str(Path(__file__).resolve().parent.parent / "src")

BUDGET = 6.0
EPSILON = 0.5
CAP = int(BUDGET / EPSILON)  # 12 releases, total — however many workers race

N_WORKERS = 6
CHUNK = 2  # releases per reservation attempt


def _make_store(tmp_path: Path, kind: str = "sqlite"):
    if kind == "memory":
        return SQLiteLedgerStore(":memory:")
    return SQLiteLedgerStore(tmp_path / "ledgers.sqlite")


def _drain_worker(store, results: list, index: int) -> None:
    """Reserve-consume-release until admission refuses; count consumptions.

    Each worker mimics one service session loop: reserve a small chunk,
    consume it fully, repeat.  The refusal path returns any unconsumed
    remainder, so the *total* across workers must land exactly on CAP.
    """
    ledger = TenantLedger(store, "acme")
    served = 0
    try:
        while True:
            try:
                reservation = ledger.reserve(CHUNK, EPSILON)
            except BudgetExhaustedError:
                break
            try:
                for _ in range(CHUNK):
                    ledger.consume(reservation.reservation_id, epsilon=EPSILON)
                    served += 1
            finally:
                ledger.release_unused(reservation.reservation_id)
        results[index] = served
    except BaseException as error:  # pragma: no cover - regression only
        results[index] = error


@pytest.mark.parametrize("kind", ["sqlite", "memory"])
def test_threads_stop_at_exact_budget(kind, tmp_path):
    store = _make_store(tmp_path, kind)
    try:
        TenantLedger(store, "acme").create(budget=BUDGET)
        results: list = [None] * N_WORKERS
        threads = [
            threading.Thread(target=_drain_worker, args=(store, results, i))
            for i in range(N_WORKERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        failures = [r for r in results if not isinstance(r, int)]
        assert not failures, failures
        assert sum(results) == CAP
        snapshot = TenantLedger(store, "acme").snapshot()
        assert snapshot["spent_epsilon"] == pytest.approx(BUDGET)
        assert snapshot["reserved_releases"] == 0  # everything returned
    finally:
        store.close()


#: One OS process's worker loop: drain the shared ledger, print the count.
_SUBPROCESS_DRAINER = """
import json, sys
from repro.exceptions import BudgetExhaustedError
from repro.service.ledger import TenantLedger
from repro.service.stores import ledger_store_from_path

path, epsilon, chunk = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
store = ledger_store_from_path(path)
ledger = TenantLedger(store, "acme")
served = 0
while True:
    try:
        reservation = ledger.reserve(chunk, epsilon)
    except BudgetExhaustedError:
        break
    try:
        for _ in range(chunk):
            ledger.consume(reservation.reservation_id, epsilon=epsilon)
            served += 1
    finally:
        ledger.release_unused(reservation.reservation_id)
store.close()
print(json.dumps({"served": served}))
"""


@pytest.mark.parametrize("kind", ["sqlite"])
def test_processes_stop_at_exact_budget(kind, tmp_path):
    """The same exactness across OS processes — the SQLite store file
    (BEGIN IMMEDIATE) is the only coordination, exactly as for a fleet of
    service processes."""
    store = _make_store(tmp_path)
    path = str(store.path)
    TenantLedger(store, "acme").create(budget=BUDGET)
    store.close()

    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _SUBPROCESS_DRAINER, path, str(EPSILON), str(CHUNK)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            text=True,
        )
        for _ in range(4)
    ]
    served = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        served.append(json.loads(out)["served"])

    assert sum(served) == CAP
    reopened = _make_store(tmp_path)
    try:
        snapshot = TenantLedger(reopened, "acme").snapshot()
        assert snapshot["spent_epsilon"] == pytest.approx(BUDGET)
        assert snapshot["reserved_releases"] == 0
        assert snapshot["n_releases"] == CAP
    finally:
        reopened.close()


def test_concurrent_tenants_are_independent(tmp_path):
    """Two tenants drained concurrently each hit their own cap — budgets
    never bleed across tenant rows."""
    store = SQLiteLedgerStore(tmp_path / "ledgers.sqlite")
    try:
        for tenant in ("a", "b"):
            TenantLedger(store, tenant).create(budget=2.0)

        results: list[tuple[str, int]] = []
        results_lock = threading.Lock()

        def drain(tenant: str) -> None:
            ledger = TenantLedger(store, tenant)
            served = 0
            while True:
                try:
                    res = ledger.reserve(1, EPSILON)
                except BudgetExhaustedError:
                    break
                ledger.consume(res.reservation_id, epsilon=EPSILON)
                served += 1
            with results_lock:
                results.append((tenant, served))

        threads = [
            threading.Thread(target=drain, args=(t,))
            for t in ("a", "b", "a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        totals = {"a": 0, "b": 0}
        for tenant, served in results:
            totals[tenant] += served
        assert totals == {"a": 4, "b": 4}  # floor(2.0 / 0.5) each
    finally:
        store.close()
