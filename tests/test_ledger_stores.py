"""Conformance of every :class:`~repro.service.stores.LedgerStore` backend.

One parametrized suite over the one backend, SQLite, at a private
``:memory:`` database and at a file: either way a store must provide
exclusive read-modify-write transactions, abandon changes on exception,
expose lock-free-safe peeks, and isolate tenants.  The cross-process
guarantees get their own hammering in ``tests/test_ledger_concurrency.py``;
this file is the functional floor."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ValidationError
from repro.service.stores import SQLiteLedgerStore, ledger_store_from_path

BACKENDS = ("memory", "sqlite")


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    if request.param == "memory":
        built = SQLiteLedgerStore(":memory:")
    else:
        built = SQLiteLedgerStore(tmp_path / "ledgers.sqlite")
    yield built
    built.close()


def test_absent_tenant_reads_none(store):
    assert store.peek("ghost") is None
    assert store.tenants() == []
    with store.transact("ghost") as txn:
        assert txn.state is None
    # A transaction that never assigned state created nothing.
    assert store.peek("ghost") is None


def test_create_read_update(store):
    with store.transact("acme") as txn:
        txn.state = {"n": 1, "nested": {"values": [1.5, 2.5]}}
    assert store.peek("acme") == {"n": 1, "nested": {"values": [1.5, 2.5]}}
    with store.transact("acme") as txn:
        txn.state["n"] += 1
    assert store.peek("acme")["n"] == 2
    assert store.tenants() == ["acme"]


def test_exception_abandons_changes(store):
    with store.transact("acme") as txn:
        txn.state = {"n": 1}
    with pytest.raises(RuntimeError):
        with store.transact("acme") as txn:
            txn.state["n"] = 99
            raise RuntimeError("refused")
    assert store.peek("acme") == {"n": 1}


def test_tenants_are_isolated(store):
    with store.transact("a") as txn:
        txn.state = {"who": "a"}
    with store.transact("b") as txn:
        txn.state = {"who": "b"}
    assert store.tenants() == ["a", "b"]
    assert store.peek("a") == {"who": "a"}
    assert store.peek("b") == {"who": "b"}


def test_peek_returns_a_copy(store):
    with store.transact("acme") as txn:
        txn.state = {"n": 1}
    snapshot = store.peek("acme")
    snapshot["n"] = 999
    assert store.peek("acme")["n"] == 1


def test_threaded_increments_never_lost(store):
    """The transactional core: 8 threads x 25 increments on one counter
    must total exactly 200 — any lost update means the read-modify-write
    cycle was not exclusive."""
    with store.transact("counter") as txn:
        txn.state = {"n": 0}
    errors: list = []

    def bump() -> None:
        try:
            for _ in range(25):
                with store.transact("counter") as txn:
                    txn.state["n"] += 1
        except BaseException as error:  # pragma: no cover - regression only
            errors.append(error)

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert store.peek("counter")["n"] == 200


def test_unsynced_transaction_commits_like_any_other(store):
    with store.transact("acme", sync=False) as txn:
        txn.state = {"n": 1}
    assert store.run("acme", lambda txn: txn.state["n"], sync=False) == 1
    assert store.peek("acme") == {"n": 1}


def test_sqlite_flushes_only_synced_commits(tmp_path):
    """A synced commit runs at ``synchronous=FULL`` (the WAL is flushed
    before COMMIT returns), a ``sync=False`` one at ``NORMAL``."""
    store = SQLiteLedgerStore(tmp_path / "ledgers.sqlite")

    def level(txn):
        txn.state = {"n": 1}
        return store._conn.execute("PRAGMA synchronous").fetchone()[0]

    try:
        assert store.run("acme", level) == 2
        assert store.run("acme", level, sync=False) == 1
        assert store.run("acme", level) == 2
    finally:
        store.close()


def test_sqlite_wal_stays_bounded(tmp_path):
    """Commits checkpoint the WAL every ``WAL_CHECKPOINT_PAGES`` pages, so
    it stops growing and later commits overwrite its pages in place."""
    path = tmp_path / "ledgers.sqlite"
    store = SQLiteLedgerStore(path)
    try:
        for i in range(400):
            with store.transact(f"t{i % 4}", sync=i % 2 == 0) as txn:
                txn.state = {"i": i, "pad": "x" * 900}
        page = store._conn.execute("PRAGMA page_size").fetchone()[0]
        wal = (tmp_path / "ledgers.sqlite-wal").stat().st_size
    finally:
        store.close()
    assert wal <= 2 * SQLiteLedgerStore.WAL_CHECKPOINT_PAGES * (page + 24)


@pytest.mark.parametrize("name", ["ledgers.sqlite", "ledgers.json"])
def test_sqlite_store_refuses_foreign_file(tmp_path, name):
    """A file that is not a SQLite database (say, a JSON ledger file) is
    refused with a typed error naming it, whatever its suffix."""
    path = tmp_path / name
    path.write_text('{"acme": {"n": 1}}')
    with pytest.raises(ValidationError, match="not a SQLite database") as caught:
        ledger_store_from_path(path)
    assert str(path) in str(caught.value)
    assert path.read_text() == '{"acme": {"n": 1}}'  # left untouched


def test_sqlite_store_creates_missing_directory(tmp_path):
    store = SQLiteLedgerStore(tmp_path / "sub" / "ledgers.sqlite")
    try:
        assert store.peek("acme") is None
        with store.transact("acme") as txn:
            txn.state = {"n": 1}
        assert store.peek("acme") == {"n": 1}
    finally:
        store.close()


def test_sqlite_store_persists_across_instances(tmp_path):
    path = tmp_path / "ledgers.sqlite"
    first = SQLiteLedgerStore(path)
    with first.transact("acme") as txn:
        txn.state = {"n": 7}
    first.close()
    second = SQLiteLedgerStore(path)
    try:
        assert second.peek("acme") == {"n": 7}
    finally:
        second.close()


@pytest.mark.parametrize(
    "path, expected",
    [
        (None, SQLiteLedgerStore),
        ("ledgers.sqlite", SQLiteLedgerStore),
        ("ledgers.sqlite3", SQLiteLedgerStore),
        ("ledgers.db", SQLiteLedgerStore),
        ("ledgers.json", SQLiteLedgerStore),
        ("ledgers", SQLiteLedgerStore),
    ],
)
def test_store_from_path_dispatch(tmp_path, path, expected):
    store = ledger_store_from_path(
        None if path is None else tmp_path / path
    )
    try:
        assert isinstance(store, expected)
        if path is None:  # a private in-memory database, not a file
            assert str(store.path) == ":memory:"
    finally:
        store.close()


# -- close(): idempotent, safe mid-transact ---------------------------------
def test_close_is_idempotent(store):
    store.close()
    store.close()  # second close must be a no-op, not an error


def test_closed_durable_store_refuses_new_transactions(store):
    store.close()
    with pytest.raises(ValidationError, match="closed"):
        with store.transact("acme"):
            pass
    # Reads are refused the same way, naming the store.
    with pytest.raises(ValidationError, match="closed") as caught:
        store.peek("acme")
    assert str(store.path) in str(caught.value)
    with pytest.raises(ValidationError, match="closed"):
        store.tenants()


def test_close_during_transact_lets_the_commit_finish(store):
    """close() racing an in-flight transaction: the transaction commits
    (its atomicity is the whole point), only *new* ones are refused."""
    if str(store.path) == ":memory:":
        pytest.skip("a closed :memory: database cannot be reopened to check")
    with store.transact("acme") as txn:
        txn.state = {"n": 1}
        store.close()  # mid-transaction: must not poison the commit
    with pytest.raises(ValidationError, match="closed"):
        with store.transact("acme"):
            pass
    # The commit landed: a fresh store on the same path sees it.
    reborn = SQLiteLedgerStore(store.path)
    try:
        assert reborn.peek("acme") == {"n": 1}
    finally:
        reborn.close()


def test_sqlite_close_from_another_thread_waits_for_commit(tmp_path):
    store = SQLiteLedgerStore(tmp_path / "ledgers.sqlite")
    entered = threading.Event()
    release = threading.Event()

    def writer() -> None:
        with store.transact("acme") as txn:
            txn.state = {"n": 7}
            entered.set()
            release.wait(timeout=10)

    thread = threading.Thread(target=writer)
    thread.start()
    assert entered.wait(timeout=10)
    closer = threading.Thread(target=store.close)
    closer.start()
    release.set()
    thread.join(timeout=10)
    closer.join(timeout=10)
    # The writer's commit survived the concurrent close.
    reborn = SQLiteLedgerStore(tmp_path / "ledgers.sqlite")
    try:
        assert reborn.peek("acme") == {"n": 7}
    finally:
        reborn.close()
