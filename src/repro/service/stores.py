"""Durable tenant-ledger stores: one atomic check-then-record per tenant.

A ledger store persists, per tenant, the full accounting state the service
enforces budgets with (:meth:`~repro.core.accounting.BaseAccountant.
state_dict` — including Rényi running curves — plus outstanding
reservations).  Its one non-negotiable primitive is :meth:`LedgerStore.
transact`: an **exclusive read-modify-write transaction** on one tenant's
state, atomic across threads *and* processes.  Every budget decision the
service makes happens inside one — which is exactly why a thundering herd
of concurrent sessions can never jointly over-commit a tenant budget: two
admissions cannot interleave between the read and the write.

This is deliberately more than the blind upsert of
:class:`~repro.serving.cache.SQLiteCache`.  Cache entries are
content-keyed and deterministic, so a cache writer never reads before it
writes; a budget ledger is a counter — two writers that both read before
either wrote would spend the last epsilon twice.  Ledger writers
therefore hold the exclusion for the whole read-decide-write cycle, never
just the write.

One backend, :class:`SQLiteLedgerStore`: a WAL-mode SQLite database, one
row per tenant, each transaction a ``BEGIN IMMEDIATE`` cycle so concurrent
writers queue on SQLite's own cross-process locking.  Stdlib, crash-safe,
and each transaction rewrites one tenant's row, not every tenant's state.
At ``":memory:"`` it is a private in-memory database of that store
instance — no durability, the same code path (tests, demos, and ``repro
serve`` without ``--store``).

A transaction opened with ``sync=False`` commits just as atomically and
survives the process dying, but may reach stable storage only after it
returns: an OS crash or power loss can undo it, unless a later synced
commit to the same store has returned (that commit's flush covers every
earlier one).  The ledger opens such transactions only to hold or return
budget, never to debit, so a lost one can over-hold budget until the
recovery sweep but never under-count spend.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.exceptions import ValidationError
from repro.faults import fire


class LedgerTransaction:
    """One tenant's state inside an open transaction.

    ``state`` is the tenant's current persisted state (``None`` when the
    tenant does not exist yet).  Handlers mutate it in place or assign a
    new dict; on clean exit from :meth:`LedgerStore.transact` the final
    value is persisted atomically.  Raising inside the ``with`` block
    abandons every change — refusals (budget exhausted, reservation
    conflicts) are exceptions, so a refused transaction leaves the ledger
    bit-for-bit where it was.
    """

    def __init__(self, tenant: str, state: "dict[str, Any] | None") -> None:
        self.tenant = tenant
        self.state = state


class LedgerStore(ABC):
    """Durable per-tenant ledger state with exclusive transactions."""

    @abstractmethod
    def transact(
        self, tenant: str, *, sync: bool = True
    ) -> "contextlib.AbstractContextManager[LedgerTransaction]":
        """Open an exclusive read-modify-write transaction on one tenant.

        The returned context manager yields a :class:`LedgerTransaction`;
        no other transaction on the same store — in this thread, another
        thread, or another process — can interleave between the read and
        the commit.  On exception nothing is written.  With ``sync=False``
        the commit need not be on stable storage when the block exits
        (see the module docstring).
        """

    @abstractmethod
    def peek(self, tenant: str) -> "dict[str, Any] | None":
        """A read-only snapshot of one tenant's state (``None`` if absent).

        May run lock-free: it sees some committed state, never a torn one,
        but a concurrent transaction may commit right after.  Never use a
        peek to make a budget decision — that is what :meth:`transact` is
        for.
        """

    @abstractmethod
    def tenants(self) -> list[str]:
        """Sorted names of every tenant with persisted state."""

    def run(
        self,
        tenant: str,
        fn: "Callable[[LedgerTransaction], Any]",
        *,
        sync: bool = True,
    ) -> Any:
        """Run ``fn`` inside one :meth:`transact` cycle; return its result.

        The functional twin of :meth:`transact` — and the retryable one:
        because the whole read-decide-write cycle is a closure, a wrapper
        (:class:`~repro.service.retry.RetryingLedgerStore`) can re-run it
        after a transient failure, which a ``with`` block's inline body
        cannot be.  ``fn`` must therefore tolerate re-execution from a
        fresh read; ledger handlers do (their effects are pure functions
        of the state they are handed, and the exactly-once protections —
        idempotency keys, reservation ids — live *in* that state).
        """
        with self.transact(tenant, sync=sync) as txn:
            return fn(txn)

    def close(self) -> None:
        """Release backend resources (connections, handles).  Idempotent."""


class SQLiteLedgerStore(LedgerStore):
    """A WAL-mode SQLite database, one state row per tenant.

    ``BEGIN IMMEDIATE`` takes SQLite's write lock at transaction *start*
    (not first write), so the whole read-decide-write cycle is exclusive
    across processes; concurrent writers queue for up to 60 s
    (``busy_timeout``) instead of failing.  WAL mode keeps readers
    unblocked and makes single-row commits cheap.  One connection per store
    instance, serialized by a thread lock — open one store per thread or
    share one; both are safe.  At ``":memory:"`` the database is private to
    the instance and dies with it (SQLite keeps no WAL there).

    A synced commit runs at ``synchronous=FULL`` (the WAL is flushed
    before COMMIT returns), a ``sync=False`` one at ``NORMAL`` (no flush;
    WAL frames are appended in commit order, so the next synced commit's
    flush makes it durable too).  Tenant rows are small, so a commit
    writes a few pages, and the WAL is checkpointed every
    :attr:`WAL_CHECKPOINT_PAGES` pages: commits then overwrite WAL pages
    in place instead of growing the file, which on a journaling
    filesystem such as ext4 would make each flush commit the journal
    too.
    """

    #: WAL size, in pages, at which a commit checkpoints it into the
    #: database and the next commit starts the WAL over.
    WAL_CHECKPOINT_PAGES = 32

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS tenant_ledgers (
            tenant TEXT PRIMARY KEY,
            state  TEXT NOT NULL
        )
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._thread_lock = threading.RLock()
        self._closed = False
        self._close_pending = False
        self._txn_depth = 0
        self._synced = True  # the connection's level: FULL (True) or NORMAL
        # Autocommit mode: transaction boundaries are explicit BEGIN/COMMIT,
        # never implicitly opened by the driver mid-cycle.
        self._conn = sqlite3.connect(
            str(self.path), isolation_level=None, check_same_thread=False
        )
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=FULL")
            self._conn.execute(
                f"PRAGMA wal_autocheckpoint={self.WAL_CHECKPOINT_PAGES}"
            )
            self._conn.execute("PRAGMA busy_timeout=60000")
            self._conn.execute(self._SCHEMA)
        except sqlite3.OperationalError:
            self._conn.close()
            raise
        except sqlite3.DatabaseError as error:  # not a database, or corrupt
            self._conn.close()
            raise ValidationError(
                f"ledger store {self.path} is not a SQLite database: {error}"
            ) from error

    def _require_open(self) -> None:
        """Refuse use after :meth:`close` (called with the thread lock held)."""
        if self._closed or self._close_pending:
            raise ValidationError(
                f"ledger store {self.path} is closed; open a new store"
            )

    @contextlib.contextmanager
    def transact(
        self, tenant: str, *, sync: bool = True
    ) -> Iterator[LedgerTransaction]:
        with self._thread_lock:
            self._require_open()
            self._txn_depth += 1
            try:
                fire("ledger.sqlite.begin", tenant=tenant, path=str(self.path))
                # The level cannot change inside a transaction; a nested
                # transact fails at BEGIN below either way.
                if sync != self._synced and not self._conn.in_transaction:
                    level = "FULL" if sync else "NORMAL"
                    self._conn.execute(f"PRAGMA synchronous={level}")
                    self._synced = sync
                self._conn.execute("BEGIN IMMEDIATE")
                committed = False
                try:
                    row = self._conn.execute(
                        "SELECT state FROM tenant_ledgers WHERE tenant = ?",
                        (tenant,),
                    ).fetchone()
                    txn = LedgerTransaction(
                        tenant, None if row is None else json.loads(row[0])
                    )
                    yield txn
                    if txn.state is not None:
                        fire(
                            "ledger.sqlite.commit",
                            tenant=tenant,
                            path=str(self.path),
                        )
                        self._conn.execute(
                            "INSERT INTO tenant_ledgers (tenant, state) VALUES (?, ?) "
                            "ON CONFLICT (tenant) DO UPDATE SET state = excluded.state",
                            (tenant, json.dumps(txn.state)),
                        )
                    self._conn.execute("COMMIT")
                    committed = True
                    fire(
                        "ledger.sqlite.commit.after",
                        tenant=tenant,
                        path=str(self.path),
                    )
                except BaseException:
                    # Roll back only an open transaction: a post-COMMIT
                    # fault (or a close()d connection) must not shadow the
                    # real error with "no transaction is active".
                    if not committed:
                        with contextlib.suppress(sqlite3.Error):
                            self._conn.execute("ROLLBACK")
                    raise
            finally:
                self._txn_depth -= 1
                if self._close_pending and self._txn_depth == 0:
                    self._close_pending = False
                    self._closed = True
                    self._conn.close()

    def peek(self, tenant: str) -> "dict[str, Any] | None":
        with self._thread_lock:
            self._require_open()
            row = self._conn.execute(
                "SELECT state FROM tenant_ledgers WHERE tenant = ?", (tenant,)
            ).fetchone()
            return None if row is None else json.loads(row[0])

    def tenants(self) -> list[str]:
        with self._thread_lock:
            self._require_open()
            rows = self._conn.execute(
                "SELECT tenant FROM tenant_ledgers ORDER BY tenant"
            ).fetchall()
            return [row[0] for row in rows]

    def close(self) -> None:
        """Close the connection; idempotent and safe mid-transact.

        A close racing an in-flight transaction on another thread would
        normally poison that transaction's COMMIT/ROLLBACK with
        ``ProgrammingError: Cannot operate on a closed database``.  Instead
        the close is *deferred*: new transactions are refused immediately,
        and the connection is actually closed by the last in-flight
        transaction on its way out (see :meth:`transact`'s ``finally``).
        """
        with self._thread_lock:
            if self._closed or self._close_pending:
                return
            if self._txn_depth > 0:
                self._close_pending = True
                return
            self._closed = True
            self._conn.close()


def ledger_store_from_path(path: "str | Path | None") -> LedgerStore:
    """A SQLite store at ``path`` (any suffix); for ``None``, a private
    ``":memory:"`` database (no durability)."""
    return SQLiteLedgerStore(":memory:" if path is None else path)
