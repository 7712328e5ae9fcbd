"""Multi-tenant privacy service: durable ledgers, reservation admission,
and an ASGI front-end over the serving engine.

Layering (each level usable on its own):

* :mod:`repro.service.stores` — :class:`LedgerStore` and its SQLite
  backend (a file, or a private ``":memory:"`` database): exclusive
  per-tenant read-modify-write transactions, atomic across threads and
  processes.
* :mod:`repro.service.ledger` — :class:`TenantLedger` (durable accountant
  state + reserve/consume/release-unused admission) and
  :class:`ReservationAccountant` (plugs a reservation into a stock
  :class:`~repro.serving.engine.PrivacyEngine`).
* :mod:`repro.service.retry` — :class:`RetryingLedgerStore`: transparent
  bounded-backoff retry of transient store errors under a
  :class:`RetryPolicy` (the service always wraps its store in one).
* :mod:`repro.service.app` — :class:`PrivacyService` handlers and the
  dependency-free :class:`AsgiApp` exposing calibrate/release/stream over
  HTTP with request deadlines, backpressure, idempotency-keyed releases,
  and a recovery sweep; :mod:`repro.service.server` serves it on stdlib
  asyncio, :mod:`repro.service.testing` drives it in-process for tests.

Fault injection for all of the above lives in :mod:`repro.faults`.

See the service ADR in ``docs/architecture.md`` and the endpoint reference
in ``docs/api.md``.
"""

from repro.service.app import (
    AsgiApp,
    PrivacyService,
    Workload,
    create_app,
    default_workloads,
)
from repro.service.ledger import Reservation, ReservationAccountant, TenantLedger
from repro.service.retry import (
    RetryingLedgerStore,
    RetryPolicy,
    is_transient_store_error,
    with_retries,
)
from repro.service.stores import (
    LedgerStore,
    LedgerTransaction,
    SQLiteLedgerStore,
    ledger_store_from_path,
)

__all__ = [
    "AsgiApp",
    "LedgerStore",
    "LedgerTransaction",
    "PrivacyService",
    "Reservation",
    "ReservationAccountant",
    "RetryPolicy",
    "RetryingLedgerStore",
    "SQLiteLedgerStore",
    "TenantLedger",
    "Workload",
    "create_app",
    "default_workloads",
    "is_transient_store_error",
    "ledger_store_from_path",
    "with_retries",
]
