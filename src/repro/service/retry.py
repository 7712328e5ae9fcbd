"""Transient-failure retry for ledger stores: bounded backoff with jitter.

A durable store under load throws *transient* errors — SQLite reports
``database is locked`` past its busy timeout, a network filesystem
hiccups an ``EIO``, a lock wait times out
(:class:`~repro.exceptions.LockTimeoutError`, which the fault injector's
``lock_timeout`` kind raises) — none of which mean the operation cannot
succeed, only that it could not succeed *now*.
Surfacing every one as a 503 wastes work the client will simply retry
over HTTP (more load, more contention); hanging forever violates request
deadlines.

:class:`RetryingLedgerStore` wraps any
:class:`~repro.service.stores.LedgerStore` and retries whole
:meth:`~repro.service.stores.LedgerStore.run` cycles — enter, handler,
commit — plus :meth:`~repro.service.stores.LedgerStore.peek` and
:meth:`~repro.service.stores.LedgerStore.tenants`, under a
:class:`RetryPolicy`: bounded exponential backoff, full seeded jitter (so
a thundering herd decorrelates deterministically in tests), and a hard
wall-clock deadline.  Every ledger mutation is a ``run`` closure, so every
one is retried end to end.

What is deliberately **not** retried:

* Domain refusals (:class:`~repro.exceptions.ReproError` except the lock
  timeout) — a budget refusal does not become grantable by retrying.
* A ``with store.transact(...)`` block — the caller's inline body cannot
  be re-run by a wrapper, so :meth:`RetryingLedgerStore.transact` passes
  straight through to the inner store.

Re-running a cycle whose commit may or may not have landed is only
exactly-once when the handler is idempotent — which is precisely what the
ledger provides: client idempotency keys, and for keyless consumes the
call id stamped on the debited reservation (see ``docs/architecture.md``).
"""

from __future__ import annotations

import contextlib
import random
import sqlite3
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import LockTimeoutError, ReproError, ValidationError
from repro.faults import fire
from repro.service.stores import LedgerStore, LedgerTransaction


def is_transient_store_error(error: BaseException) -> bool:
    """The default retry predicate.

    Transient: lock timeouts, SQLite busy/locked, and plain
    ``OSError`` (EIO and friends — the disk blipped, not the logic).
    Never transient: every other :class:`~repro.exceptions.ReproError`
    (refusals and validation are deterministic) and anything else.
    """
    if isinstance(error, LockTimeoutError):
        return True
    if isinstance(error, ReproError):
        return False
    if isinstance(error, sqlite3.OperationalError):
        text = str(error).lower()
        return "locked" in text or "busy" in text
    return isinstance(error, OSError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with full jitter, under a deadline.

    Attempt ``k`` (0-based) sleeps ``uniform(0, min(max_delay, base_delay
    * 2**k))`` — "full jitter", which decorrelates competing retriers
    better than fixed fractions.  Retrying stops when ``max_attempts``
    cycles failed or the next sleep would cross ``deadline`` seconds of
    total elapsed time, whichever is sooner; the last error is re-raised
    unchanged (with its original type, status mapping, and payload).

    ``seed`` makes the jitter sequence reproducible; ``sleep`` is
    injectable so tests assert schedules without waiting them out.
    """

    max_attempts: int = 5
    base_delay: float = 0.01
    max_delay: float = 0.5
    deadline: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValidationError(
                "need 0 <= base_delay <= max_delay, got "
                f"base_delay={self.base_delay}, max_delay={self.max_delay}"
            )
        if self.deadline <= 0:
            raise ValidationError(
                f"deadline must be positive, got {self.deadline}"
            )

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """The jittered sleep before retry number ``attempt`` (1-based)."""
        ceiling = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return rng.uniform(0.0, ceiling)


class RetryingLedgerStore(LedgerStore):
    """A :class:`~repro.service.stores.LedgerStore` that absorbs transient
    backend errors with seeded backoff.

    Parameters
    ----------
    inner:
        The real store.  Exposed as :attr:`inner` for introspection.
    policy:
        The :class:`RetryPolicy`; defaults are serving-sane (5 attempts,
        10 ms base, 0.5 s cap, 10 s deadline).
    classify:
        Predicate deciding which errors are transient; defaults to
        :func:`is_transient_store_error`.
    sleep:
        Injectable sleep (tests pass a recorder).
    """

    def __init__(
        self,
        inner: LedgerStore,
        policy: "RetryPolicy | None" = None,
        *,
        classify: "Callable[[BaseException], bool]" = is_transient_store_error,
        sleep: "Callable[[float], None]" = time.sleep,
    ) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.classify = classify
        self._sleep = sleep
        self._rng = random.Random(self.policy.seed)
        self.retries = 0  # total sleeps taken, for diagnostics

    # -- the retry loop ----------------------------------------------------
    def _attempt(self, op: "Callable[[], Any]") -> Any:
        started = time.monotonic()
        attempt = 0
        while True:
            try:
                return op()
            except BaseException as error:
                attempt += 1
                if not self.classify(error):
                    raise
                if attempt >= self.policy.max_attempts:
                    raise
                delay = self.policy.delay_for(attempt, self._rng)
                if time.monotonic() - started + delay > self.policy.deadline:
                    raise
                fire("store.retry", attempt=attempt, delay=delay)
                self.retries += 1
                self._sleep(delay)

    # -- LedgerStore -------------------------------------------------------
    def transact(
        self, tenant: str, *, sync: bool = True
    ) -> "contextlib.AbstractContextManager[LedgerTransaction]":
        # An inline body cannot be re-run: use run() for retries.
        return self.inner.transact(tenant, sync=sync)

    def run(
        self,
        tenant: str,
        fn: "Callable[[LedgerTransaction], Any]",
        *,
        sync: bool = True,
    ) -> Any:
        # The closure form retries the WHOLE cycle — enter, fn, commit.
        return self._attempt(lambda: self.inner.run(tenant, fn, sync=sync))

    def peek(self, tenant: str) -> "dict[str, Any] | None":
        return self._attempt(lambda: self.inner.peek(tenant))

    def tenants(self) -> list[str]:
        return self._attempt(lambda: self.inner.tenants())

    def close(self) -> None:
        self.inner.close()


def with_retries(store: LedgerStore) -> "RetryingLedgerStore":
    """Wrap ``store`` in default-policy retries unless it already is
    (idempotent: pass a :class:`RetryingLedgerStore` for another policy)."""
    if isinstance(store, RetryingLedgerStore):
        return store
    return RetryingLedgerStore(store)
