"""Streaming release sessions: incremental releases with exact accounting.

:meth:`~repro.serving.engine.PrivacyEngine.release_batch` serves a batch
whose size is known up front; a long-lived client wants to *draw* releases —
one at a time, or in chunks it sizes as it goes — without the engine
buffering a whole batch or the client committing to a count.
:class:`ReleaseSession` is that handle.  Its contract:

* **Bit-identical prefix.**  A seeded session yields exactly the values
  ``release_batch([(data, query)] * n, rng=seed)`` would return, release by
  release, for every prefix length ``n`` — however the caller chunks its
  draws.  This holds because numpy ``Generator`` draws (Laplace and
  standard-normal alike — the session dispatches on the mechanism's
  ``noise_kind``) fill arrays sample-by-sample from the bit stream
  (splitting one draw of size ``n`` into consecutive smaller draws is
  bit-identical) and the session performs the exact arithmetic of the
  batched path (``scale * draw`` per coordinate, zero-scale coordinates
  consuming no randomness).
* **One admission cycle and one draw per take, no lookahead.**
  :meth:`ReleaseSession.take` debits its values in one admission cycle on
  the accountant and draws their noise in one vectorized call through the
  engine's release builder, so a chunk costs one draw plus one ledger
  apply per value — no per-release cache-key computation or query
  evaluation.  Nothing is drawn ahead of the values served: the generator
  stands exactly where a batch of the served count would leave it.
  Iterating value by value pays one cycle and one draw per value; chunk
  with ``take(n)`` for throughput.
* **Per-value atomic debit, no over-spend ever.**  The epsilon budget is
  debited through the engine's (thread-safe) accountant, each value its
  own charge and *before* that value's noise exists
  (:meth:`~repro.core.accounting.BaseAccountant.record_each`).  A refused
  debit raises :class:`~repro.exceptions.BudgetExhaustedError` carrying
  the exact ``spent`` / ``remaining`` / ``n_completed`` ledger.  Because
  each value is its own debit, the ledger is the same however a client
  chunks, and ``floor(budget / eps)`` values are served exactly.
* **Thread safety.**  Multiple threads may drain one session (each release
  is yielded exactly once) and multiple sessions may share one engine
  budget (the accountant's lock makes the check-then-record cycle atomic).
* **Warm starts.**  Calibration goes through the engine's
  :class:`~repro.serving.cache.CalibrationCache`, so a second session on
  the same workload never repeats the quilt search.
* **Clean close/exhaust.**  Iteration ends (``StopIteration``) at
  ``max_releases`` or after :meth:`ReleaseSession.close`; sessions are
  context managers, and :meth:`ReleaseSession.stats` reports the ledger at
  any point.

Composition semantics are inherited from the engine: per-value records are
exactly what ``release_batch`` would have recorded for the same count, so
Theorem 4.4's ``K * max_k eps_k`` accounting (valid for MQM under a fixed
active quilt, a conservative spend ledger otherwise) is unchanged by
streaming — see the ADR in ``docs/architecture.md``.
"""

from __future__ import annotations

import operator
import threading
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.core.laplace import PrivateRelease
from repro.core.queries import Query
from repro.exceptions import BudgetExhaustedError, ValidationError
from repro.utils.rngtools import resolve_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.engine import PrivacyEngine


def _positive_count(value: Any, name: str) -> int:
    """``value`` as an ``int`` of at least 1.

    ``operator.index`` refuses ``2.5``, ``2.0``, ``"2"`` and ``None`` instead
    of truncating them, so a session never debits a count the caller did
    not ask for.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if count < 1:
        raise ValidationError(f"{name} must be >= 1, got {count}")
    return count


class ReleaseSession:
    """A streaming handle over one ``(data, query)`` workload.

    Create via :meth:`~repro.serving.engine.PrivacyEngine.stream`; the
    constructor calibrates immediately (a cache hit when the engine is
    warm), so a draw pays only its debits and its noise.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.serving.engine.PrivacyEngine`; its
        accountant, cache, and release counter are shared with every other
        path on the engine.
    data, query:
        The workload, with the same conventions as ``release_batch``.
    rng:
        Seed or generator for this session's noise stream; ``None`` uses
        the engine's stream (sessions sharing it interleave draws).
    max_releases:
        Optional hard cap after which iteration raises ``StopIteration``
        (the *exhausted* state).  ``None`` streams until closed or the
        budget refuses.
    """

    def __init__(
        self,
        engine: "PrivacyEngine",
        data: Any,
        query: Query,
        *,
        rng: "int | np.random.Generator | None" = None,
        max_releases: int | None = None,
    ) -> None:
        if max_releases is not None:
            max_releases = _positive_count(max_releases, "max_releases")
        self.engine = engine
        self.data = data
        self.query = query
        self.max_releases = max_releases
        self._gen = resolve_rng(rng) if rng is not None else engine._rng
        # The one potentially expensive step; warm across sessions via the
        # engine's CalibrationCache.
        self._calibration, self._true_value = engine._resolve(data, query)
        # Fixed for the session: the calibration (hence the active quilt for
        # MQM) is set above and never changes underneath the ledger.
        self._signature = engine._quilt_signature()
        self._n_yielded = 0
        self._closed = False
        self._lock = threading.RLock()

    # -- iteration --------------------------------------------------------
    def __iter__(self) -> Iterator[PrivateRelease]:
        return self

    def __next__(self) -> PrivateRelease:
        chunk = self.take(1)
        if not chunk:
            raise StopIteration
        return chunk[0]

    def take(self, n: int) -> list[PrivateRelease]:
        """Up to ``n`` releases as one chunk.

        One admission cycle debits the values, each its own charge
        (:meth:`~repro.core.accounting.BaseAccountant.record_each`), then
        their noise is drawn in one call.  Shorter chunks signal the end of
        the stream: exhaustion (``max_releases``) or a closed session
        return whatever was debited (possibly ``[]``, having debited and
        drawn nothing).  If a debit fails mid-chunk — the budget refuses,
        or the debit itself errors — the releases already debited are
        returned rather than lost.  The failure is never silently
        swallowed: a budget refusal repeats on the very next call, and so
        does any error that persists; only a chunk whose *first* debit
        fails raises immediately.  A ``BaseException`` (a simulated crash,
        an interrupt) escapes, losing the chunk's debited values with it:
        the ledger keeps their debits, and the session does not count
        them.
        """
        n = _positive_count(n, "take(n)")
        with self._lock:
            if self._closed:
                return []
            if self.max_releases is not None:
                n = min(n, self.max_releases - self._n_yielded)
                if not n:
                    return []
            engine = self.engine
            # Debit before any noise exists: a refused value leaves the
            # ledger exactly where it was and draws nothing.
            try:
                k = engine.accountant.record_each(
                    n,
                    engine.mechanism.epsilon,
                    quilt_signature=self._signature,
                    rdp_curve=engine._rdp_curve(),
                )
            except BudgetExhaustedError as error:
                error.n_completed = self._n_yielded
                raise
            self._n_yielded += k
            return engine._build_releases(
                [(self._calibration, self._true_value, self.query.output_dim, k)],
                self._gen,
            )

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def exhausted(self) -> bool:
        """Whether the ``max_releases`` cap has been reached."""
        return self.max_releases is not None and self._n_yielded >= self.max_releases

    @property
    def n_yielded(self) -> int:
        """Releases debited so far."""
        return self._n_yielded

    def close(self) -> dict[str, Any]:
        """End the session; returns final stats.

        Idempotent; after closing, draws raise ``StopIteration`` and
        ``take`` returns ``[]``.  Nothing is refunded — only debited
        (yielded) releases were ever recorded, and no noise is held.
        """
        with self._lock:
            self._closed = True
            return self.stats()

    def __enter__(self) -> "ReleaseSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection ------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The session ledger: what was yielded and spent."""
        with self._lock:
            epsilon = self.engine.mechanism.epsilon
            return {
                "mechanism": self.engine.mechanism.name,
                "epsilon": epsilon,
                "n_yielded": self._n_yielded,
                # Sum of the yields' epsilons — the session's own debit
                # trail; the engine's composed guarantee is K * max eps.
                "epsilon_streamed": self._n_yielded * epsilon,
                "noise_scale": self._calibration.scale,
                "max_releases": self.max_releases,
                "closed": self._closed,
                "exhausted": self.exhausted,
                "engine_spent_epsilon": self.engine.spent_epsilon(),
                "engine_remaining_budget": self.engine.remaining_budget(),
            }
