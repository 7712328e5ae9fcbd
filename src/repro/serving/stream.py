"""Streaming release sessions: incremental releases with exact accounting.

:meth:`~repro.serving.engine.PrivacyEngine.release_batch` serves a batch
whose size is known up front; a long-lived client wants to *draw* releases —
one at a time, or in chunks it sizes as it goes — without the engine
buffering a whole batch or the client committing to a count.
:class:`ReleaseSession` is that handle.  Its contract:

* **Bit-identical prefix.**  A seeded session yields exactly the values
  ``release_batch([(data, query)] * n, rng=seed)`` would return, release by
  release, for every prefix length ``n`` — whatever ``block_size`` is and
  however the caller chunks its draws.  This holds because numpy
  ``Generator`` draws (Laplace and standard-normal alike — the session
  dispatches on the mechanism's ``noise_kind``) fill arrays
  sample-by-sample from the bit stream
  (splitting one draw of size ``n`` into consecutive smaller draws is
  bit-identical) and the session performs the exact arithmetic of the
  batched path (``scale * draw`` per coordinate, zero-scale coordinates
  consuming no randomness).
* **Amortized noise.**  Noise is pre-drawn in vectorized blocks of
  ``block_size`` releases, so the steady-state per-release cost is a slice
  plus a ledger append — no per-release cache-key computation, query
  evaluation, or scalar RNG call.
* **Per-yield atomic debit, no over-spend ever.**  The epsilon budget is
  debited through the engine's (thread-safe)
  :class:`~repro.core.composition.CompositionAccountant` *before* a value
  leaves the session.  Pre-drawn noise that the budget no longer covers is
  never released: the draw raises
  :class:`~repro.exceptions.BudgetExhaustedError` carrying the exact
  ``spent`` / ``remaining`` / ``n_completed`` ledger.  Blocks are drawn
  eagerly but debited lazily — pre-drawing is budget-neutral.
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

Composition semantics are inherited from the engine: per-yield records are
exactly what ``release_batch`` would have recorded for the same count, so
Theorem 4.4's ``K * max_k eps_k`` accounting (valid for MQM under a fixed
active quilt, a conservative spend ledger otherwise) is unchanged by
streaming — see the ADR in ``docs/architecture.md``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.core.laplace import PrivateRelease
from repro.core.queries import Query
from repro.exceptions import BudgetExhaustedError, ValidationError
from repro.utils.rngtools import resolve_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.engine import PrivacyEngine


class ReleaseSession:
    """A streaming handle over one ``(data, query)`` workload.

    Create via :meth:`~repro.serving.engine.PrivacyEngine.stream`; the
    constructor calibrates immediately (a cache hit when the engine is
    warm), so the first draw pays no setup beyond its noise block.

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
    block_size:
        Releases worth of noise drawn per vectorized block.  Any value
        yields bit-identical output; larger blocks amortize better.
    max_releases:
        Optional hard cap after which iteration raises ``StopIteration``
        (the *exhausted* state).  ``None`` streams until closed or the
        budget refuses.

    :guarded: _noise, _pos, _blocks_drawn
    """

    def __init__(
        self,
        engine: "PrivacyEngine",
        data: Any,
        query: Query,
        *,
        rng: "int | np.random.Generator | None" = None,
        block_size: int = 64,
        max_releases: int | None = None,
    ) -> None:
        if block_size < 1:
            raise ValidationError(f"block_size must be >= 1, got {block_size}")
        if max_releases is not None and max_releases < 1:
            raise ValidationError(
                f"max_releases must be >= 1 or None, got {max_releases}"
            )
        self.engine = engine
        self.data = data
        self.query = query
        self.block_size = int(block_size)
        self.max_releases = None if max_releases is None else int(max_releases)
        self._gen = resolve_rng(rng) if rng is not None else engine._rng
        # The one potentially expensive step; warm across sessions via the
        # engine's CalibrationCache.
        self._calibration = engine.calibrate(query, data)
        self._true_value = query(getattr(data, "concatenated", data))
        self._true_array = (
            None
            if query.output_dim == 1
            else np.asarray(self._true_value, dtype=float)
        )
        # Fixed for the session: the calibration (hence the active quilt for
        # MQM) is set above and never changes underneath the ledger.
        self._signature = engine._quilt_signature()
        self._noise = np.empty(0)
        self._pos = 0
        self._n_yielded = 0
        self._blocks_drawn = 0
        self._closed = False
        self._lock = threading.RLock()

    # -- iteration --------------------------------------------------------
    def __iter__(self) -> Iterator[PrivateRelease]:
        return self

    def __next__(self) -> PrivateRelease:
        with self._lock:
            if self._closed or (
                self.max_releases is not None
                and self._n_yielded >= self.max_releases
            ):
                raise StopIteration
            # Debit before any noise is touched: a refused draw must leave
            # the ledger exactly where it was and release nothing.
            try:
                self.engine._debit_one(self._signature)
            except BudgetExhaustedError as error:
                error.n_completed = self._n_yielded
                raise
            dim = self.query.output_dim
            if self._pos >= self._noise.size:
                self._refill_locked()
            coords = self._noise[self._pos : self._pos + dim]
            self._pos += dim
            self._n_yielded += 1
            if dim == 1:
                noisy: float | np.ndarray = float(self._true_value) + float(coords[0])
            else:
                noisy = self._true_array + coords
            return PrivateRelease(
                value=noisy,
                true_value=self._true_value,
                noise_scale=self._calibration.scale,
                epsilon=self.engine.mechanism.epsilon,
                mechanism=self.engine.mechanism.name,
                details=dict(self._calibration.details),
            )

    def _refill_locked(self) -> None:
        """Draw the next vectorized noise block (``self._lock`` held).

        The block never extends past ``max_releases``, so a capped session
        leaves the generator positioned exactly where the equivalent batch
        call would.  Zero-scale calibrations consume no randomness, matching
        the batched path's "no noise" baseline behavior.
        """
        block = self.block_size
        if self.max_releases is not None:
            block = min(block, self.max_releases - self._n_yielded)
        size = block * self.query.output_dim
        scale = self._calibration.scale
        if scale > 0:
            self._noise = scale * self.engine.mechanism.standard_noise(
                self._gen, size
            )
        else:
            self._noise = np.zeros(size)
        self._pos = 0
        self._blocks_drawn += 1

    def take(self, n: int) -> list[PrivateRelease]:
        """Up to ``n`` releases as one chunk.

        Shorter chunks signal the end of the stream: exhaustion
        (``max_releases``) or a closed session return whatever was drawn
        (possibly ``[]``).  If a draw fails mid-chunk — the budget refuses,
        or the debit itself errors — the releases already debited are
        returned rather than lost.  The failure is never silently
        swallowed: a budget refusal repeats on the very next draw (or
        ``take``), and so does any error that persists; only a chunk whose
        *first* draw fails raises immediately.
        """
        if n < 1:
            raise ValidationError(f"take(n) requires n >= 1, got {n}")
        chunk: list[PrivateRelease] = []
        for _ in range(n):
            try:
                chunk.append(next(self))
            except StopIteration:
                break
            except Exception:
                if not chunk:
                    raise
                break
        return chunk

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
        """Releases yielded so far."""
        return self._n_yielded

    def close(self) -> dict[str, Any]:
        """End the session and drop buffered noise; returns final stats.

        Idempotent; after closing, draws raise ``StopIteration`` and
        ``take`` returns ``[]``.  Nothing is refunded — only debited
        (yielded) releases were ever recorded.
        """
        with self._lock:
            self._closed = True
            self._noise = np.empty(0)
            self._pos = 0
            return self.stats()

    def __enter__(self) -> "ReleaseSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection ------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The session ledger: what was yielded, spent, and buffered."""
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
                "block_size": self.block_size,
                "blocks_drawn": self._blocks_drawn,
                "noise_buffered": (self._noise.size - self._pos)
                // self.query.output_dim,
                "max_releases": self.max_releases,
                "closed": self._closed,
                "exhausted": self.exhausted,
                "engine_spent_epsilon": self.engine.spent_epsilon(),
                "engine_remaining_budget": self.engine.remaining_budget(),
            }
