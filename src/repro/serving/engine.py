"""The PrivacyEngine: cached calibration + batched, budgeted release.

The mechanisms of the paper pay a heavy one-time cost (support enumeration
for Algorithm 1, quilt search for Algorithms 2–4) and then release a single
noised value.  A serving deployment has the opposite shape: one fixed
instantiation, many releases.  :class:`PrivacyEngine` adapts the former to
the latter:

* **calibrate once** — scale computations go through a
  :class:`~repro.serving.cache.CalibrationCache` keyed on the mechanism's
  content fingerprint, the query signature, the data's segment shape, and
  epsilon;
* **release many** — :meth:`release_batch` draws all the noise for a batch
  in one vectorized standard-draw call (Laplace or Gaussian, per the
  mechanism's ``noise_kind``) instead of one scalar draw per release,
  bit-identical to sequential releases under the same generator;
* **never overspend** — every release is recorded against a budget
  accountant (linear Theorem 4.4
  :class:`~repro.core.composition.CompositionAccountant` by default, or the
  Rényi strong-composition
  :class:`~repro.core.accounting.RenyiAccountant` via ``accountant=``); a
  release (or an entire batch, atomically) that would push the composed
  guarantee past the engine's budget raises
  :class:`~repro.exceptions.BudgetExhaustedError` before any noise is
  drawn;
* **stream indefinitely** — :meth:`stream` opens a
  :class:`~repro.serving.stream.ReleaseSession` that yields releases
  incrementally (bit-identical to the batched path under the same seed)
  while debiting the budget atomically per value and drawing each chunk's
  noise in one call, for long-lived clients that do not know their batch
  size up front.

Composition caveat: Pufferfish privacy does not compose in general.  The
``K * max_k eps_k`` accounting implemented by the accountant is *proved* for
the Markov Quilt Mechanism with fixed active quilts (Theorem 4.4); for other
mechanisms the tracked total is a spend ledger, not a composition theorem —
the engine enforces it as a conservative operational limit either way.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, Sequence

import numpy as np

from repro.core.accounting import BaseAccountant, RenyiAccountant, signature_digest
from repro.core.composition import CompositionAccountant
from repro.core.laplace import Calibration, Mechanism, PrivateRelease
from repro.core.queries import Query
from repro.exceptions import ValidationError
from repro.serving.cache import CalibrationCache
from repro.serving.fingerprint import mechanism_fingerprint
from repro.serving.stream import ReleaseSession, _positive_count
from repro.utils.rngtools import resolve_rng


class PrivacyEngine:
    """Serve private releases from one mechanism against one budget.

    Parameters
    ----------
    mechanism:
        Any :class:`~repro.core.laplace.Mechanism` (Wasserstein, MQM,
        MQMExact/MQMApprox, or a baseline).
    cache:
        Calibration cache; defaults to a fresh in-memory LRU.  Pass a
        :class:`~repro.serving.cache.CalibrationCache` backed by a
        :class:`~repro.serving.cache.SQLiteCache` to persist calibrations
        across processes.
    epsilon_budget:
        Optional total epsilon this engine may spend (Theorem 4.4
        accounting: ``K * max_k eps_k`` over K releases).  ``None`` means
        unlimited.
    accountant:
        The accounting regime enforcing that budget: ``"linear"`` (default;
        :class:`~repro.core.composition.CompositionAccountant`, the paper's
        Theorem 4.4 rule), ``"renyi"``
        (:class:`~repro.core.accounting.RenyiAccountant`, Rényi-Pufferfish
        strong composition — long streams stop strictly later under the
        same budget), ``"sliding"``
        (:class:`~repro.core.windowed.SlidingWindowAccountant` with a
        one-window span: the linear rule over the current logical window,
        whose charges expire as the window advances), or a preconstructed
        :class:`~repro.core.accounting.BaseAccountant` instance (mutually
        exclusive with ``epsilon_budget``; configure the instance's own
        ``budget`` / ``delta`` / ``orders`` instead).
    rng:
        Seed or generator for the engine's noise stream; per-call ``rng``
        arguments override it.
    parallel:
        Shard cache-missing calibrations across worker processes (``True``
        for one worker per core, an int for an explicit worker count, or a
        preconfigured :class:`~repro.parallel.ParallelCalibrator`).  The
        sharded result is bit-identical to the serial one and lands in the
        same cache entry, so warm hits stay O(1) lookups either way.
    tenant:
        Optional tenant name this engine serves (multi-tenant deployments;
        surfaced in :meth:`stats` and diagnostics).  The engine itself is
        tenant-agnostic — budget isolation comes from the accountant, e.g. a
        :class:`~repro.service.ledger.ChargeAccountant` or
        :class:`~repro.service.ledger.ReservationAccountant` bound to one
        tenant's durable ledger.
    """

    def __init__(
        self,
        mechanism: Mechanism,
        *,
        cache: CalibrationCache | None = None,
        epsilon_budget: float | None = None,
        accountant: "str | BaseAccountant | None" = None,
        rng: "int | np.random.Generator | None" = None,
        parallel: "bool | int | ParallelCalibrator | None" = None,  # noqa: F821
        tenant: str | None = None,
    ) -> None:
        self.mechanism = mechanism
        self.tenant = tenant
        self.cache = cache if cache is not None else CalibrationCache()
        if accountant is None or accountant == "linear":
            self.accountant: BaseAccountant = CompositionAccountant(
                budget=epsilon_budget
            )
        elif accountant == "renyi":
            self.accountant = RenyiAccountant(budget=epsilon_budget)
        elif accountant == "sliding":
            from repro.core.windowed import SlidingWindowAccountant

            self.accountant = SlidingWindowAccountant(budget=epsilon_budget)
        elif isinstance(accountant, BaseAccountant):
            if epsilon_budget is not None:
                raise ValidationError(
                    "pass epsilon_budget or a preconstructed accountant, not "
                    "both — set the budget on the accountant instance"
                )
            self.accountant = accountant
        else:
            raise ValidationError(
                f"accountant must be 'linear', 'renyi', 'sliding', or a "
                f"BaseAccountant instance, got {accountant!r}"
            )
        self._rng = resolve_rng(rng)
        self._n_releases = 0
        # Guards the release counter only; budget atomicity lives in the
        # accountant's own lock (streams and batches share both).
        self._count_lock = threading.Lock()
        if parallel is None or parallel is False:
            self.calibrator = None
        else:
            from repro.parallel import as_calibrator

            self.calibrator = as_calibrator(parallel)

    # -- calibration ----------------------------------------------------
    def calibrate(self, query: Query, data: Any) -> Calibration:
        """The (cached) expensive step: the noise scale for this workload.

        Does not touch the budget — calibration reads the distribution class
        and the data's segment shape, never the record values, so it is free
        to repeat.  With the engine's ``parallel`` option set, a cache miss
        is computed sharded across worker processes; hits never spawn
        anything.
        """
        compute = None
        if self.calibrator is not None:
            compute = lambda: self.calibrator.calibrate(  # noqa: E731
                self.mechanism, query, data
            )
        calibration, _ = self.cache.get_or_compute(
            self.mechanism, query, data, compute=compute
        )
        return calibration

    # -- single release -------------------------------------------------
    def release(
        self,
        data: Any,
        query: Query,
        rng: "int | np.random.Generator | None" = None,
    ) -> PrivateRelease:
        """One budgeted release through the cached calibration."""
        return self.release_batch([(data, query)], rng=rng)[0]

    # -- batched release ------------------------------------------------
    def release_batch(
        self,
        requests: Sequence[tuple[Any, Query]],
        rng: "int | np.random.Generator | None" = None,
    ) -> list[PrivateRelease]:
        """Answer a batch of ``(data, query)`` requests with one noise draw.

        The batch is atomic against the budget: if answering all requests
        would exceed it, :class:`~repro.exceptions.BudgetExhaustedError` is
        raised — carrying the exact ``spent`` / ``remaining`` ledger with
        ``n_completed == 0`` — and *nothing* is released or recorded.  Noise
        for the whole batch comes from a single vectorized standard-Laplace
        draw scaled per coordinate, which is bit-identical to sequential
        :meth:`Mechanism.release` calls against the same generator state.
        """
        requests = list(requests)
        if not requests:
            return []
        epsilon = self.mechanism.epsilon
        gen = resolve_rng(rng) if rng is not None else self._rng

        # Repeated-release batches reuse the same (data, query) objects many
        # times; resolve each distinct request once — one cache lookup (with
        # its fingerprint/key computation) and one query evaluation, however
        # large the batch.  The id-keyed memo is safe because the request
        # objects are referenced by ``requests`` for the whole call.
        calib_memo: dict[tuple[int, int], Calibration] = {}
        answers: dict[tuple[int, int], Any] = {}
        calibrations = []
        true_values = []
        for data, query in requests:
            memo_key = (id(data), id(query))
            if memo_key not in calib_memo:
                calib_memo[memo_key] = self.calibrate(query, data)
                answers[memo_key] = query(getattr(data, "concatenated", data))
            calibrations.append(calib_memo[memo_key])
            true_values.append(answers[memo_key])

        # Record the whole batch atomically BEFORE any noise exists: a batch
        # that does not fit the budget raises here and releases nothing.
        self.accountant.record_many(
            len(requests),
            epsilon,
            quilt_signature=self._quilt_signature(),
            rdp_curve=self._rdp_curve(),
        )

        dims = np.array([query.output_dim for _, query in requests], dtype=np.int64)
        scales = np.repeat([c.scale for c in calibrations], dims)
        # Zero-scale coordinates consume no randomness (matching the scalar
        # path's "no noise" baseline behavior), so draw only for the rest.
        noise = np.zeros(int(dims.sum()))
        positive = scales > 0
        if positive.any():
            noise[positive] = scales[positive] * self.mechanism.standard_noise(
                gen, int(positive.sum())
            )

        with self._count_lock:
            self._n_releases += len(requests)
        releases: list[PrivateRelease] = []
        offset = 0
        for (data, query), calibration, true_value in zip(
            requests, calibrations, true_values
        ):
            coords = noise[offset : offset + query.output_dim]
            offset += query.output_dim
            if query.output_dim == 1:
                noisy: float | np.ndarray = float(true_value) + float(coords[0])
            else:
                noisy = np.asarray(true_value, dtype=float) + coords
            releases.append(
                PrivateRelease(
                    value=noisy,
                    true_value=true_value,
                    noise_scale=calibration.scale,
                    epsilon=epsilon,
                    mechanism=self.mechanism.name,
                    details=dict(calibration.details),
                )
            )
        return releases

    def release_repeated(
        self,
        data: Any,
        query: Query,
        n_releases: int,
        rng: "int | np.random.Generator | None" = None,
    ) -> list[PrivateRelease]:
        """``n_releases`` independent releases of one query on one dataset —
        the serving hot path: one calibration lookup, one vectorized draw.

        ``n_releases`` must be an integer of at least 1 (``2.5``, ``2.0``,
        ``"2"`` and ``None`` raise :class:`~repro.exceptions.
        ValidationError`), checked before any cache lookup or debit."""
        n_releases = _positive_count(n_releases, "n_releases")
        return self.release_batch([(data, query)] * n_releases, rng=rng)

    # -- streaming releases ----------------------------------------------
    def stream(
        self,
        data: Any,
        query: Query,
        *,
        rng: "int | np.random.Generator | None" = None,
        max_releases: int | None = None,
    ) -> ReleaseSession:
        """Open a :class:`~repro.serving.stream.ReleaseSession` on this engine.

        The session yields releases incrementally (one at a time or in
        caller-sized chunks via :meth:`ReleaseSession.take`), debiting the
        budget atomically per value and then drawing each take's noise in
        one vectorized call.  Under the same ``rng`` seed the yielded values
        are bit-identical to the :meth:`release_batch` prefix of the same
        length.  Sessions share this engine's calibration cache, budget,
        and release counter; see ``docs/architecture.md`` for the streaming
        ADR.
        """
        return ReleaseSession(self, data, query, rng=rng, max_releases=max_releases)

    def with_accountant(
        self,
        accountant: BaseAccountant,
        *,
        tenant: str | None = None,
        rng: "int | np.random.Generator | None" = None,
    ) -> "PrivacyEngine":
        """A sibling engine over the same mechanism, cache, and calibrator,
        but debiting a different accountant.

        This is the multi-tenant handle: the service keeps one warm base
        engine per mechanism and hands each keyless release a clone bound to
        a :class:`~repro.service.ledger.ChargeAccountant` and each stream one
        bound to a :class:`~repro.service.ledger.ReservationAccountant`, so
        every tenant shares the (expensive, tenant-agnostic) calibrations
        while budgets stay strictly isolated.  The clone gets its own noise
        stream (a seeded one carries on across calls) and release counter.
        """
        clone = PrivacyEngine.__new__(PrivacyEngine)
        clone.mechanism = self.mechanism
        clone.cache = self.cache
        clone.calibrator = self.calibrator
        clone.accountant = accountant
        clone.tenant = tenant if tenant is not None else self.tenant
        clone._rng = resolve_rng(rng)
        clone._n_releases = 0
        clone._count_lock = threading.Lock()
        return clone

    def _debit_one(self, quilt_signature: Hashable) -> None:
        """Atomically record one streamed release against the budget.

        Raises :class:`~repro.exceptions.BudgetExhaustedError` (payload
        attached by the accountant; the session fills in ``n_completed``)
        without counting the release when the budget refuses.
        """
        self.accountant.record(
            self.mechanism.epsilon,
            quilt_signature=quilt_signature,
            rdp_curve=self._rdp_curve(),
        )
        with self._count_lock:
            self._n_releases += 1

    def _rdp_curve(self):
        """The mechanism's own Rényi cost curve, if it exposes one.

        Passed to every ``record`` call; the linear accountant ignores it,
        the Rényi accountant charges it instead of the conservative
        pure-release curve.  Called after :meth:`calibrate` has run (the
        engine records post-calibration), so curve implementations may read
        the warm per-node state.
        """
        return getattr(self.mechanism, "rdp_curve", None)

    # -- budget accounting ----------------------------------------------
    @property
    def epsilon_budget(self) -> float | None:
        """Total budget, or ``None`` when unlimited."""
        return self.accountant.budget

    def spent_epsilon(self) -> float:
        """The composed guarantee accumulated so far (``K * max_k eps_k``
        under linear accounting; the converted Rényi guarantee at the
        accountant's delta under ``accountant="renyi"``)."""
        return self.accountant.total_epsilon()

    def remaining_budget(self) -> float | None:
        """Budget left, or ``None`` when unlimited."""
        return self.accountant.remaining()

    def _quilt_signature(self) -> str:
        """Signature recorded with each release: one 64-character digest.

        For the Markov Quilt Mechanism this is its active-quilt signature, so
        the accountant enforces exactly the Theorem 4.4 same-quilt condition;
        for every other mechanism the digest of the engine's (constant)
        mechanism fingerprint keeps the accountant's consistency check
        vacuous.  A stream holds this one string for its whole session.
        """
        if hasattr(self.mechanism, "quilt_signature"):
            return self.mechanism.quilt_signature()
        return signature_digest(mechanism_fingerprint(self.mechanism))

    # -- introspection ---------------------------------------------------
    @property
    def n_releases(self) -> int:
        """Total releases served by this engine."""
        return self._n_releases

    def stats(self) -> dict[str, Any]:
        """Operational snapshot: cache effectiveness and budget position."""
        return {
            "mechanism": self.mechanism.name,
            "epsilon": self.mechanism.epsilon,
            "tenant": self.tenant,
            "parallel_workers": (
                self.calibrator.max_workers if self.calibrator is not None else None
            ),
            "n_releases": self._n_releases,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": self.cache.hit_rate,
            "cache_entries": len(self.cache),
            "spent_epsilon": self.spent_epsilon(),
            "epsilon_budget": self.epsilon_budget,
            "remaining_budget": self.remaining_budget(),
        }
