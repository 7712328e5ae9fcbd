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
* **release many** — :meth:`release`, :meth:`release_repeated`,
  :meth:`release_batch` and :meth:`ReleaseSession.take
  <repro.serving.stream.ReleaseSession.take>` share one release builder:
  each distinct ``(data, query)`` pair is resolved once, all the noise is
  drawn in one vectorized standard-draw call (Laplace or Gaussian, per the
  mechanism's ``noise_kind``) instead of one scalar draw per release, and
  the releases are built in one pass over it — bit-identical to
  sequential releases under the same generator;
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
  while debiting the budget atomically per value, in one admission cycle
  per chunk, and drawing each chunk's noise in one call, for long-lived
  clients that do not know their batch size up front.

Composition caveat: Pufferfish privacy does not compose in general.  The
``K * max_k eps_k`` accounting implemented by the accountant is *proved* for
the Markov Quilt Mechanism with fixed active quilts (Theorem 4.4); for other
mechanisms the tracked total is a spend ledger, not a composition theorem —
the engine enforces it as a conservative operational limit either way.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

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
        Shard cache-missing calibrations across worker processes: an int
        worker count or a preconfigured
        :class:`~repro.parallel.ParallelCalibrator` (``True`` and ``False``
        raise :class:`~repro.exceptions.ValidationError`).  ``MQMExact`` and
        the general MQM shard; other mechanisms calibrate serially.  The
        sharded result is bit-identical to the serial one and lands in the
        same cache entry, so warm hits stay O(1) lookups either way.
    """

    def __init__(
        self,
        mechanism: Mechanism,
        *,
        cache: CalibrationCache | None = None,
        epsilon_budget: float | None = None,
        accountant: "str | BaseAccountant | None" = None,
        rng: "int | np.random.Generator | None" = None,
        parallel: "int | ParallelCalibrator | None" = None,  # noqa: F821
    ) -> None:
        self.mechanism = mechanism
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
        if parallel is None:
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

    # -- releases ---------------------------------------------------------
    def release(
        self,
        data: Any,
        query: Query,
        rng: "int | np.random.Generator | None" = None,
    ) -> PrivateRelease:
        """One budgeted release through the cached calibration: the first
        value of ``release_repeated(data, query, 1)``."""
        return self._release([(data, query, 1)], rng)[0]

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
        draw scaled per coordinate, in request order, which is
        bit-identical to sequential :meth:`Mechanism.release` calls against
        the same generator state.
        """
        # Consecutive requests on the same (data, query) objects form one
        # run, so a repeated request costs one resolution and one draw.
        runs: list[list] = []
        for data, query in requests:
            if runs and runs[-1][0] is data and runs[-1][1] is query:
                runs[-1][2] += 1
            else:
                runs.append([data, query, 1])
        return self._release(runs, rng) if runs else []

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
        return self._release([(data, query, n_releases)], rng)

    def _release(
        self,
        runs: Sequence[Sequence[Any]],
        rng: "int | np.random.Generator | None",
    ) -> list[PrivateRelease]:
        """Resolve, debit and draw ``(data, query, count)`` runs, in order.

        Each distinct ``(data, query)`` object pair is resolved once — one
        cache lookup (with its fingerprint/key computation) and one query
        evaluation — however many runs repeat it; the id-keyed memo is safe
        because ``runs`` references the objects for the whole call.  The
        whole count is recorded in one ``record_many`` *before* any noise
        exists, so a batch that does not fit the budget raises there and
        releases nothing.
        """
        gen = resolve_rng(rng) if rng is not None else self._rng
        resolved: dict[tuple[int, int], tuple[Calibration, Any]] = {}
        workloads = []
        n_releases = 0
        for data, query, count in runs:
            memo_key = (id(data), id(query))
            if memo_key not in resolved:
                resolved[memo_key] = self._resolve(data, query)
            workloads.append((*resolved[memo_key], query.output_dim, count))
            n_releases += count
        self.accountant.record_many(
            n_releases,
            self.mechanism.epsilon,
            quilt_signature=self._quilt_signature(),
            rdp_curve=self._rdp_curve(),
        )
        return self._build_releases(workloads, gen)

    def _resolve(self, data: Any, query: Query) -> tuple[Calibration, Any]:
        """``(calibration, true value)`` of one workload."""
        return self.calibrate(query, data), query(getattr(data, "concatenated", data))

    def _build_releases(
        self,
        workloads: Sequence[tuple[Calibration, Any, int, int]],
        gen: np.random.Generator,
    ) -> list[PrivateRelease]:
        """Draw and build the releases of already-debited workloads: the
        one release builder of every path.

        ``workloads`` holds ``(calibration, true value, output_dim, count)``
        in request order.  One standard draw covers every coordinate whose
        scale is positive, in that order; zero-scale coordinates consume no
        randomness (the "no noise" baselines).  The releases are then built
        in one pass over the noise, so values are ``true + scale * draw``
        coordinate by coordinate, whatever the grouping.
        """
        n_releases = n_coordinates = 0
        scale = workloads[0][0].scale
        uniform = True
        for calibration, _, dim, count in workloads:
            n_releases += count
            n_coordinates += dim * count
            uniform = uniform and calibration.scale == scale
        if uniform:
            noise = (
                scale * self.mechanism.standard_noise(gen, n_coordinates)
                if scale > 0
                else np.zeros(n_coordinates)
            )
        else:  # the scales differ, so at least one is positive
            per_coordinate = np.repeat(
                [calibration.scale for calibration, *_ in workloads],
                [dim * count for _, _, dim, count in workloads],
            )
            positive = per_coordinate > 0
            noise = np.zeros(n_coordinates)
            noise[positive] = per_coordinate[positive] * self.mechanism.standard_noise(
                gen, int(positive.sum())
            )
        with self._count_lock:
            self._n_releases += n_releases

        epsilon, name = self.mechanism.epsilon, self.mechanism.name
        coordinates = noise.tolist()
        releases: list[PrivateRelease] = []
        offset = 0
        for calibration, true_value, dim, count in workloads:
            size = dim * count
            if dim == 1:
                base = float(true_value)
                values: list = [base + c for c in coordinates[offset : offset + size]]
            else:
                base = np.asarray(true_value, dtype=float)
                rows = noise[offset : offset + size].reshape(count, dim)
                values = [base + row for row in rows]
            offset += size
            # Positional in field order (value, true_value, noise_scale,
            # epsilon, mechanism, details): the cheaper call, per release.
            scale, details = calibration.scale, calibration.details
            releases += [
                PrivateRelease(value, true_value, scale, epsilon, name, dict(details))
                for value in values
            ]
        return releases

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
        clone._rng = resolve_rng(rng)
        clone._n_releases = 0
        clone._count_lock = threading.Lock()
        return clone

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
