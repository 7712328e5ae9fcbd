"""Trial runner: repeat releases and aggregate L1 errors.

The noise scale of every mechanism in this library is deterministic given
the data and family, so a "trial" only redraws the noise (and, for
the synthetic experiments, optionally the dataset itself).  The runner goes
through the serving layer: a :class:`~repro.serving.PrivacyEngine` computes
(and caches) the calibration once, keeping the scale computation out of the
timed/averaged loop exactly as the paper's methodology separates scale
computation (Table 2) from error measurement (Tables 1 and 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.metrics import l1_error
from repro.core.laplace import Mechanism
from repro.core.queries import Query
from repro.exceptions import ValidationError
from repro.serving.engine import PrivacyEngine
from repro.utils.rngtools import resolve_rng


@dataclass
class TrialResult:
    """Aggregated error of repeated releases."""

    mechanism: str
    mean_l1: float
    std_l1: float
    n_trials: int
    noise_scale: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.mechanism}: L1 = {self.mean_l1:.4g} +/- {self.std_l1:.2g} "
            f"({self.n_trials} trials, scale {self.noise_scale:.4g})"
        )


def run_release_trials(
    mechanism: Mechanism | PrivacyEngine,
    data,
    query: Query,
    n_trials: int,
    rng: "int | np.random.Generator | None" = None,
    *,
    workers: int | None = None,
) -> TrialResult:
    """Release ``n_trials`` times and aggregate L1 errors.

    Accepts a bare mechanism (wrapped into a throwaway
    :class:`~repro.serving.PrivacyEngine`) or an existing engine, whose
    calibration cache is then shared across calls.  The scale is calibrated
    once; each trial adds fresh noise of the mechanism's own family to the
    exact answer, which is equivalent to (and much faster than) calling
    :meth:`Mechanism.release` repeatedly.

    ``workers`` shards the (single, up-front) calibration across that many
    worker processes — bit-identical scale, faster on multi-core hosts; it
    only applies when a bare mechanism is passed (an existing engine keeps
    its own parallel configuration).
    """
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    gen = resolve_rng(rng)
    engine = (
        mechanism
        if isinstance(mechanism, PrivacyEngine)
        else PrivacyEngine(mechanism, parallel=workers)
    )
    values = getattr(data, "concatenated", data)
    exact = np.atleast_1d(np.asarray(query(values), dtype=float))
    scale = engine.calibrate(query, data).scale
    shape = (n_trials, exact.size)
    noise = (
        scale * engine.mechanism.standard_noise(gen, shape) if scale > 0 else np.zeros(shape)
    )
    errors = np.abs(noise).sum(axis=1)
    return TrialResult(
        mechanism=engine.mechanism.name,
        mean_l1=float(errors.mean()),
        std_l1=float(errors.std()),
        n_trials=n_trials,
        noise_scale=float(scale),
    )


def run_streaming_trials(
    mechanism: Mechanism | PrivacyEngine,
    data,
    query: Query,
    n_trials: int,
    rng: "int | np.random.Generator | None" = None,
    *,
    chunk_size: int = 256,
    workers: int | None = None,
) -> TrialResult:
    """Aggregate L1 errors over ``n_trials`` *streamed* releases.

    The streaming sibling of :func:`run_release_trials`: instead of
    simulating the noise distribution, it drives the real incremental path —
    a :class:`~repro.serving.stream.ReleaseSession` drained in
    ``chunk_size`` chunks — so every yielded release went through the
    per-value budget debit and its chunk's one noise draw.  Under the
    same seed the aggregated errors equal the batched path's exactly (the
    session is bit-identical to the ``release_batch`` prefix).  ``workers``
    shards a cache-missing calibration as in :func:`run_release_trials`.
    """
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    if chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
    engine = (
        mechanism
        if isinstance(mechanism, PrivacyEngine)
        else PrivacyEngine(mechanism, parallel=workers)
    )
    scale = engine.calibrate(query, data).scale
    errors: list[float] = []
    with engine.stream(data, query, rng=rng, max_releases=n_trials) as session:
        while True:
            chunk = session.take(chunk_size)
            if not chunk:
                break
            errors.extend(release.l1_error() for release in chunk)
    arr = np.asarray(errors)
    return TrialResult(
        mechanism=engine.mechanism.name,
        mean_l1=float(arr.mean()),
        std_l1=float(arr.std()),
        n_trials=n_trials,
        noise_scale=float(scale),
    )


def run_mechanism_suite(
    mechanisms: "dict[str, Mechanism] | list[Mechanism]",
    data,
    query: Query,
    n_trials: int,
    rng: "int | np.random.Generator | None" = None,
    *,
    workers: int | None = None,
) -> list[TrialResult]:
    """Trial runs for several mechanisms on one workload.

    The multi-mechanism comparison shape of the paper's experiments (each
    table pits GK16/MQMApprox/MQMExact/baselines against each other).  With
    ``workers`` the per-mechanism calibrations are sharded across a process
    pool via :meth:`~repro.parallel.ParallelCalibrator.calibrate_many`; the
    warm mechanisms are then measured exactly as in
    :func:`run_release_trials`.  Only mechanisms that can restore a
    worker's state (``warm_start``) are sharded — for any other mechanism a
    worker's calibration could not be transferred back, so sharding it
    would just double the work; those calibrate serially below.
    """
    members = list(mechanisms.values()) if isinstance(mechanisms, dict) else list(mechanisms)
    if workers is not None and workers is not False:
        from repro.parallel import as_calibrator

        calibrator = as_calibrator(workers)
        transferable = [m for m in members if hasattr(m, "warm_start")]
        if calibrator is not None and transferable:
            calibrator.calibrate_many(transferable, query, data)
    gen = resolve_rng(rng)
    return [
        run_release_trials(mechanism, data, query, n_trials, gen)
        for mechanism in members
    ]


def run_sampled_trials(
    make_data: Callable[[np.random.Generator], tuple],
    make_mechanism: Callable[[], Mechanism],
    make_query: Callable[[object], Query],
    n_trials: int,
    rng: "int | np.random.Generator | None" = None,
) -> TrialResult:
    """Trials that redraw the dataset each time (the synthetic protocol).

    ``make_data`` returns ``(data, ...)``; extras are ignored.  The mechanism
    is constructed once (its scale may still depend on the data and is
    recomputed per trial).
    """
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    gen = resolve_rng(rng)
    mechanism = make_mechanism()
    errors = []
    last_scale = 0.0
    for _ in range(n_trials):
        data = make_data(gen)[0]
        query = make_query(data)
        release = mechanism.release(data, query, gen)
        last_scale = release.noise_scale
        errors.append(l1_error(release.value, release.true_value))
    arr = np.asarray(errors)
    return TrialResult(
        mechanism=mechanism.name,
        mean_l1=float(arr.mean()),
        std_l1=float(arr.std()),
        n_trials=n_trials,
        noise_scale=float(last_scale),
    )
