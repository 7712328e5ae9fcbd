"""Laplace noise primitives and the common mechanism interface.

Every mechanism in the paper is of the form ``F(D) + scale * Lap(1)`` (added
per coordinate for vector queries, which preserves the guarantee for
L1-Lipschitz queries by Proposition 1 of Dwork et al.).  The subclasses only
differ in how ``scale`` is computed, so the shared release logic lives here.

Calibration versus release
--------------------------
Computing ``scale`` is the expensive part of every mechanism in this library
(enumerating supports for the Wasserstein Mechanism, searching quilt sets for
MQM); adding noise is microseconds.  :meth:`Mechanism.calibrate` performs the
expensive step explicitly and returns a :class:`Calibration` that
:meth:`Mechanism.release` can consume, so callers — in particular
:class:`repro.serving.PrivacyEngine` — can compute a calibration once, cache
it, and amortize it over many releases.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.queries import Query
from repro.exceptions import PrivacyParameterError
from repro.utils.rngtools import resolve_rng


def sample_laplace(
    scale: float,
    size: int | tuple[int, ...] | None = None,
    rng: "int | np.random.Generator | None" = None,
) -> float | np.ndarray:
    """Draw from ``Lap(0, scale)`` (density ``exp(-|x|/scale) / (2 scale)``).

    A scale of 0 returns exact zeros (useful for "no noise" baselines).
    """
    if scale < 0:
        raise PrivacyParameterError(f"Laplace scale must be >= 0, got {scale}")
    gen = resolve_rng(rng)
    if scale == 0:
        return 0.0 if size is None else np.zeros(size)
    return gen.laplace(loc=0.0, scale=scale, size=size)


def sample_gaussian(
    scale: float,
    size: int | tuple[int, ...] | None = None,
    rng: "int | np.random.Generator | None" = None,
) -> float | np.ndarray:
    """Draw from ``N(0, scale^2)`` as ``scale * standard_normal``.

    The explicit ``scale * z`` form (rather than ``Generator.normal(0,
    scale)``) makes the scalar path bit-identical by construction to the
    serving layer's vectorized standard-draw-then-scale path, mirroring the
    Laplace guarantee the streaming suite relies on.  A scale of 0 returns
    exact zeros.
    """
    if scale < 0:
        raise PrivacyParameterError(f"Gaussian scale must be >= 0, got {scale}")
    gen = resolve_rng(rng)
    if scale == 0:
        return 0.0 if size is None else np.zeros(size)
    return scale * gen.standard_normal(size=size)


def laplace_density(w: np.ndarray | float, center: float, scale: float) -> np.ndarray | float:
    """Density of ``center + Lap(scale)`` at ``w`` — used by the numeric
    privacy-verification tests."""
    if scale <= 0:
        raise PrivacyParameterError(f"Laplace scale must be > 0, got {scale}")
    return np.exp(-np.abs(np.asarray(w, dtype=float) - center) / scale) / (2.0 * scale)


@dataclass(frozen=True)
class Calibration:
    """The output of the expensive half of a mechanism: a noise scale.

    A calibration is valid for exactly one combination of mechanism (with its
    distribution class Theta and epsilon), query, and data *shape* (for the
    chain mechanisms, the multiset of segment lengths — the noise scale never
    reads the record values themselves).  The serving layer keys its cache on
    precisely that combination; see ``docs/architecture.md`` for why reusing
    a calibration outside its key would be a privacy bug.

    Attributes
    ----------
    scale:
        Per-coordinate Laplace scale (``L * sigma`` for MQM, ``W / epsilon``
        for the Wasserstein Mechanism).
    epsilon:
        Privacy level the scale was calibrated for.
    mechanism:
        Name of the mechanism that produced it.
    details:
        Mechanism-specific diagnostics (``sigma_max``, the active quilt, ...).
    """

    scale: float
    epsilon: float
    mechanism: str
    details: dict[str, Any] = field(default_factory=dict)

    def to_payload(self) -> dict[str, Any]:
        """JSON-serializable form (numpy scalars coerced, arrays listed)."""
        return {
            "scale": float(self.scale),
            "epsilon": float(self.epsilon),
            "mechanism": str(self.mechanism),
            "details": _jsonify(self.details),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Calibration":
        """Inverse of :meth:`to_payload`."""
        return cls(
            scale=float(payload["scale"]),
            epsilon=float(payload["epsilon"]),
            mechanism=str(payload["mechanism"]),
            details=dict(payload.get("details", {})),
        )


def _jsonify(value: Any) -> Any:
    """Best-effort coercion of diagnostics to JSON-safe types; entries that
    cannot be represented are replaced by their ``repr`` (diagnostics only —
    the scale itself is always a float)."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, (int, float, str, bool, type(None))):
        return value
    return repr(value)


@dataclass
class PrivateRelease:
    """The result of one private release.

    Attributes
    ----------
    value:
        Noisy query answer (float or 1-D array).
    true_value:
        Exact query answer, kept for error accounting in experiments (never
        publish this in a real deployment).
    noise_scale:
        Per-coordinate Laplace scale that was added.
    epsilon:
        Privacy parameter the release was calibrated for.
    mechanism:
        Name of the mechanism.
    details:
        Mechanism-specific diagnostics (e.g. the active Markov quilt).
    """

    value: float | np.ndarray
    true_value: float | np.ndarray
    noise_scale: float
    epsilon: float
    mechanism: str
    details: dict[str, Any] = field(default_factory=dict)

    def l1_error(self) -> float:
        """L1 distance between the noisy and exact answers."""
        return float(np.sum(np.abs(np.atleast_1d(self.value) - np.atleast_1d(self.true_value))))


#: Monotonic instance tokens for mechanisms without a content-based
#: fingerprint.  Unlike ``id()``, whose values recycle after garbage
#: collection (letting a *new* mechanism hit a dead mechanism's cache
#: entry), a counter value is never reissued within the process.
_INSTANCE_COUNTER = itertools.count()


class Mechanism(ABC):
    """Base class: compute a noise scale, then release ``F(D) + noise``."""

    #: Mechanism name used in reports ("MQMExact", "GroupDP", ...).
    name: str = "Mechanism"

    #: Noise family added per coordinate: ``"laplace"`` (every paper
    #: mechanism) or ``"gaussian"`` (the Rényi-Pufferfish additive-noise
    #: variants, e.g. ``GaussianMarkovQuiltMechanism``).  The serving
    #: layer's vectorized batch/stream draws dispatch on this attribute.
    noise_kind: str = "laplace"

    def __init__(self, epsilon: float) -> None:
        if epsilon <= 0:
            raise PrivacyParameterError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
        self._instance_token = next(_INSTANCE_COUNTER)

    @abstractmethod
    def noise_scale(self, query: Query, data: np.ndarray) -> float:
        """Per-coordinate Laplace scale for releasing ``query`` on ``data``."""

    def scale_details(self, query: Query, data: np.ndarray) -> dict[str, Any]:
        """Optional diagnostics attached to releases (override as needed)."""
        return {}

    def standard_noise(
        self, gen: np.random.Generator, size: int | tuple[int, ...] | None
    ) -> float | np.ndarray:
        """Unit-scale draws from this mechanism's noise family.

        The serving layer scales these per coordinate (``scale * draw``),
        which for both families is bit-identical to the scalar
        :meth:`sample_noise` path under one generator because numpy's
        ``Generator`` fills arrays sample-by-sample from the bit stream.
        """
        if self.noise_kind == "laplace":
            return gen.laplace(size=size)
        if self.noise_kind == "gaussian":
            return gen.standard_normal(size=size)
        raise PrivacyParameterError(f"unknown noise kind {self.noise_kind!r}")

    def sample_noise(
        self,
        scale: float,
        size: int | tuple[int, ...] | None = None,
        rng: "int | np.random.Generator | None" = None,
    ) -> float | np.ndarray:
        """Scaled draws from this mechanism's noise family (scalar path)."""
        if self.noise_kind == "laplace":
            return sample_laplace(scale, size, rng)
        if self.noise_kind == "gaussian":
            return sample_gaussian(scale, size, rng)
        raise PrivacyParameterError(f"unknown noise kind {self.noise_kind!r}")

    def calibrate(self, query: Query, data: np.ndarray) -> Calibration:
        """The expensive half of a release, as an explicit step.

        Runs the mechanism's scale computation (support enumeration, quilt
        search, ...) and packages the result.  The returned object can be
        passed back to :meth:`release` any number of times — or cached by a
        :class:`repro.serving.CalibrationCache` keyed on
        :meth:`calibration_fingerprint`.  To shard the computation across
        processes, use :meth:`repro.parallel.ParallelCalibrator.calibrate`
        (bit-identical to this serial path).
        """
        return Calibration(
            scale=float(self.noise_scale(query, data)),
            epsilon=self.epsilon,
            mechanism=self.name,
            details=self.scale_details(query, data),
        )

    def calibration_fingerprint(self) -> tuple:
        """Hashable identity of everything (besides query and data shape)
        that the noise scale depends on.

        Two mechanism instances with equal fingerprints must produce equal
        calibrations for every (query, data) pair; the serving cache reuses
        entries across instances on that basis, so an over-coarse fingerprint
        is a privacy bug while an over-fine one only costs cache misses.
        Subclasses extend the base tuple with their distribution class's
        fingerprint (see e.g. ``MQMExact.calibration_fingerprint``); the base
        implementation marks the instance as uncacheable-by-content by
        including a process-unique instance token, which never aliases two
        mechanisms — not even after one is garbage-collected (``id()`` would).
        """
        return (
            type(self).__name__,
            self.name,
            self.epsilon,
            ("instance", self._instance_token),
        )

    def release(
        self,
        data: np.ndarray,
        query: Query,
        rng: "int | np.random.Generator | None" = None,
        *,
        calibration: Calibration | None = None,
    ) -> PrivateRelease:
        """Evaluate the query and add calibrated Laplace noise.

        ``data`` may be a raw array or any dataset object exposing a
        ``concatenated`` array (e.g. ``TimeSeriesDataset``).  Passing a
        precomputed ``calibration`` (from :meth:`calibrate`, possibly cached)
        skips the scale computation entirely; the caller is responsible for
        the calibration actually matching this mechanism, query, and data —
        the engine's cache key construction guarantees that.
        """
        gen = resolve_rng(rng)
        values = getattr(data, "concatenated", data)
        true_value = query(values)
        if calibration is None:
            calibration = self.calibrate(query, data)
        scale = calibration.scale
        if query.output_dim == 1:
            noisy: float | np.ndarray = float(true_value) + float(
                self.sample_noise(scale, None, gen)
            )
        else:
            noisy = np.asarray(true_value, dtype=float) + self.sample_noise(
                scale, query.output_dim, gen
            )
        return PrivateRelease(
            value=noisy,
            true_value=true_value,
            noise_scale=scale,
            epsilon=self.epsilon,
            mechanism=self.name,
            details=dict(calibration.details),
        )
