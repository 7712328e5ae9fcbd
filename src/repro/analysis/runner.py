"""Trial runner: repeat releases and aggregate L1 errors.

The noise scale of every mechanism in this library is deterministic given
the data and family, so a "trial" only redraws the noise.  The runner
calibrates the mechanism once, up front, and then draws every trial's noise
in one call, keeping the scale computation out of the averaged loop exactly
as the paper's methodology separates scale computation (Table 2) from error
measurement (Tables 1 and 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.laplace import Mechanism
from repro.core.queries import Query
from repro.exceptions import ValidationError
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
    mechanism: Mechanism,
    data,
    query: Query,
    n_trials: int,
    rng: "int | np.random.Generator | None" = None,
) -> TrialResult:
    """Release ``n_trials`` times and aggregate L1 errors.

    The scale is calibrated once (:meth:`Mechanism.calibrate`); each trial
    adds fresh noise of the mechanism's own family to the exact answer,
    which is equivalent to (and much faster than) calling
    :meth:`Mechanism.release` repeatedly.
    """
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    gen = resolve_rng(rng)
    values = getattr(data, "concatenated", data)
    exact = np.atleast_1d(np.asarray(query(values), dtype=float))
    scale = mechanism.calibrate(query, data).scale
    shape = (n_trials, exact.size)
    noise = scale * mechanism.standard_noise(gen, shape) if scale > 0 else np.zeros(shape)
    errors = np.abs(noise).sum(axis=1)
    return TrialResult(
        mechanism=mechanism.name,
        mean_l1=float(errors.mean()),
        std_l1=float(errors.std()),
        n_trials=n_trials,
        noise_scale=float(scale),
    )
