"""Input validation helpers.

These helpers normalize user input into canonical ``numpy`` representations
and raise :class:`~repro.exceptions.ValidationError` with actionable messages
when the input is malformed.  They are used at every public API boundary so
that internal code can assume well-formed arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError

#: Absolute tolerance used when checking that probabilities sum to one.
PROBABILITY_ATOL = 1e-8


def check_positive(value: float, name: str) -> float:
    """Return ``value`` as a float after checking it is a strictly positive
    finite number (``None`` and non-numbers are refused too)."""
    try:
        number = float(value)
        valid = bool(np.isfinite(number)) and number > 0.0
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
    return number


def check_unit_interval(value: float, name: str, *, open_ends: bool = False) -> float:
    """Return ``value`` after checking it lies in [0, 1] (or (0, 1))."""
    value = float(value)
    if open_ends:
        if not 0.0 < value < 1.0:
            raise ValidationError(f"{name} must lie strictly inside (0, 1), got {value!r}")
    elif not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Alias of :func:`check_unit_interval` for readability at call sites."""
    return check_unit_interval(value, name)


def as_probability_vector(
    values: Sequence[float] | np.ndarray,
    name: str = "probability vector",
    *,
    normalize: bool = False,
) -> np.ndarray:
    """Validate and return a 1-D probability vector as ``float64``.

    Parameters
    ----------
    values:
        Candidate vector of non-negative reals.
    name:
        Used in error messages.
    normalize:
        When true, rescale a non-negative vector with positive total mass to
        sum to one instead of rejecting it.
    """
    vec = np.asarray(values, dtype=float)
    if vec.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got shape {vec.shape}")
    if vec.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(vec)):
        raise ValidationError(f"{name} contains non-finite entries")
    if np.any(vec < 0):
        raise ValidationError(f"{name} contains negative entries")
    total = float(vec.sum())
    if normalize:
        if total <= 0:
            raise ValidationError(f"{name} has zero total mass and cannot be normalized")
        return vec / total
    if abs(total - 1.0) > PROBABILITY_ATOL:
        raise ValidationError(f"{name} must sum to 1 (got {total!r}); pass normalize=True to rescale")
    # Renormalize exactly so downstream cumulative sums terminate at 1.0.
    return vec / total


def as_transition_matrix(
    matrix: Sequence[Sequence[float]] | np.ndarray,
    name: str = "transition matrix",
) -> np.ndarray:
    """Validate and return a row-stochastic square matrix as ``float64``."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {mat.shape}")
    if mat.shape[0] == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(mat)):
        raise ValidationError(f"{name} contains non-finite entries")
    if np.any(mat < 0):
        raise ValidationError(f"{name} contains negative entries")
    row_sums = mat.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=PROBABILITY_ATOL):
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ValidationError(
            f"{name} rows must sum to 1; row {bad} sums to {row_sums[bad]!r}"
        )
    return mat / row_sums[:, None]


def as_state_sequence(
    values: Sequence[int] | np.ndarray,
    n_states: int,
    name: str = "state sequence",
) -> np.ndarray:
    """Validate a 1-D sequence of integer state labels in ``[0, n_states)``."""
    seq = np.asarray(values)
    if seq.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got shape {seq.shape}")
    if seq.size and not np.issubdtype(seq.dtype, np.integer):
        as_int = seq.astype(np.int64)
        if not np.array_equal(as_int, seq):
            raise ValidationError(f"{name} must contain integer state labels")
        seq = as_int
    seq = seq.astype(np.int64, copy=False)
    if seq.size and (seq.min() < 0 or seq.max() >= n_states):
        raise ValidationError(
            f"{name} labels must lie in [0, {n_states}), got range "
            f"[{seq.min()}, {seq.max()}]"
        )
    return seq
