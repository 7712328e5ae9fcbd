"""Error metrics used by the evaluation.

Every table and figure in Section 5 reports the L1 error between the exact
and released query answers, averaged over random trials.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def l1_error(released: float | np.ndarray, exact: float | np.ndarray) -> float:
    """``||released - exact||_1``."""
    a = np.atleast_1d(np.asarray(released, dtype=float))
    b = np.atleast_1d(np.asarray(exact, dtype=float))
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())
