"""Parallel calibration: shard the expensive noise-scale computations.

The paper's dominant cost (Table 2) is calibration — per-length quilt
searches for the chain mechanisms, per-model suprema for the Wasserstein
Mechanism.  Those sub-computations are independent, so this package executes
them as shards on a process pool and merges the results into exactly the
state the serial path produces (bit-identical — see
``docs/architecture.md``).

* :class:`ParallelCalibrator` — plan/execute/merge engine with a serial
  fallback for degenerate or small workloads.
* :func:`as_calibrator` — normalizes the ``parallel=`` option accepted by
  :class:`~repro.serving.PrivacyEngine`.
* :class:`Shard` / :func:`run_shard` — the picklable work-item model.
"""

from repro.parallel.calibrator import ParallelCalibrator, as_calibrator
from repro.parallel.shards import (
    Shard,
    ShardResult,
    per_node_general_shard,
    run_shard,
    segment_lengths_of,
)

__all__ = [
    "ParallelCalibrator",
    "Shard",
    "ShardResult",
    "as_calibrator",
    "per_node_general_shard",
    "run_shard",
    "segment_lengths_of",
]
