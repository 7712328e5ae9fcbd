"""Parallel calibration: shard the expensive noise-scale computations.

The paper's dominant cost (Table 2) is calibration.  Two of its searches
split into independent sub-computations: Algorithm 3's per-chain,
per-length quilt searches (``MQMExact``) and Algorithm 2's per-node quilt
searches (the general Markov Quilt Mechanism).  This package executes them
as shards on a process pool and merges the results into exactly the state
the serial path produces (bit-identical — see ``docs/architecture.md``).
Every other mechanism calibrates serially.

* :class:`ParallelCalibrator` — plan/execute/merge engine with a serial
  fallback for degenerate or small workloads, plus ``calibrate_many`` (one
  shard per mechanism).
* :func:`as_calibrator` — normalizes the ``parallel=`` option accepted by
  :class:`~repro.serving.PrivacyEngine`.

The picklable work-item model (``Shard``, ``run_shard``) lives in
:mod:`repro.parallel.shards`.
"""

from repro.parallel.calibrator import ParallelCalibrator, as_calibrator

__all__ = ["ParallelCalibrator", "as_calibrator"]
