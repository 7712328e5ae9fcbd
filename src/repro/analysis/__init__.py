"""Experiment support: error metrics, the trial runner, text reporting, and
numeric Pufferfish verification."""

from repro.analysis.metrics import l1_error
from repro.analysis.reporting import Table
from repro.analysis.runner import TrialResult, run_release_trials
from repro.analysis.verification import VerificationReport, verify_pufferfish

__all__ = [
    "Table",
    "TrialResult",
    "VerificationReport",
    "l1_error",
    "run_release_trials",
    "verify_pufferfish",
]
