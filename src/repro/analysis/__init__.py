"""Experiment support: the trial runner, text reporting, and numeric
Pufferfish verification."""

from repro.analysis.reporting import Table
from repro.analysis.runner import TrialResult, run_release_trials
from repro.analysis.verification import VerificationReport, verify_pufferfish

__all__ = [
    "Table",
    "TrialResult",
    "VerificationReport",
    "run_release_trials",
    "verify_pufferfish",
]
