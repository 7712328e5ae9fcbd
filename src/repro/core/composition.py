"""Sequential composition accounting for the Markov Quilt Mechanism.

Pufferfish privacy does not compose in general [20], but Theorem 4.4 shows
the Markov Quilt Mechanism does when every release uses the *same active
Markov quilt* for each node: K releases at levels ``eps_1..eps_K`` with
identical quilt sets guarantee ``K * max_k eps_k``-Pufferfish privacy (and
exactly ``K * eps`` when the levels are equal).

:class:`CompositionAccountant` tracks releases, verifies the same-quilt
condition via a hashable *quilt signature* (see
:meth:`~repro.core.markov_quilt.MarkovQuiltMechanism.quilt_signature`), and
reports the accumulated guarantee.  The check-then-record cycle, lock
discipline, durable state, and refusal payload all live in the shared
:class:`~repro.core.accounting.BaseAccountant` — this module only supplies
the linear arithmetic.  The Rényi alternative
(:class:`~repro.core.accounting.RenyiAccountant`) implements the same
contract with strong-composition arithmetic.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Any, Mapping, Sequence

from repro.core.accounting import BaseAccountant, RdpCurve
from repro.exceptions import PrivacyParameterError

__all__ = ["CompositionAccountant", "compose_epsilons"]


@dataclass
class CompositionAccountant(BaseAccountant):
    """Tracks Markov Quilt Mechanism releases over one database.

    The Theorem 4.4 guarantee only depends on ``(count, max epsilon, shared
    signature)``, so those aggregates are the whole ledger, maintained
    incrementally — every budget check is O(1) and memory is constant
    however many releases a long-lived engine has served.

    **Thread safety.**  The check-then-record cycle of
    :meth:`~repro.core.accounting.BaseAccountant.record_many` holds an
    internal lock (see :class:`~repro.core.accounting.BaseAccountant`), so
    concurrent recorders (two streaming sessions sharing one engine budget,
    a stream racing a batch) can never both pass the budget check and
    jointly over-spend — the race ``tests/test_streaming_concurrency.py``
    hammers.  Reads (:meth:`~repro.core.accounting.BaseAccountant.
    total_epsilon`, :meth:`~repro.core.accounting.BaseAccountant.remaining`,
    ``len``) take the same lock, so they never observe a half-applied
    record.

    Parameters
    ----------
    budget:
        Optional total epsilon budget; ``record`` raises once the
        accumulated guarantee would exceed it.
    audit_trail:
        Accepted only as ``False``; ``True`` raises
        :class:`~repro.exceptions.PrivacyParameterError` (no accountant keeps
        a per-release trail).
    """

    budget: float | None = None
    audit_trail: InitVar[bool] = False

    _STATE_KIND = "linear"

    def __post_init__(self, audit_trail: bool) -> None:
        self._worst = 0.0
        self._init_runtime(audit_trail)

    # -- linear arithmetic (mutex held by the base) ----------------------
    def _spent_locked(self) -> float:
        return self._count * self._worst

    def _stage_locked(
        self,
        charges: Sequence[tuple[int, float]],
        rdp_curve: RdpCurve | None,
    ) -> tuple[float, Any]:
        # Linear accounting has no use for a Rényi curve; Theorem 4.4 only
        # reads (count, worst epsilon).
        count, worst = self._count, self._worst
        for n_releases, epsilon in charges:
            count += n_releases
            worst = max(worst, epsilon)
        return count * worst, worst

    def _apply_locked(self, token: float) -> None:
        self._worst = token

    # -- durable serialization (see BaseAccountant.state_dict) -----------
    def _state_extra_locked(self) -> dict:
        return {"worst": float(self._worst)}

    def _restore_extra(self, state: Mapping) -> None:
        self._worst = float(state["worst"])


def compose_epsilons(epsilons: list[float]) -> float:
    """The Theorem 4.4 guarantee for a list of per-release epsilons that all
    used the same quilt sets: ``K * max_k eps_k``."""
    if not epsilons:
        return 0.0
    if any(not e > 0 for e in epsilons):  # written so that NaN is refused too
        raise PrivacyParameterError("all epsilons must be positive")
    return len(epsilons) * max(epsilons)
