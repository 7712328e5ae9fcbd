"""Sliding-window budget accounting for indefinite release streams.

Bai et al.'s composition analysis motivates budget semantics over release
*sequences*, and the correlated-data sliding-window threat model (Zhang et
al., PAPERS.md) frames the guarantee an indefinite stream actually needs:
at any moment, the releases inside the trailing ``window_span`` logical
windows jointly satisfy the budget; releases in expired windows keep the
guarantee they had while live, and their epsilon is reclaimed **exactly** —
not approximately — because the per-window aggregates are dropped whole.

:class:`SlidingWindowAccountant` implements the
:class:`~repro.core.accounting.BaseAccountant` contract with Theorem 4.4
linear arithmetic over the live span: ``spent = (live release count) * (max
live epsilon)``.  The window clock is **logical and injected** — callers
advance it via :meth:`advance_window` / :meth:`advance_to`; nothing here
reads wall time (lint rule R4), so a replayed schedule reproduces every
admission decision bit-identically.

With ``window_span = 1`` and a per-release ``eps``, every window admits
exactly ``floor(budget / eps)`` releases, forever: expiry empties the live
span, so window ``k``'s admission arithmetic is identical to window 0's.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Any, Mapping, Sequence

from repro.core.accounting import BaseAccountant, RdpCurve, check_count
from repro.exceptions import PrivacyParameterError

__all__ = ["SlidingWindowAccountant"]


@dataclass
class SlidingWindowAccountant(BaseAccountant):
    """Windowed Theorem 4.4 accounting: charges expire with their window.

    Parameters
    ----------
    budget:
        Epsilon budget enforced over the trailing ``window_span`` windows
        (``None`` disables enforcement, as in the other accountants).
    window_span:
        How many consecutive windows stay live (an integer ``>= 1``).  A
        release charged in window ``w`` expires once the clock passes
        ``w + window_span - 1``.
    audit_trail:
        Accepted only as ``False``, as in
        :class:`~repro.core.composition.CompositionAccountant`: the
        enforcement aggregates are O(live windows) however long the stream.
    """

    budget: float | None = None
    window_span: int = 1
    audit_trail: InitVar[bool] = False

    _STATE_KIND = "sliding"

    def __post_init__(self, audit_trail: bool) -> None:
        self.window_span = check_count(self.window_span, "window_span")
        self._window = 0
        # window index -> [release count, worst epsilon]; only live windows
        # are ever present (advance drops expired buckets whole — that drop
        # *is* the exact reclamation).
        self._buckets: dict[int, list] = {}
        self._init_runtime(audit_trail)

    # -- windowed linear arithmetic (mutex held by the base) -------------
    def _live_totals_locked(self) -> tuple[int, float]:
        count = 0
        worst = 0.0
        for window in sorted(self._buckets):
            count += self._buckets[window][0]
            worst = max(worst, self._buckets[window][1])
        return count, worst

    def _spent_locked(self) -> float:
        count, worst = self._live_totals_locked()
        return count * worst

    def _stage_locked(
        self,
        charges: Sequence[tuple[int, float]],
        rdp_curve: RdpCurve | None,
    ) -> tuple[float, Any]:
        count, worst = self._live_totals_locked()
        for n_releases, epsilon in charges:
            count += n_releases
            worst = max(worst, epsilon)
        return count * worst, charges

    def _apply_locked(self, token: Any) -> None:
        bucket = self._buckets.setdefault(self._window, [0, 0.0])
        for n_releases, epsilon in token:
            bucket[0] += n_releases
            bucket[1] = max(bucket[1], epsilon)

    # -- the logical clock ------------------------------------------------
    @property
    def window(self) -> int:
        """Current logical window index."""
        with self._mutex:
            return self._window

    def live_release_count(self) -> int:
        """Releases currently charged against the live span."""
        with self._mutex:
            return self._live_totals_locked()[0]

    def advance_window(self, steps: int = 1) -> dict:
        """Advance the clock by ``steps`` windows (an integer ``>= 1``);
        expire what falls out."""
        steps = check_count(steps, "steps")
        with self._mutex:
            return self._advance_to_locked(self._window + steps)

    def advance_to(self, window: int) -> dict:
        """Advance the clock to an absolute integer index (monotone — no
        rewinds: a rewind would resurrect expired charges and
        double-admit)."""
        window = check_count(window, "window", minimum=0)
        with self._mutex:
            if window < self._window:
                raise PrivacyParameterError(
                    f"window clock is monotone: at {self._window}, "
                    f"cannot rewind to {window}"
                )
            return self._advance_to_locked(window)

    def _advance_to_locked(self, window: int) -> dict:
        spent_before = self._spent_locked()
        self._window = window
        horizon = window - self.window_span
        expired = [w for w in sorted(self._buckets) if w <= horizon]
        expired_releases = 0
        for w in expired:
            expired_releases += self._buckets[w][0]
            del self._buckets[w]
        spent_after = self._spent_locked()
        return {
            "window": self._window,
            "expired_windows": len(expired),
            "expired_releases": expired_releases,
            "reclaimed_epsilon": max(0.0, spent_before - spent_after),
            "live_releases": self._live_totals_locked()[0],
            "spent": spent_after,
        }

    # -- durable serialization (see BaseAccountant.state_dict) -----------
    def _state_extra_locked(self) -> dict:
        return {
            "window_span": int(self.window_span),
            "window": int(self._window),
            "windows": [
                [int(w), int(self._buckets[w][0]), float(self._buckets[w][1])]
                for w in sorted(self._buckets)
            ],
        }

    def _restore_extra(self, state: Mapping) -> None:
        self.window_span = int(state["window_span"])
        self._window = int(state["window"])
        self._buckets = {
            int(w): [int(count), float(worst)]
            for w, count, worst in state["windows"]
        }
