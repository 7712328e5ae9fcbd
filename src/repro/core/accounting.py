"""Budget accountants: the shared ledger contract and Rényi composition.

Two accountants enforce one epsilon budget behind one interface:

* :class:`~repro.core.composition.CompositionAccountant` — the paper's
  linear rule (Theorem 4.4): ``K`` releases at levels ``eps_1..eps_K`` with
  a shared active quilt compose to ``K * max_k eps_k``.
* :class:`RenyiAccountant` — Rényi-Pufferfish composition in the style of
  Pierquin et al. ("Rényi Pufferfish Privacy") and Bai et al. ("Composition
  for Pufferfish Privacy"): each release's cost is tracked as a *Rényi
  divergence curve* over a grid of orders ``alpha``, curves add across
  releases order-by-order, and the spent budget is the ``(epsilon, delta)``
  conversion minimized over the grid.  For long release streams this is the
  strong-composition regime — ``O(sqrt(K))`` epsilon growth instead of
  ``O(K)`` — which directly multiplies how many releases one budget serves.

Both accountants subclass :class:`BaseAccountant`, which owns the entire
check-then-record cycle: the lock discipline (one reentrant mutex around
check *and* commit, so concurrent recorders can never jointly over-spend),
input validation, the same-quilt signature condition, the audit trail, and
the :class:`~repro.exceptions.BudgetExhaustedError` payload (including the
structured ``accountant`` field naming the class that refused).  Subclasses
only provide the arithmetic — what a release costs and what the running
total converts to — so the two accountants cannot drift on thread safety or
pickling behavior.

Soundness of the Rényi ledger
-----------------------------
Pufferfish privacy does not compose in general; the linear accountant is
*proved* for MQM under the fixed-active-quilt condition (Theorem 4.4), and
the Rényi accountant enforces exactly the same signature condition and
inherits the same caveat (see the ADR in ``docs/architecture.md``).  Under
that condition, the per-release cost curves used here are conservative:

* a pure ``eps``-Pufferfish release (Laplace mechanisms) is charged
  ``min(eps, alpha * eps^2 / 2)`` at order ``alpha`` — the Bun–Steinke
  zCDP bound for a pointwise-bounded log-likelihood ratio, capped by the
  order-monotone ``D_alpha <= D_inf = eps``;
* a mechanism exposing ``rdp_curve(orders)`` (the Gaussian Markov Quilt
  Mechanism) is charged its own curve.

The order grid always contains ``alpha = inf``, where the per-release cost
of a pure release is exactly ``eps`` and the ``(epsilon, delta)``
conversion adds nothing.  The converted total is therefore **never larger
than the linear total** — the Rényi accountant can only stop *later* than
linear accounting, never earlier (``tests/test_accounting.py`` proves this
on randomized schedules).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from repro.exceptions import BudgetExhaustedError, PrivacyParameterError

#: Absolute slack on every budget comparison (float-sum noise only).
BUDGET_ATOL = 1e-12

#: Default Rényi order grid.  Small orders capture the strong-composition
#: regime (optimal ``alpha`` is ``1 + sqrt(log(1/delta) / (K eps^2 / 2))``
#: for K pure-eps releases); the mandatory ``inf`` entry pins the ledger to
#: the linear total so Rényi accounting is never worse than linear.
DEFAULT_ORDERS: tuple[float, ...] = (
    1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0, 16.0,
    24.0, 32.0, 48.0, 64.0, 128.0, 256.0, math.inf,
)

#: Signature of a mechanism-supplied Rényi cost curve: maps an array of
#: orders to the per-release Rényi divergence bound at each order.
RdpCurve = Callable[[np.ndarray], np.ndarray]


def pure_rdp_curve(epsilon: float, orders: np.ndarray) -> np.ndarray:
    """Rényi cost curve of one pure ``epsilon``-Pufferfish release.

    ``min(eps, alpha * eps^2 / 2)`` per order: the ``alpha * eps^2 / 2``
    branch is the Bun–Steinke 2016 (Prop. 3.3) sub-Gaussian bound, whose
    proof needs only ``sup |log p/q| <= eps`` and so applies verbatim to the
    Pufferfish secret-pair conditionals; the ``eps`` cap is monotonicity of
    Rényi divergence in the order (``D_alpha <= D_inf``).  At
    ``alpha = inf`` the curve is exactly ``eps``.
    """
    orders = np.asarray(orders, dtype=float)
    with np.errstate(invalid="ignore"):  # inf * 0 at (inf, eps=0) never occurs: eps > 0
        quadratic = 0.5 * orders * epsilon * epsilon
    return np.minimum(float(epsilon), quadratic)


@dataclass(frozen=True)
class CompositionRecord:
    """One recorded release.

    ``rdp_orders`` / ``rdp_values`` carry the release's *own* Rényi cost
    curve (the mechanism-supplied ``rdp_curve`` evaluated on the recording
    accountant's order grid) whenever one was charged; ``None`` for pure
    releases, whose curve is reproducible from ``epsilon`` alone.  They make
    the audit trail a *complete* ledger: a
    :class:`RenyiAccountant` rebuilt from its trail (restart-from-trail,
    pickling ``records`` separately, a durable store replaying history)
    recovers bit-identical running totals instead of falling back to the
    conservative pure-release envelope — the PR 6 restart bug.
    """

    epsilon: float
    mechanism: str
    quilt_signature: Hashable
    rdp_orders: tuple[float, ...] | None = None
    rdp_values: tuple[float, ...] | None = None


def encode_signature(signature: Hashable) -> Any:
    """A quilt signature as a JSON-safe value (tuples tagged, scalars raw).

    Signatures in this library are nested tuples of strings/numbers (node
    names and quilt members); anything else is refused loudly — a durable
    ledger must never silently store a signature it cannot faithfully
    rehydrate, because the Theorem 4.4 same-quilt check compares them for
    equality across restarts.
    """
    if isinstance(signature, tuple):
        return {"tuple": [encode_signature(item) for item in signature]}
    if signature is None or isinstance(signature, (bool, int, float, str)):
        return signature
    raise PrivacyParameterError(
        f"quilt signature component {signature!r} is not JSON-serializable; "
        f"durable ledgers require signatures built from tuples and scalars"
    )


def decode_signature(encoded: Any) -> Hashable:
    """Inverse of :func:`encode_signature`."""
    if isinstance(encoded, dict):
        return tuple(decode_signature(item) for item in encoded["tuple"])
    return encoded


def _encode_trail(records: Sequence[CompositionRecord]) -> list[dict]:
    """The audit trail as JSON-safe run-length groups.

    Consecutive references to the *same* record object (how ``record_many``
    appends batches) collapse into one group, so the encoding preserves the
    exact grouping the running totals were accumulated with — decoding and
    replaying reproduces them bit for bit.
    """
    groups: list[dict] = []
    index = 0
    while index < len(records):
        record = records[index]
        count = 1
        while index + count < len(records) and records[index + count] is record:
            count += 1
        groups.append(
            {
                "n": count,
                "epsilon": record.epsilon,
                "mechanism": record.mechanism,
                "quilt_signature": encode_signature(record.quilt_signature),
                "rdp_orders": (
                    None if record.rdp_orders is None else list(record.rdp_orders)
                ),
                "rdp_values": (
                    None if record.rdp_values is None else list(record.rdp_values)
                ),
            }
        )
        index += count
    return groups


def _decode_trail(groups: Sequence[Mapping]) -> list[CompositionRecord]:
    """Inverse of :func:`_encode_trail` (group identity preserved)."""
    records: list[CompositionRecord] = []
    for group in groups:
        record = CompositionRecord(
            float(group["epsilon"]),
            str(group["mechanism"]),
            decode_signature(group["quilt_signature"]),
            rdp_orders=(
                None
                if group.get("rdp_orders") is None
                else tuple(float(a) for a in group["rdp_orders"])
            ),
            rdp_values=(
                None
                if group.get("rdp_values") is None
                else tuple(float(v) for v in group["rdp_values"])
            ),
        )
        records.extend([record] * int(group["n"]))
    return records


class BaseAccountant:
    """The shared check-then-record contract of every budget accountant.

    Subclasses are dataclasses exposing ``budget`` / ``records`` /
    ``audit_trail`` fields and implement three arithmetic hooks — all called
    with the mutex held:

    * :meth:`_stage_locked` — the prospective total if an ordered list of
      ``(n_releases, epsilon)`` charges were admitted, plus an opaque commit
      token (:meth:`record_many` stages its one charge; :meth:`preview`
      stages every charge it prices, and never commits);
    * :meth:`_apply_locked` — commit a staged token;
    * :meth:`_spent_locked` — the current total.

    Everything else — the reentrant mutex around the whole
    check-then-record cycle, ``__getstate__``/``__setstate__`` dropping and
    rebuilding the lock for pickling, parameter validation, the Theorem 4.4
    same-quilt signature condition, the audit trail / ``audit_trail=False``
    aggregates-only mode, and the structured
    :class:`~repro.exceptions.BudgetExhaustedError` payload — lives here
    once, so the accountants cannot drift on any of it.
    """

    # -- runtime state shared by all subclasses -------------------------
    def _init_runtime(self) -> None:
        """Build the non-field runtime state (called from __post_init__)."""
        # NaN compares false against every total, so it would admit without
        # limit; ``None`` is the one spelling of "unlimited".
        if self.budget is not None and math.isnan(self.budget):
            raise PrivacyParameterError(
                f"budget must be a number or None, got {self.budget}"
            )
        self._count = len(self.records)
        self._signatures = {r.quilt_signature for r in self.records}
        # Reentrant so locked methods may call other locked methods
        # (total_epsilon -> is_composable).  Dropped/rebuilt across pickling.
        self._mutex = threading.RLock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_mutex", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._mutex = threading.RLock()

    # -- arithmetic hooks (subclass responsibility) ---------------------
    def _spent_locked(self) -> float:
        """Current composed guarantee (mutex held)."""
        raise NotImplementedError

    def _stage_locked(
        self,
        charges: Sequence[tuple[int, float]],
        rdp_curve: RdpCurve | None,
    ) -> tuple[float, Any]:
        """``(prospective_total, commit_token)`` if the ``(n_releases,
        epsilon)`` charges were admitted in order on top of the ledger
        (mutex held; every ``n_releases >= 1``).  ``rdp_curve``, when given,
        prices every charge.  Nothing is mutated."""
        raise NotImplementedError

    def _apply_locked(self, token: Any) -> None:
        """Commit a token produced by :meth:`_stage_locked` (mutex held)."""
        raise NotImplementedError

    def _trail_curve_locked(
        self, epsilon: float, rdp_curve: RdpCurve | None, token: Any
    ) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
        """The ``(orders, values)`` to persist in this release's trail
        record, or ``None`` when ``epsilon`` alone reproduces the cost
        (mutex held; ``token`` is the staged commit token, so accountants
        that already evaluated the curve need not evaluate it twice).

        The base returns ``None`` — linear accounting never charges curves,
        so its trail carries nothing to lose.
        """
        return None

    # -- the one check-then-record cycle --------------------------------
    def record(
        self,
        epsilon: float,
        *,
        mechanism: str = "MQM",
        quilt_signature: Hashable = None,
        rdp_curve: RdpCurve | None = None,
    ) -> CompositionRecord:
        """Register a release; raises if it would exceed the budget or break
        the same-quilt condition."""
        return self.record_many(
            1,
            epsilon,
            mechanism=mechanism,
            quilt_signature=quilt_signature,
            rdp_curve=rdp_curve,
        )[0]

    def record_many(
        self,
        n_releases: int,
        epsilon: float,
        *,
        mechanism: str = "MQM",
        quilt_signature: Hashable = None,
        rdp_curve: RdpCurve | None = None,
    ) -> list[CompositionRecord]:
        """Register ``n_releases`` identical releases atomically.

        The serving layer's batched path records whole batches through here;
        either every release fits under the budget (and shares the standing
        quilt signature) or none is recorded.  The audit trail stores one
        frozen record object referenced ``n_releases`` times.

        ``rdp_curve`` optionally supplies the releases' own Rényi cost curve
        (mechanisms exposing ``rdp_curve``, e.g. the Gaussian MQM); the
        linear accountant ignores it, the Rényi accountant uses it in place
        of the conservative pure-release curve.
        """
        if not epsilon > 0:  # written so that NaN is refused too
            raise PrivacyParameterError(f"epsilon must be positive, got {epsilon}")
        if n_releases < 1:
            raise PrivacyParameterError(
                f"n_releases must be >= 1, got {n_releases}"
            )
        with self._mutex:
            if self._signatures and quilt_signature not in self._signatures:
                raise PrivacyParameterError(
                    "releases use different active Markov quilts; Theorem 4.4 does "
                    "not apply and Pufferfish privacy may not compose"
                )
            total, token = self._stage_locked(
                [(n_releases, float(epsilon))], rdp_curve
            )
            if self.budget is not None and total > self.budget + BUDGET_ATOL:
                spent = self._spent_locked()
                raise BudgetExhaustedError(
                    f"{n_releases} release(s) would bring the composed guarantee "
                    f"to {total:.4g}, exceeding the budget of {self.budget:.4g} "
                    f"(spent {spent:.4g}, remaining "
                    f"{max(0.0, self.budget - spent):.4g})",
                    budget=self.budget,
                    spent=spent,
                    remaining=max(0.0, self.budget - spent),
                    requested=n_releases,
                    n_completed=0,
                    accountant=type(self).__name__,
                )
            trail_curve = (
                self._trail_curve_locked(float(epsilon), rdp_curve, token)
                if self.audit_trail
                else None
            )
            self._apply_locked(token)
            record = CompositionRecord(
                float(epsilon),
                mechanism,
                quilt_signature,
                rdp_orders=None if trail_curve is None else trail_curve[0],
                rdp_values=None if trail_curve is None else trail_curve[1],
            )
            if self.audit_trail:
                self.records.extend([record] * n_releases)
            self._count += n_releases
            self._signatures.add(quilt_signature)
            return [record] * n_releases

    # -- shared reads ----------------------------------------------------
    @property
    def is_composable(self) -> bool:
        """Whether all recorded releases share one quilt signature."""
        with self._mutex:
            return len(self._signatures) <= 1

    def total_epsilon(self) -> float:
        """The composed guarantee accumulated so far (0.0 when empty)."""
        with self._mutex:
            if not self.is_composable:
                raise PrivacyParameterError(
                    "releases use different active Markov quilts; no composition "
                    "guarantee is available"
                )
            return self._spent_locked()

    def remaining(self) -> float | None:
        """Remaining budget, or ``None`` when no budget was set."""
        with self._mutex:
            if self.budget is None:
                return None
            return max(0.0, self.budget - self._spent_locked())

    def __len__(self) -> int:
        with self._mutex:
            return self._count

    # -- prospective totals (reservation admission) ----------------------
    def preview(self, charges: Sequence[tuple[int, float]]) -> float:
        """The composed total if all ``(n_releases, epsilon)`` charges were
        admitted on top of the current ledger — nothing is recorded.

        Charges are priced at the conservative pure-release cost (the only
        sound choice before the releases exist: a mechanism-supplied curve
        is not known until release time, and the ``alpha = inf`` pin makes
        the pure cost an upper envelope of the linear total either way).
        This is the admission arithmetic of reservation-style budgeting:
        the service ledger previews every outstanding reservation's
        unconsumed remainder plus the new request, and refuses the
        reservation — not the eventual release — when the total would
        overshoot (see :mod:`repro.service.ledger`).
        """
        staged: list[tuple[int, float]] = []
        for n_releases, epsilon in charges:
            if n_releases < 0:
                raise PrivacyParameterError(
                    f"n_releases must be >= 0, got {n_releases}"
                )
            if n_releases == 0:
                continue
            if not epsilon > 0:
                raise PrivacyParameterError(
                    f"epsilon must be positive, got {epsilon}"
                )
            staged.append((int(n_releases), float(epsilon)))
        with self._mutex:
            return self._stage_locked(staged, None)[0]

    # -- durable serialization -------------------------------------------
    #: Discriminator stored in :meth:`state_dict`; subclass responsibility.
    _STATE_KIND: str = ""

    def _state_extra_locked(self) -> dict:
        """Subclass aggregates for :meth:`state_dict` (mutex held)."""
        raise NotImplementedError

    def _restore_extra(self, state: Mapping) -> None:
        """Inverse of :meth:`_state_extra_locked` (mutex held)."""
        raise NotImplementedError

    def state_dict(self) -> dict:
        """The complete ledger as a JSON-safe dict.

        Everything the budget enforcement depends on rides along — count,
        the linear worst-epsilon or the full Rényi running curve, the quilt
        signatures, and the audit trail (when one is kept) with per-release
        RDP curves.  :func:`accountant_from_state` inverts it
        **bit-identically**: the aggregates are restored verbatim rather
        than replayed, so float-summation order cannot drift and
        ``eps(delta)`` round-trips exactly — the property the durable
        tenant ledgers are built on.
        """
        with self._mutex:
            state: dict[str, Any] = {
                "kind": self._STATE_KIND,
                "budget": None if self.budget is None else float(self.budget),
                "audit_trail": bool(self.audit_trail),
                "count": int(self._count),
                "signatures": sorted(
                    (encode_signature(s) for s in self._signatures),
                    key=repr,
                ),
            }
            state.update(self._state_extra_locked())
            if self.records:
                state["trail"] = _encode_trail(self.records)
            return state

    def _restore_state(self, state: Mapping) -> None:
        with self._mutex:
            self.records = _decode_trail(state.get("trail") or [])
            self._count = int(state["count"])
            self._signatures = {
                decode_signature(s) for s in state["signatures"]
            }
            self._restore_extra(state)


def accountant_from_state(state: Mapping) -> BaseAccountant:
    """Rehydrate an accountant from :meth:`BaseAccountant.state_dict`.

    The restored ledger enforces identically to the one that was dumped:
    same budget decisions on the same future schedule, bit-identical
    ``eps(delta)`` for Rényi ledgers (running curves restored verbatim,
    never re-derived through the envelope).
    """
    kind = state.get("kind")
    if kind == "linear":
        from repro.core.composition import CompositionAccountant

        accountant: BaseAccountant = CompositionAccountant(
            budget=state["budget"], audit_trail=bool(state["audit_trail"])
        )
    elif kind == "renyi":
        accountant = RenyiAccountant(
            budget=state["budget"],
            delta=float(state["delta"]),
            orders=tuple(float(a) for a in state["orders"]),
            audit_trail=bool(state["audit_trail"]),
        )
    elif kind == "sliding":
        from repro.core.windowed import SlidingWindowAccountant

        accountant = SlidingWindowAccountant(
            budget=state["budget"],
            window_span=int(state["window_span"]),
            audit_trail=bool(state["audit_trail"]),
        )
    else:
        raise PrivacyParameterError(
            f"unknown accountant state kind {kind!r} (expected 'linear', "
            f"'renyi', or 'sliding')"
        )
    accountant._restore_state(state)
    return accountant


@dataclass
class RenyiAccountant(BaseAccountant):
    """Rényi-Pufferfish composition behind the linear accountant's contract.

    Per release, a Rényi cost curve over :attr:`orders` is added to the
    running curve (order-by-order — Rényi divergence composes additively
    under the same fixed-quilt condition the linear accountant enforces via
    signatures).  The *spent epsilon* reported against the budget is the
    standard RDP-to-DP conversion, minimized over the grid::

        epsilon(delta) = min_alpha [ rdp(alpha) + log(1/delta) / (alpha - 1) ]

    with the ``alpha = inf`` grid entry contributing ``rdp(inf)`` exactly
    (no conversion overhead), so the converted total never exceeds the
    linear sum — this accountant stops *no earlier* than
    :class:`~repro.core.composition.CompositionAccountant`, and strictly
    later once enough releases accumulate (the strong-composition regime).
    The guarantee enforced is therefore ``(budget, delta)``-Pufferfish
    rather than the linear accountant's pure ``budget``-Pufferfish.

    Parameters
    ----------
    budget:
        Optional total epsilon budget at :attr:`delta`; :meth:`record`
        raises once the converted guarantee would exceed it.
    delta:
        The failure probability of the converted guarantee (must be in
        ``(0, 1)``).
    orders:
        The alpha grid.  Must be finite values ``> 1`` plus optionally
        ``inf``; ``inf`` is always appended if missing (it is what makes
        the accountant never-worse-than-linear).
    audit_trail:
        As for the linear accountant: ``False`` keeps only O(1) aggregates.
    """

    budget: float | None = None
    delta: float = 1e-6
    orders: Sequence[float] = DEFAULT_ORDERS
    records: list[CompositionRecord] = field(default_factory=list)
    audit_trail: bool = True

    _STATE_KIND = "renyi"

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise PrivacyParameterError(
                f"delta must be in (0, 1), got {self.delta}"
            )
        orders = tuple(float(a) for a in self.orders)
        if any(a <= 1.0 for a in orders):
            raise PrivacyParameterError(
                f"all Rényi orders must be > 1, got {sorted(orders)}"
            )
        if not orders or not math.isinf(max(orders)):
            orders = orders + (math.inf,)
        self.orders = tuple(sorted(set(orders)))
        self._order_array = np.array(self.orders, dtype=float)
        # log(1/delta)/(alpha-1) conversion overhead per order; 0 at inf.
        with np.errstate(divide="ignore"):
            self._overhead = math.log(1.0 / self.delta) / (self._order_array - 1.0)
        self._overhead[np.isinf(self._order_array)] = 0.0
        self._rdp = np.zeros_like(self._order_array)
        self._init_runtime()
        if self.records:
            # Rebuild the running curve from the audit trail, **exactly**:
            # records carry the mechanism-supplied curve they were charged
            # (``rdp_values`` on this accountant's grid), so Gaussian
            # releases replay at their true cost, not the conservative
            # pure-epsilon envelope (the PR 6 restart bug).  Consecutive
            # references to one record object — how ``record_many`` appends
            # batches — are re-grouped so the ``_rdp + n * costs``
            # accumulation repeats the original float-summation order bit
            # for bit (object identity survives pickling: the pickle memo
            # restores repeated references as one object).
            index = 0
            while index < len(self.records):
                record = self.records[index]
                count = 1
                while (
                    index + count < len(self.records)
                    and self.records[index + count] is record
                ):
                    count += 1
                self._rdp = self._rdp + count * self._record_costs(record)
                index += count

    def _record_costs(self, record: CompositionRecord) -> np.ndarray:
        """One trail record's per-order cost curve, exactly as charged."""
        if record.rdp_values is None:
            return pure_rdp_curve(record.epsilon, self._order_array)
        if tuple(record.rdp_orders or ()) != self.orders:
            raise PrivacyParameterError(
                f"audit-trail record carries an RDP curve on order grid "
                f"{record.rdp_orders}, but this accountant uses "
                f"{self.orders}; rebuild with the recording accountant's "
                f"grid — re-gridding a curve is not sound"
            )
        return np.asarray(record.rdp_values, dtype=float)

    # -- arithmetic hooks -------------------------------------------------
    def _costs(self, epsilon: float, rdp_curve: RdpCurve | None) -> np.ndarray:
        costs = (
            np.asarray(rdp_curve(self._order_array), dtype=float)
            if rdp_curve is not None
            else pure_rdp_curve(epsilon, self._order_array)
        )
        if costs.shape != self._order_array.shape:
            raise PrivacyParameterError(
                f"rdp_curve returned shape {costs.shape}, expected "
                f"{self._order_array.shape}"
            )
        if np.any(np.isnan(costs)) or np.any(costs < 0):
            raise PrivacyParameterError(
                "rdp_curve must return non-negative, non-NaN costs"
            )
        return costs

    def _convert(self, rdp: np.ndarray) -> float:
        """``(epsilon, delta)`` conversion of a total curve: min over orders
        of ``rdp(alpha) + log(1/delta)/(alpha-1)`` (exact at ``inf``)."""
        if not self._count and not rdp.any():
            return 0.0
        return float(np.min(rdp + self._overhead))

    def _spent_locked(self) -> float:
        return self._convert(self._rdp)

    def _stage_locked(
        self,
        charges: Sequence[tuple[int, float]],
        rdp_curve: RdpCurve | None,
    ) -> tuple[float, Any]:
        # Charge by charge, in order: the same float-summation sequence as
        # recording them one ``record_many`` at a time.  The token keeps the
        # last charge's curve — record_many's only one — for the trail.
        prospective, costs = self._rdp, None
        for n_releases, epsilon in charges:
            costs = self._costs(epsilon, rdp_curve)
            prospective = prospective + n_releases * costs
        total = float(np.min(prospective + self._overhead))
        return total, (prospective, costs)

    def _apply_locked(self, token: tuple[np.ndarray, np.ndarray]) -> None:
        self._rdp = token[0]

    def _trail_curve_locked(
        self, epsilon: float, rdp_curve: RdpCurve | None, token: Any
    ) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
        # Pure releases reproduce from epsilon alone; mechanism-supplied
        # curves are persisted on this accountant's grid (already evaluated
        # during staging — the token carries them) so restart-from-trail
        # replays them exactly instead of the conservative envelope.
        if rdp_curve is None:
            return None
        return self.orders, tuple(float(c) for c in token[1])

    def _state_extra_locked(self) -> dict:
        return {
            "delta": float(self.delta),
            "orders": [float(a) for a in self.orders],
            "rdp": [float(c) for c in self._rdp],
        }

    def _restore_extra(self, state: Mapping) -> None:
        restored = np.asarray(state["rdp"], dtype=float)
        if restored.shape != self._order_array.shape:
            raise PrivacyParameterError(
                f"restored rdp totals have shape {restored.shape}, expected "
                f"{self._order_array.shape}"
            )
        self._rdp = restored

    # -- Rényi introspection ----------------------------------------------
    def rdp_totals(self) -> dict[float, float]:
        """The accumulated Rényi cost per order (a copy)."""
        with self._mutex:
            return {
                float(a): float(c)
                for a, c in zip(self._order_array, self._rdp)
            }

    def epsilon_at(self, delta: float) -> float:
        """The spent guarantee converted at an arbitrary ``delta``."""
        if not 0.0 < delta < 1.0:
            raise PrivacyParameterError(f"delta must be in (0, 1), got {delta}")
        with self._mutex:
            if not self._count:
                return 0.0
            with np.errstate(divide="ignore"):
                overhead = math.log(1.0 / delta) / (self._order_array - 1.0)
            overhead[np.isinf(self._order_array)] = 0.0
            return float(np.min(self._rdp + overhead))

    def optimal_order(self) -> float:
        """The grid order achieving the reported conversion (the
        "optimal alpha"); ``inf`` until strong composition starts to win."""
        with self._mutex:
            if not self._count:
                return math.inf
            return float(self._order_array[int(np.argmin(self._rdp + self._overhead))])
