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
input validation, the same-quilt signature condition, the durable
``state_dict`` round trip, and the
:class:`~repro.exceptions.BudgetExhaustedError` payload (including the
structured ``accountant`` field naming the class that refused).  Subclasses
only provide the arithmetic — what a release costs and what the running
total converts to — so the two accountants cannot drift on thread safety or
pickling behavior.

An accountant *is* its aggregates.  Theorem 4.4 reads only the release
count, the largest per-release epsilon and the shared quilt signature; the
Rényi ledger adds its running divergence curve.  No per-release log is
kept, so memory and :meth:`BaseAccountant.state_dict` stay O(1) however
many releases a ledger has served, and ``state_dict`` /
:func:`accountant_from_state` is the one way to persist and restore one.
A signature is kept as its :func:`signature_digest`, so that state does
not grow with the network either.

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

import hashlib
import math
import operator
import threading
from dataclasses import InitVar, dataclass
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


def signature_digest(value: Hashable) -> str:
    """A quilt signature as one 64-character SHA-256 hex digest.

    The Theorem 4.4 same-quilt check only compares signatures for
    equality, so accountants keep and persist this digest in place of the
    signature itself: a ledger row stays the same size whatever the
    network, and holds no node names.  The digest is taken over ``repr``,
    as the calibration cache key is, so it tells ``1`` from ``1.0`` or
    ``True`` where tuple equality does not; every signature producer
    builds its value from node names and fixed-type fingerprints, so no
    live signature changes class.
    """
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _kept_signature(value: Hashable) -> "str | None":
    """What an accountant keeps for a quilt signature: a ``str`` or
    ``None`` as given, any other value as its :func:`signature_digest`, so
    ``t`` and ``signature_digest(t)`` name the same release class."""
    if value is None or isinstance(value, str):
        return value
    return signature_digest(value)


def _checked_curve(rdp_curve: Any) -> "RdpCurve | None":
    """``rdp_curve`` after checking it is ``None`` or callable: a Rényi
    cycle stages its checked cost array in a curve's place
    (:meth:`BaseAccountant._cycle_curve_locked`), a caller cannot."""
    if rdp_curve is None or callable(rdp_curve):
        return rdp_curve
    raise PrivacyParameterError(
        f"rdp_curve must be callable, got {type(rdp_curve).__name__}"
    )


def _legacy_signature(entry: Any) -> Any:
    """A ``signatures`` entry as rows written before digests stored it:
    tuples tagged as ``{"tuple": [...]}`` (read only, never written)."""
    if isinstance(entry, dict):
        return tuple(_legacy_signature(item) for item in entry["tuple"])
    return entry


def check_count(value: Any, name: str, *, minimum: int = 1) -> int:
    """``value`` as an ``int`` after checking it is an integral count of at
    least ``minimum``.

    ``operator.index`` refuses ``2.5``, ``2.0``, NaN and ``"2"`` instead of
    truncating them, so a ledger is never charged for a count the caller
    did not serve.  Call it before taking any lock.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise PrivacyParameterError(
            f"{name} must be an integer, got {value!r}"
        ) from None
    if count < minimum:
        raise PrivacyParameterError(f"{name} must be >= {minimum}, got {count}")
    return count


def check_charge(
    n_releases: Any, epsilon: float, *, minimum: int = 1
) -> tuple[int, float]:
    """One ``(n_releases, epsilon)`` charge as ``(int, float)``: an integral
    count of at least ``minimum`` (:func:`check_count`) at a positive
    epsilon (NaN refused too) — the one check every accounting entry point
    runs before it touches a ledger."""
    if not epsilon > 0:  # written so that NaN is refused too
        raise PrivacyParameterError(f"epsilon must be positive, got {epsilon}")
    return check_count(n_releases, "n_releases", minimum=minimum), float(epsilon)


class BaseAccountant:
    """The shared check-then-record contract of every budget accountant.

    Subclasses are dataclasses exposing a ``budget`` field and implement
    three arithmetic hooks — all called with the mutex held:

    * :meth:`_stage_locked` — the prospective total if an ordered list of
      ``(n_releases, epsilon)`` charges were admitted, plus an opaque commit
      token (:meth:`_record_locked` stages its one charge; :meth:`preview`
      stages every charge it prices, and never commits);
    * :meth:`_apply_locked` — commit a staged token;
    * :meth:`_spent_locked` — the current total.

    Everything else — the reentrant mutex around the whole
    check-then-record cycle, ``__getstate__``/``__setstate__`` dropping and
    rebuilding the lock for pickling, parameter validation, the Theorem 4.4
    same-quilt signature condition, the :meth:`state_dict` round trip, and
    the structured :class:`~repro.exceptions.BudgetExhaustedError` payload —
    lives here once, so the accountants cannot drift on any of it.

    Both entry points admit through one hook, :meth:`_record_locked`:
    :meth:`record_many` admits its whole charge in one call, and
    :meth:`record_each` (a stream chunk) admits each value with its own
    call.  An accountant whose commit is not an in-memory apply (the
    service's ledger-backed ones) overrides that hook alone.

    ``audit_trail`` survives only as a constructor keyword that must be
    ``False``: no accountant keeps anything per release.
    """

    # -- runtime state shared by all subclasses -------------------------
    def _init_runtime(self, audit_trail: bool = False) -> None:
        """Build the non-field runtime state (called from __post_init__)."""
        if audit_trail:
            raise PrivacyParameterError(
                "the per-release audit trail is gone: accountants keep "
                "aggregates only, so audit_trail must be False; persist a "
                "ledger with state_dict() and accountant_from_state()"
            )
        # NaN compares false against every total, so it would admit without
        # limit; ``None`` is the one spelling of "unlimited".
        if self.budget is not None and math.isnan(self.budget):
            raise PrivacyParameterError(
                f"budget must be a number or None, got {self.budget}"
            )
        self._count = 0
        self._signatures = set()
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

    def _cycle_curve_locked(
        self, epsilon: float, rdp_curve: RdpCurve | None
    ) -> "RdpCurve | np.ndarray | None":
        """What each value of one :meth:`record_each` cycle is charged with
        (mutex held): ``rdp_curve`` itself, unless the accountant prices
        the whole cycle once, as a checked cost array."""
        return rdp_curve

    # -- the one check-then-record cycle --------------------------------
    def record(
        self,
        epsilon: float,
        *,
        quilt_signature: Hashable = None,
        rdp_curve: RdpCurve | None = None,
    ) -> None:
        """Register a release; raises if it would exceed the budget or break
        the same-quilt condition."""
        self.record_many(
            1, epsilon, quilt_signature=quilt_signature, rdp_curve=rdp_curve
        )

    def record_many(
        self,
        n_releases: int,
        epsilon: float,
        *,
        quilt_signature: Hashable = None,
        rdp_curve: RdpCurve | None = None,
    ) -> None:
        """Register ``n_releases`` identical releases atomically.

        The serving layer's batched path records whole batches through here;
        either every release fits under the budget (and shares the standing
        quilt signature) or none is recorded.  ``n_releases`` must be an
        integer (:func:`check_charge`).

        A ``str`` or ``None`` ``quilt_signature`` is kept as given and any
        other value as its :func:`signature_digest`, so ``t`` and
        ``signature_digest(t)`` count as the same release class.

        ``rdp_curve`` optionally supplies the releases' own Rényi cost curve
        (mechanisms exposing ``rdp_curve``, e.g. the Gaussian MQM); the
        linear accountant ignores it, the Rényi accountant uses it in place
        of the conservative pure-release curve.
        """
        n_releases, epsilon = check_charge(n_releases, epsilon)
        quilt_signature = _kept_signature(quilt_signature)
        rdp_curve = _checked_curve(rdp_curve)
        with self._mutex:
            self._record_locked(n_releases, epsilon, quilt_signature, rdp_curve)

    def record_each(
        self,
        n_releases: int,
        epsilon: float,
        *,
        quilt_signature: Hashable = None,
        rdp_curve: RdpCurve | None = None,
    ) -> int:
        """Register up to ``n_releases`` releases, each its own charge, in
        one admission cycle; return how many were admitted.

        The count, epsilon and signature are checked once, as in
        :meth:`record_many`.  Then, under one hold of the mutex, each value
        is staged, budget-checked and applied in turn: the same arithmetic
        as ``n_releases`` :meth:`record` calls, so the ledger (the Rényi
        running curve float for float) is the same however a stream
        chunks, and ``floor(budget / eps)`` values fit exactly.

        It raises only when no value was admitted.  A refusal, or any other
        error, after the first admission ends the cycle and returns the
        admitted prefix; a refusal then repeats on the next call.  A
        ``BaseException`` (a simulated crash, an interrupt) escapes, and
        the values admitted before it stay recorded.
        """
        n_releases, epsilon = check_charge(n_releases, epsilon)
        quilt_signature = _kept_signature(quilt_signature)
        rdp_curve = _checked_curve(rdp_curve)
        admitted = 0
        with self._mutex:
            rdp_curve = self._cycle_curve_locked(epsilon, rdp_curve)
            while admitted < n_releases:
                try:
                    self._record_locked(1, epsilon, quilt_signature, rdp_curve)
                except Exception:
                    if admitted:
                        break
                    raise
                admitted += 1
        return admitted

    def _record_locked(
        self,
        n_releases: int,
        epsilon: float,
        quilt_signature: "str | None",
        rdp_curve: RdpCurve | None,
    ) -> None:
        """Admit ``n_releases`` releases as one charge, or raise having
        changed nothing (mutex held; inputs already checked, the signature
        in its kept form)."""
        if self._signatures and quilt_signature not in self._signatures:
            raise PrivacyParameterError(
                "releases use different active Markov quilts; Theorem 4.4 does "
                "not apply and Pufferfish privacy may not compose"
            )
        total, token = self._stage_locked([(n_releases, epsilon)], rdp_curve)
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
        self._apply_locked(token)
        self._count += n_releases
        self._signatures.add(quilt_signature)

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
        overshoot (see :mod:`repro.service.ledger`).  Counts must be
        integers ``>= 0`` (a zero count prices nothing).
        """
        staged = [check_charge(n, epsilon, minimum=0) for n, epsilon in charges]
        with self._mutex:
            return self._stage_locked([c for c in staged if c[0]], None)[0]

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

        The ledger is its aggregates, and all of them ride along: count,
        the quilt signatures (as kept: digests, plain strings or ``None``),
        and the linear worst-epsilon, the full Rényi running curve or the
        sliding window buckets.  Its size does not depend on how many
        releases were recorded, nor on the network.
        :func:`accountant_from_state` inverts it **bit-identically**: the
        aggregates are restored verbatim rather than replayed, so
        float-summation order cannot drift and ``eps(delta)`` round-trips
        exactly — the property the durable tenant ledgers are built on.
        """
        with self._mutex:
            state: dict[str, Any] = {
                "kind": self._STATE_KIND,
                "budget": None if self.budget is None else float(self.budget),
                "count": int(self._count),
                "signatures": sorted(self._signatures, key=repr),
            }
            state.update(self._state_extra_locked())
            return state

    def _restore_state(self, state: Mapping) -> None:
        with self._mutex:
            self._count = int(state["count"])
            self._signatures = {
                _kept_signature(_legacy_signature(s)) for s in state["signatures"]
            }
            self._restore_extra(state)


def accountant_from_state(state: Mapping) -> BaseAccountant:
    """Rehydrate an accountant from :meth:`BaseAccountant.state_dict`.

    The restored ledger enforces identically to the one that was dumped:
    same budget decisions on the same future schedule, bit-identical
    ``eps(delta)`` for Rényi ledgers (running curves restored verbatim,
    never re-derived through the envelope).  States written while
    accountants could keep an audit trail also carry ``audit_trail`` and
    ``trail`` keys; neither is read, so such a state restores to the same
    spend and its next :meth:`~BaseAccountant.state_dict` drops both.
    States written before signatures were digests hold each tuple tagged
    as ``{"tuple": [...]}``; such an entry restores as the digest of the
    tuple it encodes, so the ledger admits that quilt's next release and
    its next ``state_dict`` is in digest form.
    """
    kind = state.get("kind")
    if kind == "linear":
        from repro.core.composition import CompositionAccountant

        accountant: BaseAccountant = CompositionAccountant(budget=state["budget"])
    elif kind == "renyi":
        accountant = RenyiAccountant(
            budget=state["budget"],
            delta=float(state["delta"]),
            orders=tuple(float(a) for a in state["orders"]),
        )
    elif kind == "sliding":
        from repro.core.windowed import SlidingWindowAccountant

        accountant = SlidingWindowAccountant(
            budget=state["budget"], window_span=int(state["window_span"])
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
        Accepted only as ``False`` (see :class:`BaseAccountant`): the
        running curve is the whole ledger.
    """

    budget: float | None = None
    delta: float = 1e-6
    orders: Sequence[float] = DEFAULT_ORDERS
    audit_trail: InitVar[bool] = False

    _STATE_KIND = "renyi"

    def __post_init__(self, audit_trail: bool) -> None:
        if not 0.0 < self.delta < 1.0:
            raise PrivacyParameterError(
                f"delta must be in (0, 1), got {self.delta}"
            )
        orders = tuple(float(a) for a in self.orders)
        if any(not a > 1.0 for a in orders):  # written so that NaN is refused too
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
        self._init_runtime(audit_trail)

    # -- arithmetic hooks -------------------------------------------------
    def _costs(
        self, epsilon: float, rdp_curve: "RdpCurve | np.ndarray | None"
    ) -> np.ndarray:
        if type(rdp_curve) is np.ndarray:  # a cycle's, already checked
            return rdp_curve
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
        # recording them one ``record_many`` at a time.  The token is the
        # prospective curve itself.
        prospective = self._rdp
        for n_releases, epsilon in charges:
            prospective = prospective + n_releases * self._costs(epsilon, rdp_curve)
        return float(np.min(prospective + self._overhead)), prospective

    def _apply_locked(self, token: np.ndarray) -> None:
        self._rdp = token

    def _cycle_curve_locked(
        self, epsilon: float, rdp_curve: RdpCurve | None
    ) -> np.ndarray:
        # Evaluated and checked once per cycle.  Each value still adds
        # ``1 * costs`` to the running curve, as one ``record`` would, so
        # the ledger is float for float what per-value calls build.
        return self._costs(epsilon, rdp_curve)

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
