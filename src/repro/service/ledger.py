"""Per-tenant budget ledgers with reservation-style admission control.

The multi-tenant service must survive two things the in-process
:class:`~repro.serving.engine.PrivacyEngine` accountant cannot: process
restarts (budgets must be durable) and thundering herds (N concurrent
sessions, possibly in N processes, must never jointly over-commit one
tenant's epsilon).  :class:`TenantLedger` provides both on top of a
:class:`~repro.service.stores.LedgerStore`:

* **Durability.**  The tenant's accountant state — linear aggregates or
  the full Rényi running curve (:meth:`~repro.core.accounting.
  BaseAccountant.state_dict`) — is the stored source of truth.  Every
  mutation rehydrates it (:func:`~repro.core.accounting.
  accountant_from_state`, bit-identical), applies the release arithmetic,
  and persists the result, all inside one exclusive store transaction.  A
  restarted service picks up exactly — not conservatively — where the
  previous one stopped.  Only debits must be on stable storage before the
  call returns: :meth:`TenantLedger.reserve` and
  :meth:`TenantLedger.release_unused` commit with ``sync=False``, because
  a power loss that undoes a hold or a return only over-holds budget
  until the recovery sweep, and a debit against a reservation flushes the
  reservation with it.
* **Reservation admission** (reserve → consume → release-unused).  A
  session carves its epsilon sub-budget out of the tenant ledger *up
  front*: :meth:`TenantLedger.reserve` admits ``n`` prospective releases
  only if the accountant's :meth:`~repro.core.accounting.BaseAccountant.
  preview` of *all outstanding reservations plus this one* fits the
  budget.  Concurrent sessions therefore contend at admission time — one
  store transaction each — and whichever reservations are granted can
  consume their releases without ever re-racing the budget.  Unused
  remainder is returned by :meth:`TenantLedger.release_unused` (or
  reclaimed by the stale-reservation TTL when a session dies without
  closing).
* **Exactly-once debit.**  :meth:`TenantLedger.consume` decrements one
  identified reservation and records the release(s) in the accountant in
  the same transaction; a refused consume (reservation drained, epsilon
  mismatch, budget refusal on a mechanism-supplied curve) changes nothing.

:class:`ReservationAccountant` adapts one reservation to the
:class:`~repro.core.accounting.BaseAccountant` contract so a stock
:class:`~repro.serving.engine.PrivacyEngine` (and its streaming sessions)
debits the durable ledger per release with no engine changes — budget
refusals surface as the same structured
:class:`~repro.exceptions.BudgetExhaustedError` the in-memory accountants
raise.

Two crash-safety layers ride on top (see ``docs/architecture.md``):

* **Idempotency keys** (:meth:`TenantLedger.consume_idempotent`): the
  debit, the key, and the response payload to replay land in **one** store
  transaction, so a client that lost the response and retries observes
  exactly one debit and the original payload — even if the retry races the
  original, or the store throws *after* the commit and a retrying wrapper
  re-runs the cycle.
* **Recovery sweep** (:meth:`TenantLedger.sweep`): reconciles expired
  reservations (a SIGKILL'd session's stranded sub-budget) and stale
  idempotency records in one transaction, so reclamation does not have to
  wait for the next admission to prune lazily.

Every ledger mutation goes through :meth:`~repro.service.stores.
LedgerStore.run` (the closure form of ``transact``) and is safe to re-run
from a fresh read, which is what lets
:class:`~repro.service.retry.RetryingLedgerStore` retry transient store
errors end to end: reservation ids are fixed before the cycle starts (a
re-run overwrites the same entry), consumes replay — a client-supplied
idempotency key persists with the debit, and a keyless
:meth:`TenantLedger.consume` stamps its private call id on the reservation
it debits — and ``release_unused`` is idempotent-by-absence.  Tenant state
is therefore the accountant's aggregates plus the live reservations and
client keys, never a per-release log.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass
from typing import Any, Hashable, Mapping

from repro.core.accounting import (
    BaseAccountant,
    CompositionRecord,
    RdpCurve,
    RenyiAccountant,
    accountant_from_state,
)
from repro.core.composition import CompositionAccountant
from repro.core.windowed import SlidingWindowAccountant
from repro.exceptions import (
    BudgetExhaustedError,
    PrivacyParameterError,
    ReservationError,
    UnknownReservationError,
    UnknownTenantError,
    ValidationError,
)
from repro.faults import fire
from repro.service.stores import LedgerStore, LedgerTransaction
from repro.utils.validation import check_positive

#: Stored-state schema version; bumped on incompatible layout changes.
#: (Idempotency records under the ``"idempotency"`` key and a reservation's
#: ``"last_consume"`` slot were added additively — absent in old states,
#: defaulted on read — so the version holds.)
STATE_VERSION = 1

#: Key prefix of the per-call replay records older states hold under
#: ``"idempotency"`` (keyless consumes once wrote one per release).
#: Nothing replays them any more, so :meth:`TenantLedger.sweep` drops
#: them whatever their age.
_LEGACY_RETRY_PREFIX = "retry."

#: Seconds a client idempotency record (key + replayable response) is kept
#: before :meth:`TenantLedger.sweep` prunes it.  Must comfortably exceed
#: the longest client retry horizon.
IDEMPOTENCY_TTL = 3600.0


@dataclass(frozen=True)
class Reservation:
    """A granted epsilon sub-budget: ``n_reserved`` releases at ``epsilon``.

    ``epsilon_total`` is the sub-budget's linear envelope — what admission
    charged the tenant ledger for it.  The id is the consume/release
    handle; treat it like a capability (whoever holds it can spend the
    reservation).
    """

    tenant: str
    reservation_id: str
    epsilon: float
    n_reserved: int
    n_consumed: int

    @property
    def n_remaining(self) -> int:
        return self.n_reserved - self.n_consumed

    @property
    def epsilon_total(self) -> float:
        return self.n_reserved * self.epsilon


class TenantLedger:
    """One tenant's durable budget ledger over a shared store.

    Instances are cheap, stateless handles — every operation is one store
    transaction; nothing is cached between calls, so any number of handles
    (across threads and processes) observe one serialized ledger history.

    Parameters
    ----------
    store:
        The shared :class:`~repro.service.stores.LedgerStore`.
    tenant:
        Tenant name (any non-empty string without ``/``).
    reservation_ttl:
        Seconds after which an unconsumed reservation is presumed abandoned
        (its session crashed without :meth:`release_unused`) and its
        remainder stops counting against admission.  Must be positive and
        finite, and comfortably exceed the longest legitimate session; it
        exists so a crashed client cannot strand tenant budget forever.
    """

    def __init__(
        self, store: LedgerStore, tenant: str, *, reservation_ttl: float = 3600.0
    ) -> None:
        if not tenant or "/" in tenant:
            raise ValidationError(
                f"tenant must be a non-empty string without '/', got {tenant!r}"
            )
        self.store = store
        self.tenant = tenant
        self.reservation_ttl = check_positive(reservation_ttl, "reservation_ttl")

    # -- tenant lifecycle -------------------------------------------------
    def create(
        self,
        *,
        budget: "float | None",
        accountant: str = "linear",
        delta: float = 1e-6,
        window_span: int = 1,
        exist_ok: bool = True,
    ) -> dict:
        """Create the tenant's ledger (idempotent when ``exist_ok``).

        An existing ledger is returned untouched — budgets are never
        silently rewritten; raising on mismatch is the caller's business
        (the service treats re-creation as a read).  ``window_span`` only
        applies to the ``"sliding"`` accountant: the budget is enforced
        over the trailing ``window_span`` logical windows, advanced via
        :meth:`advance_window`.

        The accountant keeps aggregates only (``audit_trail=False``):
        enforcement restores them verbatim, and a per-release trail would
        grow the row every transaction rewrites.
        """
        if accountant == "linear":
            fresh: BaseAccountant = CompositionAccountant(
                budget=budget, audit_trail=False
            )
        elif accountant == "renyi":
            fresh = RenyiAccountant(budget=budget, delta=delta, audit_trail=False)
        elif accountant == "sliding":
            fresh = SlidingWindowAccountant(
                budget=budget, window_span=window_span, audit_trail=False
            )
        else:
            raise ValidationError(
                f"accountant must be 'linear', 'renyi', or 'sliding', "
                f"got {accountant!r}"
            )
        fresh_state = fresh.state_dict()

        def handler(txn: LedgerTransaction) -> dict:
            if txn.state is not None:
                if not exist_ok:
                    raise ValidationError(
                        f"tenant {self.tenant!r} already has a ledger"
                    )
                return self._snapshot_from_state(txn.state)
            txn.state = {
                "version": STATE_VERSION,
                "accountant": fresh_state,
                "reservations": {},
                "idempotency": {},
            }
            return self._snapshot_from_state(txn.state)

        return self.store.run(self.tenant, handler)

    def exists(self) -> bool:
        return self.store.peek(self.tenant) is not None

    # -- admission: reserve -> consume -> release-unused -------------------
    def reserve(self, n_releases: int, epsilon: float) -> Reservation:
        """Carve ``n_releases * epsilon`` out of the tenant budget up front.

        Admission prices every *outstanding* (unexpired, unconsumed)
        reservation plus this request through the accountant's
        conservative :meth:`~repro.core.accounting.BaseAccountant.preview`
        and refuses with a structured
        :class:`~repro.exceptions.BudgetExhaustedError` when the total
        would overshoot — so the sum of granted sub-budgets can never
        exceed the tenant budget, no matter how many sessions race, from
        how many processes.

        A refusal while *other* reservations are outstanding carries
        ``retry_after = reservation_ttl`` (mapped to an HTTP
        ``Retry-After`` by the service): the budget those reservations
        hold returns by the TTL at the latest, so retrying then can
        succeed; a refusal with nothing outstanding is final.

        Safe to re-run by a retrying store wrapper: the reservation id is
        fixed before the transaction starts, so a re-run after a commit
        that actually landed overwrites the same entry with the same
        content instead of granting a second sub-budget.
        """
        if n_releases < 1:
            raise PrivacyParameterError(
                f"n_releases must be >= 1, got {n_releases}"
            )
        if epsilon <= 0:
            raise PrivacyParameterError(
                f"epsilon must be positive, got {epsilon}"
            )
        fire("tenant.reserve", tenant=self.tenant, n_releases=int(n_releases))
        reservation_id = uuid.uuid4().hex

        def handler(txn: LedgerTransaction) -> Reservation:
            state = self._require(txn.state)
            self._pop_expired_locked(state)
            accountant = accountant_from_state(state["accountant"])
            outstanding = [
                (r["n_reserved"] - r["n_consumed"], r["epsilon"])
                for rid, r in state["reservations"].items()
                if rid != reservation_id  # a re-run must not double-count itself
            ]
            charges = outstanding + [(int(n_releases), float(epsilon))]
            prospective = accountant.preview(charges)
            budget = accountant.budget
            if budget is not None and prospective > budget + _ATOL:
                spent = accountant.total_epsilon()
                reserved = sum(n * eps for n, eps in outstanding)
                error = BudgetExhaustedError(
                    f"reserving {n_releases} release(s) at epsilon={epsilon:g} "
                    f"would bring tenant {self.tenant!r} to a prospective "
                    f"guarantee of {prospective:.4g} (spent {spent:.4g}, "
                    f"outstanding reservations {reserved:.4g}), exceeding the "
                    f"budget of {budget:.4g}",
                    budget=budget,
                    spent=spent,
                    remaining=max(0.0, budget - spent),
                    requested=int(n_releases),
                    n_completed=0,
                    accountant=type(accountant).__name__,
                )
                if outstanding:
                    error.retry_after = self.reservation_ttl
                raise error
            state["reservations"][reservation_id] = {
                "epsilon": float(epsilon),
                "n_reserved": int(n_releases),
                "n_consumed": 0,
                "created_at": time.time(),
            }
            return Reservation(
                self.tenant, reservation_id, float(epsilon), int(n_releases), 0
            )

        return self.store.run(self.tenant, handler, sync=False)

    def consume(
        self,
        reservation_id: str,
        n_releases: int = 1,
        *,
        epsilon: float,
        mechanism: str = "MQM",
        quilt_signature: Hashable = None,
        rdp_curve: "RdpCurve | None" = None,
    ) -> Reservation:
        """Debit ``n_releases`` served releases against one reservation.

        Atomic and exactly-once: the reservation decrement and the
        accountant record land in the same store transaction — a refusal
        (drained reservation, epsilon mismatch, or the accountant vetoing a
        mechanism-supplied curve that outgrew the reserved envelope)
        persists nothing.  Returns the reservation's post-consume state.

        Safe to re-run by a retrying store wrapper even without a client
        idempotency key: each call fixes a private id before the cycle
        starts and writes it into the reservation as ``last_consume`` with
        the debit, so a re-run after a commit that actually landed (the
        store errored *after* committing) finds its own id and replays the
        committed result instead of double-debiting — or refusing a debit
        the tenant already paid for.  This needs one holder per
        reservation, so no other consume lands between the commit and the
        re-run; every caller is one (:class:`ReservationAccountant` holds
        its mutex across the debit, a stream its session lock, a one-shot
        release runs reserve/consume/release in sequence).  A re-run that
        finds the reservation gone (released or expired in between) raises
        :class:`~repro.exceptions.UnknownReservationError`; the committed
        debit stands, so spend is never under-counted.
        """
        if n_releases < 1:
            raise PrivacyParameterError(
                f"n_releases must be >= 1, got {n_releases}"
            )
        fire(
            "tenant.consume",
            tenant=self.tenant,
            reservation_id=reservation_id,
            n_releases=int(n_releases),
        )
        call_id = uuid.uuid4().hex

        def handler(txn: LedgerTransaction) -> Reservation:
            state = self._require(txn.state)
            entry = state["reservations"].get(reservation_id)
            if entry is not None and entry.get("last_consume") == call_id:
                return self._reservation(reservation_id, entry)
            result = self._consume_in_state(
                state,
                reservation_id,
                int(n_releases),
                epsilon=float(epsilon),
                mechanism=mechanism,
                quilt_signature=quilt_signature,
                rdp_curve=rdp_curve,
            )
            state["reservations"][reservation_id]["last_consume"] = call_id
            return result

        return self.store.run(self.tenant, handler)

    def consume_idempotent(
        self,
        reservation_id: str,
        n_releases: int,
        *,
        epsilon: float,
        idempotency_key: str,
        response: Any,
        mechanism: str = "MQM",
        quilt_signature: Hashable = None,
        rdp_curve: "RdpCurve | None" = None,
    ) -> "tuple[Any, bool]":
        """Debit exactly once per ``idempotency_key``; replay on repeats.

        Returns ``(response, replayed)``.  First time a key is seen, the
        debit (:meth:`consume` semantics) **and** the caller-supplied
        ``response`` payload are persisted in the *same* store transaction;
        the response comes back with ``replayed=False``.  Any later call
        with the same key — a client retry after a lost HTTP response, or
        a retrying store wrapper re-running a cycle whose commit already
        landed — debits nothing and returns the stored payload with
        ``replayed=True``.  Because key, debit, and payload commit
        atomically, there is no window where the debit landed but a retry
        would re-debit, and none where a replayed response was never paid
        for.

        ``response`` must be JSON-serializable (it lives in ledger state).
        """
        if not idempotency_key or not isinstance(idempotency_key, str):
            raise ValidationError(
                f"idempotency_key must be a non-empty string, "
                f"got {idempotency_key!r}"
            )
        if n_releases < 1:
            raise PrivacyParameterError(
                f"n_releases must be >= 1, got {n_releases}"
            )
        fire(
            "tenant.consume",
            tenant=self.tenant,
            reservation_id=reservation_id,
            n_releases=int(n_releases),
            idempotency_key=idempotency_key,
        )

        def handler(txn: LedgerTransaction) -> "tuple[Any, bool]":
            state = self._require(txn.state)
            records = state.setdefault("idempotency", {})
            record = records.get(idempotency_key)
            if record is not None:
                return record["response"], True
            self._consume_in_state(
                state,
                reservation_id,
                int(n_releases),
                epsilon=float(epsilon),
                mechanism=mechanism,
                quilt_signature=quilt_signature,
                rdp_curve=rdp_curve,
            )
            records[idempotency_key] = {
                "response": response,
                "reservation_id": reservation_id,
                "n_releases": int(n_releases),
                "epsilon": float(epsilon),
                "created_at": time.time(),
            }
            return response, False

        return self.store.run(self.tenant, handler)

    def idempotent_response(self, idempotency_key: str) -> Any:
        """The stored response for a key, or ``None`` if unseen.

        A lock-free **fast path** for retry handling — it can save the
        reserve/draw work on an obvious replay, but only
        :meth:`consume_idempotent` is authoritative (a concurrent original
        may commit right after this returns ``None``).
        """
        state = self.store.peek(self.tenant)
        if state is None:
            return None
        record = state.get("idempotency", {}).get(idempotency_key)
        return None if record is None else record["response"]

    def _consume_in_state(
        self,
        state: Mapping,
        reservation_id: str,
        n_releases: int,
        *,
        epsilon: float,
        mechanism: str,
        quilt_signature: Hashable,
        rdp_curve: "RdpCurve | None",
    ) -> Reservation:
        """The consume core, applied to an in-transaction state dict."""
        entry = state["reservations"].get(reservation_id)
        if entry is None:
            raise UnknownReservationError(
                f"tenant {self.tenant!r} has no outstanding reservation "
                f"{reservation_id!r} (already released, or expired past "
                f"the {self.reservation_ttl}s TTL)"
            )
        if float(epsilon) != entry["epsilon"]:
            raise ReservationError(
                f"reservation {reservation_id!r} holds epsilon="
                f"{entry['epsilon']:g} per release, cannot consume at "
                f"epsilon={epsilon:g}"
            )
        remaining = entry["n_reserved"] - entry["n_consumed"]
        if n_releases > remaining:
            raise ReservationError(
                f"reservation {reservation_id!r} has {remaining} "
                f"release(s) left, cannot consume {n_releases}; reserve "
                f"a larger sub-budget or open a new session"
            )
        accountant = accountant_from_state(state["accountant"])
        accountant.record_many(
            int(n_releases),
            float(epsilon),
            mechanism=mechanism,
            quilt_signature=quilt_signature,
            rdp_curve=rdp_curve,
        )
        entry["n_consumed"] += int(n_releases)
        state["accountant"] = accountant.state_dict()
        return self._reservation(reservation_id, entry)

    def _reservation(self, reservation_id: str, entry: Mapping) -> Reservation:
        return Reservation(
            self.tenant,
            reservation_id,
            entry["epsilon"],
            entry["n_reserved"],
            entry["n_consumed"],
        )

    def release_unused(self, reservation_id: str) -> int:
        """Return a reservation's unconsumed remainder to the tenant budget.

        Idempotent-by-absence: an unknown (already released or expired) id
        returns 0 instead of raising, so session close paths can always
        call it unconditionally — and a retrying store wrapper can re-run
        the cycle without minting budget.
        """
        fire(
            "tenant.release_unused",
            tenant=self.tenant,
            reservation_id=reservation_id,
        )

        def handler(txn: LedgerTransaction) -> int:
            state = self._require(txn.state)
            entry = state["reservations"].pop(reservation_id, None)
            if entry is None:
                return 0
            return int(entry["n_reserved"] - entry["n_consumed"])

        return self.store.run(self.tenant, handler, sync=False)

    # -- recovery ----------------------------------------------------------
    def sweep(self, *, now: "float | None" = None) -> dict:
        """Reconcile this tenant's ledger in one transaction.

        Reclaims every reservation past ``reservation_ttl`` (returning its
        unconsumed remainder to the budget — the consumed part was debited
        durably and stays spent) and prunes idempotency records past
        :data:`IDEMPOTENCY_TTL`, plus every legacy ``retry.`` record and
        accountant audit trail an older state still holds.  This is the
        *recovery sweep*: run it at service startup and after killing
        workers, and no orphaned reservation outlives its TTL plus one
        sweep.  Returns reclaim stats; a no-op sweep returns zeros.
        """
        fire("tenant.sweep", tenant=self.tenant)

        def handler(txn: LedgerTransaction) -> dict:
            state = self._require(txn.state)
            expired = self._pop_expired_locked(state, now=now)
            reclaimed = [
                (r["n_reserved"] - r["n_consumed"], r["epsilon"]) for r in expired
            ]
            # Enforcement reads the aggregates only; see create().
            state["accountant"].pop("trail", None)
            state["accountant"]["audit_trail"] = False
            records = state.setdefault("idempotency", {})
            cutoff = (time.time() if now is None else now) - IDEMPOTENCY_TTL
            stale = [
                key
                for key, record in records.items()
                if key.startswith(_LEGACY_RETRY_PREFIX)
                or record["created_at"] < cutoff
            ]
            for key in stale:
                del records[key]
            return {
                "tenant": self.tenant,
                "expired_reservations": len(expired),
                "reclaimed_releases": sum(n for n, _ in reclaimed),
                "reclaimed_epsilon": sum((n * eps for n, eps in reclaimed), 0.0),
                "pruned_idempotency_records": len(stale),
                "outstanding_reservations": len(state["reservations"]),
            }

        return self.store.run(self.tenant, handler)

    def advance_window(
        self, *, steps: int = 1, window: "int | None" = None, now: "float | None" = None
    ) -> dict:
        """The windowed reclamation sweep: advance the tenant's logical
        window clock and reclaim expired releases' epsilon, exactly.

        Requires a ``"sliding"`` accountant (raises
        :class:`~repro.exceptions.ValidationError` otherwise).  ``steps``
        advances relatively; ``window`` jumps to an absolute index
        (monotone).  The clock advance, the bucket expiry, and a
        reservation-TTL sweep all land in **one** store transaction, so an
        indefinite stream's reclamation can never strand a reservation or
        observe a half-advanced ledger.  Returns the accountant's advance
        stats plus the reservation-sweep stats.
        """
        if window is not None and steps != 1:
            raise ValidationError("pass steps or window, not both")
        fire("tenant.advance_window", tenant=self.tenant)

        def handler(txn: LedgerTransaction) -> dict:
            state = self._require(txn.state)
            accountant = accountant_from_state(state["accountant"])
            if not isinstance(accountant, SlidingWindowAccountant):
                raise ValidationError(
                    f"tenant {self.tenant!r} uses "
                    f"{type(accountant).__name__}; advance_window requires "
                    "the 'sliding' accountant"
                )
            if window is not None:
                stats = accountant.advance_to(int(window))
            else:
                stats = accountant.advance_window(int(steps))
            state["accountant"] = accountant.state_dict()
            # Same-transaction reservation sweep: reclamation and expiry
            # are one atomic reconciliation, as in :meth:`sweep`.
            expired = self._pop_expired_locked(state, now=now)
            return {
                "tenant": self.tenant,
                **stats,
                "expired_reservations": len(expired),
                "reclaimed_releases": sum(
                    r["n_reserved"] - r["n_consumed"] for r in expired
                ),
                "outstanding_reservations": len(state["reservations"]),
            }

        return self.store.run(self.tenant, handler)

    # -- reads -------------------------------------------------------------
    def accountant(self) -> BaseAccountant:
        """A rehydrated **snapshot** of the tenant's accountant.

        Bit-identical to the stored ledger at read time (including Rényi
        curves); mutating it affects nothing durable.
        """
        state = self._require(self.store.peek(self.tenant))
        return accountant_from_state(state["accountant"])

    def snapshot(self) -> dict:
        """JSON-safe operational view: spent, remaining, reservations."""
        return self._snapshot_from_state(
            self._require(self.store.peek(self.tenant))
        )

    def _snapshot_from_state(self, state: Mapping) -> dict:
        accountant = accountant_from_state(state["accountant"])
        reservations = state.get("reservations", {})
        outstanding = sum(
            r["n_reserved"] - r["n_consumed"] for r in reservations.values()
        )
        reserved_epsilon = sum(
            (r["n_reserved"] - r["n_consumed"]) * r["epsilon"]
            for r in reservations.values()
        )
        snapshot: dict[str, Any] = {
            "tenant": self.tenant,
            "accountant": type(accountant).__name__,
            "budget": accountant.budget,
            "spent_epsilon": accountant.total_epsilon(),
            "remaining_budget": accountant.remaining(),
            "n_releases": len(accountant),
            "n_reservations": len(reservations),
            "reserved_releases": outstanding,
            "reserved_epsilon": reserved_epsilon,
            "idempotency_records": len(state.get("idempotency", {})),
        }
        if isinstance(accountant, RenyiAccountant):
            snapshot["delta"] = accountant.delta
            snapshot["optimal_order"] = accountant.optimal_order()
        if isinstance(accountant, SlidingWindowAccountant):
            snapshot["window"] = accountant.window
            snapshot["window_span"] = accountant.window_span
            snapshot["live_releases"] = accountant.live_release_count()
        return snapshot

    # -- internals ---------------------------------------------------------
    def _require(self, state: "Mapping | None") -> Any:
        if state is None:
            raise UnknownTenantError(
                f"tenant {self.tenant!r} has no ledger; create it first "
                f"(POST /tenants/{self.tenant} on the service)"
            )
        return state

    def _pop_expired_locked(
        self, state: Mapping, *, now: "float | None" = None
    ) -> "list[dict]":
        """Remove and return the reservations older than the TTL (inside a
        transaction).

        Only admission and the sweeps prune: an expired id that later
        tries to consume fails loudly with :class:`~repro.exceptions.
        UnknownReservationError` rather than silently re-admitting.
        """
        now = time.time() if now is None else now
        reservations = state["reservations"]
        expired = [
            rid
            for rid, r in reservations.items()
            if now - r["created_at"] > self.reservation_ttl
        ]
        return [reservations.pop(rid) for rid in expired]


_ATOL = 1e-12  # same float-sum slack as the in-memory accountants


class ReservationAccountant(BaseAccountant):
    """A :class:`~repro.core.accounting.BaseAccountant` over one reservation.

    Plug one into a stock :class:`~repro.serving.engine.PrivacyEngine`
    (``engine.with_accountant(...)``) and every release — single, batched,
    or streamed — debits the durable tenant ledger exactly once through
    :meth:`TenantLedger.consume`, inside the store's cross-process
    transaction.  The local ``budget`` is the reservation's envelope
    (``n_reserved * epsilon``), so a session that outruns its sub-budget
    gets the standard structured
    :class:`~repro.exceptions.BudgetExhaustedError` (with the session's
    ledger in the payload) without ever touching the store; the tenant-wide
    budget was already accounted at admission time.

    The base class's check-then-record plumbing is overridden rather than
    hooked: the *commit* here is a store transaction (which can itself
    refuse), not a pure in-memory apply.
    """

    def __init__(self, ledger: TenantLedger, reservation: Reservation) -> None:
        self._ledger = ledger
        self._reservation = reservation
        self.budget = reservation.epsilon_total
        self.records: list = []
        self.audit_trail = False  # the tenant ledger keeps aggregates only
        self._consumed = reservation.n_consumed
        self._init_runtime()

    # -- identity ----------------------------------------------------------
    @property
    def tenant(self) -> str:
        return self._ledger.tenant

    @property
    def reservation_id(self) -> str:
        return self._reservation.reservation_id

    @property
    def epsilon(self) -> float:
        return self._reservation.epsilon

    @property
    def n_reserved(self) -> int:
        return self._reservation.n_reserved

    @property
    def n_remaining(self) -> int:
        with self._mutex:
            return self._reservation.n_reserved - self._consumed

    # -- the reservation-backed check-then-record cycle --------------------
    def _spent_locked(self) -> float:
        return self._consumed * self._reservation.epsilon

    def record_many(
        self,
        n_releases: int,
        epsilon: float,
        *,
        mechanism: str = "MQM",
        quilt_signature: Hashable = None,
        rdp_curve: "RdpCurve | None" = None,
    ) -> list:
        if epsilon <= 0:
            raise PrivacyParameterError(
                f"epsilon must be positive, got {epsilon}"
            )
        if n_releases < 1:
            raise PrivacyParameterError(
                f"n_releases must be >= 1, got {n_releases}"
            )
        if float(epsilon) != self._reservation.epsilon:
            raise ReservationError(
                f"this session reserved epsilon={self._reservation.epsilon:g} "
                f"per release, cannot record epsilon={epsilon:g}"
            )
        with self._mutex:
            if self._signatures and quilt_signature not in self._signatures:
                raise PrivacyParameterError(
                    "releases use different active Markov quilts; Theorem 4.4 "
                    "does not apply and Pufferfish privacy may not compose"
                )
            remaining = self._reservation.n_reserved - self._consumed
            if n_releases > remaining:
                spent = self._spent_locked()
                raise BudgetExhaustedError(
                    f"{n_releases} release(s) would exceed this session's "
                    f"reserved sub-budget of {self.budget:.4g} for tenant "
                    f"{self.tenant!r} ({remaining} release(s) remaining); "
                    f"reserve a larger sub-budget or open a new session",
                    budget=self.budget,
                    spent=spent,
                    remaining=max(0.0, self.budget - spent),
                    requested=int(n_releases),
                    n_completed=0,
                    accountant=type(self).__name__,
                )
            # The durable debit: one store transaction, exactly-once.  A
            # refusal (e.g. the tenant accountant vetoing a curve) raises
            # here and nothing — local or durable — has changed.
            self._ledger.consume(
                self._reservation.reservation_id,
                int(n_releases),
                epsilon=float(epsilon),
                mechanism=mechanism,
                quilt_signature=quilt_signature,
                rdp_curve=rdp_curve,
            )
            record = CompositionRecord(float(epsilon), mechanism, quilt_signature)
            self._consumed += int(n_releases)
            self._count += int(n_releases)
            self._signatures.add(quilt_signature)
            return [record] * int(n_releases)
