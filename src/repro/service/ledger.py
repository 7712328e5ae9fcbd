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
* **Admission.**  A grant is admitted only if the accountant's
  :meth:`~repro.core.accounting.BaseAccountant.preview` of *all
  outstanding reservations plus this request* fits the budget, so
  concurrent requests contend at admission time — one store transaction
  each — and never jointly over-commit.  It comes in two shapes:

  - :meth:`TenantLedger.charge` — a release, keyless or keyed: admit and
    debit ``n`` releases in one synced transaction, with no reservation,
    and answer with the snapshot of the state that transaction committed.
  - reserve → consume → release-unused — a stream carves its sub-budget
    out up front with :meth:`TenantLedger.reserve`, debits each chunk
    against it with :meth:`TenantLedger.consume` without re-racing the
    budget, and returns the remainder with
    :meth:`TenantLedger.release_unused` (or the stale-reservation TTL
    reclaims it when the session dies without closing).
* **Exactly-once debit.**  :meth:`TenantLedger.consume` decrements one
  identified reservation and records the release(s) in the accountant in
  the same transaction; a refused consume (reservation drained, epsilon
  mismatch, budget refusal on a mechanism-supplied curve) changes nothing.

:class:`ChargeAccountant` (one :meth:`TenantLedger.charge` per
admitted charge, the service's keyless release path) and
:class:`ReservationAccountant` (one :meth:`TenantLedger.consume` per
admitted charge, the service's stream path) adapt the two shapes to the
:class:`~repro.core.accounting.BaseAccountant` contract, so a stock
:class:`~repro.serving.engine.PrivacyEngine` debits the durable ledger
with no engine changes — budget refusals surface as the same structured
:class:`~repro.exceptions.BudgetExhaustedError` the in-memory accountants
raise.

Two crash-safety layers ride on top (see ``docs/architecture.md``):

* **Idempotency keys** (:meth:`TenantLedger.charge` with
  ``idempotency_key=``): the debit, the key, and the response payload to
  replay land in **one** store transaction, so a client that lost the
  response and retries observes exactly one debit and the original
  payload — even if the retry races the original, or the budget is spent
  by then.  A tenant keeps at most :data:`MAX_IDEMPOTENCY_RECORDS` keys,
  each for :data:`IDEMPOTENCY_TTL` seconds.
* **Recovery sweep** (:meth:`TenantLedger.sweep`): reconciles expired
  reservations (a SIGKILL'd session's stranded sub-budget) and stale
  idempotency records in one transaction, so reclamation does not have to
  wait for the next admission to prune lazily.

Every ledger mutation goes through :meth:`~repro.service.stores.
LedgerStore.run` (the closure form of ``transact``), which is what lets
:class:`~repro.service.retry.RetryingLedgerStore` retry transient store
errors end to end.  The retrying store re-runs a cycle only when its
last attempt did not commit, and otherwise returns that attempt's
result, so no mutation applies twice and none needs replay data of its
own.  Tenant state is therefore the accountant's aggregates plus the
live reservations and client keys, never a per-release log.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Mapping

from repro.core.accounting import (
    BaseAccountant,
    RdpCurve,
    RenyiAccountant,
    accountant_from_state,
    check_charge,
    check_count,
)
from repro.core.composition import CompositionAccountant
from repro.core.windowed import SlidingWindowAccountant
from repro.exceptions import (
    BudgetExhaustedError,
    ReservationError,
    UnknownReservationError,
    UnknownTenantError,
    ValidationError,
)
from repro.faults import fire
from repro.service.stores import LedgerStore, LedgerTransaction
from repro.utils.validation import check_positive

#: Stored-state schema version; bumped on incompatible layout changes.
#: (Idempotency records under the ``"idempotency"`` key were added
#: additively — absent in old states, defaulted on read — so the version
#: holds.  A record holds ``response`` and ``created_at``; older ones
#: also carry ``reservation_id``, ``n_releases`` and ``epsilon``, which
#: nothing reads.  A ``"last_consume"`` slot an older service left on a
#: live reservation is never read and dies with the reservation.)
STATE_VERSION = 1

#: Key prefix of the per-call replay records older states hold under
#: ``"idempotency"`` (keyless consumes once wrote one per release).
#: Nothing replays them any more, so :meth:`TenantLedger.sweep` and every
#: keyed charge drop them whatever their age.
_LEGACY_RETRY_PREFIX = "retry."

#: Seconds a client idempotency record (key + replayable response) is kept
#: before :meth:`TenantLedger.sweep` or the next keyed charge prunes it.
#: Must comfortably exceed the longest client retry horizon.
IDEMPOTENCY_TTL = 3600.0

#: Most client idempotency records one tenant keeps: a new key is refused
#: while this many unexpired records remain, so the tenant row stays
#: bounded however fast keyed releases arrive (a known key still replays).
MAX_IDEMPOTENCY_RECORDS = 1000


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
    ) -> dict:
        """Create the tenant's ledger, or read it if it exists.

        An existing ledger is returned untouched — budgets are never
        silently rewritten; raising on mismatch is the caller's business
        (the service treats re-creation as a read).  ``window_span`` only
        applies to the ``"sliding"`` accountant: the budget is enforced
        over the trailing ``window_span`` logical windows, advanced via
        :meth:`advance_window`.

        The row stores the accountant's aggregates, which is all an
        accountant keeps, so it does not grow with the releases served.
        """
        if accountant == "linear":
            fresh: BaseAccountant = CompositionAccountant(budget=budget)
        elif accountant == "renyi":
            fresh = RenyiAccountant(budget=budget, delta=delta)
        elif accountant == "sliding":
            fresh = SlidingWindowAccountant(budget=budget, window_span=window_span)
        else:
            raise ValidationError(
                f"accountant must be 'linear', 'renyi', or 'sliding', "
                f"got {accountant!r}"
            )
        fresh_state = fresh.state_dict()

        def handler(txn: LedgerTransaction) -> dict:
            if txn.state is not None:
                return self._snapshot_from_state(txn.state)
            txn.state = {
                "version": STATE_VERSION,
                "accountant": fresh_state,
                "reservations": {},
                "idempotency": {},
            }
            return self._snapshot_from_state(txn.state)

        return self.store.run(self.tenant, handler)

    # -- admission: charge, or reserve -> consume -> release-unused --------
    def charge(
        self,
        n_releases: int,
        epsilon: float,
        *,
        quilt_signature: Hashable = None,
        rdp_curve: "RdpCurve | None" = None,
        idempotency_key: "str | None" = None,
        response: Any = None,
    ) -> Any:
        """Admit and debit ``n_releases`` releases in one synced store
        transaction, with no reservation: the one debit of a release.

        In one cycle it drops expired reservations, admits this charge on
        top of every outstanding reservation exactly as :meth:`reserve`
        would (the same ``preview`` arithmetic,
        :class:`~repro.exceptions.BudgetExhaustedError` payload and
        ``retry_after`` rule), records the releases in the accountant
        (which still enforces the same-quilt condition and prices a
        mechanism-supplied Rényi curve), and returns :meth:`snapshot`'s
        view of the state it commits.  A refusal persists nothing.

        With an ``idempotency_key`` the same cycle first drops the client
        records older than :data:`IDEMPOTENCY_TTL` and replays a known key
        before admission, debiting nothing (so a replay answers on a spent
        budget too).  A new key is refused with a
        :class:`~repro.exceptions.ReservationError` while
        :data:`MAX_IDEMPOTENCY_RECORDS` records remain, ``retry_after``
        being the seconds until the oldest expires; otherwise ``response``
        (JSON-serializable) is stored under the key in the transaction
        that debits, so key, debit and payload commit together.  A keyed
        charge returns ``(response, replayed, snapshot)``: the stored
        payload and ``True`` on a replay, ``response`` and ``False``
        otherwise.

        A keyless caller draws after this returns: a crash before the
        commit spends nothing, a crash after it loses only the values.  A
        keyed caller draws first, since its response commits with the
        debit.
        """
        n_releases, epsilon = check_charge(n_releases, epsilon)
        if idempotency_key is not None and (
            not idempotency_key or not isinstance(idempotency_key, str)
        ):
            raise ValidationError(
                f"idempotency_key must be a non-empty string, "
                f"got {idempotency_key!r}"
            )
        fire("tenant.charge", tenant=self.tenant, n_releases=n_releases)

        def handler(txn: LedgerTransaction) -> Any:
            state = self._require(txn.state)
            if idempotency_key is not None:
                records = state.setdefault("idempotency", {})
                now = time.time()
                self._prune_idempotency(records, now)
                record = records.get(idempotency_key)
                if record is not None:
                    return record["response"], True, self._snapshot_from_state(state)
                if len(records) >= MAX_IDEMPOTENCY_RECORDS:
                    oldest = min(r["created_at"] for r in records.values())
                    error = ReservationError(
                        f"tenant {self.tenant!r} already holds {len(records)} "
                        f"idempotency records, the most it keeps; retry once "
                        f"the oldest expires, or release without a key"
                    )
                    error.retry_after = max(0.0, oldest + IDEMPOTENCY_TTL - now)
                    raise error
            self._pop_expired_locked(state)
            accountant = accountant_from_state(state["accountant"])
            self._admit(
                accountant,
                state["reservations"].values(),
                n_releases,
                epsilon,
                action="charging",
            )
            self._debit_in_state(
                state,
                accountant,
                n_releases,
                epsilon,
                quilt_signature=quilt_signature,
                rdp_curve=rdp_curve,
            )
            if idempotency_key is None:
                return self._snapshot_from_state(state, accountant)
            records[idempotency_key] = {"response": response, "created_at": now}
            return response, False, self._snapshot_from_state(state, accountant)

        return self.store.run(self.tenant, handler)

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
        """
        n_releases, epsilon = check_charge(n_releases, epsilon)
        fire("tenant.reserve", tenant=self.tenant, n_releases=n_releases)
        reservation_id = uuid.uuid4().hex

        def handler(txn: LedgerTransaction) -> Reservation:
            state = self._require(txn.state)
            self._pop_expired_locked(state)
            self._admit(
                accountant_from_state(state["accountant"]),
                state["reservations"].values(),
                n_releases,
                epsilon,
                action="reserving",
            )
            state["reservations"][reservation_id] = {
                "epsilon": epsilon,
                "n_reserved": n_releases,
                "n_consumed": 0,
                "created_at": time.time(),
            }
            return Reservation(self.tenant, reservation_id, epsilon, n_releases, 0)

        return self.store.run(self.tenant, handler, sync=False)

    def _admit(
        self,
        accountant: BaseAccountant,
        reservations: "Iterable[Mapping]",
        n_releases: int,
        epsilon: float,
        *,
        action: str,
    ) -> None:
        """Refuse unless ``n_releases`` at ``epsilon`` fit the budget on top
        of the given reservations' unconsumed remainders (inside a
        transaction; changes nothing)."""
        outstanding = [
            (r["n_reserved"] - r["n_consumed"], r["epsilon"]) for r in reservations
        ]
        prospective = accountant.preview(outstanding + [(n_releases, epsilon)])
        budget = accountant.budget
        if budget is None or prospective <= budget + _ATOL:
            return
        spent = accountant.total_epsilon()
        reserved = sum(n * eps for n, eps in outstanding)
        error = BudgetExhaustedError(
            f"{action} {n_releases} release(s) at epsilon={epsilon:g} "
            f"would bring tenant {self.tenant!r} to a prospective "
            f"guarantee of {prospective:.4g} (spent {spent:.4g}, "
            f"outstanding reservations {reserved:.4g}), exceeding the "
            f"budget of {budget:.4g}",
            budget=budget,
            spent=spent,
            remaining=max(0.0, budget - spent),
            requested=n_releases,
            n_completed=0,
            accountant=type(accountant).__name__,
        )
        if outstanding:
            error.retry_after = self.reservation_ttl
        raise error

    def consume(
        self,
        reservation_id: str,
        n_releases: int = 1,
        *,
        epsilon: float,
        quilt_signature: Hashable = None,
        rdp_curve: "RdpCurve | None" = None,
    ) -> Reservation:
        """Debit ``n_releases`` served releases against one reservation.

        Atomic and exactly-once: the reservation decrement and the
        accountant record land in the same store transaction — a refusal
        (drained reservation, epsilon mismatch, or the accountant vetoing a
        mechanism-supplied curve that outgrew the reserved envelope)
        persists nothing.  Returns the reservation's post-consume state.
        """
        n_releases = check_count(n_releases, "n_releases")
        fire(
            "tenant.consume",
            tenant=self.tenant,
            reservation_id=reservation_id,
            n_releases=n_releases,
        )

        def handler(txn: LedgerTransaction) -> Reservation:
            return self._consume_in_state(
                self._require(txn.state),
                reservation_id,
                n_releases,
                epsilon=float(epsilon),
                quilt_signature=quilt_signature,
                rdp_curve=rdp_curve,
            )

        return self.store.run(self.tenant, handler)

    def _consume_in_state(
        self,
        state: Mapping,
        reservation_id: str,
        n_releases: int,
        *,
        epsilon: float,
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
        self._debit_in_state(
            state,
            accountant_from_state(state["accountant"]),
            n_releases,
            epsilon,
            quilt_signature=quilt_signature,
            rdp_curve=rdp_curve,
        )
        entry["n_consumed"] += n_releases
        return self._reservation(reservation_id, entry)

    @staticmethod
    def _debit_in_state(
        state: Mapping,
        accountant: BaseAccountant,
        n_releases: int,
        epsilon: float,
        *,
        quilt_signature: Hashable,
        rdp_curve: "RdpCurve | None",
    ) -> None:
        """Record releases in the rehydrated ``accountant`` and write it
        back into the in-transaction state; a refusal raises first and
        changes nothing."""
        accountant.record_many(
            n_releases,
            epsilon,
            quilt_signature=quilt_signature,
            rdp_curve=rdp_curve,
        )
        state["accountant"] = accountant.state_dict()

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
        call it unconditionally.
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
        the ``trail`` / ``audit_trail`` keys an older accountant state still
        holds.  This is the *recovery sweep*: run it at service startup and
        after killing workers, and no orphaned reservation outlives its TTL
        plus one sweep.  Returns reclaim stats; a no-op sweep returns zeros.
        """
        fire("tenant.sweep", tenant=self.tenant)

        def handler(txn: LedgerTransaction) -> dict:
            state = self._require(txn.state)
            expired = self._pop_expired_locked(state, now=now)
            reclaimed = [
                (r["n_reserved"] - r["n_consumed"], r["epsilon"]) for r in expired
            ]
            # Accountants keep aggregates only; nothing reads these keys.
            state["accountant"].pop("trail", None)
            state["accountant"].pop("audit_trail", None)
            pruned = self._prune_idempotency(
                state.setdefault("idempotency", {}),
                time.time() if now is None else now,
            )
            return {
                "tenant": self.tenant,
                "expired_reservations": len(expired),
                "reclaimed_releases": sum(n for n, _ in reclaimed),
                "reclaimed_epsilon": sum((n * eps for n, eps in reclaimed), 0.0),
                "pruned_idempotency_records": pruned,
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
                stats = accountant.advance_to(window)
            else:
                stats = accountant.advance_window(steps)
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

    def _snapshot_from_state(
        self, state: Mapping, accountant: "BaseAccountant | None" = None
    ) -> dict:
        """:meth:`snapshot`'s view of ``state``; ``accountant``, when given,
        is the state's accountant already rehydrated."""
        if accountant is None:
            accountant = accountant_from_state(state["accountant"])
        reservations = state["reservations"]
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


    @staticmethod
    def _prune_idempotency(records: "dict[str, Any]", now: float) -> int:
        """Drop the client records older than :data:`IDEMPOTENCY_TTL` and
        every legacy ``retry.`` record (inside a transaction); return how
        many went."""
        cutoff = now - IDEMPOTENCY_TTL
        stale = [
            key
            for key, record in records.items()
            if key.startswith(_LEGACY_RETRY_PREFIX) or record["created_at"] < cutoff
        ]
        for key in stale:
            del records[key]
        return len(stale)


_ATOL = 1e-12  # same float-sum slack as the in-memory accountants


class ChargeAccountant(BaseAccountant):
    """A :class:`~repro.core.accounting.BaseAccountant` that charges the
    tenant ledger directly, with no reservation.

    Plug one into a stock :class:`~repro.serving.engine.PrivacyEngine`
    (``engine.with_accountant(...)``) and every ``record_many`` — a keyless
    single release or batch — is one :meth:`TenantLedger.charge`: admission
    and debit in one synced store transaction, before any noise is drawn.
    It overrides only the base class's admission hook, so a
    ``record_each`` (a stream chunk) charges each value in its own
    transaction.  The ledger refuses with the structured
    :class:`~repro.exceptions.BudgetExhaustedError`, and a refusal changes
    nothing.  :attr:`snapshot` is the tenant's snapshot as the last charge
    committed it, and ``budget`` and the spend mirror that snapshot, so the
    caller answers without reading the row again.
    """

    def __init__(self, ledger: TenantLedger) -> None:
        self._ledger = ledger
        self.budget = None
        self.snapshot: "dict | None" = None
        self._init_runtime()

    def _spent_locked(self) -> float:
        return 0.0 if self.snapshot is None else self.snapshot["spent_epsilon"]

    def _record_locked(
        self,
        n_releases: int,
        epsilon: float,
        quilt_signature: "str | None",
        rdp_curve: "RdpCurve | None",
    ) -> None:
        self.snapshot = self._ledger.charge(
            n_releases,
            epsilon,
            quilt_signature=quilt_signature,
            rdp_curve=rdp_curve,
        )
        self.budget = self.snapshot["budget"]
        self._count += n_releases


class ReservationAccountant(BaseAccountant):
    """A :class:`~repro.core.accounting.BaseAccountant` over one reservation.

    Plug one into a stock :class:`~repro.serving.engine.PrivacyEngine`
    (``engine.with_accountant(...)``) and every ``record_many`` — a stream
    chunk, or any release drawn against a held sub-budget — debits the
    durable tenant ledger exactly once through :meth:`TenantLedger.consume`,
    inside the store's cross-process transaction.  The local ``budget`` is the reservation's
    envelope (``n_reserved * epsilon``), so a session that outruns its
    sub-budget gets the standard structured
    :class:`~repro.exceptions.BudgetExhaustedError` (with the session's
    ledger in the payload) without ever touching the store; the tenant-wide
    budget was already accounted at admission time, and the ledger checks
    the reserved epsilon and the same-quilt condition in the debit.

    Only the base class's admission hook is overridden, not its arithmetic
    hooks: the *commit* here is a store transaction (which can itself
    refuse), not a pure in-memory apply.  ``record_many`` debits its whole
    count in one transaction; ``record_each`` (a stream chunk) debits each
    value in its own, stopping at the first refusal.
    """

    def __init__(self, ledger: TenantLedger, reservation: Reservation) -> None:
        self._ledger = ledger
        self._reservation = reservation
        self.budget = reservation.epsilon_total
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
    def n_remaining(self) -> int:
        with self._mutex:
            return self._reservation.n_reserved - self._consumed

    # -- the reservation-backed check-then-record cycle --------------------
    def _spent_locked(self) -> float:
        return self._consumed * self._reservation.epsilon

    def _record_locked(
        self,
        n_releases: int,
        epsilon: float,
        quilt_signature: "str | None",
        rdp_curve: "RdpCurve | None",
    ) -> None:
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
                requested=n_releases,
                n_completed=0,
                accountant=type(self).__name__,
            )
        # The durable debit: one exactly-once store transaction, which
        # checks the reserved epsilon and the same quilt.  A refusal
        # raises here and nothing — local or durable — has changed.
        self._ledger.consume(
            self._reservation.reservation_id,
            n_releases,
            epsilon=epsilon,
            quilt_signature=quilt_signature,
            rdp_curve=rdp_curve,
        )
        self._consumed += n_releases
        self._count += n_releases
        self._signatures.add(quilt_signature)
