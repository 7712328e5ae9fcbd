"""Sliding-window budget accounting: exact expiry, forever.

The windowed semantics on top of the shared BaseAccountant contract
(which ``tests/test_accountant_conformance.py`` certifies for the sliding
accountant at a fixed clock): releases are charged against the current
logical window, expiry reclaims their epsilon *exactly* — window ``k``'s
admission arithmetic is identical to window 0's, indefinitely — the clock
is monotone, and the state round-trips bit-identically through
``accountant_from_state``.  The service layers ride along: the
:class:`~repro.service.ledger.TenantLedger` windowed reclamation sweep
(clock advance + bucket expiry + reservation-TTL sweep in one store
transaction) and the ``/tenants/{tenant}/advance-window`` endpoint.
"""

from __future__ import annotations

import math
import pickle
import time

import pytest

from repro.core.accounting import accountant_from_state
from repro.core.windowed import SlidingWindowAccountant
from repro.exceptions import (
    BudgetExhaustedError,
    PrivacyParameterError,
    ValidationError,
)
from repro.service import create_app
from repro.service.ledger import TenantLedger
from repro.service.stores import SQLiteLedgerStore
from repro.service.testing import TestClient

BUDGET = 1.0
EPSILON = 0.25
PER_WINDOW = math.floor(BUDGET / EPSILON)  # 4


def drain(accountant, epsilon: float = EPSILON, cap: int = 10_000) -> int:
    served = 0
    while served < cap:
        try:
            accountant.record(epsilon)
            served += 1
        except BudgetExhaustedError:
            break
    return served


# -- windowed admission ----------------------------------------------------
def test_every_window_admits_floor_budget_over_eps_forever():
    """Expiry reclaims epsilon exactly, so an indefinite stream sustains
    floor(budget / eps) releases per window — no drift, ever."""
    accountant = SlidingWindowAccountant(budget=BUDGET, audit_trail=False)
    for window in range(60):
        assert drain(accountant) == PER_WINDOW, f"window {window}"
        stats = accountant.advance_window()
        assert stats["expired_releases"] == PER_WINDOW
        assert stats["reclaimed_epsilon"] == pytest.approx(BUDGET)
        assert stats["live_releases"] == 0
        assert stats["spent"] == 0.0


def test_window_span_keeps_trailing_windows_live():
    """With span 2, consecutive windows share the budget; a release only
    expires once the clock passes its window + span - 1."""
    accountant = SlidingWindowAccountant(budget=BUDGET, window_span=2)
    accountant.record_many(2, EPSILON)  # half the budget in window 0
    accountant.advance_window()
    # Window 0's charges are still live: only half the budget remains.
    assert drain(accountant) == 2
    stats = accountant.advance_window()
    # Window 0 (2 releases) expired; window 1's 2 releases stay live.
    assert stats["expired_releases"] == 2
    assert stats["live_releases"] == 2
    assert stats["reclaimed_epsilon"] == pytest.approx(2 * EPSILON)
    assert drain(accountant) == 2


def test_spent_is_live_count_times_worst_live_epsilon():
    """Theorem 4.4 over the live span: heterogeneous epsilons cost
    count * max(eps), and the max is over *live* windows only."""
    accountant = SlidingWindowAccountant(window_span=2)
    accountant.record(0.5)
    accountant.advance_window()
    accountant.record_many(3, 0.1)
    assert accountant.total_epsilon() == pytest.approx(4 * 0.5)
    accountant.advance_window()  # the 0.5 release expires
    assert accountant.total_epsilon() == pytest.approx(3 * 0.1)
    assert accountant.live_release_count() == 3


def test_refusal_counts_only_live_releases():
    accountant = SlidingWindowAccountant(budget=BUDGET)
    drain(accountant)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        accountant.record(EPSILON)
    assert excinfo.value.spent == pytest.approx(BUDGET)
    accountant.advance_window()
    accountant.record(EPSILON)  # admitted again — the ledger emptied


# -- the logical clock -----------------------------------------------------
def test_clock_is_monotone():
    accountant = SlidingWindowAccountant()
    accountant.advance_to(5)
    assert accountant.window == 5
    with pytest.raises(PrivacyParameterError, match="monotone"):
        accountant.advance_to(4)
    with pytest.raises(PrivacyParameterError):
        accountant.advance_window(0)
    assert accountant.window == 5


def test_advance_to_jump_expires_everything_between():
    accountant = SlidingWindowAccountant(budget=BUDGET, window_span=3)
    accountant.record_many(PER_WINDOW, EPSILON)
    stats = accountant.advance_to(100)
    assert stats["expired_releases"] == PER_WINDOW
    assert stats["reclaimed_epsilon"] == pytest.approx(BUDGET)
    assert accountant.total_epsilon() == 0.0


def test_window_span_validation():
    with pytest.raises(PrivacyParameterError):
        SlidingWindowAccountant(window_span=0)


def test_preexisting_records_charge_the_initial_window():
    source = SlidingWindowAccountant()
    source.record_many(3, EPSILON)
    rebuilt = SlidingWindowAccountant(records=list(source.records))
    assert rebuilt.live_release_count() == 3
    assert rebuilt.total_epsilon() == pytest.approx(3 * EPSILON)
    rebuilt.advance_window()
    assert rebuilt.total_epsilon() == 0.0


# -- durability ------------------------------------------------------------
def test_state_roundtrip_is_bit_identical():
    accountant = SlidingWindowAccountant(budget=BUDGET, window_span=2)
    accountant.record_many(2, EPSILON)
    accountant.advance_window()
    accountant.record(0.125)
    state = accountant.state_dict()
    assert state["kind"] == "sliding"
    clone = accountant_from_state(state)
    assert isinstance(clone, SlidingWindowAccountant)
    assert clone.state_dict() == state
    assert clone.window == accountant.window
    assert clone.total_epsilon() == accountant.total_epsilon()
    # The clone enforces — and expires — exactly like the original.
    assert drain(clone) == drain(accountant)
    assert clone.advance_window() == accountant.advance_window()


def test_pickle_preserves_the_window_clock():
    accountant = SlidingWindowAccountant(budget=BUDGET)
    drain(accountant)
    accountant.advance_window()
    accountant.record(EPSILON)
    clone = pickle.loads(pickle.dumps(accountant))
    assert clone.window == 1
    assert clone.live_release_count() == 1
    assert drain(clone) == PER_WINDOW - 1


def test_unknown_state_kind_is_refused():
    state = SlidingWindowAccountant().state_dict()
    state["kind"] = "wat"
    with pytest.raises(PrivacyParameterError, match="sliding"):
        accountant_from_state(state)


# -- replay determinism ----------------------------------------------------
def test_identical_schedules_replay_bit_identically():
    """The clock is logical/injected: the same record/advance schedule
    produces the same admissions, refusals, and stats — no wall time."""

    def run() -> list:
        accountant = SlidingWindowAccountant(budget=BUDGET, window_span=2)
        trace: list = []
        for _ in range(10):
            trace.append(drain(accountant))
            trace.append(accountant.advance_window())
        trace.append(accountant.state_dict())
        return trace

    assert run() == run()


# -- the ledger's windowed reclamation sweep -------------------------------
@pytest.fixture()
def ledger():
    return TenantLedger(SQLiteLedgerStore(":memory:"), "acme", reservation_ttl=60.0)


def test_ledger_sliding_tenant_sustains_floor_per_window(ledger):
    ledger.create(budget=BUDGET, accountant="sliding")
    for _ in range(5):
        for _ in range(PER_WINDOW):
            reservation = ledger.reserve(1, EPSILON)
            ledger.consume(reservation.reservation_id, epsilon=EPSILON)
        with pytest.raises(BudgetExhaustedError):
            ledger.reserve(1, EPSILON)
        stats = ledger.advance_window()
        assert stats["reclaimed_epsilon"] == pytest.approx(BUDGET)
        # Drained reservations hold no budget (reserved == consumed); the
        # sweep reclaims nothing from them.
        assert stats["reclaimed_releases"] == 0
    snapshot = ledger.snapshot()
    assert snapshot["reserved_releases"] == 0
    assert snapshot["spent_epsilon"] == 0.0
    assert snapshot["window"] == 5
    assert snapshot["window_span"] == 1
    assert snapshot["live_releases"] == 0


def test_ledger_advance_window_sweeps_stale_reservations(ledger):
    """The reclamation sweep is one transaction: clock advance, bucket
    expiry, and reservation-TTL reclamation land together — an indefinite
    stream can never strand a reservation behind the window clock."""
    ledger.create(budget=BUDGET, accountant="sliding")
    ledger.reserve(2, EPSILON)  # abandoned: never consumed
    reservation = ledger.reserve(1, EPSILON)
    ledger.consume(reservation.reservation_id, epsilon=EPSILON)
    stats = ledger.advance_window(now=time.time() + 61.0)
    assert stats["expired_reservations"] == 2
    assert stats["reclaimed_releases"] == 2
    assert stats["outstanding_reservations"] == 0
    assert stats["reclaimed_epsilon"] == pytest.approx(EPSILON)
    # The full budget is reservable again.
    assert ledger.reserve(PER_WINDOW, EPSILON).n_reserved == PER_WINDOW


def test_ledger_advance_window_absolute_and_validation(ledger):
    ledger.create(budget=BUDGET, accountant="sliding", window_span=2)
    stats = ledger.advance_window(window=7)
    assert stats["window"] == 7
    with pytest.raises(ValidationError, match="not both"):
        ledger.advance_window(steps=2, window=9)
    with pytest.raises(PrivacyParameterError, match="monotone"):
        ledger.advance_window(window=3)


def test_ledger_advance_window_requires_sliding_accountant(ledger):
    ledger.create(budget=BUDGET, accountant="linear")
    with pytest.raises(ValidationError, match="sliding"):
        ledger.advance_window()


# -- the HTTP surface ------------------------------------------------------
@pytest.fixture()
def client():
    app = create_app()
    yield TestClient(app)
    app.service.close()


def test_service_sliding_tenant_full_cycle(client):
    # hub-laplace charges epsilon=0.5 per release: budget 1.0 admits 2.
    created = client.post(
        "/tenants/acme", {"budget": 1.0, "accountant": "sliding"}
    ).json()
    assert created["accountant"] == "SlidingWindowAccountant"
    for window in range(3):
        served = client.post(
            "/tenants/acme/release", {"workload": "hub-laplace", "n": 2}
        )
        assert served.status == 200, f"window {window}"
        refused = client.post(
            "/tenants/acme/release", {"workload": "hub-laplace", "n": 1}
        )
        assert refused.status == 429
        advanced = client.post("/tenants/acme/advance-window", {})
        assert advanced.status == 200
        body = advanced.json()
        assert body["window"] == window + 1
        assert body["reclaimed_epsilon"] == pytest.approx(1.0)
        assert body["live_releases"] == 0
    snapshot = client.get("/tenants/acme").json()
    assert snapshot["window"] == 3
    assert snapshot["spent_epsilon"] == 0.0


def test_service_advance_window_refusals(client):
    assert client.post("/tenants/ghost/advance-window", {}).status == 404
    client.post("/tenants/acme", {"budget": 1.0, "accountant": "linear"})
    response = client.post("/tenants/acme/advance-window", {})
    assert response.status == 400
    assert "sliding" in response.json()["message"]
