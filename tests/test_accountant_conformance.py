"""Accountant conformance: one behavioral contract, three accountants.

Every test in this module runs identically against the linear
:class:`~repro.core.composition.CompositionAccountant` (Theorem 4.4), the
:class:`~repro.core.accounting.RenyiAccountant` (Rényi-Pufferfish strong
composition) and the :class:`~repro.core.windowed.SlidingWindowAccountant`.
They differ *only* in arithmetic — what a release costs and what the
running total converts to; everything else (the atomic check-then-record
cycle, refusal payloads, validation, the same-quilt signature condition,
the aggregates-only ``state_dict`` round trip, pickling, thread safety) is
the shared :class:`~repro.core.accounting.BaseAccountant` contract this
suite certifies.  A behavior difference between the parameterizations is a
drift bug by definition.

Thread-safety cases follow ``tests/test_streaming_concurrency.py``: GIL
switch interval dropped, private per-thread actors, shared state only
through the accountant, and the concurrent outcome compared against a
sequential reference drain of the same budget.
"""

from __future__ import annotations

import json
import pickle
import random
import re
import sys
import threading

import numpy as np
import pytest

from repro.baselines.group_dp import GroupDPMechanism
from repro.core.accounting import (
    BUDGET_ATOL,
    RenyiAccountant,
    accountant_from_state,
    signature_digest,
)
from repro.core.composition import CompositionAccountant
from repro.core.queries import CountQuery
from repro.core.windowed import SlidingWindowAccountant
from repro.exceptions import BudgetExhaustedError, PrivacyParameterError
from repro.service.ledger import ReservationAccountant, TenantLedger
from repro.service.stores import SQLiteLedgerStore
from repro.serving import PrivacyEngine

EPSILON = 0.5

#: (name, factory) — factories accept the shared BaseAccountant fields.
#: The sliding accountant conforms at a fixed clock (never advanced here);
#: its windowed semantics have their own suite in
#: tests/test_windowed_accounting.py.
FACTORIES = [
    ("linear", CompositionAccountant),
    ("renyi", lambda **kw: RenyiAccountant(delta=1e-5, **kw)),
    ("sliding", SlidingWindowAccountant),
]

IDS = [name for name, _ in FACTORIES]
MAKERS = [factory for _, factory in FACTORIES]


@pytest.fixture(params=MAKERS, ids=IDS)
def make(request):
    return request.param


@pytest.fixture(autouse=True)
def dense_interleavings():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=t) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def drain(accountant, epsilon: float = EPSILON, cap: int = 100_000) -> int:
    """Sequential reference: record until refused, return the count."""
    served = 0
    while served < cap:
        try:
            accountant.record(epsilon, quilt_signature=("q",))
            served += 1
        except BudgetExhaustedError:
            break
    return served


class TestRecordSemantics:
    def test_empty_accountant_reads(self, make):
        accountant = make(budget=4.0)
        assert len(accountant) == 0
        assert accountant.total_epsilon() == 0.0
        assert accountant.remaining() == pytest.approx(4.0)
        assert accountant.is_composable

    def test_record_returns_none_and_counts(self, make):
        accountant = make()
        assert accountant.record(EPSILON, quilt_signature=("q",)) is None
        assert len(accountant) == 1
        assert accountant.total_epsilon() > 0.0

    def test_record_many_is_n_records(self, make):
        accountant = make()
        assert accountant.record_many(7, EPSILON, quilt_signature=("q",)) is None
        assert len(accountant) == 7

    def test_no_budget_means_unlimited(self, make):
        accountant = make()
        assert accountant.remaining() is None
        accountant.record_many(500, EPSILON, quilt_signature=("q",))
        assert len(accountant) == 500

    def test_spent_never_exceeds_budget(self, make):
        budget = 6.0
        accountant = make(budget=budget)
        served = drain(accountant)
        assert served > 0
        assert accountant.total_epsilon() <= budget + BUDGET_ATOL
        assert accountant.remaining() == pytest.approx(
            budget - accountant.total_epsilon()
        )

    def test_nothing_from_a_refused_call_is_recorded(self, make):
        accountant = make(budget=2 * EPSILON)
        accountant.record_many(2, EPSILON, quilt_signature=("q",))
        before = accountant.state_dict()
        with pytest.raises(BudgetExhaustedError):
            accountant.record_many(50, EPSILON, quilt_signature=("q",))
        assert accountant.state_dict() == before
        assert len(accountant) == 2


class TestRefusalPayload:
    def test_payload_names_the_accountant_class(self, make):
        accountant = make(budget=EPSILON)
        accountant.record(EPSILON, quilt_signature=("q",))
        with pytest.raises(BudgetExhaustedError) as excinfo:
            accountant.record(EPSILON, quilt_signature=("q",))
        error = excinfo.value
        assert error.accountant == type(accountant).__name__
        assert error.ledger()["accountant"] == type(accountant).__name__

    def test_payload_is_exact(self, make):
        budget = 5 * EPSILON
        accountant = make(budget=budget)
        drain(accountant)
        spent = accountant.total_epsilon()
        with pytest.raises(BudgetExhaustedError) as excinfo:
            accountant.record_many(3, EPSILON, quilt_signature=("q",))
        error = excinfo.value
        assert error.budget == budget
        assert error.spent == pytest.approx(spent)
        assert error.remaining == pytest.approx(max(0.0, budget - spent))
        assert error.requested == 3
        assert error.n_completed == 0
        assert set(error.ledger()) == {
            "budget",
            "spent",
            "remaining",
            "requested",
            "n_completed",
            "accountant",
        }


class TestValidation:
    @pytest.mark.parametrize("epsilon", [0.0, -1.0])
    def test_nonpositive_epsilon_raises(self, make, epsilon):
        with pytest.raises(PrivacyParameterError):
            make().record(epsilon)

    @pytest.mark.parametrize("n_releases", [0, -3])
    def test_nonpositive_count_raises(self, make, n_releases):
        with pytest.raises(PrivacyParameterError):
            make().record_many(n_releases, EPSILON)

    def test_nan_epsilon_is_refused(self, make):
        """A NaN epsilon would make the linear total NaN-or-zero and admit
        without limit; recording and previewing both refuse it."""
        accountant = make(budget=1.0)
        with pytest.raises(PrivacyParameterError, match="epsilon"):
            accountant.record(float("nan"))
        with pytest.raises(PrivacyParameterError, match="epsilon"):
            accountant.preview([(1, float("nan"))])
        assert len(accountant) == 0

    def test_nan_budget_is_refused(self, make):
        """NaN compares false against every total, so a NaN budget would
        admit releases without limit; ``None`` is the only "unlimited"."""
        with pytest.raises(PrivacyParameterError, match="budget"):
            make(budget=float("nan"))

    @pytest.mark.parametrize("n_releases", [2.5, 2.0, float("nan"), "2"])
    def test_non_integral_count_is_refused_before_charging(self, make, n_releases):
        """A count is an integer: ``2.5`` is neither charged as 2 releases
        nor as 2.5, and a refused call leaves the ledger as it was."""
        accountant = make(budget=10.0)
        accountant.record(0.1, quilt_signature=("q",))
        before = accountant.state_dict()
        with pytest.raises(PrivacyParameterError, match="n_releases"):
            accountant.record_many(n_releases, EPSILON, quilt_signature=("q",))
        assert accountant.state_dict() == before


class TestSignatureCondition:
    def test_mixed_signatures_are_refused(self, make):
        accountant = make()
        accountant.record(EPSILON, quilt_signature=("a",))
        with pytest.raises(PrivacyParameterError, match="Markov quilts"):
            accountant.record(EPSILON, quilt_signature=("b",))
        # The refused release was not recorded; the accountant still works.
        assert len(accountant) == 1
        accountant.record(EPSILON, quilt_signature=("a",))
        assert accountant.is_composable

    def test_total_epsilon_requires_composability(self, make):
        accountant = make()
        accountant.record(EPSILON, quilt_signature=("a",))
        # Force the inconsistent state the runtime check prevents, the way a
        # deserialized foreign trail could: composability must be re-checked
        # at read time, not only at record time.
        accountant._signatures.add(("b",))
        assert not accountant.is_composable
        with pytest.raises(PrivacyParameterError):
            accountant.total_epsilon()


class TestThreadSafety:
    def test_record_is_atomic_under_thread_hammering(self, make):
        """8 threads racing record(): exactly the sequential-reference count
        succeeds, everything else is refused, the ledger never over-spends."""
        budget = 40 * EPSILON
        reference = drain(make(budget=budget))
        accountant = make(budget=budget)
        succeeded = [0] * 8
        refused = [0] * 8

        def hammer(slot: int):
            for _ in range(20):
                try:
                    accountant.record(EPSILON, quilt_signature=("q",))
                    succeeded[slot] += 1
                except BudgetExhaustedError:
                    refused[slot] += 1

        _run_threads([(lambda s=slot: hammer(s)) for slot in range(8)])
        assert sum(succeeded) == reference
        assert sum(refused) == 8 * 20 - reference
        assert len(accountant) == reference
        assert accountant.total_epsilon() <= budget + BUDGET_ATOL

    def test_record_many_batches_race_atomically(self, make):
        budget = 30 * EPSILON
        accountant = make(budget=budget)
        recorded = [0] * 6

        def hammer(slot: int, batch: int):
            for _ in range(15):
                try:
                    accountant.record_many(
                        batch, EPSILON, quilt_signature=("q",)
                    )
                    recorded[slot] += batch
                except BudgetExhaustedError:
                    pass

        _run_threads(
            [(lambda s=slot: hammer(s, (slot % 3) + 1)) for slot in range(6)]
        )
        assert sum(recorded) == len(accountant)
        assert accountant.total_epsilon() <= budget + BUDGET_ATOL

    def test_concurrent_equal_epsilon_count_matches_sequential(self, make):
        """Chunked concurrent drains land on the same final count as the
        sequential drain — accounting is schedule-independent for
        equal-epsilon releases (both arithmetics are commutative in count)."""
        budget = 25 * EPSILON
        reference = drain(make(budget=budget))
        accountant = make(budget=budget)
        counts = [0] * 4

        def worker(slot: int):
            while True:
                try:
                    accountant.record(EPSILON, quilt_signature=("q",))
                    counts[slot] += 1
                except BudgetExhaustedError:
                    return

        _run_threads([(lambda s=slot: worker(s)) for slot in range(4)])
        assert sum(counts) == reference == len(accountant)


class TestSignatureDigest:
    """Accountants keep and persist a signature as its 64-character digest,
    and count a signature and its digest as one release class."""

    SIGNATURE = (("b0_0", ("b0_3",)), ("b0_1", ()))

    def test_state_holds_the_digest(self, make):
        accountant = make()
        accountant.record_many(3, EPSILON, quilt_signature=self.SIGNATURE)
        signatures = accountant.state_dict()["signatures"]
        assert signatures == [signature_digest(self.SIGNATURE)]
        assert re.fullmatch(r"[0-9a-f]{64}", signatures[0])

    @pytest.mark.parametrize("digest_first", [False, True])
    def test_a_signature_and_its_digest_admit_each_other(self, make, digest_first):
        forms = [self.SIGNATURE, signature_digest(self.SIGNATURE)]
        if digest_first:
            forms.reverse()
        accountant = make()
        for form in forms:
            accountant.record(EPSILON, quilt_signature=form)
        assert len(accountant) == 2
        assert accountant.is_composable

    def test_json_round_trip_admits_the_quilt_and_refuses_another(self, make):
        source = make()
        source.record(EPSILON, quilt_signature=self.SIGNATURE)
        restored = accountant_from_state(
            json.loads(json.dumps(source.state_dict()))
        )
        restored.record(EPSILON, quilt_signature=self.SIGNATURE)
        with pytest.raises(PrivacyParameterError, match="Markov quilts"):
            restored.record(EPSILON, quilt_signature=(("b0_0", ()), ("b0_1", ())))
        assert len(restored) == 2
        assert restored.is_composable


class TestPickling:
    def test_roundtrip_preserves_ledger_and_enforces(self, make):
        accountant = make(budget=3 * EPSILON)
        accountant.record(EPSILON, quilt_signature=("q",))
        clone = pickle.loads(pickle.dumps(accountant))
        assert len(clone) == 1
        assert clone.total_epsilon() == pytest.approx(
            accountant.total_epsilon()
        )
        clone.record(EPSILON, quilt_signature=("q",))
        clone.record(EPSILON, quilt_signature=("q",))
        with pytest.raises(BudgetExhaustedError):
            clone.record(EPSILON, quilt_signature=("q",))

    def test_getstate_drops_the_lock(self, make):
        accountant = make()
        accountant.record(EPSILON, quilt_signature=("q",))
        state = accountant.__getstate__()
        assert "_mutex" not in state
        # The clone rebuilds a working lock of its own.
        clone = pickle.loads(pickle.dumps(accountant))
        assert clone._mutex is not accountant._mutex
        with clone._mutex:
            pass

    def test_clone_signature_condition_survives(self, make):
        accountant = make()
        accountant.record(EPSILON, quilt_signature=("a",))
        clone = pickle.loads(pickle.dumps(accountant))
        with pytest.raises(PrivacyParameterError):
            clone.record(EPSILON, quilt_signature=("b",))


class TestAuditTrail:
    """``audit_trail`` survives only as a keyword that must be ``False``:
    every accountant keeps its aggregates and nothing per release."""

    def test_audit_trail_off_keeps_aggregates_only(self, make):
        default = make(budget=10 * EPSILON)
        without = make(budget=10 * EPSILON, audit_trail=False)
        n_default = drain(default)
        assert drain(without) == n_default == len(without)
        assert without.state_dict() == default.state_dict()
        assert "trail" not in without.state_dict()
        assert "audit_trail" not in without.state_dict()

    def test_audit_trail_on_is_refused(self, make):
        with pytest.raises(PrivacyParameterError, match="audit trail is gone"):
            make(audit_trail=True)


class TestStateRoundTrip:
    def test_restart_from_state_dict(self, make):
        """An accountant restored from another's JSON ``state_dict`` is the
        same ledger: same state, spend and count, and it refuses the same
        next release (the one restart path)."""
        source = make(budget=6 * EPSILON)
        source.record_many(4, EPSILON, quilt_signature=("q",))
        restored = accountant_from_state(
            json.loads(json.dumps(source.state_dict()))
        )
        assert type(restored) is type(source)
        assert restored.state_dict() == source.state_dict()
        assert len(restored) == 4
        assert restored.total_epsilon() == source.total_epsilon()
        assert drain(restored) == drain(source)


def _per_value(accountant, n_releases: int, epsilon: float, signature) -> int:
    """Reference for one take: ``record`` value by value until the first
    refusal, which re-raises only when no value was recorded."""
    recorded = 0
    while recorded < n_releases:
        try:
            accountant.record(epsilon, quilt_signature=signature)
        except BudgetExhaustedError:
            if recorded:
                break
            raise
        recorded += 1
    return recorded


def _state_bytes(accountant) -> str:
    return json.dumps(accountant.state_dict(), sort_keys=True)


def _drain_in_random_takes(session, reference, epsilon, rng) -> None:
    """Take random chunks from ``session`` until its accountant refuses a
    chunk's first value, recording the same values one by one on
    ``reference``; every take returns exactly the values the reference
    admitted, and the refusal carries the same ledger."""
    signature = session.engine._quilt_signature()
    for _ in range(200):
        n_releases = rng.randint(1, 9)
        try:
            expected = _per_value(reference, n_releases, epsilon, signature)
        except BudgetExhaustedError as refusal:
            with pytest.raises(BudgetExhaustedError) as excinfo:
                session.take(n_releases)
            ledger = excinfo.value.ledger()
            assert ledger.pop("n_completed") == session.n_yielded
            refused = refusal.ledger()
            refused.pop("n_completed")
            assert ledger == refused
            return
        assert len(session.take(n_releases)) == expected
    pytest.fail("the schedule never reached the budget")


class TestChunkedAdmission:
    """A take's one admission cycle (``record_each``) is the same ledger as
    recording its values one ``record`` at a time."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_take_schedules_match_per_value_records(self, make, seed):
        rng = random.Random(seed)
        epsilon = rng.choice([0.25, 0.5])
        chunked, reference = make(budget=12.0), make(budget=12.0)
        engine = PrivacyEngine(GroupDPMechanism(epsilon), accountant=chunked)
        session = engine.stream(np.zeros(10), CountQuery(), rng=seed)
        _drain_in_random_takes(session, reference, epsilon, rng)
        assert _state_bytes(chunked) == _state_bytes(reference)
        assert session.n_yielded == len(chunked) == len(reference)

    def test_record_each_admits_each_value_as_record_would(self, make):
        """Mixed epsilons across cycles, at the accountant itself."""
        chunked, reference = make(budget=6.0), make(budget=6.0)
        for n_releases, epsilon in [(3, 0.25), (2, 0.5), (9, 0.25), (1, 0.5)] * 20:
            try:
                expected = _per_value(reference, n_releases, epsilon, ("q",))
            except BudgetExhaustedError:
                with pytest.raises(BudgetExhaustedError):
                    chunked.record_each(n_releases, epsilon, quilt_signature=("q",))
                break
            admitted = chunked.record_each(n_releases, epsilon, quilt_signature=("q",))
            assert admitted == expected
            assert _state_bytes(chunked) == _state_bytes(reference)
        else:
            pytest.fail("the schedule never reached the budget")
        assert _state_bytes(chunked) == _state_bytes(reference)

    def test_mid_chunk_refusal_returns_the_prefix_then_the_next_take_raises(
        self, make
    ):
        accountant = make(budget=4 * EPSILON)
        engine = PrivacyEngine(GroupDPMechanism(EPSILON), accountant=accountant)
        session = engine.stream(np.zeros(10), CountQuery(), rng=1)
        assert len(session.take(3)) == 3
        assert len(session.take(5)) == 1  # refused after one more value
        state = _state_bytes(accountant)
        with pytest.raises(BudgetExhaustedError) as excinfo:
            session.take(2)
        assert excinfo.value.n_completed == 4
        assert excinfo.value.requested == 1
        assert _state_bytes(accountant) == state
        assert session.n_yielded == 4 and len(accountant) == 4

    def test_a_session_at_max_releases_neither_debits_nor_draws(self, make):
        accountant = make(budget=10 * EPSILON)
        engine = PrivacyEngine(GroupDPMechanism(EPSILON), accountant=accountant)
        gen = np.random.default_rng(5)
        session = engine.stream(np.zeros(10), CountQuery(), rng=gen, max_releases=3)
        assert len(session.take(2)) == 2
        assert len(session.take(4)) == 1  # clamped to the cap
        state, draws = _state_bytes(accountant), gen.bit_generator.state
        assert session.take(4) == []
        assert next(session, None) is None
        assert session.exhausted
        assert _state_bytes(accountant) == state
        assert gen.bit_generator.state == draws
        assert engine.n_releases == 3


@pytest.mark.parametrize("curve", ["pure", "supplied"])
def test_a_renyi_cycle_derives_its_cost_curve_once(monkeypatch, curve):
    """``record_each`` evaluates and checks the Rényi cost curve once per
    cycle, then adds it per value as ``record`` does, so the running
    curve is float for float the per-value one."""
    import repro.core.accounting as accounting

    calls = []
    pure = accounting.pure_rdp_curve

    def counted_pure(epsilon, orders):
        calls.append(epsilon)
        return pure(epsilon, orders)

    def supplied(orders):
        calls.append(orders.size)
        return np.minimum(0.5, 0.3 * orders * 0.25)

    monkeypatch.setattr(accounting, "pure_rdp_curve", counted_pure)
    rdp_curve = None if curve == "pure" else supplied
    chunked, reference = RenyiAccountant(budget=100.0), RenyiAccountant(budget=100.0)
    for n_releases in (50, 7, 1, 50):
        calls.clear()
        admitted = chunked.record_each(
            n_releases, EPSILON, quilt_signature=("q",), rdp_curve=rdp_curve
        )
        assert admitted == n_releases
        assert len(calls) == 1
        for _ in range(n_releases):
            reference.record(EPSILON, quilt_signature=("q",), rdp_curve=rdp_curve)
        assert _state_bytes(chunked) == _state_bytes(reference)
    assert len(chunked) == 108


def test_a_renyi_cycle_refuses_a_bad_curve_before_any_value():
    accountant = RenyiAccountant(budget=40.0)
    state = _state_bytes(accountant)
    with pytest.raises(PrivacyParameterError, match="non-negative"):
        accountant.record_each(5, EPSILON, rdp_curve=lambda orders: -orders)
    assert _state_bytes(accountant) == state and len(accountant) == 0


@pytest.mark.parametrize("method", ["record_many", "record_each"])
def test_a_cost_array_is_refused_as_a_curve(method):
    """Only a cycle's own checked costs stand in for a curve; a caller's
    array, negative costs here, is refused before anything is recorded."""
    accountant = RenyiAccountant(budget=40.0)
    state = _state_bytes(accountant)
    costs = -np.ones(len(accountant.orders))
    with pytest.raises(PrivacyParameterError, match="callable"):
        getattr(accountant, method)(2, EPSILON, rdp_curve=costs)
    assert _state_bytes(accountant) == state and len(accountant) == 0


@pytest.mark.parametrize("kind", ["linear", "renyi", "sliding"])
@pytest.mark.parametrize("seed", range(3))
def test_reservation_takes_match_per_value_records(kind, seed):
    """Random takes on a :class:`~repro.service.ledger.ReservationAccountant`
    over an in-memory ledger debit each value in its own store
    transaction, so the tenant ledger ends bit-identical to one debited
    value by value."""
    rng = random.Random(seed)
    ledgers = []
    for _ in range(2):
        ledger = TenantLedger(SQLiteLedgerStore(":memory:"), "acme")
        ledger.create(budget=10.0, accountant=kind)
        ledgers.append(ledger)
    chunked, reference = (
        ReservationAccountant(ledger, ledger.reserve(15, EPSILON))
        for ledger in ledgers
    )
    engine = PrivacyEngine(GroupDPMechanism(EPSILON), accountant=chunked)
    session = engine.stream(np.zeros(10), CountQuery(), rng=seed)
    _drain_in_random_takes(session, reference, EPSILON, rng)
    assert session.n_yielded == len(chunked) == len(reference) == 15
    assert chunked.n_remaining == reference.n_remaining == 0
    states = [_state_bytes(ledger.accountant()) for ledger in ledgers]
    assert states[0] == states[1]
    snapshots = [ledger.snapshot() for ledger in ledgers]
    assert snapshots[0] == snapshots[1]
