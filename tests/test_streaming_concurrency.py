"""Concurrency hammering of streaming sessions and the budget ledger.

The double-spend race these tests target: two recorders that each read the
accountant's aggregates, each pass the budget check, and each append —
jointly exceeding the budget although neither alone would.
:class:`~repro.core.composition.CompositionAccountant` closes it by holding
an internal lock across the whole check-then-record cycle, and
:class:`~repro.serving.ReleaseSession` serializes its draw pipeline (the
per-value debits, then the chunk's one noise draw) under a session lock, so:

* two threads draining *one* session each receive distinct releases — the
  union is exactly the seeded batch prefix, nothing duplicated or dropped;
* two sessions (or a session racing ``release_batch``) sharing *one* engine
  budget never jointly over-spend, and every refusal carries an exact
  ledger;
* the raw accountant, hammered directly from many threads, records exactly
  the budgeted count.

The GIL switch interval is dropped to force dense interleavings (the
pattern of ``tests/test_cache_concurrency.py``: private actors per thread,
shared state only through the component under test).
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.composition import CompositionAccountant
from repro.core.mqm_chain import MQMExact
from repro.core.queries import StateFrequencyQuery
from repro.distributions.chain_family import FiniteChainFamily
from repro.distributions.markov import MarkovChain
from repro.exceptions import BudgetExhaustedError
from repro.serving import PrivacyEngine

EPSILON = 1.0
LENGTH = 24
WINDOW = 8


@pytest.fixture(autouse=True)
def dense_interleavings():
    """Force frequent GIL switches so the races have real opportunities."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


@pytest.fixture(scope="module")
def workload():
    chain = MarkovChain(
        [0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]]
    ).with_stationary_initial()
    family = FiniteChainFamily([chain])
    data = chain.sample(LENGTH, rng=0)
    query = StateFrequencyQuery(1, LENGTH)
    return family, data, query


def make_engine(family, **kwargs) -> PrivacyEngine:
    return PrivacyEngine(MQMExact(family, EPSILON, max_window=WINDOW), **kwargs)


def _run_threads(targets) -> None:
    barrier = threading.Barrier(len(targets))
    errors: list[BaseException] = []

    def wrap(fn):
        def runner():
            barrier.wait()
            try:
                fn()
            except BaseException as error:  # pragma: no cover - regression only
                errors.append(error)

        return runner

    threads = [threading.Thread(target=wrap(fn)) for fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors


class TestSharedSession:
    def test_two_threads_drain_one_session_without_duplication(self, workload):
        family, data, query = workload
        total = 400
        engine = make_engine(family)
        session = engine.stream(
            data, query, rng=7, max_releases=total
        )
        collected: dict[int, list[float]] = {0: [], 1: []}

        def drain(slot: int):
            for release in session:
                collected[slot].append(release.value)

        _run_threads([lambda: drain(0), lambda: drain(1)])
        values = collected[0] + collected[1]
        assert len(values) == total
        assert session.exhausted
        # Each value was yielded exactly once, and the union is exactly the
        # seeded batch prefix (continuous noise: multisets match iff the
        # partition lost/duplicated nothing).
        expected = [
            r.value
            for r in make_engine(family).release_batch([(data, query)] * total, rng=7)
        ]
        assert sorted(values) == sorted(expected)
        assert engine.spent_epsilon() == pytest.approx(total * EPSILON)
        assert engine.n_releases == total
        # No assertion that both threads got a share: scheduling may let one
        # thread drain everything — that is the OS's choice, not a session
        # property.  Exactly-once delivery and the exact ledger are.

    def test_two_threads_with_budget_stop_at_exactly_the_budget(self, workload):
        family, data, query = workload
        budget_n = 150
        engine = make_engine(family, epsilon_budget=budget_n * EPSILON)
        session = engine.stream(data, query, rng=1)
        counts = {0: 0, 1: 0}
        refusals: list[BudgetExhaustedError] = []

        def drain(slot: int):
            while True:
                try:
                    next(session)
                    counts[slot] += 1
                except BudgetExhaustedError as error:
                    refusals.append(error)
                    return

        _run_threads([lambda: drain(0), lambda: drain(1)])
        assert counts[0] + counts[1] == budget_n
        assert engine.spent_epsilon() == pytest.approx(budget_n * EPSILON)
        assert len(engine.accountant) == budget_n
        for error in refusals:
            assert error.spent == pytest.approx(budget_n * EPSILON)
            assert error.remaining == pytest.approx(0.0)
            assert error.n_completed == budget_n  # session-level count


class TestSharedBudget:
    def test_two_sessions_sharing_one_budget_never_double_spend(self, workload):
        family, data, query = workload
        budget_n = 120
        engine = make_engine(family, epsilon_budget=budget_n * EPSILON)
        sessions = [
            engine.stream(data, query, rng=seed)
            for seed in (1, 2)
        ]
        counts = {0: 0, 1: 0}
        refusals: list[BudgetExhaustedError] = []

        def drain(slot: int):
            try:
                for _ in sessions[slot]:
                    counts[slot] += 1
            except BudgetExhaustedError as error:
                refusals.append(error)

        _run_threads([lambda: drain(0), lambda: drain(1)])
        assert counts[0] + counts[1] == budget_n
        assert engine.spent_epsilon() == pytest.approx(budget_n * EPSILON)
        assert engine.spent_epsilon() <= engine.epsilon_budget + 1e-12
        assert len(refusals) == 2
        assert sorted(e.n_completed for e in refusals) == sorted(counts.values())

    def test_stream_racing_release_batch_never_overspends(self, workload):
        family, data, query = workload
        budget_n = 100
        engine = make_engine(family, epsilon_budget=budget_n * EPSILON)
        engine.calibrate(query, data)
        session = engine.stream(data, query, rng=1)
        streamed = [0]
        batched = [0]

        def stream_side():
            while True:
                try:
                    next(session)
                    streamed[0] += 1
                except BudgetExhaustedError:
                    return

        def batch_side():
            while True:
                try:
                    batched[0] += len(
                        engine.release_batch([(data, query)] * 3, rng=2)
                    )
                except BudgetExhaustedError:
                    return

        _run_threads([stream_side, batch_side])
        total = streamed[0] + batched[0]
        # The stream drains any remainder the 3-at-a-time batch cannot fit.
        assert total == budget_n
        assert engine.spent_epsilon() == pytest.approx(budget_n * EPSILON)
        assert len(engine.accountant) == budget_n
        assert engine.n_releases == budget_n

    def test_many_engine_stream_calls_share_one_calibration(self, workload):
        """Concurrent session construction hits the cache, not the quilt
        search: one miss however many sessions race to open."""
        family, data, query = workload
        engine = make_engine(family)
        engine.calibrate(query, data)  # the one (warm-up) miss
        sessions: list = []
        lock = threading.Lock()

        def open_and_draw():
            session = engine.stream(data, query, rng=3, max_releases=5)
            drawn = list(session)
            with lock:
                sessions.append((session, drawn))

        _run_threads([open_and_draw] * 4)
        assert engine.cache.misses == 1
        assert all(len(drawn) == 5 for _, drawn in sessions)
        assert engine.n_releases == 20


class TestAccountantAtomicity:
    def test_record_is_atomic_under_thread_hammering(self):
        """8 threads racing record() against a budget of 100: exactly 100
        succeed, every other attempt is refused, the ledger never exceeds
        the budget (the check-then-record race record()'s lock closes)."""
        budget_n = 100
        accountant = CompositionAccountant(budget=float(budget_n))
        succeeded = [0] * 8
        refused = [0] * 8

        def hammer(slot: int):
            for _ in range(40):
                try:
                    accountant.record(EPSILON, quilt_signature=("q",))
                    succeeded[slot] += 1
                except BudgetExhaustedError:
                    refused[slot] += 1

        _run_threads([(lambda s=slot: hammer(s)) for slot in range(8)])
        assert sum(succeeded) == budget_n
        assert sum(refused) == 8 * 40 - budget_n
        assert len(accountant) == budget_n
        assert accountant.total_epsilon() == pytest.approx(float(budget_n))

    def test_record_many_batches_race_atomically(self):
        """Concurrent record_many batches of mixed sizes: every recorded
        batch is all-or-nothing and the total never exceeds the budget."""
        accountant = CompositionAccountant(budget=50.0)
        recorded = [0] * 6

        def hammer(slot: int, batch: int):
            for _ in range(30):
                try:
                    accountant.record_many(batch, EPSILON, quilt_signature=("q",))
                    recorded[slot] += batch
                except BudgetExhaustedError:
                    pass

        _run_threads(
            [(lambda s=slot: hammer(s, (slot % 3) + 1)) for slot in range(6)]
        )
        assert sum(recorded) == len(accountant)
        assert len(accountant) <= 50
        assert accountant.total_epsilon() <= 50.0 + 1e-12

    def test_accountant_pickles_without_its_lock(self):
        """The lock is an implementation detail: accountants survive
        pickling (state transfer) and keep enforcing afterwards."""
        import pickle

        accountant = CompositionAccountant(budget=3.0)
        accountant.record(EPSILON, quilt_signature=("q",))
        clone = pickle.loads(pickle.dumps(accountant))
        assert len(clone) == 1
        assert clone.total_epsilon() == pytest.approx(1.0)
        clone.record(EPSILON, quilt_signature=("q",))
        clone.record(EPSILON, quilt_signature=("q",))
        with pytest.raises(BudgetExhaustedError):
            clone.record(EPSILON, quilt_signature=("q",))
