"""Property-based invariants of streaming release sessions.

Stdlib-``random``-driven (no extra dependencies), mirroring
``tests/test_property_calibration.py``: each property is checked across a
deterministic sweep of seeded random instances — random chunk-size
schedules, random block sizes, random interleavings of multiple sessions.

Properties (each a contract of the streaming design, not a regression
value):

* **Prefix bit-identity** — a seeded session yields exactly the
  ``release_batch`` prefix of the same length, for every block size and
  every chunking schedule, for scalar and vector queries.
* **Ledger exactness** — the total spent epsilon equals the sum of the
  yields' epsilons, however the draws were chunked or interleaved across
  sessions (chunking is order- and size-invariant for the ledger).
* **No over-spend, ever** — under a finite budget, any interleaving of any
  number of sessions yields exactly ``floor(budget / eps)`` releases
  total, then every further draw raises
  :class:`~repro.exceptions.BudgetExhaustedError` with an exact
  ``spent`` / ``remaining`` / ``n_completed`` payload.
* **Close/exhaust semantics** — capped sessions stop at their cap, closed
  sessions stop immediately, and the stats ledger stays consistent
  throughout.
* **Accountant independence** — the bit-identity and chunk-invariance
  properties hold verbatim under the Rényi accountant (accounting never
  touches the noise stream), and on randomized schedules the Rényi stop
  index is never earlier than the linear one (the inf-order grid entry
  pins the converted total at or below the linear sum).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.mqm_chain import MQMExact
from repro.core.queries import RelativeFrequencyHistogram, StateFrequencyQuery
from repro.distributions.chain_family import FiniteChainFamily
from repro.distributions.markov import MarkovChain
from repro.exceptions import BudgetExhaustedError, ValidationError
from repro.serving import PrivacyEngine

EPSILON = 1.0
LENGTH = 24
WINDOW = 8

SEEDS = range(8)


@pytest.fixture(scope="module")
def workload():
    chain = MarkovChain(
        [0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]]
    ).with_stationary_initial()
    family = FiniteChainFamily([chain])
    data = chain.sample(LENGTH, rng=0)
    return family, data


def make_engine(family, **kwargs) -> PrivacyEngine:
    return PrivacyEngine(MQMExact(family, EPSILON, max_window=WINDOW), **kwargs)


def batch_values(family, data, query, n: int, seed: int) -> list:
    engine = make_engine(family)
    return [r.value for r in engine.release_batch([(data, query)] * n, rng=seed)]


def random_schedule(rnd: random.Random, total: int) -> list[int]:
    """A random partition of ``total`` draws into take() chunk sizes."""
    schedule = []
    remaining = total
    while remaining > 0:
        chunk = rnd.randint(1, min(remaining, 17))
        schedule.append(chunk)
        remaining -= chunk
    return schedule


#: Both accounting regimes; the streaming value contract is identical under
#: either (the accountant only gatekeeps, it never touches the noise).
ACCOUNTANTS = ["linear", "renyi"]


class TestPrefixBitIdentity:
    @pytest.mark.parametrize("accountant", ACCOUNTANTS)
    @pytest.mark.parametrize("block_size", [1, 3, 64, 1000])
    def test_stream_equals_batch_prefix_scalar(self, workload, block_size, accountant):
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        expected = batch_values(family, data, query, 40, seed=7)
        session = make_engine(family, accountant=accountant).stream(
            data, query, rng=7, block_size=block_size
        )
        streamed = [next(session).value for _ in range(40)]
        assert streamed == expected  # bit-for-bit, never approx

    @pytest.mark.parametrize("block_size", [1, 5, 64])
    def test_stream_equals_batch_prefix_vector(self, workload, block_size):
        family, data = workload
        query = RelativeFrequencyHistogram(2, LENGTH)
        engine = make_engine(family)
        expected = [
            r.value for r in engine.release_batch([(data, query)] * 25, rng=11)
        ]
        session = make_engine(family).stream(
            data, query, rng=11, block_size=block_size
        )
        for want in expected:
            got = next(session).value
            assert np.array_equal(got, want)

    def test_every_prefix_length_matches(self, workload):
        """The prefix property holds at every length, not just the final
        one: value i of the stream is value i of any longer batch."""
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        expected = batch_values(family, data, query, 30, seed=13)
        session = make_engine(family).stream(data, query, rng=13, block_size=4)
        for i in range(30):
            assert next(session).value == expected[i]

    @pytest.mark.parametrize("accountant", ACCOUNTANTS)
    def test_random_chunk_schedules_are_value_invariant(self, workload, accountant):
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        total = 50
        expected = batch_values(family, data, query, total, seed=17)
        for seed in SEEDS:
            rnd = random.Random(seed)
            session = make_engine(family, accountant=accountant).stream(
                data, query, rng=17, block_size=rnd.randint(1, 96)
            )
            streamed = []
            for chunk_size in random_schedule(rnd, total):
                chunk = session.take(chunk_size)
                assert len(chunk) == chunk_size
                streamed.extend(r.value for r in chunk)
            assert streamed == expected

    def test_capped_session_stops_generator_at_batch_boundary(self, workload):
        """A max_releases cap never draws noise past the cap, so a capped
        session consumes exactly the batch's randomness."""
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        expected = batch_values(family, data, query, 10, seed=19)
        gen = np.random.default_rng(19)
        engine = make_engine(family)
        with engine.stream(
            data, query, rng=gen, block_size=64, max_releases=10
        ) as session:
            assert [r.value for r in session] == expected
        # The generator sits exactly where the batch left it: the next draws
        # from a batch continuation agree with a fresh run of 10 + 5.
        continuation = make_engine(family).release_batch([(data, query)] * 5, rng=gen)
        full = batch_values(family, data, query, 15, seed=19)
        assert [r.value for r in continuation] == full[10:]


class TestLedgerInvariants:
    def test_spent_equals_sum_of_yield_epsilons(self, workload):
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        for seed in SEEDS:
            rnd = random.Random(100 + seed)
            total = rnd.randint(1, 60)
            engine = make_engine(family)
            session = engine.stream(data, query, rng=seed, block_size=rnd.randint(1, 32))
            yielded = 0
            for chunk_size in random_schedule(rnd, total):
                yielded += len(session.take(chunk_size))
            assert yielded == total
            assert engine.spent_epsilon() == pytest.approx(total * EPSILON)
            assert session.stats()["epsilon_streamed"] == pytest.approx(total * EPSILON)
            assert len(engine.accountant) == total

    def test_ledger_is_chunking_invariant(self, workload):
        """Two sessions draining the same count through different schedules
        leave identical ledgers."""
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        totals = []
        for seed in SEEDS:
            rnd = random.Random(200 + seed)
            engine = make_engine(family)
            session = engine.stream(data, query, rng=1, block_size=rnd.randint(1, 64))
            for chunk_size in random_schedule(rnd, 36):
                session.take(chunk_size)
            totals.append(
                (engine.spent_epsilon(), len(engine.accountant), engine.n_releases)
            )
        assert len(set(totals)) == 1
        assert totals[0] == (36.0, 36, 36)

    def test_stream_and_batch_share_one_ledger(self, workload):
        """Streamed and batched releases debit the same accountant: the
        composed guarantee counts both."""
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        engine = make_engine(family, epsilon_budget=20.0)
        engine.release_batch([(data, query)] * 8, rng=1)
        session = engine.stream(data, query, rng=2)
        assert len(session.take(7)) == 7
        assert engine.spent_epsilon() == pytest.approx(15.0)
        engine.release_batch([(data, query)] * 5, rng=3)
        assert engine.remaining_budget() == pytest.approx(0.0)
        with pytest.raises(BudgetExhaustedError):
            next(session)

    def test_random_interleavings_of_sessions_never_overspend(self, workload):
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        for seed in SEEDS:
            rnd = random.Random(300 + seed)
            budget_n = rnd.randint(5, 40)
            engine = make_engine(family, epsilon_budget=budget_n * EPSILON)
            sessions = [
                engine.stream(data, query, rng=s, block_size=rnd.randint(1, 16))
                for s in range(rnd.randint(2, 4))
            ]
            yielded = 0
            refusals = []
            live = list(sessions)
            while live:
                session = rnd.choice(live)
                try:
                    next(session)
                    yielded += 1
                except BudgetExhaustedError as error:
                    refusals.append(error)
                    live.remove(session)
            assert yielded == budget_n
            assert engine.spent_epsilon() == pytest.approx(budget_n * EPSILON)
            assert engine.spent_epsilon() <= engine.epsilon_budget + 1e-12
            # Every refusal carries the exact global ledger plus its own
            # session's completed count.
            for error in refusals:
                assert error.spent == pytest.approx(budget_n * EPSILON)
                assert error.remaining == pytest.approx(0.0)
                assert error.requested == 1
            assert sorted(e.n_completed for e in refusals) == sorted(
                s.n_yielded for s in sessions
            )


class TestRenyiNeverStopsEarlier:
    """The Rényi accountant's stop index is >= the linear one, always.

    Regression for the accountant swap: the inf entry in the order grid
    makes the converted Rényi total <= the linear sum of epsilons, so for
    any schedule the Rényi stream serves at least as many releases from
    the same budget.  Randomized budgets, block sizes, and chunkings.
    """

    def test_rdp_stop_index_never_earlier_on_random_schedules(self, workload):
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)

        def drain(accountant, rnd_seed: int, budget: float) -> int:
            rnd = random.Random(rnd_seed)
            engine = make_engine(
                family, epsilon_budget=budget, accountant=accountant
            )
            session = engine.stream(
                data, query, rng=1, block_size=rnd.randint(1, 32)
            )
            served = 0
            while True:
                try:
                    served += len(session.take(rnd.randint(1, 9)))
                    next(session)
                    served += 1
                except BudgetExhaustedError:
                    return served

        for seed in SEEDS:
            budget = random.Random(400 + seed).uniform(2.0, 30.0)
            linear_served = drain("linear", 400 + seed, budget)
            renyi_served = drain("renyi", 400 + seed, budget)
            assert renyi_served >= linear_served
            # Theorem 4.4 exactness for equal-epsilon schedules.
            assert linear_served == int(budget / EPSILON + 1e-12)


class TestBudgetExhaustedPayload:
    def test_stream_payload_is_exact(self, workload):
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        engine = make_engine(family, epsilon_budget=3.0)
        session = engine.stream(data, query, rng=1)
        assert len(session.take(3)) == 3
        with pytest.raises(BudgetExhaustedError) as excinfo:
            next(session)
        error = excinfo.value
        assert error.budget == 3.0
        assert error.spent == pytest.approx(3.0)
        assert error.remaining == pytest.approx(0.0)
        assert error.requested == 1
        assert error.n_completed == 3
        assert error.ledger() == {
            "budget": 3.0,
            "spent": error.spent,
            "remaining": error.remaining,
            "requested": 1,
            "n_completed": 3,
            "accountant": "CompositionAccountant",
        }
        # Nothing from the refused draw was recorded; the session remains
        # consistent and keeps refusing with the same ledger.
        assert engine.spent_epsilon() == pytest.approx(3.0)
        with pytest.raises(BudgetExhaustedError) as again:
            next(session)
        assert again.value.n_completed == 3

    def test_take_mid_chunk_exhaustion_returns_partial_then_raises(self, workload):
        """A chunk that outlives the budget returns the releases already
        debited; the refusal surfaces on the next draw, never silently."""
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        engine = make_engine(family, epsilon_budget=5.0)
        session = engine.stream(data, query, rng=1)
        partial = session.take(8)
        assert len(partial) == 5
        with pytest.raises(BudgetExhaustedError) as excinfo:
            session.take(1)
        assert excinfo.value.n_completed == 5
        assert engine.spent_epsilon() == pytest.approx(5.0)

    def test_take_mid_chunk_error_returns_the_debited_prefix(
        self, workload, monkeypatch
    ):
        """Any debit error mid-chunk returns the releases already debited;
        an error on a chunk's first draw raises, and a simulated crash
        always escapes."""
        from repro.faults import SimulatedCrashError

        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        engine = make_engine(family)
        session = engine.stream(data, query, rng=1)
        debit = engine._debit_one
        # Debit attempts 3 and 4 error, attempt 6 is a simulated crash.
        failures = {
            3: OSError("disk blip"),
            4: OSError("disk blip"),
            6: SimulatedCrashError("killed"),
        }
        calls = []

        def flaky_debit(signature):
            calls.append(signature)
            if len(calls) in failures:
                raise failures[len(calls)]
            debit(signature)

        monkeypatch.setattr(engine, "_debit_one", flaky_debit)
        assert len(session.take(5)) == 2
        with pytest.raises(OSError):
            session.take(5)  # the error persists into the first draw
        with pytest.raises(SimulatedCrashError):
            session.take(5)  # mid-chunk, after one debited release
        assert session.n_yielded == 3
        assert engine.spent_epsilon() == pytest.approx(3.0)

    def test_batch_payload_reports_atomic_refusal(self, workload):
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        engine = make_engine(family, epsilon_budget=10.0)
        engine.release_batch([(data, query)] * 4, rng=1)
        with pytest.raises(BudgetExhaustedError) as excinfo:
            engine.release_batch([(data, query)] * 7, rng=2)
        error = excinfo.value
        assert error.budget == 10.0
        assert error.spent == pytest.approx(4.0)
        assert error.remaining == pytest.approx(6.0)
        assert error.requested == 7
        assert error.n_completed == 0  # batches are atomic: all or nothing
        assert engine.spent_epsilon() == pytest.approx(4.0)
        assert len(engine.accountant) == 4


class TestSessionLifecycle:
    def test_close_stops_iteration_and_is_idempotent(self, workload):
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        session = make_engine(family).stream(data, query, rng=1)
        session.take(5)
        stats = session.close()
        assert stats["closed"] is True and stats["n_yielded"] == 5
        assert session.closed
        with pytest.raises(StopIteration):
            next(session)
        assert session.take(3) == []
        assert session.close()["n_yielded"] == 5  # idempotent

    def test_context_manager_closes(self, workload):
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        with make_engine(family).stream(data, query, rng=1) as session:
            session.take(2)
        assert session.closed

    def test_exhaustion_at_max_releases(self, workload):
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        session = make_engine(family).stream(data, query, rng=1, max_releases=7)
        assert len(list(session)) == 7
        assert session.exhausted and not session.closed
        assert session.take(5) == []
        stats = session.stats()
        assert stats["exhausted"] is True and stats["n_yielded"] == 7

    def test_sessions_share_the_warm_calibration(self, workload):
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        engine = make_engine(family)
        first = engine.stream(data, query, rng=1)
        second = engine.stream(data, query, rng=2)
        first.take(3)
        second.take(3)
        assert engine.cache.misses == 1
        assert engine.cache.hits >= 1
        assert engine.n_releases == 6

    def test_stats_track_blocks_and_buffer(self, workload):
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        session = make_engine(family).stream(data, query, rng=1, block_size=10)
        session.take(25)
        stats = session.stats()
        assert stats["blocks_drawn"] == 3
        assert stats["noise_buffered"] == 5
        assert stats["block_size"] == 10

    def test_invalid_parameters_raise(self, workload):
        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        engine = make_engine(family)
        with pytest.raises(ValidationError):
            engine.stream(data, query, block_size=0)
        with pytest.raises(ValidationError):
            engine.stream(data, query, max_releases=0)
        with pytest.raises(ValidationError):
            engine.stream(data, query, rng=1).take(0)


class TestRunnerIntegration:
    def test_run_streaming_trials_matches_streamed_errors(self, workload):
        from repro.analysis import run_streaming_trials

        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        result = run_streaming_trials(
            MQMExact(family, EPSILON, max_window=WINDOW), data, query, 50, rng=5
        )
        assert result.n_trials == 50
        # The streamed path is the release_batch prefix, so the aggregated
        # errors are exactly the batch's.
        batch = make_engine(family).release_batch([(data, query)] * 50, rng=5)
        errors = np.asarray([r.l1_error() for r in batch])
        assert result.mean_l1 == pytest.approx(float(errors.mean()))
        assert result.std_l1 == pytest.approx(float(errors.std()))
        assert result.noise_scale > 0

    def test_run_streaming_trials_validates(self, workload):
        from repro.analysis import run_streaming_trials

        family, data = workload
        query = StateFrequencyQuery(1, LENGTH)
        mech = MQMExact(family, EPSILON, max_window=WINDOW)
        with pytest.raises(ValidationError):
            run_streaming_trials(mech, data, query, 0)
        with pytest.raises(ValidationError):
            run_streaming_trials(mech, data, query, 5, chunk_size=0)
