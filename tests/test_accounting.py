"""Unit and property tests for the Rényi accountant's arithmetic.

The conformance contract (locking, payloads, pickling, signatures) is
certified in ``tests/test_accountant_conformance.py`` for both accountants;
this module proves the *arithmetic* claims specific to
:class:`~repro.core.accounting.RenyiAccountant`:

* **Never over-spends** — on randomized schedules of epsilons, batch sizes,
  and budgets, the converted total never exceeds the budget (within the
  float atol), and every refusal leaves the ledger untouched.
* **Never stops earlier than linear** — the inf entry in the order grid
  pins the converted total at or below the linear ``sum of epsilons``
  (which itself is <= ``K * max eps``), so on any schedule the Rényi stop
  index is >= the linear stop index.  Checked on randomized schedules and
  as the algebraic inequality directly.
* **Stops strictly later in the strong-composition regime** — many
  small-epsilon releases compose at ``O(sqrt(K))``; the accountant must
  actually realize the win, not just not regress.
* **Conversion identities** — a single pure release converts to exactly
  its epsilon; ``epsilon_at`` is monotone in delta; ``rdp_totals`` is
  additive; ``optimal_order`` moves from ``inf`` to finite orders as
  strong composition starts to win.
* **State round trips** — a Gaussian-curve Rényi ledger survives a JSON
  ``state_dict`` round trip bit for bit, and states written while
  accountants could keep an audit trail restore to the same spend.

Property-test style follows ``tests/test_property_calibration.py``:
stdlib ``random`` sweeps over seeded instances, no extra dependencies.
"""

from __future__ import annotations

import copy
import json
import math
import random

import numpy as np
import pytest

from repro.core import GaussianMarkovQuiltMechanism
from repro.core.accounting import (
    BUDGET_ATOL,
    DEFAULT_ORDERS,
    RenyiAccountant,
    accountant_from_state,
    pure_rdp_curve,
    signature_digest,
)
from repro.core.composition import CompositionAccountant
from repro.core.queries import CountQuery
from repro.core.windowed import SlidingWindowAccountant
from repro.distributions.structured import hub_and_spoke_network
from repro.exceptions import BudgetExhaustedError, PrivacyParameterError
from repro.serving import PrivacyEngine

SEEDS = range(12)


def random_schedule(rnd: random.Random) -> list[tuple[int, float]]:
    """A random (n_releases, epsilon) schedule."""
    return [
        (rnd.randint(1, 6), rnd.uniform(0.02, 1.5))
        for _ in range(rnd.randint(3, 25))
    ]


class TestPureRdpCurve:
    def test_inf_order_costs_exactly_epsilon(self):
        orders = np.array([2.0, 10.0, math.inf])
        assert pure_rdp_curve(0.7, orders)[-1] == 0.7

    def test_small_orders_take_the_quadratic_branch(self):
        eps = 0.1
        orders = np.array([1.5, 2.0, 4.0])
        np.testing.assert_allclose(
            pure_rdp_curve(eps, orders), 0.5 * orders * eps * eps
        )

    def test_curve_is_capped_at_epsilon(self):
        eps = 0.5
        orders = np.array([1.25, 2.0, 8.0, 64.0, 1e6, math.inf])
        costs = pure_rdp_curve(eps, orders)
        assert np.all(costs <= eps)
        assert np.all(costs >= 0)
        # Non-decreasing in the order (Rényi divergence is).
        assert np.all(np.diff(costs) >= -1e-15)


class TestConversionIdentities:
    def test_single_pure_release_converts_to_exactly_epsilon(self):
        """One pure release: rdp(inf) = eps with zero conversion overhead,
        and no finite order can beat it below eps (the conversion of a
        valid RDP curve of a pure mechanism is >= its epsilon at any
        delta < 1... within the grid, the min is attained at inf)."""
        for eps in (0.05, 0.3, 1.0, 2.0):
            accountant = RenyiAccountant(delta=1e-6)
            accountant.record(eps, quilt_signature=("q",))
            assert accountant.total_epsilon() == pytest.approx(eps)

    def test_empty_accountant_spends_zero(self):
        accountant = RenyiAccountant(budget=1.0)
        assert accountant.total_epsilon() == 0.0
        assert accountant.optimal_order() == math.inf

    def test_total_is_monotone_in_releases(self):
        accountant = RenyiAccountant(delta=1e-5)
        previous = 0.0
        for _ in range(200):
            accountant.record(0.1, quilt_signature=("q",))
            total = accountant.total_epsilon()
            assert total >= previous - 1e-12
            previous = total

    def test_epsilon_at_is_monotone_in_delta(self):
        accountant = RenyiAccountant(delta=1e-6)
        accountant.record_many(50, 0.2, quilt_signature=("q",))
        totals = [accountant.epsilon_at(d) for d in (1e-9, 1e-6, 1e-3, 0.1)]
        assert totals == sorted(totals, reverse=True)
        assert accountant.epsilon_at(accountant.delta) == pytest.approx(
            accountant.total_epsilon()
        )

    def test_epsilon_at_validates_delta(self):
        accountant = RenyiAccountant()
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(PrivacyParameterError):
                accountant.epsilon_at(bad)

    def test_rdp_totals_are_additive(self):
        accountant = RenyiAccountant(delta=1e-5)
        accountant.record_many(7, 0.3, quilt_signature=("q",))
        totals = accountant.rdp_totals()
        orders = np.array(accountant.orders)
        expected = 7 * pure_rdp_curve(0.3, orders)
        np.testing.assert_allclose(
            [totals[float(a)] for a in orders], expected
        )

    def test_optimal_order_becomes_finite_under_strong_composition(self):
        accountant = RenyiAccountant(delta=1e-6)
        accountant.record(0.1, quilt_signature=("q",))
        assert accountant.optimal_order() == math.inf
        accountant.record_many(2000, 0.1, quilt_signature=("q",))
        assert math.isfinite(accountant.optimal_order())


class TestNeverOverSpend:
    def test_random_schedules_never_exceed_budget(self):
        for seed in SEEDS:
            rnd = random.Random(seed)
            budget = rnd.uniform(0.5, 10.0)
            accountant = RenyiAccountant(budget=budget, delta=1e-5)
            for n, eps in random_schedule(rnd):
                before = accountant.total_epsilon()
                try:
                    accountant.record_many(n, eps, quilt_signature=("q",))
                except BudgetExhaustedError:
                    # Refusals never move the ledger.
                    assert accountant.total_epsilon() == before
                assert accountant.total_epsilon() <= budget + BUDGET_ATOL

    def test_refusal_threshold_is_tight(self):
        """The accountant refuses exactly when the prospective conversion
        exceeds the budget: re-offering the refused batch against a budget
        equal to that conversion succeeds."""
        for seed in SEEDS:
            rnd = random.Random(1000 + seed)
            schedule = random_schedule(rnd)
            probe = RenyiAccountant(delta=1e-5)
            for n, eps in schedule:
                probe.record_many(n, eps, quilt_signature=("q",))
            exact_total = probe.total_epsilon()
            # Budget exactly the total: the full schedule fits.
            fits = RenyiAccountant(budget=exact_total, delta=1e-5)
            for n, eps in schedule:
                fits.record_many(n, eps, quilt_signature=("q",))
            assert fits.total_epsilon() == pytest.approx(exact_total)
            # A hair under: the final step is refused.
            tight = RenyiAccountant(
                budget=exact_total * (1 - 1e-9), delta=1e-5
            )
            with pytest.raises(BudgetExhaustedError):
                for n, eps in schedule:
                    tight.record_many(n, eps, quilt_signature=("q",))


class TestNeverStopsBeforeLinear:
    def test_converted_total_is_at_most_the_linear_sum(self):
        """The algebraic inequality behind the stop-index guarantee: after
        any schedule, the Rényi conversion <= sum of epsilons."""
        for seed in SEEDS:
            rnd = random.Random(2000 + seed)
            renyi = RenyiAccountant(delta=1e-5)
            linear_sum = 0.0
            for n, eps in random_schedule(rnd):
                renyi.record_many(n, eps, quilt_signature=("q",))
                linear_sum += n * eps
                assert renyi.total_epsilon() <= linear_sum + BUDGET_ATOL

    def test_stop_index_never_earlier_on_random_schedules(self):
        """Feed both accountants one release at a time from an identical
        randomized schedule: the Rényi refusal never comes first."""
        for seed in SEEDS:
            rnd = random.Random(3000 + seed)
            budget = rnd.uniform(1.0, 8.0)
            epsilons = [
                rnd.uniform(0.02, 1.2)
                for _ in range(400)
            ]
            linear = CompositionAccountant(budget=budget)
            renyi = RenyiAccountant(budget=budget, delta=1e-5)
            linear_stop = renyi_stop = None
            for index, eps in enumerate(epsilons):
                if linear_stop is None:
                    try:
                        linear.record(eps, quilt_signature=("q",))
                    except BudgetExhaustedError:
                        linear_stop = index
                if renyi_stop is None:
                    try:
                        renyi.record(eps, quilt_signature=("q",))
                    except BudgetExhaustedError:
                        renyi_stop = index
                if linear_stop is not None and renyi_stop is not None:
                    break
            assert linear_stop is not None  # 400 releases always overflow
            assert renyi_stop is None or renyi_stop >= linear_stop

    def test_strong_composition_serves_strictly_more_at_paper_scale(self):
        """At the benchmark's paper-scale point (eps=0.2, delta=1e-5,
        budget=12) the Rényi accountant must serve >= 1.5x the linear
        count — the acceptance gate, asserted here independently of the
        benchmark harness."""
        def count(accountant) -> int:
            served = 0
            while True:
                try:
                    accountant.record(0.2, quilt_signature=("q",))
                    served += 1
                except BudgetExhaustedError:
                    return served

        linear_served = count(CompositionAccountant(budget=12.0))
        renyi_served = count(RenyiAccountant(budget=12.0, delta=1e-5))
        assert linear_served == 60
        assert renyi_served >= int(1.5 * linear_served)


class TestParameterValidation:
    def test_delta_must_be_in_unit_interval(self):
        for bad in (0.0, 1.0, -1e-3, 1.5):
            with pytest.raises(PrivacyParameterError):
                RenyiAccountant(delta=bad)

    def test_orders_must_exceed_one(self):
        for bad in ([1.0, 2.0], [0.5], [-2.0, 3.0], [math.nan]):
            with pytest.raises(PrivacyParameterError):
                RenyiAccountant(orders=bad)

    def test_inf_is_always_in_the_grid(self):
        accountant = RenyiAccountant(orders=(2.0, 4.0))
        assert math.inf in accountant.orders
        assert accountant.orders == (2.0, 4.0, math.inf)
        # Duplicates collapse, order is sorted.
        again = RenyiAccountant(orders=(4.0, 2.0, 2.0, math.inf))
        assert again.orders == (2.0, 4.0, math.inf)

    def test_default_grid_ends_at_inf(self):
        assert DEFAULT_ORDERS[-1] == math.inf


class TestMechanismSuppliedCurves:
    def test_custom_curve_is_charged_instead_of_pure(self):
        accountant = RenyiAccountant(delta=1e-5)
        orders = np.array(accountant.orders)
        flat = 0.01

        def curve(alphas: np.ndarray) -> np.ndarray:
            return np.full_like(np.asarray(alphas, dtype=float), flat)

        accountant.record(1.0, quilt_signature=("q",), rdp_curve=curve)
        np.testing.assert_allclose(
            [accountant.rdp_totals()[float(a)] for a in orders], flat
        )
        # Converted at inf (zero overhead) the total is the flat cost, far
        # below the pure release's epsilon.
        assert accountant.total_epsilon() == pytest.approx(flat)

    def test_curve_shape_mismatch_is_refused(self):
        accountant = RenyiAccountant()
        with pytest.raises(PrivacyParameterError, match="shape"):
            accountant.record(
                1.0,
                quilt_signature=("q",),
                rdp_curve=lambda a: np.zeros(3),
            )

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_invalid_curve_values_are_refused(self, value):
        accountant = RenyiAccountant()
        with pytest.raises(PrivacyParameterError, match="non-negative"):
            accountant.record(
                1.0,
                quilt_signature=("q",),
                rdp_curve=lambda a: np.full(
                    np.asarray(a, dtype=float).shape, value
                ),
            )

    def test_refused_curve_never_moves_the_ledger(self):
        accountant = RenyiAccountant(budget=1.0, delta=1e-5)
        accountant.record(0.5, quilt_signature=("q",))
        before = accountant.rdp_totals()
        with pytest.raises(PrivacyParameterError):
            accountant.record(
                1.0, quilt_signature=("q",), rdp_curve=lambda a: np.zeros(2)
            )
        assert accountant.rdp_totals() == before

    def test_linear_accountant_ignores_the_curve(self):
        accountant = CompositionAccountant(budget=1.0)
        # A free curve would admit infinitely many releases; linear
        # accounting must still charge K * max eps.
        accountant.record(
            0.5,
            quilt_signature=("q",),
            rdp_curve=lambda a: np.zeros_like(np.asarray(a, dtype=float)),
        )
        assert accountant.total_epsilon() == pytest.approx(0.5)
        accountant.record(0.5, quilt_signature=("q",))
        with pytest.raises(BudgetExhaustedError):
            accountant.record(0.5, quilt_signature=("q",))


class TestPreview:
    """``preview(charges)`` prices hypothetical schedules without mutating
    the ledger — the primitive reservation admission builds on."""

    def test_matches_actual_recording_linear(self):
        for seed in SEEDS:
            rnd = random.Random(seed)
            schedule = random_schedule(rnd)
            previewer = CompositionAccountant()
            actual = CompositionAccountant()
            for n, eps in schedule:
                actual.record_many(n, eps, quilt_signature=("q",))
            assert previewer.preview(schedule) == pytest.approx(
                actual.total_epsilon()
            )
            # The previewing accountant itself never moved.
            assert previewer.total_epsilon() == 0.0
            assert len(previewer) == 0

    def test_matches_actual_recording_renyi(self):
        for seed in SEEDS:
            rnd = random.Random(seed)
            schedule = random_schedule(rnd)
            previewer = RenyiAccountant(delta=1e-5)
            actual = RenyiAccountant(delta=1e-5)
            for n, eps in schedule:
                actual.record_many(n, eps, quilt_signature=("q",))
            assert previewer.preview(schedule) == pytest.approx(
                actual.total_epsilon()
            )
            assert previewer.total_epsilon() == 0.0

    def test_previews_on_top_of_recorded_history(self):
        accountant = RenyiAccountant(delta=1e-5)
        accountant.record_many(3, 0.4, quilt_signature=("q",))
        shadow = RenyiAccountant(delta=1e-5)
        shadow.record_many(3, 0.4, quilt_signature=("q",))
        shadow.record_many(2, 0.1, quilt_signature=("q",))
        assert accountant.preview([(2, 0.1)]) == pytest.approx(
            shadow.total_epsilon()
        )
        assert len(accountant) == 3  # history untouched

    def test_empty_and_zero_charges(self):
        accountant = CompositionAccountant()
        accountant.record_many(2, 0.5, quilt_signature=("q",))
        assert accountant.preview([]) == accountant.total_epsilon()
        assert accountant.preview([(0, 0.5)]) == accountant.total_epsilon()

    def test_invalid_charges_refused(self):
        accountant = CompositionAccountant()
        with pytest.raises(PrivacyParameterError):
            accountant.preview([(1, -0.5)])
        with pytest.raises(PrivacyParameterError):
            accountant.preview([(-1, 0.5)])
        with pytest.raises(PrivacyParameterError, match="n_releases"):
            accountant.preview([(2.5, 0.5)])

    def test_preview_ignores_budget(self):
        """Preview prices, it does not refuse — admission layers decide."""
        accountant = CompositionAccountant(budget=1.0)
        assert accountant.preview([(10, 0.5)]) == pytest.approx(5.0)


#: Charge lists for the exactness pins: empty, zero-count entries mixed in,
#: a repeated epsilon, and a new worst epsilon after smaller ones.
EXACT_SCHEDULES = [
    [],
    [(0, 0.7)],
    [(3, 0.2), (0, 0.9), (1, 0.05)],
    [(2, 0.3), (2, 0.3), (5, 0.125), (1, 1.1)],
    [(0, 0.4), (7, 0.01), (0, 2.0), (4, 0.6)],
    *(random_schedule(random.Random(seed)) for seed in range(3)),
]


def _assert_preview_is_exact(accountant, schedule) -> None:
    """``preview(schedule)`` is bit-for-bit what recording the schedule on a
    copy would report, and the previewing accountant does not move."""
    before = accountant.state_dict()
    shadow = copy.deepcopy(accountant)
    for n, eps in schedule:
        if n:
            shadow.record_many(n, eps, quilt_signature=("q",))
    assert accountant.preview(schedule) == shadow.total_epsilon()
    assert accountant.state_dict() == before


class TestPreviewExactness:
    """``preview`` stages its charges through the same hook as
    ``record_many``, so the totals agree with ``==``, not approximately."""

    @pytest.mark.parametrize("schedule", EXACT_SCHEDULES)
    def test_linear(self, schedule):
        accountant = CompositionAccountant()
        accountant.record_many(2, 0.25, quilt_signature=("q",))
        _assert_preview_is_exact(accountant, schedule)

    @pytest.mark.parametrize("schedule", EXACT_SCHEDULES)
    def test_renyi_with_a_mechanism_curve_in_history(self, schedule):
        accountant = RenyiAccountant(delta=1e-5)
        accountant.record_many(3, 0.2, quilt_signature=("q",))
        accountant.record_many(
            2,
            0.4,
            quilt_signature=("q",),
            rdp_curve=lambda a: np.where(np.isinf(a), 0.4, 0.01 * a),
        )
        _assert_preview_is_exact(accountant, schedule)

    @pytest.mark.parametrize("schedule", EXACT_SCHEDULES)
    def test_sliding_across_a_window_advance(self, schedule):
        accountant = SlidingWindowAccountant(window_span=2)
        accountant.record_many(4, 0.3, quilt_signature=("q",))
        accountant.advance_window()
        accountant.record_many(1, 0.1, quilt_signature=("q",))
        _assert_preview_is_exact(accountant, schedule)
        accountant.advance_window()  # the 0.3 window expires
        _assert_preview_is_exact(accountant, schedule)


GAUSSIAN_DELTA = 1e-5
GAUSSIAN_EPSILON = 0.4
GAUSSIAN_BUDGET = 6.0


@pytest.fixture()
def gaussian_workload():
    network = hub_and_spoke_network(3, 2)
    mechanism = GaussianMarkovQuiltMechanism(
        [network], GAUSSIAN_EPSILON, delta=GAUSSIAN_DELTA
    )
    return mechanism, np.ones(len(network.nodes)), CountQuery()


class TestStateRoundTrip:
    """``state_dict`` / ``accountant_from_state`` is the one way to persist
    and restore a ledger; the running curve is restored verbatim, so the
    comparisons are ``==``, not approximate."""

    def test_state_dict_round_trip_bit_identical(self, gaussian_workload):
        mechanism, data, query = gaussian_workload
        live = RenyiAccountant(budget=GAUSSIAN_BUDGET, delta=GAUSSIAN_DELTA)
        engine = PrivacyEngine(mechanism, accountant=live, rng=0)
        with engine.stream(data, query) as session:
            with pytest.raises(BudgetExhaustedError):
                while True:
                    next(session)
        assert session.n_yielded > 0

        restored = accountant_from_state(json.loads(json.dumps(live.state_dict())))
        assert isinstance(restored, RenyiAccountant)
        assert restored.total_epsilon() == live.total_epsilon()
        assert np.array_equal(restored._rdp, live._rdp)
        assert len(restored) == len(live) == session.n_yielded
        # The restored ledger refuses the same next release.
        with pytest.raises(BudgetExhaustedError):
            restored.record(
                GAUSSIAN_EPSILON,
                quilt_signature=mechanism.quilt_signature(),
                rdp_curve=mechanism.rdp_curve,
            )

    def test_batched_state_round_trip(self, gaussian_workload):
        mechanism, data, query = gaussian_workload
        acc = RenyiAccountant(budget=GAUSSIAN_BUDGET, delta=GAUSSIAN_DELTA)
        PrivacyEngine(mechanism, accountant=acc, rng=0).release_repeated(
            data, query, 7
        )
        restored = accountant_from_state(acc.state_dict())
        assert restored.total_epsilon() == acc.total_epsilon()
        assert np.array_equal(restored._rdp, acc._rdp)
        assert len(restored) == 7


#: ``state_dict()`` output of ledgers that kept the (since removed) audit
#: trail, as JSON text: 3 releases at 0.25 then 1 at 0.5 (linear); 2 pure
#: releases at 0.25 then 1 with its own curve (Rényi on orders 2, 8, inf);
#: 2 releases at 0.25, one window advance, 1 at 0.125 (sliding, span 2).
LEGACY_STATES = {
    "linear": (
        '{"kind": "linear", "budget": 2.0, "audit_trail": true, '
        '"count": 4, "signatures": [{"tuple": ["q"]}], "worst": 0.5, '
        '"trail": [{"n": 3, "epsilon": 0.25, "mechanism": "MQM", '
        '"quilt_signature": {"tuple": ["q"]}, "rdp_orders": null, '
        '"rdp_values": null}, {"n": 1, "epsilon": 0.5, '
        '"mechanism": "MQM", "quilt_signature": {"tuple": ["q"]}, '
        '"rdp_orders": null, "rdp_values": null}]}',
        2.0,
    ),
    "renyi": (
        '{"kind": "renyi", "budget": 4.0, "audit_trail": true, '
        '"count": 3, "signatures": [{"tuple": ["q"]}], "delta": 1e-05, '
        '"orders": [2.0, 8.0, Infinity], "rdp": [0.1875, 0.75, 1.0], '
        '"trail": [{"n": 2, "epsilon": 0.25, "mechanism": "MQM", '
        '"quilt_signature": {"tuple": ["q"]}, "rdp_orders": null, '
        '"rdp_values": null}, {"n": 1, "epsilon": 0.5, '
        '"mechanism": "MQM", "quilt_signature": {"tuple": ["q"]}, '
        '"rdp_orders": [2.0, 8.0, Infinity], "rdp_values": [0.0625, '
        '0.25, 0.5]}]}',
        1.0,
    ),
    "sliding": (
        '{"kind": "sliding", "budget": 1.0, "audit_trail": true, '
        '"count": 3, "signatures": [{"tuple": ["q"]}], "window_span": 2, '
        '"window": 1, "windows": [[0, 2, 0.25], [1, 1, 0.125]], '
        '"trail": [{"n": 2, "epsilon": 0.25, "mechanism": "MQM", '
        '"quilt_signature": {"tuple": ["q"]}, "rdp_orders": null, '
        '"rdp_values": null}, {"n": 1, "epsilon": 0.125, '
        '"mechanism": "MQM", "quilt_signature": {"tuple": ["q"]}, '
        '"rdp_orders": null, "rdp_values": null}]}',
        0.75,
    ),
}


@pytest.mark.parametrize("kind", sorted(LEGACY_STATES))
def test_a_legacy_tagged_signature_admits_its_quilt_and_refuses_another(kind):
    """A ``{"tuple": [...]}`` entry restores as the digest of its tuple.
    The budget is lifted so the linear ledger, already spent to its budget,
    can take the next release."""
    restored = accountant_from_state(
        {**json.loads(LEGACY_STATES[kind][0]), "budget": None}
    )
    assert restored.is_composable
    with pytest.raises(PrivacyParameterError, match="Markov quilts"):
        restored.record(0.125, quilt_signature=("r",))
    restored.record(0.125, quilt_signature=("q",))
    assert restored.state_dict()["signatures"] == [signature_digest(("q",))]


@pytest.mark.parametrize("kind", sorted(LEGACY_STATES))
def test_state_with_a_legacy_trail_restores_the_same_spend(kind):
    """The ``audit_trail`` and ``trail`` keys are ignored: the aggregates
    restore verbatim, and the next ``state_dict`` carries neither key."""
    text, spent = LEGACY_STATES[kind]
    legacy = json.loads(text)
    restored = accountant_from_state(legacy)
    assert restored.total_epsilon() == spent
    assert len(restored) == legacy["count"]
    state = restored.state_dict()
    assert "trail" not in state and "audit_trail" not in state
    assert state == {
        **{
            key: value
            for key, value in legacy.items()
            if key not in ("trail", "audit_trail")
        },
        "signatures": [signature_digest(("q",))],
    }
