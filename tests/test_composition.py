"""Unit tests for Theorem 4.4 composition accounting."""

import pytest

from repro.core.composition import CompositionAccountant, compose_epsilons
from repro.exceptions import BudgetExhaustedError, PrivacyParameterError


class TestComposeEpsilons:
    def test_empty_is_zero(self):
        assert compose_epsilons([]) == 0.0

    def test_equal_levels_sum(self):
        assert compose_epsilons([0.5, 0.5, 0.5]) == pytest.approx(1.5)

    def test_unequal_levels_use_max(self):
        """K releases at levels eps_k guarantee K * max_k eps_k."""
        assert compose_epsilons([0.1, 0.5, 0.2]) == pytest.approx(1.5)

    def test_rejects_non_positive(self):
        with pytest.raises(PrivacyParameterError):
            compose_epsilons([0.5, 0.0])
        with pytest.raises(PrivacyParameterError):
            compose_epsilons([0.5, float("nan")])


class TestAccountant:
    def test_total_accumulates(self):
        acc = CompositionAccountant()
        acc.record(0.5, quilt_signature="sig")
        acc.record(0.5, quilt_signature="sig")
        assert acc.total_epsilon() == pytest.approx(1.0)
        assert len(acc) == 2

    def test_mixed_levels(self):
        acc = CompositionAccountant()
        acc.record(0.2, quilt_signature="sig")
        acc.record(1.0, quilt_signature="sig")
        assert acc.total_epsilon() == pytest.approx(2.0)

    def test_different_quilts_rejected(self):
        acc = CompositionAccountant()
        acc.record(0.5, quilt_signature="sig-a")
        with pytest.raises(PrivacyParameterError):
            acc.record(0.5, quilt_signature="sig-b")
        assert acc.is_composable  # the offending record was not kept

    def test_budget_enforced(self):
        acc = CompositionAccountant(budget=1.0)
        acc.record(0.5, quilt_signature="s")
        acc.record(0.5, quilt_signature="s")
        with pytest.raises(PrivacyParameterError):
            acc.record(0.5, quilt_signature="s")
        assert acc.remaining() == pytest.approx(0.0)

    def test_budget_accounts_for_max_rule(self):
        """Recording a bigger epsilon retroactively scales earlier releases."""
        acc = CompositionAccountant(budget=2.0)
        acc.record(0.1, quilt_signature="s")
        acc.record(0.1, quilt_signature="s")
        with pytest.raises(PrivacyParameterError):
            acc.record(1.0, quilt_signature="s")  # would cost 3 * 1.0

    def test_remaining_none_without_budget(self):
        assert CompositionAccountant().remaining() is None

    def test_rejects_bad_epsilon(self):
        with pytest.raises(PrivacyParameterError):
            CompositionAccountant().record(-1.0)

    def test_empty_total(self):
        assert CompositionAccountant().total_epsilon() == 0.0

    def test_aggregates_only_mode_enforces_without_a_trail(self):
        """audit_trail=False (the only accepted value): budget enforcement
        from O(1) aggregates — count, worst epsilon, signatures — so an
        indefinite stream's per-yield debits never grow the ledger."""
        acc = CompositionAccountant(budget=3.0, audit_trail=False)
        for _ in range(3):
            acc.record(1.0, quilt_signature="s")
        assert acc.state_dict() == {
            "kind": "linear",
            "budget": 3.0,
            "count": 3,
            "signatures": ["s"],
            "worst": 1.0,
        }
        assert len(acc) == 3
        assert acc.total_epsilon() == pytest.approx(3.0)
        assert acc.remaining() == pytest.approx(0.0)
        with pytest.raises(BudgetExhaustedError) as excinfo:
            acc.record(1.0, quilt_signature="s")
        assert excinfo.value.spent == pytest.approx(3.0)
        assert len(acc) == 3

    def test_aggregates_only_mode_still_checks_signatures(self):
        acc = CompositionAccountant(audit_trail=False)
        acc.record(1.0, quilt_signature="a")
        with pytest.raises(PrivacyParameterError):
            acc.record(1.0, quilt_signature="b")


class TestMechanismIntegration:
    def test_mqm_signature_drives_accounting(self):
        """Two MQM instances over the same network share a quilt signature."""
        import numpy as np

        from repro.core.markov_quilt import MarkovQuiltMechanism
        from repro.distributions.bayesnet import DiscreteBayesianNetwork

        net = DiscreteBayesianNetwork.chain(
            np.array([0.6, 0.4]), np.array([[0.8, 0.2], [0.3, 0.7]]), 4
        )
        m1 = MarkovQuiltMechanism([net], epsilon=1.0)
        m2 = MarkovQuiltMechanism([net], epsilon=1.0)
        acc = CompositionAccountant()
        acc.record(m1.epsilon, quilt_signature=m1.quilt_signature())
        acc.record(m2.epsilon, quilt_signature=m2.quilt_signature())
        assert acc.total_epsilon() == pytest.approx(2.0)
