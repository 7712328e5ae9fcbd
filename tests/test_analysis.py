"""Unit tests for the trial runner and reporting."""

import numpy as np
import pytest

from repro.analysis.reporting import Table
from repro.analysis.runner import run_release_trials
from repro.baselines.group_dp import GroupDPMechanism
from repro.core.queries import StateFrequencyQuery
from repro.data.datasets import TimeSeriesDataset
from repro.exceptions import ValidationError


class TestRunner:
    def test_mean_error_matches_expectation(self):
        data = TimeSeriesDataset.from_sequence(np.zeros(100, dtype=int), 2)
        mech = GroupDPMechanism(1.0)
        query = StateFrequencyQuery(0, 100)
        result = run_release_trials(mech, data, query, n_trials=30_000, rng=0)
        # GroupDP scale = 1.0 here; E|Lap(1)| = 1.
        assert result.mean_l1 == pytest.approx(1.0, rel=0.05)
        assert result.noise_scale == pytest.approx(1.0)
        assert result.n_trials == 30_000

    def test_gaussian_trials_draw_gaussian_noise(self):
        """A trial draws from the mechanism's own noise family: a Gaussian
        MQM's errors are those of ``scale * standard_normal`` under the
        same seed, not of Laplace noise at that scale."""
        from repro.core import GaussianMarkovQuiltMechanism
        from repro.core.queries import CountQuery
        from repro.distributions.structured import hub_and_spoke_network

        network = hub_and_spoke_network(3, 2)
        mechanism = GaussianMarkovQuiltMechanism([network], 0.5, delta=1e-5)
        data = np.ones(len(network.nodes))
        result = run_release_trials(mechanism, data, CountQuery(), n_trials=2000, rng=4)
        noise = result.noise_scale * np.random.default_rng(4).standard_normal((2000, 1))
        errors = np.abs(noise).sum(axis=1)
        assert result.mean_l1 == float(errors.mean())
        assert result.std_l1 == float(errors.std())

    def test_rejects_zero_trials(self):
        data = TimeSeriesDataset.from_sequence(np.zeros(10, dtype=int), 2)
        with pytest.raises(ValidationError):
            run_release_trials(GroupDPMechanism(1.0), data, StateFrequencyQuery(0, 10), 0)


class TestReporting:
    def test_table_rendering(self):
        table = Table("Demo", ["mech", "a", "b"])
        table.add_row("MQM", [0.5, None])
        rendered = table.render()
        assert "Demo" in rendered
        assert "N/A" in rendered
        assert "0.5" in rendered

    def test_table_row_length_checked(self):
        table = Table("Demo", ["mech", "a"])
        with pytest.raises(ValidationError):
            table.add_row("MQM", [1, 2])

    def test_table_to_dict(self):
        table = Table("Demo", ["mech", "x"])
        table.add_row("GroupDP", [2.0])
        assert table.to_dict() == {"GroupDP": [2.0]}

    def test_infinity_rendering(self):
        table = Table("Demo", ["mech", "x"])
        table.add_row("m", [float("inf")])
        assert "inf" in table.render()

    def test_scientific_rendering(self):
        table = Table("Demo", ["mech", "x"])
        table.add_row("m", [1.23e-7])
        assert "e-07" in table.render()
