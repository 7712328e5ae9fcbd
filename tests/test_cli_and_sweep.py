"""Tests for the CLI entry point and the epsilon-sweep API."""

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.core.mqm_chain import MQMExact
from repro.distributions.chain_family import FiniteChainFamily
from repro.distributions.markov import MarkovChain


class TestEpsilonSweep:
    @pytest.fixture
    def mechanism(self):
        chain = MarkovChain([0.6, 0.4], [[0.9, 0.1], [0.2, 0.8]]).with_stationary_initial()
        return MQMExact(FiniteChainFamily([chain]), 1.0, max_window=60)

    def test_with_epsilon_shares_tables(self, mechanism):
        base = mechanism.sigma_max(500)
        clone = mechanism.with_epsilon(2.0)
        assert clone._table_cache is mechanism._table_cache
        assert clone.epsilon == 2.0
        # Same epsilon through the clone reproduces the base sigma.
        assert mechanism.with_epsilon(1.0).sigma_max(500) == pytest.approx(base)

    def test_sweep_matches_individual_instances(self, mechanism):
        sweep = mechanism.sigma_sweep(500, (0.5, 1.0, 5.0))
        chain = next(iter(mechanism.family.chains()))
        for eps, sigma in sweep.items():
            fresh = MQMExact(FiniteChainFamily([chain]), eps, max_window=60)
            assert sigma == pytest.approx(fresh.sigma_max(500), rel=1e-12)

    def test_sweep_monotone_in_epsilon(self, mechanism):
        sweep = mechanism.sigma_sweep(500, (0.2, 1.0, 5.0))
        assert sweep[0.2] > sweep[1.0] > sweep[5.0]

    def test_clone_preserves_flags(self):
        chain = MarkovChain([1.0, 0.0], [[0.9, 0.1], [0.4, 0.6]])
        mech = MQMExact(
            FiniteChainFamily([chain]), 1.0, max_window=40, restrict_support=False
        )
        clone = mech.with_epsilon(2.0)
        assert clone.max_window == 40
        assert clone.restrict_support is False


class TestCli:
    def test_info(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "pufferfish-repro" in out
        assert "fig4_synthetic" in out

    def test_verify_passes(self, capsys):
        assert cli_main(["verify", "--length", "4"]) == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_single_experiment(self, capsys):
        assert cli_main(["experiments", "section3_flu"]) == 0
        out = capsys.readouterr().out
        assert "Wasserstein bound" in out

    def test_running_example_experiment(self, capsys):
        assert cli_main(["experiments", "section44_running_example"]) == 0
        out = capsys.readouterr().out
        assert "13.02" in out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            cli_main(["experiments", "bogus"])

    def test_calibrate_is_bit_identical(self, capsys):
        argv = ["calibrate", "--workers", "1", "--grid-points", "2", "--length", "20"]
        assert cli_main(argv) == 0
        assert '"bit_identical": true' in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--length", "0"],
            # The benchmark demos left the CLI; benchmarks/bench_*.py run them.
            ["throughput"],
            ["stream"],
            ["accounting"],
            ["temporal"],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
