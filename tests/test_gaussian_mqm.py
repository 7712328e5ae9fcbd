"""The Gaussian Markov Quilt Mechanism: calibration, serving, statistics.

Three layers of certification:

* **Unit** — the zCDP score formula (``card / sqrt(2 rho(eps - e,
  delta))``), the ``gaussian_rho`` / ``rho_to_epsilon`` closed-form
  inverse pair, fingerprint hygiene (never aliasing the Laplace MQM or a
  different delta), the Rényi cost curve's shape, and parameter
  validation.
* **Serving** — engine integration under both accountants, batch/stream
  bit-identity for Gaussian noise, per-node parallel shard bit-identity
  (mirroring the Laplace MQM-general shard tests), cache warm starts, and
  the single-release Rényi self-consistency (a Gaussian release charged
  through its own curve converts back to its target epsilon at the
  mechanism's delta, up to grid discreteness).
* **Statistical** (``@pytest.mark.statistical`` below) — the released
  noise actually follows the calibrated normal law (one-sample KS), the
  streamed path matches the batched distribution (two-sample KS), and an
  empirical ``(epsilon, delta)`` likelihood-ratio audit on neighboring
  datasets holds with real power (the estimate matches the theoretical
  midpoint separation, so the audit is not vacuous).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.accounting import RenyiAccountant
from repro.core.gaussian import (
    GaussianMarkovQuiltMechanism,
    gaussian_rho,
    rho_to_epsilon,
)
from repro.core.laplace import sample_gaussian
from repro.core.markov_quilt import MarkovQuiltMechanism
from repro.core.queries import CountQuery
from repro.distributions.bayesnet import DiscreteBayesianNetwork
from repro.exceptions import PrivacyParameterError, ValidationError
from repro.parallel import ParallelCalibrator
from repro.serving import CalibrationCache, PrivacyEngine, SQLiteCache

INITIAL = np.array([0.8, 0.2])
TRANSITION = np.array([[0.9, 0.1], [0.4, 0.6]])
EPSILON = 1.0
DELTA = 1e-5


@pytest.fixture
def chain_net():
    return DiscreteBayesianNetwork.chain(INITIAL, TRANSITION, 5)


def make_mechanism(net, epsilon=EPSILON, delta=DELTA):
    return GaussianMarkovQuiltMechanism([net], epsilon, delta=delta)


class TestZcdpCalibration:
    def test_rho_conversion_roundtrips(self):
        for eps in (0.05, 0.2, 1.0, 2.0, 5.0):
            for delta in (1e-9, 1e-5, 1e-2):
                rho = gaussian_rho(eps, delta)
                assert rho > 0
                assert rho_to_epsilon(rho, delta) == pytest.approx(eps)

    def test_rho_validates(self):
        with pytest.raises(PrivacyParameterError):
            gaussian_rho(0.0, 1e-5)
        with pytest.raises(PrivacyParameterError):
            gaussian_rho(1.0, 0.0)
        with pytest.raises(PrivacyParameterError):
            rho_to_epsilon(-0.1, 1e-5)
        with pytest.raises(PrivacyParameterError):
            rho_to_epsilon(1.0, 1.0)

    def test_score_formula_per_node(self, chain_net):
        """sigma_i = min over admissible quilts of
        card(X_N) / sqrt(2 rho(eps - e, delta)) — checked against a manual
        walk of the same candidate set."""
        from repro.core.markov_quilt import max_influence

        mechanism = make_mechanism(chain_net)
        for node in chain_net.nodes:
            best = math.inf
            for quilt in mechanism.quilt_sets[node]:
                influence = max_influence([chain_net], quilt)
                if influence < EPSILON:
                    score = quilt.card_nearby() / math.sqrt(
                        2.0 * gaussian_rho(EPSILON - influence, DELTA)
                    )
                    best = min(best, score)
            assert mechanism.sigma_for_node(node)[0] == pytest.approx(best)

    def test_valid_beyond_epsilon_one(self, chain_net):
        """The classical Gaussian mechanism needs eps < 1; the zCDP
        calibration must keep producing finite, shrinking sigmas past it."""
        sigmas = [
            make_mechanism(chain_net, epsilon=eps).sigma_max()
            for eps in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(math.isfinite(s) and s > 0 for s in sigmas)
        assert sigmas == sorted(sigmas, reverse=True)

    def test_delta_validation(self, chain_net):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(PrivacyParameterError):
                make_mechanism(chain_net, delta=bad)

    def test_tighter_delta_needs_more_noise(self, chain_net):
        loose = make_mechanism(chain_net, delta=1e-2).sigma_max()
        tight = make_mechanism(chain_net, delta=1e-9).sigma_max()
        assert tight > loose


class TestFingerprint:
    def test_never_aliases_the_laplace_mqm(self, chain_net):
        gaussian = make_mechanism(chain_net)
        laplace = MarkovQuiltMechanism([chain_net], EPSILON)
        assert gaussian.calibration_fingerprint() != laplace.calibration_fingerprint()

    def test_delta_is_part_of_the_fingerprint(self, chain_net):
        a = make_mechanism(chain_net, delta=1e-5)
        b = make_mechanism(chain_net, delta=1e-6)
        assert a.calibration_fingerprint() != b.calibration_fingerprint()

    def test_equal_instantiations_share_a_fingerprint(self, chain_net):
        a = make_mechanism(chain_net)
        b = make_mechanism(DiscreteBayesianNetwork.chain(INITIAL, TRANSITION, 5))
        assert a.calibration_fingerprint() == b.calibration_fingerprint()


class TestNoiseFamily:
    def test_sample_gaussian_scales_the_standard_draw(self):
        gen = np.random.default_rng(3)
        want = 2.5 * np.random.default_rng(3).standard_normal(size=10)
        got = sample_gaussian(2.5, size=10, rng=gen)
        assert np.array_equal(got, want)
        assert sample_gaussian(0.0) == 0.0
        assert np.array_equal(sample_gaussian(0.0, size=4), np.zeros(4))
        with pytest.raises(PrivacyParameterError):
            sample_gaussian(-1.0)

    def test_release_adds_gaussian_noise(self, chain_net):
        mechanism = make_mechanism(chain_net)
        data = np.zeros(5)  # true count 0 keeps value - true_value exact
        query = CountQuery()
        calibration = mechanism.calibrate(query, data)
        release = mechanism.release(data, query, rng=11, calibration=calibration)
        noise = release.value - release.true_value
        want = calibration.scale * np.random.default_rng(11).standard_normal()
        assert noise == pytest.approx(want, abs=0.0)

    def test_scale_details_carry_delta_and_rdp_summary(self, chain_net):
        mechanism = make_mechanism(chain_net)
        details = mechanism.scale_details(CountQuery(), np.ones(5))
        assert details["delta"] == DELTA
        assert details["rdp"]["max_snr"] > 0
        assert 0.0 <= details["rdp"]["e_sup"] < EPSILON


class TestRdpCurve:
    def test_shape_and_inf(self, chain_net):
        mechanism = make_mechanism(chain_net)
        mechanism.sigma_max()
        orders = np.array([1.5, 2.0, 8.0, 64.0, math.inf])
        costs = mechanism.rdp_curve(orders)
        assert costs.shape == orders.shape
        assert np.all(costs[:-1] > 0) and np.all(np.isfinite(costs[:-1]))
        assert math.isinf(costs[-1])
        # Non-decreasing in the order.
        assert np.all(np.diff(costs[:-1]) >= -1e-15)

    def test_single_release_self_consistency(self, chain_net):
        """A Gaussian release charged through its own curve converts back
        to (about) its target epsilon at the mechanism's own delta — the
        zCDP calibration and the accountant's conversion are inverses up
        to order-grid discreteness."""
        mechanism = make_mechanism(chain_net)
        mechanism.sigma_max()
        accountant = RenyiAccountant(delta=DELTA)
        accountant.record(
            EPSILON,
            quilt_signature=mechanism.quilt_signature(),
            rdp_curve=mechanism.rdp_curve,
        )
        total = accountant.total_epsilon()
        assert total <= EPSILON * 1.005
        assert total >= EPSILON * 0.9  # not vacuously under-charged
        assert math.isfinite(accountant.optimal_order())

    def test_stream_outlives_linear_by_construction(self, chain_net):
        """A Gaussian stream under Rényi accounting serves strictly more
        than the linear count from the same budget."""
        from repro.core.composition import CompositionAccountant
        from repro.exceptions import BudgetExhaustedError

        budget = 10 * EPSILON

        def served(accountant) -> int:
            engine = PrivacyEngine(
                make_mechanism(DiscreteBayesianNetwork.chain(INITIAL, TRANSITION, 5)),
                accountant=accountant,
                rng=0,
            )
            with engine.stream(np.ones(5), CountQuery()) as session:
                count = 0
                while True:
                    try:
                        next(session)
                        count += 1
                    except BudgetExhaustedError:
                        return count

        linear = served(CompositionAccountant(budget=budget))
        renyi = served(RenyiAccountant(budget=budget, delta=DELTA))
        assert linear == 10  # floor(budget / eps) under Theorem 4.4
        assert renyi > linear


class TestServing:
    def test_batch_stream_bit_identity(self, chain_net):
        data = np.ones(5)
        query = CountQuery()
        batch_engine = PrivacyEngine(make_mechanism(chain_net), rng=42)
        batch = batch_engine.release_batch([(data, query)] * 12)
        stream_engine = PrivacyEngine(
            make_mechanism(DiscreteBayesianNetwork.chain(INITIAL, TRANSITION, 5)),
            rng=42,
        )
        with stream_engine.stream(data, query) as session:
            streamed = session.take(12)
        assert [r.value for r in batch] == [r.value for r in streamed]

    def test_engine_accountant_wiring(self, chain_net):
        engine = PrivacyEngine(make_mechanism(chain_net), accountant="renyi")
        assert isinstance(engine.accountant, RenyiAccountant)
        with pytest.raises(ValidationError):
            PrivacyEngine(
                make_mechanism(chain_net),
                accountant=RenyiAccountant(budget=1.0),
                epsilon_budget=1.0,
            )
        with pytest.raises(ValidationError):
            PrivacyEngine(make_mechanism(chain_net), accountant="moment")

    def test_parallel_per_node_shards_bit_identical(self, chain_net):
        """Mirror of the Laplace MQM-general shard test: scales, per-node
        sigmas, active quilts, and the composition signature all match the
        serial Gaussian run exactly (copy.copy preserves the subclass and
        its delta)."""
        query = CountQuery()
        data = np.ones(5)
        serial_mech = make_mechanism(chain_net)
        serial = serial_mech.calibrate(query, data)
        parallel_mech = make_mechanism(
            DiscreteBayesianNetwork.chain(INITIAL, TRANSITION, 5)
        )
        calibrator = ParallelCalibrator(max_workers=2, min_parallel_cost=0.0)
        plan = calibrator.plan(parallel_mech, query, data)
        assert [shard.key for shard in plan] == list(chain_net.nodes)
        assert all(
            isinstance(shard.payload[0], GaussianMarkovQuiltMechanism)
            and shard.payload[0].delta == DELTA
            for shard in plan
        )
        parallel = calibrator.calibrate(parallel_mech, query, data)
        assert parallel.scale == serial.scale
        assert parallel.details == serial.details
        assert parallel_mech._sigma_cache == serial_mech._sigma_cache
        assert parallel_mech.quilt_signature() == serial_mech.quilt_signature()
        assert parallel_mech.active_quilts() == serial_mech.active_quilts()

    def test_warm_start_via_engine_cache(self, tmp_path, chain_net):
        """A second Gaussian engine restores the per-node search from the
        shared cache — and the restored state is enough for rdp_curve."""
        query = CountQuery()
        data = np.ones(5)
        backend = SQLiteCache(tmp_path / "calibrations.sqlite")
        first = make_mechanism(chain_net)
        engine_a = PrivacyEngine(first, cache=CalibrationCache(backend=backend))
        scale = engine_a.calibrate(query, data).scale
        second = make_mechanism(DiscreteBayesianNetwork.chain(INITIAL, TRANSITION, 5))
        engine_b = PrivacyEngine(second, cache=CalibrationCache(backend=backend))
        assert engine_b.calibrate(query, data).scale == scale
        assert second._sigma_cache.keys() == first._sigma_cache.keys()
        orders = np.array([2.0, 8.0, math.inf])
        np.testing.assert_array_equal(
            second.rdp_curve(orders), first.rdp_curve(orders)
        )

    def test_gaussian_and_laplace_never_share_a_cache_entry(self, chain_net):
        query = CountQuery()
        data = np.ones(5)
        cache = CalibrationCache()
        gaussian_engine = PrivacyEngine(make_mechanism(chain_net), cache=cache)
        laplace_engine = PrivacyEngine(
            MarkovQuiltMechanism([chain_net], EPSILON), cache=cache
        )
        g_scale = gaussian_engine.calibrate(query, data).scale
        l_scale = laplace_engine.calibrate(query, data).scale
        assert cache.misses == 2  # distinct fingerprints, no aliasing
        assert g_scale != l_scale


# ----------------------------------------------------------------------
# Statistical audits (own CI lane, seeded and reproducible)
# ----------------------------------------------------------------------
N_SAMPLES = 4000

AUDIT_EPSILON = 2.0
AUDIT_DELTA = 1e-2


def normal_cdf(x: np.ndarray, loc: float, scale: float) -> np.ndarray:
    z = (np.asarray(x, dtype=float) - loc) / (scale * math.sqrt(2.0))
    return np.array([0.5 * (1.0 + math.erf(v)) for v in z])


def ks_one_sample(samples: np.ndarray, cdf_values_at_sorted: np.ndarray) -> float:
    n = samples.size
    grid = np.arange(1, n + 1) / n
    return float(
        np.max(
            np.maximum(
                grid - cdf_values_at_sorted,
                cdf_values_at_sorted - (grid - 1.0 / n),
            )
        )
    )


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    values = np.concatenate([a, b])
    values.sort(kind="mergesort")
    cdf_a = np.searchsorted(np.sort(a), values, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), values, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


@pytest.fixture(scope="module")
def audit_workload():
    net = DiscreteBayesianNetwork.chain(INITIAL, TRANSITION, 3)
    query = CountQuery()
    data = np.zeros(3, dtype=int)
    return net, query, data


def audit_mechanism(net):
    return GaussianMarkovQuiltMechanism(
        [net], AUDIT_EPSILON, delta=AUDIT_DELTA
    )


@pytest.mark.statistical
def test_release_noise_matches_calibrated_normal_ks(audit_workload):
    net, query, data = audit_workload
    engine = PrivacyEngine(audit_mechanism(net))
    scale = engine.calibrate(query, data).scale
    releases = engine.release_repeated(data, query, N_SAMPLES, rng=11)
    noise = np.sort(np.array([r.value - r.true_value for r in releases]))
    statistic = ks_one_sample(noise, normal_cdf(noise, 0.0, scale))
    # alpha = 0.01 one-sample critical value, as in the Laplace audit.
    assert statistic < 1.63 / math.sqrt(N_SAMPLES)


@pytest.mark.statistical
def test_streamed_matches_batched_distribution_ks(audit_workload):
    net, query, data = audit_workload
    batched_engine = PrivacyEngine(audit_mechanism(net))
    batched = np.array(
        [
            r.value - r.true_value
            for r in batched_engine.release_repeated(data, query, N_SAMPLES, rng=13)
        ]
    )
    stream_engine = PrivacyEngine(audit_mechanism(net))
    with stream_engine.stream(data, query, rng=17) as session:
        streamed = np.array(
            [r.value - r.true_value for r in session.take(N_SAMPLES)]
        )
    statistic = ks_two_sample(batched, streamed)
    assert statistic < 1.63 * math.sqrt(2.0 / N_SAMPLES)


@pytest.mark.statistical
def test_empirical_epsilon_delta_audit_on_neighboring_datasets(audit_workload):
    """(epsilon, delta) likelihood-ratio audit: for the midpoint half-line
    (asymptotically the optimal distinguishing region for a Gaussian
    shift), acceptance frequencies on neighboring datasets must satisfy
    ``q <= e^eps p + delta`` both ways — and the measured log-ratio must
    match the theoretical midpoint separation, so the audit has power."""
    net, query, data = audit_workload
    neighbor = data.copy()
    neighbor[1] = 1  # one record changed
    engine_d = PrivacyEngine(audit_mechanism(net))
    engine_n = PrivacyEngine(audit_mechanism(net))
    rel_d = engine_d.release_repeated(data, query, N_SAMPLES, rng=23)
    rel_n = engine_n.release_repeated(neighbor, query, N_SAMPLES, rng=29)
    values_d = np.array([r.value for r in rel_d])
    values_n = np.array([r.value for r in rel_n])
    true_d, true_n = float(query(data)), float(query(neighbor))
    midpoint = (true_d + true_n) / 2.0

    p = float(np.mean(values_d >= midpoint))
    q = float(np.mean(values_n >= midpoint))
    assert 0.0 < p < 1.0 and 0.0 < q < 1.0
    # Binomial standard error at n=4000 is ~0.008; 4 SEs of slack.
    slack = 0.032
    assert q <= math.exp(AUDIT_EPSILON) * p + AUDIT_DELTA + slack
    assert p <= math.exp(AUDIT_EPSILON) * q + AUDIT_DELTA + slack

    # Power: the measured log-ratio equals the theoretical Gaussian
    # midpoint separation log Phi(s/2σ) - log Phi(-s/2σ), s = |F(D)-F(D')|.
    sigma = engine_d.calibrate(query, data).scale
    shift = abs(true_n - true_d)
    z = shift / (2.0 * sigma)
    theory = abs(
        math.log(
            (0.5 * (1.0 + math.erf(z / math.sqrt(2.0))))
            / (0.5 * (1.0 + math.erf(-z / math.sqrt(2.0))))
        )
    )
    measured = abs(math.log(q / p))
    assert theory > 0.1  # the workload separates: the audit is not vacuous
    assert abs(measured - theory) < 0.12
