"""Equivalence suite: parallel calibration is bit-identical to serial.

The contract of :class:`repro.parallel.ParallelCalibrator` is *exact*
reproduction of the serial calibration — scale, diagnostics, and the
mechanism's internal memo state — across MQMExact, MQMApprox, and the
Wasserstein Mechanism, over a grid of (T, state count, epsilon), including
the degenerate single-worker configuration and oversubscription (more
workers than shards).  Comparisons use ``==``, never ``pytest.approx``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.baselines.dp import EntryDPMechanism
from repro.core.framework import entrywise_instantiation
from repro.core.models import MarkovChainModel
from repro.core.mqm_chain import MQMApprox, MQMExact
from repro.core.queries import ScalarQuery, StateFrequencyQuery
from repro.core.wasserstein import WassersteinMechanism
from repro.data.datasets import TimeSeriesDataset
from repro.distributions.chain_family import FiniteChainFamily
from repro.distributions.markov import MarkovChain
from repro.exceptions import ValidationError
from repro.parallel import ParallelCalibrator, as_calibrator
from repro.serving import CalibrationCache, PrivacyEngine, SQLiteCache


class CountingFactory:
    """Executor factory that counts pool constructions."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, n_workers: int) -> ProcessPoolExecutor:
        self.calls += 1
        return ProcessPoolExecutor(max_workers=n_workers)


def _forbidden_factory(n_workers: int):  # pragma: no cover - only on regression
    raise AssertionError("a pool was constructed where the serial fallback was required")


def _two_chains(n_states: int) -> FiniteChainFamily:
    rng = np.random.default_rng(n_states)
    members = []
    for _ in range(2):
        rows = rng.uniform(0.1, 1.0, size=(n_states, n_states))
        rows /= rows.sum(axis=1, keepdims=True)
        members.append(
            MarkovChain(np.full(n_states, 1.0 / n_states), rows).with_stationary_initial()
        )
    return FiniteChainFamily(members)


def _pooled(workers: int = 2, **kwargs) -> ParallelCalibrator:
    """A calibrator that always pools when it has >= 2 shards."""
    return ParallelCalibrator(max_workers=workers, min_parallel_cost=0.0, **kwargs)


@pytest.mark.parametrize(
    ("length", "n_states", "epsilon"),
    [(24, 2, 0.5), (40, 3, 1.0), (64, 2, 2.0)],
)
def test_mqm_exact_bit_identical_over_grid(length, n_states, epsilon):
    family = _two_chains(n_states)
    query = StateFrequencyQuery(1, length)
    data = np.zeros(length, dtype=int)
    serial_mech = MQMExact(family, epsilon, max_window=length)
    serial = serial_mech.calibrate(query, data)
    factory = CountingFactory()
    parallel_mech = MQMExact(family, epsilon, max_window=length)
    parallel = _pooled(executor_factory=factory).calibrate(parallel_mech, query, data)
    assert factory.calls == 1
    assert parallel.scale == serial.scale
    assert parallel.details == serial.details
    assert parallel_mech._sigma_cache == serial_mech._sigma_cache


def test_mqm_exact_non_stationary_start_bit_identical():
    chain = MarkovChain([0.9, 0.1], [[0.8, 0.2], [0.3, 0.7]])  # not stationary
    family = FiniteChainFamily([chain])
    query = StateFrequencyQuery(1, 24)
    data = np.zeros(24, dtype=int)
    serial = MQMExact(family, 1.0, max_window=24).calibrate(query, data)
    dataset = TimeSeriesDataset([np.zeros(24, dtype=int)], 2)
    parallel = _pooled().calibrate(
        MQMExact(family, 1.0, max_window=24), query, dataset
    )
    assert parallel.scale == serial.scale


def test_mqm_approx_multi_segment_bit_identical():
    family = _two_chains(3)
    lengths = [15, 25, 35]
    data = TimeSeriesDataset([np.zeros(n, dtype=int) for n in lengths], 3)
    query = StateFrequencyQuery(1, data.n_observations)
    serial_mech = MQMApprox(family, 1.0)
    serial = serial_mech.calibrate(query, data)
    parallel_mech = MQMApprox(family, 1.0)
    parallel = _pooled().calibrate(parallel_mech, query, data)
    assert parallel.scale == serial.scale
    assert parallel.details == serial.details
    assert parallel_mech._sigma_cache == serial_mech._sigma_cache


def test_wasserstein_bit_identical():
    chains = [
        MarkovChain([0.6, 0.4], [[0.85, 0.15], [0.2, 0.8]]),
        MarkovChain([0.5, 0.5], [[0.7, 0.3], [0.4, 0.6]]),
        MarkovChain([0.3, 0.7], [[0.5, 0.5], [0.25, 0.75]]),
    ]
    length = 5
    inst = entrywise_instantiation(
        length, 2, [MarkovChainModel(chain, length) for chain in chains]
    )
    query = StateFrequencyQuery(1, length)
    data = np.zeros(length, dtype=int)
    serial_mech = WassersteinMechanism(inst, 1.0)
    serial = serial_mech.calibrate(query, data)
    parallel_mech = WassersteinMechanism(inst, 1.0)
    parallel = _pooled().calibrate(parallel_mech, query, data)
    assert parallel.scale == serial.scale
    assert parallel.details == serial.details
    assert parallel_mech._bound_cache == serial_mech._bound_cache


def test_single_worker_is_inline_and_identical():
    """max_workers=1 (the degenerate configuration) must never construct a
    pool, and must still produce the exact serial calibration."""
    family = _two_chains(2)
    query = StateFrequencyQuery(1, 32)
    data = np.zeros(32, dtype=int)
    serial = MQMExact(family, 1.0, max_window=32).calibrate(query, data)
    calibrator = ParallelCalibrator(
        max_workers=1, min_parallel_cost=0.0, executor_factory=_forbidden_factory
    )
    parallel = calibrator.calibrate(MQMExact(family, 1.0, max_window=32), query, data)
    assert parallel.scale == serial.scale
    assert calibrator.serial_runs == 1 and calibrator.pool_runs == 0


def test_oversubscribed_workers_identical():
    """More workers than shards: pool sized down to the shard count, result
    unchanged."""
    family = _two_chains(2)  # 2 chains x 1 length = 2 shards
    query = StateFrequencyQuery(1, 40)
    data = np.zeros(40, dtype=int)
    serial = MQMExact(family, 1.0, max_window=40).calibrate(query, data)
    calibrator = _pooled(workers=8)
    parallel = calibrator.calibrate(MQMExact(family, 1.0, max_window=40), query, data)
    assert parallel.scale == serial.scale
    assert calibrator.pool_runs == 1


def test_small_payload_falls_back_to_inline():
    """Below min_parallel_cost the plan runs inline — same result, no pool."""
    family = _two_chains(2)
    query = StateFrequencyQuery(1, 20)
    data = np.zeros(20, dtype=int)
    calibrator = ParallelCalibrator(
        max_workers=4, min_parallel_cost=1e9, executor_factory=_forbidden_factory
    )
    serial = MQMExact(family, 1.0, max_window=20).calibrate(query, data)
    parallel = calibrator.calibrate(MQMExact(family, 1.0, max_window=20), query, data)
    assert parallel.scale == serial.scale
    assert calibrator.serial_runs == 1


def test_unpicklable_query_falls_back_to_inline():
    chain = MarkovChain([0.6, 0.4], [[0.85, 0.15], [0.2, 0.8]])
    inst = entrywise_instantiation(4, 2, [MarkovChainModel(chain, 4)])
    query = ScalarQuery(lambda x: float(np.mean(x)), 0.25)  # lambda: unpicklable
    data = np.zeros(4, dtype=int)
    serial = WassersteinMechanism(inst, 1.0).calibrate(query, data)
    calibrator = _pooled(executor_factory=_forbidden_factory)
    parallel = calibrator.calibrate(WassersteinMechanism(inst, 1.0), query, data)
    assert parallel.scale == serial.scale
    assert calibrator.serial_runs == 1


def test_sigma_sweep_matches_serial():
    family = _two_chains(2)
    epsilons = [0.5, 1.0, 2.0, 4.0]
    serial = MQMExact(family, 1.0, max_window=48).sigma_sweep([48], epsilons)
    parallel = _pooled().sigma_sweep(
        MQMExact(family, 1.0, max_window=48), [48], epsilons
    )
    assert parallel == serial

    approx_serial = MQMApprox(family, 1.0).sigma_sweep([48], epsilons)
    approx_parallel = _pooled().sigma_sweep(MQMApprox(family, 1.0), [48], epsilons)
    assert approx_parallel == approx_serial


def test_calibrate_many_matches_serial_and_warm_starts():
    family = _two_chains(2)
    query = StateFrequencyQuery(1, 36)
    data = np.zeros(36, dtype=int)
    mechanisms = [
        MQMExact(family, 0.5, max_window=36),
        MQMExact(family, 1.0, max_window=36),
        MQMApprox(family, 1.0),
    ]
    expected = [
        MQMExact(family, 0.5, max_window=36).calibrate(query, data),
        MQMExact(family, 1.0, max_window=36).calibrate(query, data),
        MQMApprox(family, 1.0).calibrate(query, data),
    ]
    results = _pooled().calibrate_many(mechanisms, query, data)
    assert [c.scale for c in results] == [c.scale for c in expected]
    # The originals were warm-started from the workers' exported state:
    # their own serial calibrate is now a lookup producing the same result.
    for mechanism, calibration in zip(mechanisms, expected):
        assert mechanism.calibrate(query, data).scale == calibration.scale
        assert mechanism._sigma_cache  # warm, not recomputed from scratch


def test_run_mechanism_suite_shards_only_warm_startable():
    from repro.analysis import run_mechanism_suite

    family = _two_chains(2)
    query = StateFrequencyQuery(1, 36)
    data = np.zeros(36, dtype=int)
    exact = MQMExact(family, 1.0, max_window=36)
    approx = MQMApprox(family, 1.0)
    baseline = EntryDPMechanism(1.0)  # no warm_start: must not be sharded
    results = run_mechanism_suite(
        [exact, approx, baseline], data, query, n_trials=5, rng=0, workers=2
    )
    assert [r.mechanism for r in results] == ["MQMExact", "MQMApprox", "EntryDP"]
    assert results[0].noise_scale == (
        MQMExact(family, 1.0, max_window=36).calibrate(query, data).scale
    )
    assert results[2].noise_scale == EntryDPMechanism(1.0).calibrate(query, data).scale
    # The shardable mechanisms came back warm from the pool.
    assert exact._sigma_cache and approx._sigma_cache


def test_engine_parallel_lands_in_shared_cache(tmp_path):
    family = _two_chains(2)
    query = StateFrequencyQuery(1, 40)
    data = np.zeros(40, dtype=int)
    path = tmp_path / "calibrations.sqlite"
    calibrator = _pooled()
    first = PrivacyEngine(
        MQMExact(family, 1.0, max_window=40),
        cache=CalibrationCache(SQLiteCache(path)),
        parallel=calibrator,
    )
    cold = first.calibrate(query, data)
    assert calibrator.shards_executed == 2  # the miss was sharded
    assert first.cache.misses == 1

    # A second engine over the same store: warm hit, no shards executed.
    second = PrivacyEngine(
        MQMExact(family, 1.0, max_window=40),
        cache=CalibrationCache(SQLiteCache(path)),
        parallel=_pooled(executor_factory=_forbidden_factory),
    )
    warm = second.calibrate(query, data)
    assert second.cache.hits == 1
    assert warm.scale == cold.scale
    assert warm.scale == MQMExact(family, 1.0, max_window=40).calibrate(query, data).scale


def test_plan_is_empty_when_warm_or_undecomposable():
    family = _two_chains(2)
    query = StateFrequencyQuery(1, 20)
    data = np.zeros(20, dtype=int)
    calibrator = ParallelCalibrator(max_workers=2)
    mechanism = MQMExact(family, 1.0, max_window=20)
    assert len(calibrator.plan(mechanism, query, data)) == 2
    mechanism.calibrate(query, data)  # warm
    assert calibrator.plan(mechanism, query, data) == []
    # Baselines have no shard decomposition: calibrate runs fully serial.
    baseline = EntryDPMechanism(1.0)
    assert calibrator.plan(baseline, query, data) == []
    assert (
        calibrator.calibrate(baseline, query, data).scale
        == EntryDPMechanism(1.0).calibrate(query, data).scale
    )


def test_as_calibrator_normalization():
    assert as_calibrator(None) is None
    assert as_calibrator(False) is None
    default = as_calibrator(True)
    assert isinstance(default, ParallelCalibrator)
    assert as_calibrator(3).max_workers == 3
    existing = ParallelCalibrator(max_workers=2)
    assert as_calibrator(existing) is existing
    with pytest.raises(ValidationError):
        as_calibrator("four")
    with pytest.raises(ValidationError):
        ParallelCalibrator(max_workers=0)


# ----------------------------------------------------------------------
# Algorithm 2 (general networks): per-node shards
# ----------------------------------------------------------------------
def _tree_network():
    from repro.distributions.bayesnet import DiscreteBayesianNetwork

    contagion = np.array([[0.85, 0.15], [0.45, 0.55]])
    net = DiscreteBayesianNetwork()
    net.add_node("source", 2, cpd=[0.7, 0.3])
    net.add_node("hhA1", 2, parents=["source"], cpd=contagion)
    net.add_node("hhA2", 2, parents=["hhA1"], cpd=contagion)
    net.add_node("hhB1", 2, parents=["source"], cpd=contagion)
    net.add_node("hhB2", 2, parents=["hhB1"], cpd=contagion)
    net.add_node("hhB3", 2, parents=["hhB2"], cpd=contagion)
    return net


def test_mqm_general_bit_identical():
    """Algorithm 2 shards per node; scales, per-node sigmas, active quilts,
    and the composition signature all match the serial run exactly."""
    from repro.core.markov_quilt import MarkovQuiltMechanism
    from repro.core.queries import CountQuery

    query = CountQuery()
    data = np.zeros(6, dtype=int)
    serial_mech = MarkovQuiltMechanism([_tree_network()], epsilon=4.0)
    serial = serial_mech.calibrate(query, data)
    factory = CountingFactory()
    parallel_mech = MarkovQuiltMechanism([_tree_network()], epsilon=4.0)
    parallel = _pooled(executor_factory=factory).calibrate(parallel_mech, query, data)
    assert factory.calls == 1
    assert parallel.scale == serial.scale
    assert parallel.details == serial.details
    assert parallel_mech._sigma_cache == serial_mech._sigma_cache
    assert parallel_mech.quilt_signature() == serial_mech.quilt_signature()
    assert parallel_mech.active_quilts() == serial_mech.active_quilts()


def test_mqm_general_plan_one_shard_per_cold_node():
    from repro.core.markov_quilt import MarkovQuiltMechanism
    from repro.core.queries import CountQuery

    mechanism = MarkovQuiltMechanism([_tree_network()], epsilon=4.0)
    calibrator = _pooled()
    plan = calibrator.plan(mechanism, CountQuery(), np.zeros(6, dtype=int))
    assert [shard.key for shard in plan] == list(mechanism.reference.nodes)
    # Warm one node: it must drop out of the next plan.
    mechanism.sigma_for_node("source")
    replanned = calibrator.plan(mechanism, CountQuery(), np.zeros(6, dtype=int))
    assert [shard.key for shard in replanned] == [
        n for n in mechanism.reference.nodes if n != "source"
    ]
    # Full calibration leaves nothing to shard.
    calibrator.calibrate(mechanism, CountQuery(), np.zeros(6, dtype=int))
    assert calibrator.plan(mechanism, CountQuery(), np.zeros(6, dtype=int)) == []


def test_mqm_general_single_worker_inline_identical():
    from repro.core.markov_quilt import MarkovQuiltMechanism
    from repro.core.queries import CountQuery

    query = CountQuery()
    data = np.zeros(6, dtype=int)
    serial = MarkovQuiltMechanism([_tree_network()], epsilon=4.0).calibrate(query, data)
    inline_mech = MarkovQuiltMechanism([_tree_network()], epsilon=4.0)
    calibrator = ParallelCalibrator(
        max_workers=1, min_parallel_cost=0.0, executor_factory=_forbidden_factory
    )
    inline = calibrator.calibrate(inline_mech, query, data)
    assert calibrator.serial_runs == 1 and calibrator.pool_runs == 0
    assert inline.scale == serial.scale


def test_mqm_general_warm_start_via_engine_cache(tmp_path):
    """A PrivacyEngine serving Algorithm 2 restores per-node quilt state
    from the shared calibration cache across mechanism instances."""
    from repro.core.markov_quilt import MarkovQuiltMechanism
    from repro.core.queries import CountQuery

    query = CountQuery()
    data = np.zeros(6, dtype=int)
    backend = SQLiteCache(tmp_path / "calibrations.sqlite")
    first = MarkovQuiltMechanism([_tree_network()], epsilon=4.0)
    engine_a = PrivacyEngine(first, cache=CalibrationCache(backend=backend))
    scale = engine_a.calibrate(query, data).scale
    second = MarkovQuiltMechanism([_tree_network()], epsilon=4.0)
    engine_b = PrivacyEngine(second, cache=CalibrationCache(backend=backend))
    assert engine_b.calibrate(query, data).scale == scale
    # The warm start restored the full per-node search, not just the scale.
    assert second._sigma_cache.keys() == first._sigma_cache.keys()
    assert second.quilt_signature() == first.quilt_signature()
