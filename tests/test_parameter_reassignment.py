"""Reassigning a calibration parameter of a used mechanism.

A mechanism's ``epsilon`` (and each other input its
``calibration_fingerprint`` reads) may be reassigned after use.  The
per-node or per-length results it memoized under the old value must not
answer for the new one: the next scale equals a fresh mechanism's, also
through a calibration cache, where the stale scale would otherwise be
stored under the new key and served to every mechanism sharing it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.gk16 import GK16Mechanism
from repro.core.framework import entrywise_instantiation
from repro.core.gaussian import GaussianMarkovQuiltMechanism
from repro.core.markov_quilt import MarkovQuiltMechanism
from repro.core.models import FluCliqueModel
from repro.core.mqm_chain import MQMApprox, MQMExact
from repro.core.queries import CountQuery
from repro.core.wasserstein import WassersteinMechanism
from repro.distributions.chain_family import FiniteChainFamily
from repro.distributions.markov import MarkovChain
from repro.distributions.structured import household_blocks_scenario
from repro.distributions.temporal import TemporalNetwork
from repro.serving import CalibrationCache

BLOCKS = household_blocks_scenario(2, 3)
CHAIN = MarkovChain([0.5, 0.5], [[0.8, 0.2], [0.3, 0.7]])
#: Starts in state 0, so the support restriction of Eq. (5) matters.
PINNED_START = MarkovChain([1.0, 0.0], [[0.8, 0.2], [0.3, 0.7]])


def _mqm(epsilon):
    return MarkovQuiltMechanism(
        BLOCKS.networks, epsilon, quilt_generator=BLOCKS.quilt_generator
    )


def _gaussian(epsilon, delta):
    return GaussianMarkovQuiltMechanism(
        BLOCKS.networks, epsilon, delta=delta, quilt_generator=BLOCKS.quilt_generator
    )


def _exact(epsilon, max_window):
    return MQMExact(CHAIN, epsilon, max_window=max_window)


def _pinned_start(restrict_support):
    return MQMExact(PINNED_START, 1.0, max_window=8, restrict_support=restrict_support)


def _stationary_start(transition):
    """A singleton family whose chain starts from its stationary law, so
    ``MQMExact`` searches its memoized stationary-start tables."""
    start = MarkovChain([1.0, 0.0], transition).stationary()
    return FiniteChainFamily.singleton(MarkovChain(start, transition))


def _flu_clique(count_law):
    """The Section 3.1 flu clique of four records with this count law."""
    return entrywise_instantiation(4, 2, [FluCliqueModel([4], [count_law])])


def _symmetric_family(stay):
    return FiniteChainFamily.singleton(
        MarkovChain([0.5, 0.5], [[stay, 1.0 - stay], [1.0 - stay, stay]])
    )


#: id -> (factory, its keyword arguments, the reassigned one, its new value,
#: the released data).
CASES = {
    "mqm-epsilon": (_mqm, {"epsilon": 5.0}, "epsilon", 1.0, np.zeros(6)),
    "gaussian-epsilon": (
        _gaussian, {"epsilon": 5.0, "delta": 1e-6}, "epsilon", 1.0, np.zeros(6)
    ),
    "gaussian-delta": (
        _gaussian, {"epsilon": 1.0, "delta": 1e-2}, "delta", 1e-6, np.zeros(6)
    ),
    "exact-epsilon": (
        _exact, {"epsilon": 1.0, "max_window": 20}, "epsilon", 0.5, np.zeros(30)
    ),
    "exact-max-window": (
        _exact, {"epsilon": 1.0, "max_window": 20}, "max_window", 2, np.zeros(30)
    ),
    "exact-restrict-support": (
        _pinned_start, {"restrict_support": True}, "restrict_support", False, np.zeros(12)
    ),
    "exact-stationary-family": (
        lambda family: MQMExact(family, 1.0, max_window=8),
        {"family": _stationary_start([[0.8, 0.2], [0.3, 0.7]])},
        "family", _stationary_start([[0.9, 0.1], [0.2, 0.8]]), np.zeros(30),
    ),
    "approx-epsilon": (
        lambda epsilon: MQMApprox(CHAIN, epsilon), {"epsilon": 1.0}, "epsilon", 0.5,
        np.zeros(300),
    ),
    "wasserstein-instantiation": (
        lambda instantiation: WassersteinMechanism(instantiation, 1.0),
        {"instantiation": _flu_clique([0.1, 0.15, 0.5, 0.15, 0.1])},
        "instantiation", _flu_clique([0.4, 0.05, 0.1, 0.05, 0.4]), np.zeros(4),
    ),
    "gk16-family": (
        lambda family: GK16Mechanism(family, 1.0),
        {"family": _symmetric_family(0.6)}, "family", _symmetric_family(0.7),
        np.zeros(30),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_reassigned_parameter_recalibrates(case):
    factory, kwargs, name, value, data = CASES[case]
    query = CountQuery()
    mechanism = factory(**kwargs)
    before = mechanism.noise_scale(query, data)
    setattr(mechanism, name, value)
    fresh = factory(**{**kwargs, name: value}).noise_scale(query, data)
    assert fresh != before
    assert mechanism.noise_scale(query, data) == fresh
    if not hasattr(mechanism, "export_calibration_state"):
        return  # nothing to restore a second mechanism from
    restored = factory(**kwargs)
    restored.warm_start(mechanism.export_calibration_state())
    setattr(restored, name, value)
    assert restored.noise_scale(query, data) == fresh


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_shared_cache_serves_each_mechanism_its_own_scale(case):
    """The used mechanism misses, recalibrates and stores the new scale; a
    fresh mechanism built with the new value then hits that entry."""
    factory, kwargs, name, value, data = CASES[case]
    query = CountQuery()
    cache = CalibrationCache()
    mechanism = factory(**kwargs)
    cache.get_or_compute(mechanism, query, data)
    setattr(mechanism, name, value)
    calibration, hit = cache.get_or_compute(mechanism, query, data)
    want = factory(**{**kwargs, name: value}).noise_scale(query, data)
    assert not hit and calibration.scale == want
    calibration, hit = cache.get_or_compute(factory(**{**kwargs, name: value}), query, data)
    assert hit and calibration.scale == want


@pytest.mark.parametrize("case", ["mqm-epsilon", "gaussian-epsilon"])
def test_a_reassigned_parameter_rebuilds_the_quilt_signature(case):
    """The memoized active-quilt signature follows the results it was built
    from, so the Theorem 4.4 same-quilt check sees the new active quilts."""
    factory, kwargs, name, value, _ = CASES[case]
    mechanism = factory(**kwargs)
    before = mechanism.quilt_signature()
    setattr(mechanism, name, value)
    fresh = factory(**{**kwargs, name: value}).quilt_signature()
    assert fresh != before
    assert mechanism.quilt_signature() == fresh


def test_a_recalibration_reuses_only_results_of_its_own_epsilon():
    """Reassigning the epsilon of a mechanism ``calibrated_mechanism``
    returned must not change what the next recalibration reuses."""
    network, generator = BLOCKS.reference, BLOCKS.quilt_generator
    temporal = TemporalNetwork(network)
    mechanism, _ = temporal.calibrated_mechanism(1.0, quilt_generator=generator)
    mechanism.epsilon = 5.0
    mechanism.sigma_max()
    temporal.update_cpd(network.nodes[-1], [[0.5, 0.5], [0.2, 0.8]])
    recalibrated, report = temporal.calibrated_mechanism(1.0, quilt_generator=generator)
    assert report.reused_nodes > 0
    fresh = MarkovQuiltMechanism([temporal.network], 1.0, quilt_generator=generator)
    assert recalibrated._sigma_cache == {
        node: fresh.sigma_for_node(node) for node in temporal.network.nodes
    }
