"""Numeric verification of Theorem 4.4 (sequential composition).

Pufferfish does not compose in general because both releases see the *same*
correlated database.  Theorem 4.4 proves the Markov Quilt Mechanism does
compose (to K * eps) when every release uses the same active quilts.  Here we
check that claim directly: the joint density of two Laplace releases is

    P(M1 = w1, M2 = w2 | s, theta)
      = sum_x P(x | s, theta) * Lap(w1 - F1(x); b1) * Lap(w2 - F2(x); b2)

and the likelihood ratio over a secret pair must stay within e^{2 eps} on a
(w1, w2) grid.  Note the ratio does NOT factor across releases — the shared
x couples them — which is precisely why the theorem needs a proof.
"""

import numpy as np
import pytest

from repro.core.framework import entrywise_instantiation
from repro.core.laplace import laplace_density
from repro.core.models import MarkovChainModel
from repro.core.mqm_chain import MQMExact
from repro.core.queries import CountQuery, StateFrequencyQuery
from repro.distributions.chain_family import FiniteChainFamily
from repro.distributions.markov import MarkovChain

LENGTH = 4
CHAIN = MarkovChain([0.6, 0.4], [[0.85, 0.15], [0.25, 0.75]])


def joint_density(model, queries, scales, secret, grids):
    """Joint density of the two releases given the secret, on a 2-D grid."""
    density = np.zeros((grids[0].size, grids[1].size))
    mass = 0.0
    for row, prob in model.support():
        if row[secret.index] != secret.value:
            continue
        mass += prob
        f1 = float(queries[0](np.asarray(row)))
        f2 = float(queries[1](np.asarray(row)))
        density += prob * np.outer(
            laplace_density(grids[0], f1, scales[0]),
            laplace_density(grids[1], f2, scales[1]),
        )
    assert mass > 0
    return density / mass


def max_joint_log_ratio(model, instantiation, queries, scales, grids):
    worst = 0.0
    for pair in instantiation.admissible_pairs(model):
        left = joint_density(model, queries, scales, pair.left, grids)
        right = joint_density(model, queries, scales, pair.right, grids)
        worst = max(worst, float(np.abs(np.log(left) - np.log(right)).max()))
    return worst


@pytest.fixture(scope="module")
def setting():
    model = MarkovChainModel(CHAIN, LENGTH)
    instantiation = entrywise_instantiation(LENGTH, 2, [model])
    queries = (StateFrequencyQuery(1, LENGTH), CountQuery())
    return model, instantiation, queries


@pytest.mark.parametrize("epsilon", [0.5, 1.0])
def test_two_releases_compose_to_2eps(setting, epsilon):
    """Same family, same epsilon, same window => same active quilts =>
    the joint guarantee is 2 * eps (Theorem 4.4)."""
    model, instantiation, queries = setting
    mechanism = MQMExact(FiniteChainFamily([CHAIN]), epsilon, max_window=LENGTH)
    sigma = mechanism.sigma_max(LENGTH)
    scales = tuple(q.lipschitz * sigma for q in queries)
    grids = (
        np.linspace(-4 * scales[0] - 1, 4 * scales[0] + 2, 81),
        np.linspace(-4 * scales[1] - 1, 4 * scales[1] + LENGTH + 1, 81),
    )
    worst = max_joint_log_ratio(model, instantiation, queries, scales, grids)
    assert worst <= 2 * epsilon * (1 + 1e-9)


def test_joint_ratio_can_exceed_single_release_bound(setting):
    """Sanity: the joint leaks more than one release alone (otherwise the
    composition theorem would be vacuous)."""
    model, instantiation, queries = setting
    epsilon = 1.0
    mechanism = MQMExact(FiniteChainFamily([CHAIN]), epsilon, max_window=LENGTH)
    sigma = mechanism.sigma_max(LENGTH)
    scales = tuple(q.lipschitz * sigma for q in queries)
    grids = (
        np.linspace(-4 * scales[0] - 1, 4 * scales[0] + 2, 81),
        np.linspace(-4 * scales[1] - 1, 4 * scales[1] + LENGTH + 1, 81),
    )
    worst = max_joint_log_ratio(model, instantiation, queries, scales, grids)
    assert worst > epsilon  # strictly more than one release's budget


def test_mixed_epsilons_compose_to_k_times_max(setting):
    """eps_1 = 0.4, eps_2 = 1.0 with one quilt configuration => 2 * 1.0."""
    model, instantiation, queries = setting
    eps_small, eps_large = 0.4, 1.0
    base = MQMExact(FiniteChainFamily([CHAIN]), eps_large, max_window=LENGTH)
    sigma_large = base.sigma_max(LENGTH)
    sigma_small = MQMExact(
        FiniteChainFamily([CHAIN]), eps_small, max_window=LENGTH
    ).sigma_max(LENGTH)
    scales = (
        queries[0].lipschitz * sigma_small,
        queries[1].lipschitz * sigma_large,
    )
    grids = (
        np.linspace(-4 * scales[0] - 1, 4 * scales[0] + 2, 81),
        np.linspace(-4 * scales[1] - 1, 4 * scales[1] + LENGTH + 1, 81),
    )
    worst = max_joint_log_ratio(model, instantiation, queries, scales, grids)
    assert worst <= 2 * eps_large * (1 + 1e-9)
