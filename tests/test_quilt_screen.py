"""The Algorithm 2 search skips candidates without changing any result.

``MarkovQuiltMechanism.sigma_for_node`` evaluates candidates in ascending
``|X_Q|`` and skips one whose zero-influence score is strictly above the best
so far, or that contains an evaluated inadmissible quilt whose capacity
covers the split.  These tests hold it to a copy of the loop that evaluates
every candidate, bit for bit in sigma and in the active quilt.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GaussianMarkovQuiltMechanism, MarkovQuiltMechanism
from repro.core.markov_quilt import max_influence
from repro.distributions.bayesnet import DiscreteBayesianNetwork
from repro.distributions.structured import (
    GridQuiltGenerator,
    certified_quilts,
    grid_network,
)
from repro.inference.engine import InferenceEngine


def full_search(mechanism, node):
    """Algorithm 2's loop evaluating every candidate: the first strict
    minimum of the score in candidate order."""
    best_score = float("inf")
    best_quilt = None
    for quilt in mechanism.quilt_sets[node]:
        influence = max_influence(mechanism.networks, quilt)
        if influence < mechanism.epsilon:
            score = mechanism._quilt_score(quilt, influence)
        else:
            score = float("inf")
        if score < best_score:
            best_score = score
            best_quilt = quilt
    return best_score, best_quilt


def assert_matches_full_search(mechanism):
    for node in mechanism.reference.nodes:
        sigma, quilt = mechanism.sigma_for_node(node)
        want_sigma, want_quilt = full_search(mechanism, node)
        candidates = mechanism.quilt_sets[node]
        assert sigma.hex() == want_sigma.hex(), node
        assert candidates.index(quilt) == candidates.index(want_quilt), node
        # Each skipped candidate is inadmissible, or its zero-influence score
        # is above the minimum; each evaluated one has its full-loop score.
        scores = mechanism._candidate_scores(candidates)
        for candidate, score in zip(candidates, scores):
            influence = max_influence(mechanism.networks, candidate)
            if score == math.inf:
                assert (
                    influence >= mechanism.epsilon
                    or mechanism._quilt_score(candidate, 0.0) > want_sigma
                ), candidate
            else:
                assert score == mechanism._quilt_score(candidate, influence)


def test_capacity_keeps_a_quilt_whose_split_cells_fall_off_support():
    # P(q=1 | i=0) = 1.5e-12 is on support and P(q=1 | i=1) = 1e-14 is not,
    # so {q} has infinite influence; split over the fair coin r, both halves
    # of the i=0 cell fall to 7.5e-13 <= MARGINAL_ATOL, and {q, r} is
    # admissible.  {q}'s capacity is 1, below r's 2 cells, so it must not
    # screen {q, r}: a screen on the influence alone returns the trivial
    # quilt's 6.0.
    net = DiscreteBayesianNetwork()
    net.add_node("i", 2, cpd=[0.5, 0.5])
    net.add_node(
        "q", 2, parents=["i"], cpd=[[1 - 1.5e-12, 1.5e-12], [1 - 1e-14, 1e-14]]
    )
    net.add_node("r", 2, parents=["q"], cpd=[[0.5, 0.5], [0.5, 0.5]])
    candidates = [
        net.trivial_quilt("i"),
        net.quilt_from_set("i", {"q"}),
        net.quilt_from_set("i", {"q", "r"}),
    ]
    assert max_influence([net], candidates[1]) == math.inf
    mechanism = MarkovQuiltMechanism([net], 0.5, quilt_sets={"i": candidates})
    sigma, quilt = mechanism.sigma_for_node("i")
    assert sigma == 2.0000000000059597
    assert quilt.quilt == {"q", "r"}


@pytest.mark.parametrize(
    "mechanism_class", [MarkovQuiltMechanism, GaussianMarkovQuiltMechanism]
)
def test_a_tie_with_a_smaller_quilt_goes_to_the_earlier_candidate(mechanism_class):
    # i has one supported value, so every quilt has influence exactly 0;
    # {q, r} and {q} both leave X_N = {i}, so they tie.  {q} is evaluated
    # first (smaller X_Q), but {q, r} comes first in candidate order and
    # must win, as the full loop decides; its zero-influence score equals
    # the best so far, so it may not be skipped.
    net = DiscreteBayesianNetwork()
    net.add_node("i", 2, cpd=[1.0, 0.0])
    for name in ("q", "r"):
        net.add_node(name, 2, cpd=[0.3, 0.7])
    pair = net.quilt_from_set("i", {"q", "r"})
    single = net.quilt_from_set("i", {"q"})
    mechanism = mechanism_class(
        [net], 0.5, quilt_sets={"i": [net.trivial_quilt("i"), pair, single]}
    )
    sigma, quilt = mechanism.sigma_for_node("i")
    assert quilt is pair
    assert sigma == mechanism._quilt_score(pair, 0.0)


def test_grid_search_builds_at_most_70_percent_of_its_joints(monkeypatch):
    built = []
    original = InferenceEngine.conditional_tables

    def counting(self, targets, node):
        built.append((tuple(targets), node))
        return original(self, targets, node)

    monkeypatch.setattr(InferenceEngine, "conditional_tables", counting)
    mechanism = MarkovQuiltMechanism(
        [grid_network(6, 6)], 0.5, quilt_generator=GridQuiltGenerator(6, 6)
    )
    mechanism.sigma_max()
    n_candidates = sum(len(c) for c in mechanism.quilt_sets.values())
    assert n_candidates == 846
    assert len(built) <= 0.7 * n_candidates


# -- property: the screened search equals the full loop ---------------------

#: Tiny CPD cells: exact zeros and cells around MARGINAL_ATOL.
_TINY = [0.0, 1e-14, 5e-13, 1e-12, 1.5e-12, 3e-12, 1e-10]


@st.composite
def cpd_row(draw, size):
    """One CPD row; its tiny cells keep their exact values and its other
    cells share the remaining mass, so near-1e-12 cells survive."""
    tiny = draw(st.lists(st.sampled_from(_TINY + [None] * 4), min_size=size, max_size=size))
    if all(cell is not None for cell in tiny):
        tiny[0] = None
    weights = [draw(st.floats(0.01, 1.0)) if cell is None else 0.0 for cell in tiny]
    rest = 1.0 - sum(cell for cell in tiny if cell is not None)
    return [
        cell if cell is not None else rest * weight / sum(weights)
        for cell, weight in zip(tiny, weights)
    ]


@st.composite
def theta(draw):
    """One or two networks over one random DAG (at most 8 nodes, 2 or 3
    states each), with CPD rows holding zeros and near-1e-12 cells."""
    n = draw(st.integers(2, 8))
    cards = [draw(st.sampled_from([2, 3])) for _ in range(n)]
    parents = [
        sorted(draw(st.sets(st.integers(0, i - 1), max_size=2))) if i else []
        for i in range(n)
    ]
    networks = []
    for _ in range(draw(st.integers(1, 2))):
        net = DiscreteBayesianNetwork()
        for i in range(n):
            shape = tuple(cards[p] for p in parents[i]) + (cards[i],)
            rows = [draw(cpd_row(cards[i])) for _ in range(math.prod(shape[:-1]))]
            net.add_node(
                f"v{i}",
                cards[i],
                parents=[f"v{p}" for p in parents[i]],
                cpd=np.array(rows).reshape(shape),
            )
        networks.append(net)
    return networks


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    networks=theta(),
    epsilon=st.sampled_from([0.1, 0.5, 2.0]),
    gaussian=st.booleans(),
    data=st.data(),
)
def test_screened_search_equals_the_full_loop(networks, epsilon, gaussian, data):
    reference = networks[0]
    nodes = reference.nodes
    quilt_sets = {}
    for node in nodes:
        # Random separators (unions of others among them) plus the merged
        # distance shells, so inclusion chains occur.
        others = [n for n in nodes if n != node]
        separators = data.draw(
            st.lists(st.sets(st.sampled_from(others), max_size=4), max_size=8)
            if others
            else st.just([])
        )
        quilt_sets[node] = certified_quilts(reference, node, separators)
    mechanism_class = GaussianMarkovQuiltMechanism if gaussian else MarkovQuiltMechanism
    mechanism = mechanism_class(networks, epsilon, quilt_sets=quilt_sets)
    assert_matches_full_search(mechanism)
