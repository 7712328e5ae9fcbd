"""The bitset min-fill order equals the set-based one it replaced.

``InferenceEngine._elimination_order`` keeps the ``(fill-in, degree,
topological position)`` key on integer bitsets and re-keys only what an
elimination can change.  :func:`set_based_order` is the previous
implementation, kept as the oracle: equal orders mean equal contractions and
therefore the same floats everywhere downstream.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MarkovQuiltMechanism
from repro.distributions.bayesnet import DiscreteBayesianNetwork
from repro.distributions.structured import grid_network
from repro.inference import clear_engine_registry
from repro.inference.engine import InferenceEngine
from repro.inference.factor import Factor


def set_based_order(position, keep, removed, factors):
    """Min-fill over neighbour sets, every remaining variable re-keyed at
    every step (the engine's former ``_elimination_order`` body)."""
    neighbors: dict[str, set[str]] = {}
    for factor in factors:
        scope = [v for v in factor.variables if v not in removed]
        for var in scope:
            neighbors.setdefault(var, set()).update(scope)
    for var, adjacent in neighbors.items():
        adjacent.discard(var)
    to_eliminate = set(neighbors) - keep

    def fill_in(var: str) -> int:
        adjacent = tuple(neighbors[var])
        return sum(
            1
            for i, a in enumerate(adjacent)
            for b in adjacent[i + 1 :]
            if b not in neighbors[a]
        )

    order: list[str] = []
    while to_eliminate:
        best = min(
            to_eliminate,
            key=lambda v: (fill_in(v), len(neighbors[v]), position[v]),
        )
        adjacent = neighbors.pop(best)
        for a in adjacent:
            neighbors[a].discard(best)
            neighbors[a].update(adjacent - {a})
        to_eliminate.remove(best)
        order.append(best)
    return tuple(order)


@st.composite
def factor_graph(draw):
    """An engine over ``n`` variables added in a random order (so position
    and name disagree), random factor scopes, keep and evidence sets."""
    n = draw(st.integers(1, 14))
    names = [f"v{i}" for i in range(n)]
    network = DiscreteBayesianNetwork()
    for name in draw(st.permutations(names)):
        network.add_node(name, 2, cpd=[0.5, 0.5])
    scopes = draw(
        st.lists(
            st.lists(st.sampled_from(names), min_size=1, max_size=5, unique=True),
            max_size=16,
        )
    )
    factors = [Factor(tuple(scope), np.ones((2,) * len(scope))) for scope in scopes]
    keep = frozenset(draw(st.sets(st.sampled_from(names), max_size=n)))
    removed = frozenset(draw(st.sets(st.sampled_from(names), max_size=n)))
    return InferenceEngine(network), keep, removed, factors


@settings(max_examples=300, deadline=None)
@given(graph=factor_graph())
def test_bitset_min_fill_equals_the_set_based_order(graph):
    engine, keep, removed, factors = graph
    assert engine._elimination_order(keep, removed, factors) == set_based_order(
        engine._position, keep, removed, factors
    )


def test_every_order_of_a_calibration_equals_the_set_based_order(monkeypatch):
    checked = []
    original = InferenceEngine._elimination_order

    def checking(self, keep, removed, factors):
        order = original(self, keep, removed, factors)
        assert order == set_based_order(self._position, keep, removed, factors)
        checked.append(order)
        return order

    monkeypatch.setattr(InferenceEngine, "_elimination_order", checking)
    clear_engine_registry()  # orders and tables of earlier tests would hide the work
    MarkovQuiltMechanism([grid_network(4, 5)], 0.5).sigma_max()
    assert len(checked) > 20
