"""Warm-start state and cache keys of the general Markov Quilt Mechanism.

A warm cache hit restores every node's ``(sigma, active quilt)`` from a
compact ``[node, sigma, index]`` entry, where ``index`` points into the
node's candidate list.  These tests pin that the restore is bit-identical to
a cold quilt search on every structured family and cache backend, that the
cache key separates everything the quilt score reads (including ``X_N``),
that it follows network edits and ``quilt_sets`` reassignment, and that
state read from a corrupted cache file is refused rather than trusted.
"""

import contextlib
import json
import math
import pickle
import sqlite3

import numpy as np
import pytest

from repro.core.gaussian import GaussianMarkovQuiltMechanism
from repro.core.markov_quilt import MarkovQuiltMechanism
from repro.core.queries import CountQuery
from repro.distributions.bayesnet import DiscreteBayesianNetwork, MarkovQuilt
from repro.distributions.structured import (
    grid_scenario,
    household_blocks_scenario,
    hub_and_spoke_scenario,
)
from repro.distributions.temporal import TemporalNetwork
from repro.exceptions import ValidationError
from repro.parallel import ParallelCalibrator
from repro.parallel.shards import per_node_general_shard
from repro.serving import CalibrationCache, InMemoryLRUCache, SQLiteCache

EPSILON = 5.0

SCENARIOS = {
    "grid": lambda: grid_scenario(3, 3),
    "hub": lambda: hub_and_spoke_scenario(3, 2),
    "blocks": lambda: household_blocks_scenario(2, 3),
}

MECHANISMS = {
    "laplace": MarkovQuiltMechanism,
    "gaussian": GaussianMarkovQuiltMechanism,
}


def _mechanism(kind: str, family: str) -> MarkovQuiltMechanism:
    scenario = SCENARIOS[family]()
    return MECHANISMS[kind](
        scenario.networks, EPSILON, quilt_generator=scenario.quilt_generator
    )


def _workload(mechanism):
    return CountQuery(), np.zeros(len(mechanism.reference.nodes))


def _assert_matches_cold(warm, cold):
    nodes = cold.reference.nodes
    # Every node was restored by the warm start, not searched afterwards.
    assert set(warm._sigma_cache) == set(nodes)
    for node in nodes:
        sigma, quilt = warm.sigma_for_node(node)
        assert (sigma, quilt) == cold.sigma_for_node(node)
        # The restored quilt is the candidate object itself, not a rebuild.
        assert any(candidate is quilt for candidate in warm.quilt_sets[node])
    assert warm.active_quilts() == cold.active_quilts()
    assert warm.quilt_signature() == cold.quilt_signature()


# ---------------------------------------------------------------------------
# Warm hits are bit-identical to a cold search
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["memory", "file", "file-reopened"])
@pytest.mark.parametrize("family", sorted(SCENARIOS))
@pytest.mark.parametrize("kind", sorted(MECHANISMS))
def test_warm_hit_matches_cold_search(tmp_path, kind, family, backend):
    path = tmp_path / "calibrations.sqlite"
    writer = InMemoryLRUCache() if backend == "memory" else SQLiteCache(path)
    cold = _mechanism(kind, family)
    query, data = _workload(cold)
    calibration, hit = CalibrationCache(writer).get_or_compute(cold, query, data)
    assert not hit
    assert any(not quilt.is_trivial for quilt in cold.active_quilts().values())

    # "file-reopened" is a second backend instance reading the same file,
    # as a restarted server replica would.
    reader = SQLiteCache(path) if backend == "file-reopened" else writer
    warm = _mechanism(kind, family)
    warm_calibration, hit = CalibrationCache(reader).get_or_compute(warm, query, data)
    assert hit
    assert warm_calibration.scale == calibration.scale
    assert warm_calibration.details == calibration.details
    _assert_matches_cold(warm, cold)


def test_exported_state_is_three_scalars_per_node():
    mechanism = _mechanism("laplace", "blocks")
    mechanism.sigma_max()
    state = mechanism.export_calibration_state()
    entries = state["sigma_by_node"]
    assert [entry[0] for entry in entries] == sorted(mechanism.reference.nodes)
    for entry in entries:
        assert len(entry) == 3
        node, sigma, index = entry
        assert type(node) is str and type(sigma) is float and type(index) is int
        assert (sigma, mechanism.quilt_sets[node][index]) == mechanism.sigma_for_node(node)
    assert json.loads(json.dumps(state)) == state


def test_calibrate_many_warm_starts_parents_bit_identically():
    kinds = sorted(MECHANISMS)
    parents = [_mechanism(kind, "hub") for kind in kinds]
    colds = [_mechanism(kind, "hub") for kind in kinds]
    query, data = _workload(parents[0])
    calibrations = ParallelCalibrator(max_workers=1).calibrate_many(parents, query, data)
    for parent, cold, calibration in zip(parents, colds, calibrations):
        assert calibration.scale == cold.calibrate(query, data).scale
        _assert_matches_cold(parent, cold)


# ---------------------------------------------------------------------------
# The cache key
# ---------------------------------------------------------------------------
def _chain() -> DiscreteBayesianNetwork:
    return DiscreteBayesianNetwork.chain([0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]], 5)


def _explicit_quilts(x1_nearby: set[str]) -> dict[str, list[MarkovQuilt]]:
    """One explicit quilt per node; only X1's ``X_N`` varies."""
    everyone = frozenset(f"X{i}" for i in range(1, 6))

    def quilt(node, quilt_nodes, nearby):
        quilt_nodes, nearby = frozenset(quilt_nodes), frozenset(nearby)
        return MarkovQuilt(node, quilt_nodes, nearby, everyone - quilt_nodes - nearby)

    return {
        "X1": [quilt("X1", {"X3"}, x1_nearby)],
        "X2": [quilt("X2", {"X3"}, {"X1", "X2"})],
        "X3": [quilt("X3", {"X2", "X4"}, {"X3"})],
        "X4": [quilt("X4", {"X3"}, {"X4", "X5"})],
        "X5": [quilt("X5", {"X3"}, {"X4", "X5"})],
    }


def test_candidates_differing_only_in_nearby_never_share_an_entry():
    """``card(X_N)`` sets a quilt's score, so two mechanisms whose
    candidates differ only in ``X_N`` must miss each other's entries —
    serving the smaller scale would release less noise than Theorem 4.3
    requires."""
    query, data = CountQuery(), np.zeros(5)
    cache = CalibrationCache()
    narrow = MarkovQuiltMechanism([_chain()], 2.0, quilt_sets=_explicit_quilts({"X1", "X2"}))
    wide_sets = _explicit_quilts({"X1", "X2", "X5"})
    wide = MarkovQuiltMechanism([_chain()], 2.0, quilt_sets=wide_sets)
    narrow_calibration, _ = cache.get_or_compute(narrow, query, data)
    served, hit = cache.get_or_compute(wide, query, data)
    own = MarkovQuiltMechanism([_chain()], 2.0, quilt_sets=wide_sets).calibrate(query, data)
    assert not hit
    assert served.scale == own.scale
    assert served.scale > narrow_calibration.scale


def test_key_changes_after_temporal_cpd_update():
    scenario = household_blocks_scenario(2, 3)
    temporal = TemporalNetwork(scenario.reference)
    mechanism = MarkovQuiltMechanism(
        [temporal.network], EPSILON, quilt_generator=scenario.quilt_generator
    )
    query, data = _workload(mechanism)
    cache = CalibrationCache()
    before = cache.key_for(mechanism, query, data)
    assert cache.key_for(mechanism, query, data) == before  # memoized, stable
    node = temporal.network.nodes[-1]
    temporal.update_cpd(node, temporal.network.cpd(node)[..., ::-1])
    assert cache.key_for(mechanism, query, data) != before


def test_key_follows_quilt_sets_reassignment():
    mechanism = _mechanism("laplace", "grid")
    query, data = _workload(mechanism)
    cache = CalibrationCache()
    before = cache.key_for(mechanism, query, data)
    node = mechanism.reference.nodes[0]
    trimmed = dict(mechanism.quilt_sets)
    trimmed[node] = [quilt for quilt in trimmed[node] if quilt.is_trivial]
    assert len(trimmed[node]) < len(mechanism.quilt_sets[node])
    mechanism.quilt_sets = trimmed
    after = cache.key_for(mechanism, query, data)
    assert after != before
    rebuilt = MarkovQuiltMechanism(
        mechanism.networks, EPSILON, quilt_sets=trimmed
    )
    assert cache.key_for(rebuilt, query, data) == after


def test_per_node_shard_carries_no_key_memo():
    """A per-node shard reassigns ``quilt_sets``: its clone fingerprints its
    own candidates, and a fingerprinted parent ships no bigger payload."""
    parent = _mechanism("laplace", "grid")
    node = parent.reference.nodes[0]
    for network in parent.networks:
        network.fingerprint()

    def shard():
        return per_node_general_shard(parent, node, parent.quilt_sets[node])

    size_before = len(pickle.dumps(shard()))
    parent_fingerprint = parent.calibration_fingerprint()
    assert len(pickle.dumps(shard())) == size_before
    assert shard().payload[0].calibration_fingerprint() != parent_fingerprint


# ---------------------------------------------------------------------------
# State read from disk is validated
# ---------------------------------------------------------------------------
def _corrupt_first_entry(path, position, value):
    """Overwrite one field of the first state entry (the whole entry when
    ``position`` is None)."""
    with contextlib.closing(sqlite3.connect(path)) as conn, conn:
        ((key, text),) = conn.execute("SELECT key, payload FROM calibrations")
        payload = json.loads(text)
        sigma_by_node = payload["state"]["sigma_by_node"]
        if position is None:
            sigma_by_node[0] = value
        else:
            sigma_by_node[0][position] = value
        conn.execute(
            "UPDATE calibrations SET payload = ? WHERE key = ?",
            (json.dumps(payload), key),
        )


@pytest.mark.parametrize(
    "position, value",
    [
        pytest.param(None, ["hub", 1.0], id="entry-truncated"),
        pytest.param(0, "no-such-node", id="unknown-node"),
        pytest.param(2, "0", id="index-string"),
        pytest.param(2, 1.0, id="index-float"),
        pytest.param(2, True, id="index-bool"),
        pytest.param(2, -1, id="index-negative"),
        pytest.param(2, 10**6, id="index-out-of-range"),
        pytest.param(1, math.inf, id="sigma-infinite"),
        pytest.param(1, math.nan, id="sigma-nan"),
    ],
)
def test_corrupted_cache_file_state_is_rejected(tmp_path, position, value):
    path = tmp_path / "calibrations.sqlite"
    cold = _mechanism("laplace", "hub")
    query, data = _workload(cold)
    CalibrationCache(SQLiteCache(path)).get_or_compute(cold, query, data)
    _corrupt_first_entry(path, position, value)

    warm = _mechanism("laplace", "hub")
    with pytest.raises(ValidationError, match="warm-start"):
        CalibrationCache(SQLiteCache(path)).get_or_compute(warm, query, data)
    # Nothing from the rejected state was applied.
    assert warm._sigma_cache == {}
