"""Warm-start state and cache keys of the general Markov Quilt Mechanism.

A warm cache hit restores every node's ``(sigma, active quilt)`` from a
compact ``[node, sigma, index]`` entry, where ``index`` points into the
node's candidate list.  These tests pin that the restore is bit-identical to
a cold quilt search on every structured family and cache backend, that the
cache key separates everything the quilt score reads (including ``X_N``),
that the key and the per-node results both follow network edits and
``quilt_sets`` reassignment, that state read from a corrupted cache file is
refused rather than trusted, and that a mechanism is handed each entry's
state once and builds its quilt signature once.
"""

import contextlib
import copy
import gc
import json
import math
import pickle
import re
import sqlite3

import numpy as np
import pytest

from repro.core.accounting import signature_digest
from repro.core.gaussian import GaussianMarkovQuiltMechanism
from repro.core.markov_quilt import MarkovQuiltMechanism
from repro.core.queries import CountQuery
from repro.distributions.bayesnet import DiscreteBayesianNetwork, MarkovQuilt
from repro.distributions.structured import (
    BlockQuiltGenerator,
    block_node,
    grid_scenario,
    household_blocks_network,
    household_blocks_scenario,
    hub_and_spoke_scenario,
)
from repro.distributions.temporal import TemporalNetwork
from repro.exceptions import ValidationError
from repro.parallel import ParallelCalibrator
from repro.parallel.shards import per_node_general_shard
from repro.serving import (
    CacheBackend,
    CalibrationCache,
    InMemoryLRUCache,
    PrivacyEngine,
    SQLiteCache,
)

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
        return MarkovQuilt(node, quilt_nodes, nearby, everyone)

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
# Per-node results follow the inputs the key reads
# ---------------------------------------------------------------------------
def _ignores_parents(cpd: np.ndarray) -> np.ndarray:
    """Every row ``[0.99, 0.01, ...]``, normalized: the node no longer
    depends on its parents."""
    table = np.full_like(cpd, 0.01)
    table[..., 0] = 0.99
    return table / table.sum(axis=-1, keepdims=True)


def test_per_node_results_follow_in_place_network_edits():
    """An engine calibrated before an in-place edit must not answer the
    edited network's key from its old sigmas, nor store them there for
    another mechanism to be handed."""
    temporal = TemporalNetwork(household_blocks_network(4, 4))
    generator = BlockQuiltGenerator(
        tuple(tuple(block_node(i, j) for j in range(4)) for i in range(4))
    )
    original = {node: temporal.network.cpd(node).copy() for node in temporal.nodes}
    for node in temporal.nodes:
        temporal.update_cpd(node, _ignores_parents(original[node]))
    mechanism, _ = temporal.calibrated_mechanism(0.5, quilt_generator=generator)
    cache = CalibrationCache()
    engine = PrivacyEngine(mechanism, cache=cache)
    query, data = CountQuery(), np.zeros(len(temporal.nodes))
    assert engine.calibrate(query, data).scale == pytest.approx(2.0)

    for node in temporal.nodes:
        temporal.update_cpd(node, original[node])
    cold = MarkovQuiltMechanism(
        [temporal.network], 0.5, quilt_generator=generator
    ).calibrate(query, data)
    assert cold.scale == pytest.approx(8.0)
    assert engine.calibrate(query, data).scale == cold.scale
    assert mechanism.sigma_max() == cold.details["sigma_max"]

    fresh = MarkovQuiltMechanism([temporal.network], 0.5, quilt_generator=generator)
    served, hit = cache.get_or_compute(fresh, query, data)
    assert hit
    assert served.scale == cold.scale
    assert fresh.sigma_max() == cold.details["sigma_max"]


def test_per_node_results_follow_quilt_sets_reassignment():
    mechanism = _mechanism("laplace", "grid")
    node = next(n for n, q in mechanism.active_quilts().items() if not q.is_trivial)
    trimmed = dict(mechanism.quilt_sets)
    trimmed[node] = [quilt for quilt in trimmed[node] if quilt.is_trivial]
    mechanism.quilt_sets = trimmed
    # The old candidate's result is gone, so exporting cannot fail on it.
    assert mechanism.export_calibration_state() == {"sigma_by_node": []}
    fresh = MarkovQuiltMechanism(mechanism.networks, EPSILON, quilt_sets=trimmed)
    for each in fresh.reference.nodes:
        assert mechanism.sigma_for_node(each) == fresh.sigma_for_node(each)
    assert mechanism.sigma_for_node(node)[1].is_trivial
    assert mechanism.export_calibration_state() == fresh.export_calibration_state()
    assert mechanism.quilt_signature() == fresh.quilt_signature()


def test_edit_and_revert_across_caches_matches_a_cold_calibration():
    """One mechanism shared by two caches: the first remembers the
    original key, the second sees the edit; after the revert the first
    answers the original key again, and the mechanism still agrees with a
    cold calibration of the live network."""
    scenario = household_blocks_scenario(2, 3)
    temporal = TemporalNetwork(scenario.reference)
    generator = scenario.quilt_generator
    mechanism = MarkovQuiltMechanism([temporal.network], EPSILON, quilt_generator=generator)
    query, data = _workload(mechanism)

    def cold():
        return MarkovQuiltMechanism([temporal.network], EPSILON, quilt_generator=generator)

    first, second = CalibrationCache(), CalibrationCache()
    original_calibration, _ = first.get_or_compute(mechanism, query, data)
    original = {node: temporal.network.cpd(node).copy() for node in temporal.nodes}
    for node in temporal.nodes:
        temporal.update_cpd(node, _ignores_parents(original[node]))
    edited, hit = second.get_or_compute(mechanism, query, data)
    assert not hit
    assert edited == cold().calibrate(query, data)
    assert edited.scale < original_calibration.scale

    for node in temporal.nodes:
        temporal.update_cpd(node, original[node])
    reverted, hit = first.get_or_compute(mechanism, query, data)
    assert hit
    reference = cold()
    assert reverted == reference.calibrate(query, data) == original_calibration
    # The edited network's results were dropped; the ones the mechanism
    # holds now are the live network's.
    assert mechanism.sigma_max() == reference.sigma_max()
    assert mechanism.quilt_signature() == reference.quilt_signature()
    assert mechanism.export_calibration_state() == reference.export_calibration_state()
    # The second cache's entry for the reverted key is computed afresh.
    again, hit = second.get_or_compute(mechanism, query, data)
    assert not hit
    assert again == original_calibration


def test_a_reverted_edit_hands_the_slot_state_over_again(monkeypatch):
    """Engine A holds the slot for the original network.  Engine B shares
    the mechanism through another cache and releases after an in-place
    edit, which drops the mechanism's per-node results.  Once the edit is
    reverted, A's next release finds its slot's key again: it must hand
    the entry's state back rather than re-run the quilt search."""
    scenario = household_blocks_scenario(2, 3)
    temporal = TemporalNetwork(scenario.reference)
    generator = scenario.quilt_generator
    mechanism = MarkovQuiltMechanism([temporal.network], EPSILON, quilt_generator=generator)
    query, data = _workload(mechanism)
    first = PrivacyEngine(mechanism, cache=CalibrationCache(), rng=1)
    second = PrivacyEngine(mechanism, cache=CalibrationCache(), rng=2)
    first.release(data, query)

    original = {node: temporal.network.cpd(node).copy() for node in temporal.nodes}
    for node in temporal.nodes:
        temporal.update_cpd(node, _ignores_parents(original[node]))
    second.release(data, query)
    for node in temporal.nodes:
        temporal.update_cpd(node, original[node])

    searched = []
    candidate_scores = MarkovQuiltMechanism._candidate_scores

    def spy(self, candidates):
        searched.append(candidates[0].node)
        return candidate_scores(self, candidates)

    monkeypatch.setattr(MarkovQuiltMechanism, "_candidate_scores", spy)
    release = first.release(data, query)
    assert searched == []
    assert first.cache.hits == 1 and first.cache.misses == 1
    cold = MarkovQuiltMechanism([temporal.network], EPSILON, quilt_generator=generator)
    assert release.noise_scale == cold.calibrate(query, data).scale
    assert len(searched) == len(temporal.nodes)  # the cold search, for scale
    assert mechanism.quilt_signature() == cold.quilt_signature()
    assert mechanism.export_calibration_state() == cold.export_calibration_state()


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
        pytest.param(1, True, id="sigma-bool"),
        pytest.param(1, 0.0, id="sigma-zero"),
        pytest.param(1, -3.0, id="sigma-negative"),
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


def _corrupt_scale(path, value):
    with contextlib.closing(sqlite3.connect(path)) as conn, conn:
        ((key, text),) = conn.execute("SELECT key, payload FROM calibrations")
        payload = json.loads(text)
        payload["scale"] = value
        conn.execute(
            "UPDATE calibrations SET payload = ? WHERE key = ?",
            (json.dumps(payload), key),
        )


@pytest.mark.parametrize(
    "value",
    [
        pytest.param(True, id="bool"),
        pytest.param("2.0", id="string"),
        pytest.param(None, id="null"),
        pytest.param(-2.0, id="negative"),
        pytest.param(math.nan, id="nan"),
        pytest.param(math.inf, id="infinite"),
    ],
)
def test_corrupted_cache_file_scale_is_rejected(tmp_path, value):
    """The stored scale becomes every release's noise scale, so one that
    no calibration produces is refused before any state is applied, and
    the refused lookup counts as neither a hit nor a miss."""
    path = tmp_path / "calibrations.sqlite"
    cold = _mechanism("laplace", "hub")
    query, data = _workload(cold)
    CalibrationCache(SQLiteCache(path)).get_or_compute(cold, query, data)
    _corrupt_scale(path, value)

    warm = _mechanism("laplace", "hub")
    cache = CalibrationCache(SQLiteCache(path))
    with pytest.raises(ValidationError, match="scale"):
        cache.get_or_compute(warm, query, data)
    assert (cache.hits, cache.misses) == (0, 0)
    assert warm._sigma_cache == {}


def test_refused_state_counts_no_hit(tmp_path):
    path = tmp_path / "calibrations.sqlite"
    cold = _mechanism("laplace", "hub")
    query, data = _workload(cold)
    CalibrationCache(SQLiteCache(path)).get_or_compute(cold, query, data)
    _corrupt_first_entry(path, 1, -3.0)

    warm = _mechanism("laplace", "hub")
    cache = CalibrationCache(SQLiteCache(path))
    with pytest.raises(ValidationError, match="warm-start"):
        cache.get_or_compute(warm, query, data)
    assert (cache.hits, cache.misses) == (0, 0)


# ---------------------------------------------------------------------------
# A warm hit hands over nothing the mechanism holds
# ---------------------------------------------------------------------------
class _CountingBackend(CacheBackend):
    """An in-memory backend that counts ``get`` calls."""

    def __init__(self) -> None:
        self.inner = InMemoryLRUCache()
        self.gets = 0

    def get(self, key):
        self.gets += 1
        return self.inner.get(key)

    def put(self, key, payload):
        self.inner.put(key, payload)

    def __len__(self):
        return len(self.inner)


@pytest.mark.parametrize("kind", sorted(MECHANISMS))
def test_state_is_handed_to_a_mechanism_once_per_key(monkeypatch, kind):
    backend = _CountingBackend()
    cache = CalibrationCache(backend)
    cold = _mechanism(kind, "blocks")
    query, data = _workload(cold)
    computed, hit = cache.get_or_compute(cold, query, data)
    assert not hit

    handed = []
    warm_start = MarkovQuiltMechanism.warm_start

    def spy(self, state):
        handed.append(self)
        warm_start(self, state)

    monkeypatch.setattr(MarkovQuiltMechanism, "warm_start", spy)
    # The mechanism the entry was computed on holds its state already.
    assert cache.get_or_compute(cold, query, data) == (computed, True)
    assert handed == [] and backend.gets == 1

    warm = _mechanism(kind, "blocks")
    first, hit = cache.get_or_compute(warm, query, data)
    assert hit and first == computed
    assert handed == [warm] and backend.gets == 2
    _assert_matches_cold(warm, cold)

    hits = cache.hits
    previous = first
    for _ in range(100):
        calibration, hit = cache.get_or_compute(warm, query, data)
        assert hit
        assert calibration == first
        assert calibration is not previous
        assert calibration.details is not previous.details
        calibration.details["sigma_max"] = -1.0
        calibration.details["active_quilt"].append("not-a-node")
        previous = calibration
    assert handed == [warm] and backend.gets == 2
    assert cache.hits == hits + 100
    assert cache.misses == 1

    # Another mechanism on the same key still receives the state.
    other = _mechanism(kind, "blocks")
    assert cache.get_or_compute(other, query, data) == (computed, True)
    assert handed == [warm, other] and backend.gets == 3
    _assert_matches_cold(other, cold)


def test_a_slot_dies_with_its_mechanism():
    cache = CalibrationCache()
    mechanism = _mechanism("laplace", "hub")
    query, data = _workload(mechanism)
    cache.get_or_compute(mechanism, query, data)
    cache.get_or_compute(_mechanism("laplace", "hub"), query, data)
    gc.collect()
    assert len(cache._handed) == 1
    del mechanism
    gc.collect()
    assert len(cache._handed) == 0


@pytest.mark.parametrize("family", sorted(SCENARIOS))
@pytest.mark.parametrize("kind", sorted(MECHANISMS))
def test_quilt_signature_is_built_once(kind, family):
    mechanism = _mechanism(kind, family)
    signature = mechanism.quilt_signature()
    assert mechanism.quilt_signature() is signature
    assert signature == signature_digest(
        tuple(
            (node, tuple(sorted(mechanism.sigma_for_node(node)[1].quilt)))
            for node in mechanism.reference.nodes
        )
    )
    mechanism.sigma_max()
    mechanism.active_quilts()
    assert mechanism.quilt_signature() is signature
    assert _mechanism(kind, family).quilt_signature() == signature


@pytest.mark.parametrize("family", sorted(SCENARIOS))
@pytest.mark.parametrize("kind", sorted(MECHANISMS))
def test_quilt_signature_is_a_hex_digest(kind, family):
    signature = _mechanism(kind, family).quilt_signature()
    assert isinstance(signature, str)
    assert re.fullmatch(r"[0-9a-f]{64}", signature)


def test_warm_start_that_moves_an_active_quilt_changes_the_signature():
    mechanism = _mechanism("laplace", "hub")
    before = mechanism.quilt_signature()
    node, sigma, index = next(
        entry
        for entry in mechanism.export_calibration_state()["sigma_by_node"]
        if not mechanism.quilt_sets[entry[0]][entry[2]].is_trivial
    )
    trivial = next(
        position
        for position, quilt in enumerate(mechanism.quilt_sets[node])
        if quilt.is_trivial
    )
    mechanism.warm_start({"sigma_by_node": [[node, sigma, trivial]]})
    after = mechanism.quilt_signature()
    assert after != before
    assert mechanism.active_quilts()[node].is_trivial
    assert mechanism.quilt_signature() is after


def test_clones_carry_no_signature_memo():
    mechanism = _mechanism("laplace", "grid")
    signature = mechanism.quilt_signature()
    node = mechanism.reference.nodes[0]
    shard = per_node_general_shard(mechanism, node, mechanism.quilt_sets[node])
    clones = {
        "copy": copy.copy(mechanism),
        "pickle": pickle.loads(pickle.dumps(mechanism)),
        "shard": shard.payload[0],
        "pickled-shard": pickle.loads(pickle.dumps(shard)).payload[0],
    }
    for name, clone in clones.items():
        assert clone._signature is None, name
    assert clones["copy"].quilt_signature() == signature
    assert clones["pickle"].quilt_signature() == signature
    # A shard's reassigned candidates start with no per-node results.
    assert clones["pickled-shard"]._sigma_cache == {}
    for name in ("shard", "pickled-shard"):
        assert clones[name].calibration_state_holder() == {}
        assert clones[name].sigma_for_node(node) == mechanism.sigma_for_node(node)
    assert mechanism.quilt_signature() is signature
