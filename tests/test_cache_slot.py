"""The calibration cache's hand-off slot.

Per mechanism, the cache keeps the state holder, the key parts (what
``cache_key`` hashes, before salting) and the calibration of the last
entry it handed over or computed.  A warm lookup compares its parts with
the slot's and hashes no key.  These tests pin that every key input still
makes the next release miss, that the comparison tells apart every value
the hashed key does, that a mechanism which lost its state is handed it
once more, and that keys still hash to the hex values entries were stored
under before the slot compared parts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dp import EntryDPMechanism
from repro.baselines.group_dp import GroupDPMechanism
from repro.core.markov_quilt import MarkovQuiltMechanism
from repro.core.mqm_chain import MQMApprox, MQMExact
from repro.core.queries import (
    CountQuery,
    RelativeFrequencyHistogram,
    StateFrequencyQuery,
    SumQuery,
)
from repro.data.datasets import TimeSeriesDataset
from repro.distributions.chain_family import FiniteChainFamily, IntervalChainFamily
from repro.distributions.markov import MarkovChain
from repro.distributions.structured import household_blocks_scenario
from repro.distributions.temporal import TemporalNetwork
from repro.serving import (
    CacheBackend,
    CalibrationCache,
    InMemoryLRUCache,
    PrivacyEngine,
    cache_key,
)

EPSILON = 5.0


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


@pytest.fixture
def spies(monkeypatch):
    """Every ``warm_start`` and every node's quilt search, as lists."""
    handed, searched = [], []
    warm_start = MarkovQuiltMechanism.warm_start
    candidate_scores = MarkovQuiltMechanism._candidate_scores

    def spy_warm_start(self, state):
        handed.append(self)
        warm_start(self, state)

    def spy_scores(self, candidates):
        searched.append(candidates[0].node)
        return candidate_scores(self, candidates)

    monkeypatch.setattr(MarkovQuiltMechanism, "warm_start", spy_warm_start)
    monkeypatch.setattr(MarkovQuiltMechanism, "_candidate_scores", spy_scores)
    return handed, searched


def _blocks():
    """A general MQM over an editable blocks network."""
    scenario = household_blocks_scenario(2, 3)
    temporal = TemporalNetwork(scenario.reference)
    mechanism = MarkovQuiltMechanism(
        [temporal.network], EPSILON, quilt_generator=scenario.quilt_generator
    )
    return temporal, mechanism, np.zeros(len(temporal.nodes))


def _cold_scale(networks, query, data, **kwargs):
    return MarkovQuiltMechanism(networks, EPSILON, **kwargs).calibrate(query, data).scale


def _chain_family():
    chain = MarkovChain([0.6, 0.4], [[0.85, 0.15], [0.2, 0.8]])
    return FiniteChainFamily.singleton(chain)


# ---------------------------------------------------------------------------
# The keys are the ones entries were stored under
# ---------------------------------------------------------------------------
def _pinned_triples():
    scenario = household_blocks_scenario(2, 3)
    mqm = MarkovQuiltMechanism(
        scenario.networks, EPSILON, quilt_generator=scenario.quilt_generator
    )
    segments = TimeSeriesDataset(
        [np.zeros(5, dtype=int), np.ones(3, dtype=int), np.zeros(9, dtype=int)], 2
    )
    return {
        "mqm-blocks": (mqm, CountQuery(), np.zeros(len(mqm.reference.nodes))),
        "exact-chain": (
            MQMExact(_chain_family(), 1.0, max_window=20),
            StateFrequencyQuery(1, 30),
            np.zeros(30),
        ),
        "approx-segments": (
            MQMApprox(IntervalChainFamily(0.3, 0.7), 1.0),
            RelativeFrequencyHistogram(2, 17),
            segments,
        ),
        "groupdp-sum": (GroupDPMechanism(1.0), SumQuery(0, 2), np.ones(7)),
    }


#: ``cache_key`` of each triple above, computed before the slot compared
#: key parts: an on-disk entry written then must still be found.
PINNED_KEYS = {
    "mqm-blocks": "5fc8c9c902bd0161c8c0de33402db1eb56925275946ae9e4b71af34b35f06880",
    "exact-chain": "4018bcfbfd70b2abda5895170709c9a38e1de47770fe8ddbb0cb63918e478bb6",
    "approx-segments": "f934fe39c6df50de2161e7d33acd2cb7efbfa9037270389649c4a66920997f3e",
    "groupdp-sum": "193cee3cc87611f955681cbea4879735f947ee6512dc7ecdb9b46fecd97c8f29",
}


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_keys_hash_to_the_stored_hex(name):
    mechanism, query, data = _pinned_triples()[name]
    assert cache_key(mechanism, query, data) == PINNED_KEYS[name]
    assert CalibrationCache().key_for(mechanism, query, data) == PINNED_KEYS[name]


# ---------------------------------------------------------------------------
# Every key input makes the next release miss
# ---------------------------------------------------------------------------
def test_an_in_place_cpd_edit_misses():
    temporal, mechanism, data = _blocks()
    engine = PrivacyEngine(mechanism, rng=1)
    query = CountQuery()
    engine.release(data, query)
    engine.release(data, query)
    assert (engine.cache.hits, engine.cache.misses) == (1, 1)
    node = temporal.nodes[-1]
    temporal.update_cpd(node, temporal.network.cpd(node)[..., ::-1])
    release = engine.release(data, query)
    assert (engine.cache.hits, engine.cache.misses) == (1, 2)
    generator = household_blocks_scenario(2, 3).quilt_generator
    assert release.noise_scale == _cold_scale(
        [temporal.network], query, data, quilt_generator=generator
    )


def test_quilt_sets_reassigned_to_other_content_misses():
    # Calibrated, not released: the trimmed node's active quilt changes,
    # which the engine's accountant would refuse to compose.
    _, mechanism, data = _blocks()
    engine = PrivacyEngine(mechanism, rng=1)
    query = CountQuery()
    before = engine.calibrate(query, data).scale
    node = next(n for n, q in mechanism.active_quilts().items() if not q.is_trivial)
    trimmed = dict(mechanism.quilt_sets)
    trimmed[node] = [quilt for quilt in trimmed[node] if quilt.is_trivial]
    mechanism.quilt_sets = trimmed
    after = engine.calibrate(query, data).scale
    assert (engine.cache.hits, engine.cache.misses) == (0, 2)
    assert after == _cold_scale(mechanism.networks, query, data, quilt_sets=trimmed)
    assert after > before


def test_a_query_with_other_parameters_misses():
    _, mechanism, data = _blocks()
    engine = PrivacyEngine(mechanism, rng=1)
    narrow = engine.release(data, SumQuery(0, 2)).noise_scale
    wide = engine.release(data, SumQuery(0, 3)).noise_scale
    assert (engine.cache.hits, engine.cache.misses) == (0, 2)
    assert wide == 1.5 * narrow


def test_data_of_another_length_misses():
    engine = PrivacyEngine(MQMExact(_chain_family(), 1.0, max_window=20), rng=1)
    query = CountQuery()
    short = engine.release(np.zeros(20), query).noise_scale
    engine.release(np.zeros(20), query)
    long = engine.release(np.zeros(30), query).noise_scale
    assert (engine.cache.hits, engine.cache.misses) == (1, 2)
    cold = MQMExact(_chain_family(), 1.0, max_window=20)
    assert (short, long) == (
        cold.calibrate(query, np.zeros(20)).scale,
        cold.calibrate(query, np.zeros(30)).scale,
    )


class _EpsilonBlind(EntryDPMechanism):
    """A fingerprint that forgets epsilon: only the key's own epsilon part
    tells two of its epsilons apart."""

    def calibration_fingerprint(self) -> tuple:
        return ("EpsilonBlind",)


@pytest.mark.parametrize("kind", [EntryDPMechanism, _EpsilonBlind])
def test_another_epsilon_misses(kind):
    mechanism = kind(1.0)
    cache = CalibrationCache()
    query, data = SumQuery(0, 2), np.ones(4)
    assert cache.get_or_compute(mechanism, query, data)[0].scale == 2.0
    assert cache.get_or_compute(mechanism, query, data)[1]
    mechanism.epsilon = 4.0
    calibration, hit = cache.get_or_compute(mechanism, query, data)
    assert not hit
    assert calibration.scale == 0.5


# ---------------------------------------------------------------------------
# The parts comparison tells apart what the hashed key does
# ---------------------------------------------------------------------------
class _Box:
    """A fingerprint value whose ``repr`` follows a field changed in place."""

    def __init__(self, value) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"_Box({self.value!r})"


#: The scale factor of each ``_Tagged`` tag, by its ``repr``.
_FACTORS = {"1": 1.0, "1.0": 2.0, "True": 3.0, "0.0": 4.0, "-0.0": 5.0, "2.0": 6.0}


class _Tagged(EntryDPMechanism):
    """A mechanism whose fingerprint carries ``tag`` and whose scale reads
    more of it than tuple ``==`` does: its ``repr``, which tells apart
    exact types, signs of zero and a field changed in place."""

    def __init__(self, epsilon: float, tag) -> None:
        super().__init__(epsilon)
        self.tag = tag

    def calibration_fingerprint(self) -> tuple:
        return ("Tagged", self.epsilon, (self.tag,))

    def noise_scale(self, query, data) -> float:
        tag = self.tag.value if isinstance(self.tag, _Box) else self.tag
        return _FACTORS[repr(tag)] * query.lipschitz / self.epsilon


@pytest.mark.parametrize(
    "first, second",
    [
        pytest.param(1, 1.0, id="int-float"),
        pytest.param(1, True, id="int-bool"),
        pytest.param(1.0, True, id="float-bool"),
        pytest.param(0.0, -0.0, id="signed-zero"),
    ],
)
def test_values_equal_under_tuple_eq_still_miss(first, second):
    """``first == second`` but their ``repr`` (and this mechanism's scale)
    differ, so the second lookup must miss: serving the first's scale
    would be the over-coarse key the key ADR calls a privacy bug."""
    assert first == second and repr(first) != repr(second)
    mechanism = _Tagged(1.0, first)
    cache = CalibrationCache()
    query, data = SumQuery(0, 2), np.ones(4)
    cache.get_or_compute(mechanism, query, data)
    assert cache.get_or_compute(mechanism, query, data)[1]
    mechanism.tag = second
    calibration, hit = cache.get_or_compute(mechanism, query, data)
    assert not hit
    assert calibration.scale == mechanism.noise_scale(query, data)
    assert cache_key(mechanism, query, data) != cache_key(_Tagged(1.0, first), query, data)


def test_a_value_changed_in_place_misses():
    box = _Box(1)
    mechanism = _Tagged(1.0, box)
    cache = CalibrationCache()
    query, data = SumQuery(0, 2), np.ones(4)
    assert cache.get_or_compute(mechanism, query, data)[0].scale == 2.0
    assert cache.get_or_compute(mechanism, query, data)[1]
    box.value = 2.0
    calibration, hit = cache.get_or_compute(mechanism, query, data)
    assert not hit
    assert calibration.scale == 12.0
    # Changed back, it hits the entry stored under its first key again.
    box.value = 1
    assert cache.get_or_compute(mechanism, query, data) == (
        cache.get_or_compute(_Tagged(1.0, _Box(1)), query, data)[0],
        True,
    )


def test_an_equal_triple_built_afresh_is_a_handed_hit(spies):
    handed, _ = spies
    _, mechanism, data = _blocks()
    backend = _CountingBackend()
    cache = CalibrationCache(backend)
    scale = cache.get_or_compute(mechanism, SumQuery(0, 2), data)[0].scale
    gets = backend.gets
    calibration, hit = cache.get_or_compute(mechanism, SumQuery(0, 2), data.copy())
    assert hit and calibration.scale == scale
    assert backend.gets == gets and handed == []


# ---------------------------------------------------------------------------
# A mechanism that lost its state is handed it once more
# ---------------------------------------------------------------------------
def _edit_then_revert(temporal, mechanism):
    node = temporal.nodes[-1]
    original = temporal.network.cpd(node).copy()
    temporal.update_cpd(node, original[..., ::-1])
    # A direct read during the edit drops the original results; the key
    # comes back with the revert, the results do not.
    mechanism.sigma_max()
    temporal.update_cpd(node, original)


def _reassign_equal_quilt_sets(temporal, mechanism):
    mechanism.quilt_sets = dict(mechanism.quilt_sets)


@pytest.mark.parametrize(
    "drop",
    [_edit_then_revert, _reassign_equal_quilt_sets],
    ids=["edit-revert", "equal-quilt-sets"],
)
def test_a_dropped_state_is_handed_over_once_more(spies, drop):
    handed, searched = spies
    temporal, mechanism, data = _blocks()
    backend = _CountingBackend()
    engine = PrivacyEngine(mechanism, cache=CalibrationCache(backend), rng=1)
    query = CountQuery()
    scale = engine.release(data, query).noise_scale
    signature = mechanism.quilt_signature()
    drop(temporal, mechanism)
    handed.clear()
    searched.clear()
    gets = backend.gets

    for _ in range(5):
        assert engine.release(data, query).noise_scale == scale
    assert handed == [mechanism]
    assert searched == []
    assert backend.gets == gets + 1
    assert mechanism.quilt_signature() == signature


def test_mutating_a_backend_hit_leaves_the_slot_intact():
    _, mechanism, data = _blocks()
    query = CountQuery()
    cache = CalibrationCache()
    cache.get_or_compute(mechanism, query, data)
    other = MarkovQuiltMechanism(
        mechanism.networks, EPSILON, quilt_sets=mechanism.quilt_sets
    )
    first, hit = cache.get_or_compute(other, query, data)
    assert hit
    expected = first.details["active_quilt"].copy()
    first.details["active_quilt"].append("not-a-node")
    first.details["sigma_max"] = -1.0
    second, hit = cache.get_or_compute(other, query, data)
    assert hit
    assert second.details["active_quilt"] == expected
    assert second.details["sigma_max"] > 0
