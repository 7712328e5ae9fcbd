"""Algorithm 2's candidate lists: what they hash to and what they hold.

A quilt stores its quilt and nearby sets and shares its network's node set;
its remote set is derived.  The candidate-list digest and the cache key of
the 6x6 grid, the 8x6 hub and the 20x10 blocks network (perfbench's
calibrate-cold networks) are pinned to the values computed when each quilt
still stored its remote set, so on-disk cache entries keep hitting; the
blocks network's candidate lists are held to a fifth of the 42 MB they took
then.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.markov_quilt import MarkovQuiltMechanism
from repro.core.queries import CountQuery
from repro.distributions import structured as s
from repro.serving import cache_key

EPSILON = 0.5


def _network(family: str):
    """A calibrate-cold network and its structured quilt generator."""
    if family == "grid":
        return s.grid_network(6, 6), s.GridQuiltGenerator(6, 6)
    if family == "hub":
        spokes = tuple(tuple(s.spoke_node(i, j) for j in range(1, 7)) for i in range(8))
        return s.hub_and_spoke_network(8, 6), s.HubQuiltGenerator(spokes)
    blocks = tuple(tuple(s.block_node(i, j) for j in range(10)) for i in range(20))
    return s.household_blocks_network(20, 10), s.BlockQuiltGenerator(blocks)


#: family -> (digest under its generator, digest under the distance shells,
#: cache key of the generator mechanism for ``CountQuery()`` on zeros).
PINNED = {
    "grid": (
        "04d76459876bf06d09c9f66b35ae3469e0b4e9027e840cfc8ed851cd53cb958a",
        "bf72ccf027e2d21aef5ac52f7e3431b1f7f51c89107b0bff4905a18159aff7d0",
        "a7fd12cc4da66dfe8a9d6c699b6473872a08c064bb8d38b173a97bd69080d641",
    ),
    "hub": (
        "c6635aa7701eb052ab63d923caef716b055a614def2100b2eb071b92163414b3",
        "564e76d89011df6ef0a3939249d221abaa28842d770d9c94c15b8e1eac8994c5",
        "08eb5862e482c52154c16ce84e2e94df666f2758908997eef195bac91e2e6d16",
    ),
    "blocks": (
        "abce44838d0a984c399cefacd262e18f9b261e78f5eaf4817940b8d7d69b6ae1",
        "52bca0baa2f9097638dffc49c7745e046b618e7e94e63d4a740dc385bb5bec46",
        "621316da9b123ec9bf11113de0be4371a9dc74b762e1425c7be7b42986232e9a",
    ),
}


@pytest.mark.parametrize("family", sorted(PINNED))
def test_candidate_lists_and_cache_keys_hash_as_pinned(family):
    network, generator = _network(family)
    generated = MarkovQuiltMechanism([network], EPSILON, quilt_generator=generator)
    shells = MarkovQuiltMechanism([network], EPSILON)
    got = (
        generated._quilt_sets_digest(),
        shells._quilt_sets_digest(),
        cache_key(generated, CountQuery(), np.zeros(len(network.nodes))),
    )
    assert got == PINNED[family]


@pytest.mark.parametrize("family", sorted(PINNED))
def test_every_candidate_shares_the_network_node_set(family):
    network, generator = _network(family)
    mechanism = MarkovQuiltMechanism([network], EPSILON, quilt_generator=generator)
    candidates = [q for quilts in mechanism.quilt_sets.values() for q in quilts]
    assert {id(q.nodes) for q in candidates} == {id(candidates[0].nodes)}
    assert candidates[0].nodes == frozenset(network.nodes)


def test_an_empty_separator_is_not_the_trivial_quilt():
    """A block's empty separator leaves the other blocks remote: its quilt
    set is empty, yet only the quilt with every node nearby is trivial."""
    network, _ = _network("blocks")
    node = network.nodes[0]
    empty = network.quilt_from_set(node, ())
    assert not empty.quilt and len(empty.remote) == 190 and not empty.is_trivial
    assert network.trivial_quilt(node).is_trivial


def test_blocks_candidate_lists_hold_a_fifth_of_the_stored_remote_sets():
    """4,600 candidates took 42.2 MB when each stored its remote set."""
    network, generator = _network("blocks")
    network.fingerprint()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mechanism = MarkovQuiltMechanism([network], EPSILON, quilt_generator=generator)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(len(quilts) for quilts in mechanism.quilt_sets.values()) == 4600
    assert held <= 8.4e6
