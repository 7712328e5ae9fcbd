"""The elimination-message memo of the inference engine.

``InferenceEngine._eliminate`` keeps each bucket's message under the exact
inputs of its contraction, so a quilt search contracts each distinct bucket
once.  A memo hit must return exactly the bytes a recomputation would: every
result of a memo-warm engine is compared, byte for byte (``tobytes()``, so
NaN rows compare too), with a fresh ``InferenceEngine`` whose memo is empty
and which therefore contracts every bucket itself.  The memo must also stay
within ``MAX_MESSAGE_CELLS`` and stay exact when threads share one engine.
"""

import sys
import threading
import time

import numpy as np
import pytest

import repro.inference.engine as engine_module
from repro.distributions import DiscreteBayesianNetwork, structured
from repro.inference import (
    InferenceEngine,
    clear_engine_registry,
    engine_for,
    engine_registry_size,
)


def _theta(scenario, size=None):
    """A scenario's Theta (or its first ``size`` networks) and generator."""
    return scenario.networks[:size], scenario.quilt_generator


#: name -> (Theta, quilt generator); the first network is the reference.
CASES = {
    "grid-4x5": lambda: _theta(structured.grid_scenario(4, 5), 1),
    "hub-5x4": lambda: _theta(structured.hub_and_spoke_scenario(5, 4), 1),
    "blocks-6x5": lambda: _theta(structured.household_blocks_scenario(6, 5), 1),
    "grid-scenario": lambda: _theta(structured.grid_scenario(3, 4)),
    "hub-scenario": lambda: _theta(structured.hub_and_spoke_scenario(3, 3)),
    "blocks-scenario": lambda: _theta(structured.household_blocks_scenario(3, 4)),
}


def _queries(networks, generator):
    """Every ``(network, targets, node)`` a full quilt search asks for."""
    reference = networks[0]
    queries = []
    for node in reference.nodes:
        for quilt in generator(reference, node):
            if quilt.quilt:
                for network in networks:
                    queries.append((network, tuple(sorted(quilt.quilt)), node))
    return queries


def _sweep(queries, check=None):
    """Run the queries on the registry engines, in candidate order."""
    results = []
    for network, targets, node in queries:
        engine = engine_for(network)
        results.append(engine.conditional_tables(targets, node))
        if check is not None:
            check(engine)
    return results


def _assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.fixture(autouse=True)
def _empty_registry():
    clear_engine_registry()
    yield
    clear_engine_registry()


class TestExact:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_conditional_tables_match_a_fresh_engine(self, case):
        queries = _queries(*CASES[case]())
        results = _sweep(queries)
        for (network, targets, node), got in zip(queries, results):
            _assert_same_bytes(got, InferenceEngine(network).conditional_tables(targets, node))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_marginals_given_match_a_fresh_engine(self, case):
        """Pinned evidence: each CPD is keyed by its node and its states."""
        queries = _queries(*CASES[case]())
        seen = []
        for network, targets, node in queries:
            for value in range(network.n_states(node)):
                got = engine_for(network).marginals_given(targets, {node: value})
                seen.append((network, targets, node, value, got))
        for network, targets, node, value, got in seen:
            want = InferenceEngine(network).marginals_given(targets, {node: np.int64(value)})
            _assert_same_bytes(got, want)

    def test_memo_skips_repeated_contractions(self, monkeypatch):
        calls = []
        original = engine_module.contract

        def counting(factors, keep):
            calls.append(len(factors))
            return original(factors, keep)

        monkeypatch.setattr(engine_module, "contract", counting)
        queries = _queries(*CASES["grid-4x5"]())
        _sweep(queries)
        with_memo = len(calls)
        calls.clear()
        clear_engine_registry()
        monkeypatch.setattr(engine_module, "MAX_MESSAGE_CELLS", 0)
        _sweep(queries)
        assert with_memo < len(calls) / 2

    def test_memoized_messages_are_read_only(self):
        queries = _queries(*CASES["grid-4x5"]())
        _sweep(queries)
        engine = engine_for(queries[0][0])
        assert engine._messages
        for _, message in engine._messages.values():
            assert not message.table.flags.writeable


class TestBounded:
    # Each bound admits messages of up to bound // 64 cells, and the sweep's
    # admitted messages overflow it, so the memo must evict.
    @pytest.mark.parametrize(
        "case, bound", [("grid-4x5", 640), ("grid-scenario", 1024), ("hub-5x4", 2048)]
    )
    def test_exact_and_within_bound_after_evictions(self, case, bound, monkeypatch):
        monkeypatch.setattr(engine_module, "MAX_MESSAGE_CELLS", bound)
        ever_retained: dict = {}
        evictions = []

        def within_bound(engine):
            retained = sum(m.table.size for _, m in engine._messages.values())
            assert retained == engine._message_cells <= bound
            keys = set(engine._messages)
            seen = ever_retained.setdefault(engine, set())
            evictions.extend(seen - keys)
            seen.update(keys)

        queries = _queries(*CASES[case]())
        results = _sweep(queries, within_bound)
        assert evictions
        for (network, targets, node), got in zip(queries, results):
            _assert_same_bytes(got, InferenceEngine(network).conditional_tables(targets, node))


class TestThreadSafe:
    def test_threads_sharing_one_engine_get_single_thread_bytes(self, monkeypatch):
        # A bound the sweep overflows, so threads also race on evictions.
        monkeypatch.setattr(engine_module, "MAX_MESSAGE_CELLS", 4096)
        queries = _queries(*CASES["grid-4x5"]())
        network = queries[0][0]
        expected = [
            InferenceEngine(network).conditional_tables(targets, node)
            for _, targets, node in queries
        ]
        shared = engine_for(network)
        n_threads = 6
        results = [None] * n_threads
        errors = []
        start = threading.Barrier(n_threads)

        def sweep(index):
            try:
                start.wait(timeout=30)
                # Half the threads start at the first query and half in the
                # middle: they race on the same keys and on different ones.
                shift = index % 2 * len(queries) // 2
                got = {}
                for i in [*range(shift, len(queries)), *range(shift)]:
                    _, targets, node = queries[i]
                    got[i] = shared.conditional_tables(targets, node)
                results[index] = got
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        retained = sum(m.table.size for _, m in shared._messages.values())
        assert retained == shared._message_cells <= engine_module.MAX_MESSAGE_CELLS
        for got in results:
            assert got is not None and len(got) == len(queries)
            for i, want in enumerate(expected):
                _assert_same_bytes(got[i], want)

    def test_registry_lookups_race_evictions_safely(self):
        """More networks than the registry holds, looked up from several
        threads: no lookup may lose its entry to another thread's eviction
        between finding it and refreshing it."""
        transition = np.array([[0.9, 0.1], [0.2, 0.8]])
        networks = [
            DiscreteBayesianNetwork.chain(np.array([p, 1.0 - p]), transition, 2)
            for p in np.linspace(0.1, 0.9, 80)
        ]
        assert len(networks) > engine_module.MAX_CACHED_ENGINES
        errors = []
        deadline = time.monotonic() + 2.0

        def hammer(offset):
            try:
                order = networks[offset:] + networks[:offset]
                while time.monotonic() < deadline:
                    for network in order:
                        engine_for(network)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(13 * i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
        assert engine_registry_size() <= engine_module.MAX_CACHED_ENGINES
