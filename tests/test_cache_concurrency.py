"""Concurrency hammering of the SQLite calibration cache.

The lost-update race these tests target: two writers that each read the
whole store, then each write it back, silently drop whichever side wrote
first.  ``SQLiteCache`` never reads before it writes — a put is one
upsert, serialized by SQLite's own lock; these tests hammer the store from
many threads (each with its *own* backend instance, so the per-instance
thread lock cannot serialize them) and from a second interpreter process,
then assert no entry was lost.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.serving.cache import CalibrationCache, InMemoryLRUCache, SQLiteCache

N_THREADS = 8
KEYS_PER_WRITER = 20

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Inline program for a second OS process sharing the cache file: writes
#: KEYS_PER_WRITER entries under a given prefix, one put per entry.
_SUBPROCESS_WRITER = """
import sys
from repro.serving.cache import SQLiteCache

path, prefix, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
backend = SQLiteCache(path)
for i in range(count):
    backend.put(f"{prefix}-{i}", {"scale": float(i), "writer": prefix})
"""


def _payload(writer: str, i: int) -> dict:
    return {"scale": float(i), "writer": writer}


def _write_keys(path: Path, prefix: str, errors: list) -> None:
    try:
        # A private backend instance per thread: the interesting interleaving
        # is between *instances*, whose only coordination is SQLite's lock.
        backend = SQLiteCache(path)
        for i in range(KEYS_PER_WRITER):
            backend.put(f"{prefix}-{i}", _payload(prefix, i))
    except BaseException as error:  # pragma: no cover - only on regression
        errors.append(error)


def _read_store(path: Path) -> dict:
    with contextlib.closing(sqlite3.connect(path)) as conn:
        rows = conn.execute("SELECT key, payload FROM calibrations").fetchall()
    # json.loads raises on a corrupt payload — part of the assertion.
    return {key: json.loads(payload) for key, payload in rows}


def test_threaded_writers_lose_no_entries(tmp_path):
    path = tmp_path / "calibrations.sqlite"
    errors: list = []
    threads = [
        threading.Thread(target=_write_keys, args=(path, f"t{t}", errors))
        for t in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    store = _read_store(path)
    expected = {f"t{t}-{i}" for t in range(N_THREADS) for i in range(KEYS_PER_WRITER)}
    assert set(store) == expected
    for t in range(N_THREADS):
        for i in range(KEYS_PER_WRITER):
            assert store[f"t{t}-{i}"] == _payload(f"t{t}", i)


def test_open_waits_out_another_openers_write_lock(tmp_path):
    """Opening a file not yet in WAL mode while another connection holds
    its write lock waits for the lock instead of raising ``database is
    locked``.  That is the state the threaded writers above meet when two
    of them switch one fresh file to WAL at once, which failed 2 of 120
    runs of that test."""
    path = tmp_path / "calibrations.sqlite"
    holder = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
    holder.execute("CREATE TABLE other (x)")  # a rollback-journal database
    holder.execute("BEGIN IMMEDIATE")
    release = threading.Timer(0.2, holder.execute, args=("COMMIT",))
    release.start()
    try:
        backend = SQLiteCache(path)
    finally:
        release.join()
        holder.close()
    backend.put("k", _payload("k", 0))
    assert _read_store(path) == {"k": _payload("k", 0)}


def test_second_process_and_threads_lose_no_entries(tmp_path):
    path = tmp_path / "calibrations.sqlite"
    process = subprocess.Popen(
        [sys.executable, "-c", _SUBPROCESS_WRITER, str(path), "proc", str(KEYS_PER_WRITER)],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    errors: list = []
    threads = [
        threading.Thread(target=_write_keys, args=(path, f"t{t}", errors))
        for t in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert process.wait(timeout=120) == 0
    assert not errors
    store = _read_store(path)
    expected = {f"t{t}-{i}" for t in range(4) for i in range(KEYS_PER_WRITER)}
    expected |= {f"proc-{i}" for i in range(KEYS_PER_WRITER)}
    assert set(store) == expected


def test_get_miss_picks_up_entries_from_another_process(tmp_path):
    path = tmp_path / "calibrations.sqlite"
    backend = SQLiteCache(path)  # constructed before the file exists
    backend.put("mine", {"scale": 1.0})
    subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_WRITER, str(path), "theirs", "1"],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        check=True,
        timeout=120,
    )
    # The other process's entry was written after our own put; a get must
    # find it without reopening the store.
    assert backend.get("theirs-0") == {"scale": 0.0, "writer": "theirs"}
    assert backend.get("mine") == {"scale": 1.0}


def test_interleaved_backends_agree_with_merge_semantics(tmp_path):
    """Two live backends alternating puts both converge to the union."""
    path = tmp_path / "calibrations.sqlite"
    left = SQLiteCache(path)
    right = SQLiteCache(path)
    for i in range(10):
        left.put(f"left-{i}", _payload("left", i))
        right.put(f"right-{i}", _payload("right", i))
    store = _read_store(path)
    expected = {f"left-{i}" for i in range(10)} | {f"right-{i}" for i in range(10)}
    assert set(store) == expected
    # Each side reads the other's entries from the shared table.
    assert right.get("left-9") == _payload("left", 9)
    assert left.get("right-9") == _payload("right", 9)


# ---------------------------------------------------------------------------
# Payload aliasing: a caller mutating what a backend handed out (or what it
# handed in) must never corrupt the stored entry.  The warm-start path feeds
# the payload's nested "state" dict straight into mechanism.warm_start, so
# a shared object would let the first tenant's mutation poison every later
# tenant's calibration.
# ---------------------------------------------------------------------------

_NESTED = {"scale": 1.0, "state": {"sigmas": [1.0, 2.0], "order": ["a", "b"]}}


@pytest.fixture(params=["memory", "file"])
def backend(request, tmp_path):
    if request.param == "memory":
        return InMemoryLRUCache()
    return SQLiteCache(tmp_path / "nested" / "calibrations.sqlite")  # creates nested/


def test_mutating_a_hit_does_not_corrupt_the_entry(backend):
    backend.put("k", json.loads(json.dumps(_NESTED)))
    first = backend.get("k")
    first["scale"] = 99.0
    first["state"]["sigmas"].append(666.0)
    first["state"]["order"].clear()
    # A second hit sees the original payload, not the first caller's edits.
    assert backend.get("k") == _NESTED


def test_mutating_the_put_argument_does_not_corrupt_the_entry(backend):
    payload = json.loads(json.dumps(_NESTED))
    backend.put("k", payload)
    payload["state"]["sigmas"].append(666.0)
    payload["scale"] = -1.0
    assert backend.get("k") == _NESTED


def test_two_hits_never_share_mutable_state(backend):
    backend.put("k", json.loads(json.dumps(_NESTED)))
    first = backend.get("k")
    second = backend.get("k")
    assert first == second
    assert first["state"] is not second["state"]
    assert first["state"]["sigmas"] is not second["state"]["sigmas"]


def test_non_json_payload_is_refused_without_poisoning(backend):
    backend.put("k", {"scale": 1.0})
    with pytest.raises(TypeError):
        backend.put("bad", {"scale": 2.0, "state": np.arange(3)})
    assert len(backend) == 1
    backend.put("next", {"scale": 3.0})
    assert backend.get("next") == {"scale": 3.0}
    assert backend.get("bad") is None


# ---------------------------------------------------------------------------
# Hit/miss statistics: the engine shares one CalibrationCache across service
# worker threads, so the counters must be mutated under their lock — an
# unlocked `+= 1` read-modify-write silently drops increments under load.
# ---------------------------------------------------------------------------


def test_hit_miss_counters_are_exact_under_thread_hammering():
    import numpy as np

    from repro.core.markov_quilt import MarkovQuiltMechanism
    from repro.core.queries import CountQuery
    from repro.distributions.structured import hub_and_spoke_network

    network = hub_and_spoke_network(2, 1)
    data = np.ones(len(network.nodes))
    query = CountQuery()
    cache = CalibrationCache()
    cache.get_or_compute(MarkovQuiltMechanism([network], 0.5), query, data)

    per_thread = 200
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    errors: list = []
    try:

        def hammer():
            try:
                # Private mechanism per thread (content-identical key) so the
                # only shared mutable state is the cache and its counters.
                mechanism = MarkovQuiltMechanism([network], 0.5)
                for _ in range(per_thread):
                    _, was_hit = cache.get_or_compute(mechanism, query, data)
                    assert was_hit
            except BaseException as error:  # pragma: no cover - regression
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(previous)
    assert not errors
    assert cache.misses == 1
    assert cache.hits == N_THREADS * per_thread
    assert cache.hit_rate == cache.hits / (cache.hits + cache.misses)


def _hub_mqm():
    from repro.core.markov_quilt import MarkovQuiltMechanism
    from repro.distributions.structured import hub_and_spoke_network

    network = hub_and_spoke_network(2, 1)
    return MarkovQuiltMechanism([network], 0.5), np.ones(len(network.nodes))


def _chain_exact():
    from repro.core.mqm_chain import MQMExact
    from repro.distributions.markov import MarkovChain

    chain = MarkovChain([0.5, 0.5], [[0.8, 0.2], [0.3, 0.7]])
    return MQMExact(chain, 0.5, max_window=8), np.ones(30)


def _flu_wasserstein():
    from repro.core.framework import entrywise_instantiation
    from repro.core.models import FluCliqueModel
    from repro.core.wasserstein import WassersteinMechanism

    model = FluCliqueModel([4], [[0.1, 0.15, 0.5, 0.15, 0.1]])
    return WassersteinMechanism(entrywise_instantiation(4, 2, [model]), 0.5), np.ones(4)


def _sum_queries():
    from repro.core.queries import CountQuery, SumQuery

    # SumQuery(0, 2) has L = 2, so the two keys' scales differ.
    return (CountQuery(), SumQuery(0, 2)), 2.0


def _frequency_queries():
    from repro.core.queries import CountQuery, StateFrequencyQuery

    # On four binary records the frequency of state 1 is the count over 4,
    # and so is its bound W.
    return (CountQuery(), StateFrequencyQuery(1, 4)), 0.25


@pytest.mark.parametrize(
    ("build", "workload"),
    [
        pytest.param(_hub_mqm, _sum_queries, id="mqm"),
        pytest.param(_chain_exact, _sum_queries, id="mqm-exact"),
        pytest.param(_flu_wasserstein, _frequency_queries, id="wasserstein"),
    ],
)
def test_one_mechanism_alternating_keys_under_thread_hammering(build, workload):
    """Threads sharing one mechanism alternate two keys, so every lookup
    replaces the mechanism's slot under a racing reader: each must still
    return its own key's calibration, with exact counters."""
    mechanism, data = build()
    queries, ratio = workload()
    cache = CalibrationCache()
    expected = [cache.get_or_compute(mechanism, query, data)[0] for query in queries]
    assert expected[1].scale == ratio * expected[0].scale
    holder = mechanism.calibration_state_holder()
    signature = getattr(mechanism, "quilt_signature", lambda: None)()

    per_thread = 200
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    errors: list = []
    try:

        def hammer(offset):
            try:
                for i in range(per_thread):
                    which = (i + offset) % 2
                    calibration, was_hit = cache.get_or_compute(
                        mechanism, queries[which], data
                    )
                    assert was_hit
                    assert calibration == expected[which]
                    assert mechanism.calibration_state_holder() is holder
                    if signature is not None:
                        assert mechanism.quilt_signature() == signature
            except BaseException as error:  # pragma: no cover - regression
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert not errors
    assert cache.misses == 2
    assert cache.hits == N_THREADS * per_thread
    fresh, _ = build()
    for query in queries:
        fresh.noise_scale(query, data)
    assert mechanism.export_calibration_state() == fresh.export_calibration_state()
