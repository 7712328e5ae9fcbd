"""The portable inter-process lock, with the ``fcntl``-free fallback.

The bug this guards: ``JSONFileCache`` silently ran with *no cross-process lock at all* on platforms without
``fcntl`` — concurrent writers could interleave read-modify-write cycles
and lose updates without any error.  ``InterProcessLock`` closes that hole
with an ``O_CREAT | O_EXCL`` lock-file fallback; these tests force the
fallback by monkeypatching the module-level ``fcntl`` name to ``None``
(resolved at acquire time for exactly this purpose) and hammer it."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

import repro.utils.filelock as filelock
from repro.serving.cache import JSONFileCache
from repro.utils.filelock import InterProcessLock, LockTimeoutError


@pytest.fixture()
def no_fcntl(monkeypatch):
    """Force the O_EXCL lock-file fallback path."""
    monkeypatch.setattr(filelock, "fcntl", None)


# -- fallback mechanics ----------------------------------------------------
def test_fallback_mutual_exclusion_two_threads(no_fcntl, tmp_path):
    """Two threads with *separate* lock instances (no shared thread lock —
    the file is their only coordination) never overlap critical sections."""
    lock_path = tmp_path / "x.lock"
    active = 0
    overlaps = []
    done = []

    def worker() -> None:
        for _ in range(50):
            with InterProcessLock(lock_path, timeout=30.0, poll_interval=0.0005):
                nonlocal active
                active += 1
                if active > 1:
                    overlaps.append(active)
                active -= 1
        done.append(True)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(done) == 2
    assert overlaps == []
    # Released: the lock file is gone, a fresh acquire succeeds instantly.
    assert not lock_path.exists()


def test_fallback_times_out_instead_of_hanging(no_fcntl, tmp_path):
    lock_path = tmp_path / "held.lock"
    holder = InterProcessLock(lock_path)
    holder.acquire()
    try:
        waiter = InterProcessLock(
            lock_path, timeout=0.15, poll_interval=0.005, stale_ttl=300.0
        )
        start = time.monotonic()
        with pytest.raises(LockTimeoutError):
            waiter.acquire()
        assert time.monotonic() - start < 5.0
    finally:
        holder.release()


def test_fallback_breaks_stale_lock(no_fcntl, tmp_path):
    """A lock file left by a crashed holder is broken after stale_ttl."""
    lock_path = tmp_path / "stale.lock"
    lock_path.write_text("99999999\n")  # orphaned: no process owns it
    old = time.time() - 120
    os.utime(lock_path, (old, old))
    lock = InterProcessLock(
        lock_path, timeout=5.0, poll_interval=0.005, stale_ttl=60.0
    )
    start = time.monotonic()
    lock.acquire()
    lock.release()
    assert time.monotonic() - start < 5.0
    assert not lock_path.exists()


def test_fallback_respects_fresh_lock(no_fcntl, tmp_path):
    """A *fresh* foreign lock file is honored, not broken."""
    lock_path = tmp_path / "fresh.lock"
    lock_path.write_text("99999999\n")
    lock = InterProcessLock(
        lock_path, timeout=0.1, poll_interval=0.005, stale_ttl=300.0
    )
    with pytest.raises(LockTimeoutError):
        lock.acquire()
    assert lock_path.exists()


def test_parameter_validation():
    with pytest.raises(ValueError):
        InterProcessLock("x", timeout=0)
    with pytest.raises(ValueError):
        InterProcessLock("x", poll_interval=-1)
    with pytest.raises(ValueError):
        InterProcessLock("x", stale_ttl=0)


def test_flock_path_round_trip(tmp_path):
    """With fcntl present (POSIX CI), acquire/release work and re-acquire
    succeeds; the lock file persists by design under flock."""
    if filelock.fcntl is None:  # pragma: no cover - non-POSIX host
        pytest.skip("no fcntl on this platform")
    lock_path = tmp_path / "flock.lock"
    with InterProcessLock(lock_path):
        assert lock_path.exists()
    with InterProcessLock(lock_path):
        pass


# -- the cache-level regression -------------------------------------------
N_THREADS = 8
KEYS_PER_WRITER = 15


def test_cache_without_fcntl_loses_no_entries(no_fcntl, tmp_path):
    """The original bug, end to end: hammer ``JSONFileCache`` from many
    threads with ``fcntl`` unavailable.  Before the fallback existed this
    silently lost entries (last atomic replace wins); now every write
    cycle holds the O_EXCL lock-file and nothing is dropped."""
    path = tmp_path / "calibrations.json"
    errors: list = []

    def writer(prefix: str) -> None:
        try:
            # Separate backend instances: the file lock is the only
            # cross-instance coordination, exactly as across processes.
            backend = JSONFileCache(path)
            for i in range(KEYS_PER_WRITER):
                backend.put(f"{prefix}-{i}", {"scale": float(i)})
        except BaseException as error:  # pragma: no cover - regression only
            errors.append(error)

    threads = [
        threading.Thread(target=writer, args=(f"w{t}",)) for t in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    store = json.loads(path.read_text())
    expected = {
        f"w{t}-{i}" for t in range(N_THREADS) for i in range(KEYS_PER_WRITER)
    }
    assert set(store) == expected
