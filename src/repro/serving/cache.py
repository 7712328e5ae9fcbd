"""Calibration cache: pluggable backends plus the keyed front-end.

The expensive half of every mechanism (the noise-scale computation) is
memoized here.  Backends store each JSON-safe payload as its JSON text,
keyed by the opaque string keys of :mod:`repro.serving.fingerprint`:

* :class:`InMemoryLRUCache` — a bounded, process-local LRU; the default.
* :class:`SQLiteCache` — a SQLite table, so calibrations survive process
  restarts and are shared by every process that opens the same file (the
  "warm start a new server replica" path).

Storing text is what keeps entries immutable without copying them:
``put`` encodes the payload before it touches storage, so the caller's
object stays detached and a payload that is not JSON-safe is refused with
nothing stored; ``get`` decodes a fresh object on every hit, so a caller
mutating what it got (``mechanism.warm_start`` receives the payload's
``"state"``) cannot corrupt the entry the next caller reads.

:class:`CalibrationCache` ties a backend to the key construction and tracks
hit/miss statistics.  It never invents keys: a calibration is only ever
returned for exactly the (mechanism fingerprint, query signature, data
signature, epsilon) combination it was computed under — see
``docs/architecture.md`` for why anything looser would be a privacy bug.
A mechanism already holding an entry's state is not handed it again: the
front-end remembers, per mechanism object, the key parts of the last entry
it handed over or computed, and answers a lookup with equal parts from a
copy of the calibration alone while the mechanism still holds that state;
only a lookup with other parts hashes its key.
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
import weakref
from abc import ABC, abstractmethod
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable

from repro.core.laplace import Calibration, Mechanism
from repro.core.queries import Query
from repro.exceptions import ValidationError
from repro.faults import fire
from repro.serving.fingerprint import _kept_parts, _key_parts, _same_parts, cache_key
from repro.utils.sqlite import open_in_wal_mode


class CacheBackend(ABC):
    """Minimal key-value store for JSON-safe calibration payloads."""

    @abstractmethod
    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload, or ``None`` on a miss."""

    @abstractmethod
    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Store (or overwrite) one payload.  A payload that is not JSON-safe
        raises ``TypeError`` and stores nothing."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored entries."""


class InMemoryLRUCache(CacheBackend):
    """Bounded in-memory LRU backend (thread-safe).

    Parameters
    ----------
    max_entries:
        Eviction threshold.  An entry is a scale, its diagnostics and the
        mechanism's warm-start state, which grows with the network: 5.6 KB
        of JSON for the 200-node ``household_blocks(20, 10)`` network, so
        4096 such entries hold about 23 MB.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValidationError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[str, str] = OrderedDict()  # key -> JSON text
        self._lock = threading.Lock()

    def get(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            text = self._entries.get(key)
            if text is None:
                return None
            self._entries.move_to_end(key)
        return json.loads(text)

    def put(self, key: str, payload: dict[str, Any]) -> None:
        text = json.dumps(payload)
        with self._lock:
            self._entries[key] = text
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class SQLiteCache(CacheBackend):
    """Durable backend: a WAL-mode SQLite table, one row per entry.

    ``put`` is one upsert and ``get`` one SELECT, so every process that
    opens the same file sees each entry any of them committed, and
    SQLite's own lock serializes writers across threads and processes —
    no writer can lose another's entry.  Commits run at
    ``synchronous=NORMAL``: a power loss may undo the last commits, which
    costs one recomputation each, never a wrong answer, because entries
    are content-keyed and deterministic.  One connection per instance,
    serialized by a thread lock.
    """

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS calibrations (
            key     TEXT PRIMARY KEY,
            payload TEXT NOT NULL
        )
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # Autocommit mode: each statement is its own transaction.
        self._conn = sqlite3.connect(
            str(self.path), isolation_level=None, check_same_thread=False
        )
        try:
            open_in_wal_mode(self._conn)
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(self._SCHEMA)
        except sqlite3.OperationalError:
            self._conn.close()
            raise
        except sqlite3.DatabaseError as error:  # not a database, or corrupt
            self._conn.close()
            raise ValidationError(
                f"calibration cache {self.path} is not a SQLite database: {error}"
            ) from error

    def get(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM calibrations WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else json.loads(row[0])

    def put(self, key: str, payload: dict[str, Any]) -> None:
        text = json.dumps(payload)
        with self._lock:
            fire("cache.sqlite.commit", path=str(self.path))
            self._conn.execute(
                "INSERT INTO calibrations (key, payload) VALUES (?, ?) "
                "ON CONFLICT (key) DO UPDATE SET payload = excluded.payload",
                (key, text),
            )

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM calibrations").fetchone()[0]


class CalibrationCache:
    """Keyed front-end: memoizes :meth:`Mechanism.calibrate` results.

    Parameters
    ----------
    backend:
        Where payloads live; defaults to a fresh :class:`InMemoryLRUCache`.

    Attributes
    ----------
    hits, misses:
        Lookup statistics since construction.
        The engine shares one cache across service worker threads, so the
        counters are mutated under a dedicated lock — unlocked ``+= 1``
        read-modify-writes drift under load and make ``hit_rate`` lie.

    :guarded: hits, misses, _handed
    """

    def __init__(self, backend: CacheBackend | None = None) -> None:
        self.backend = backend if backend is not None else InMemoryLRUCache()
        self._stats_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: mechanism -> ``(kept key parts, state holder, calibration)`` of the
        #: entry whose state it last received or computed (see
        #: :meth:`~repro.core.laplace.Mechanism.calibration_state_holder`);
        #: a slot dies with its mechanism.
        self._handed: weakref.WeakKeyDictionary[Mechanism, tuple[tuple, Any, Calibration]] = (
            weakref.WeakKeyDictionary()
        )

    def key_for(self, mechanism: Mechanism, query: Query, data: Any) -> str:
        """The cache key this triple resolves to (exposed for testing)."""
        return cache_key(mechanism, query, data)

    def get_or_compute(
        self,
        mechanism: Mechanism,
        query: Query,
        data: Any,
        compute: "Callable[[], Calibration] | None" = None,
    ) -> tuple[Calibration, bool]:
        """``(calibration, was_hit)`` — computing and storing on a miss.

        On a hit, a mechanism exposing ``warm_start`` is handed the stored
        internal state (the per-length sigma tables of the chain mechanisms,
        the per-node quilt-search results of the general MQM, the ``W``
        bounds of the Wasserstein Mechanism), so even its *direct*
        ``noise_scale`` calls become lookups afterwards.  On a miss, the
        mechanism's exported state rides along with the payload.

        The state is handed to a mechanism once per key: when a lookup's key
        parts (what :func:`~repro.serving.fingerprint.cache_key` hashes,
        before salting) match, exactly as their ``repr`` would, those of
        the entry this cache last handed that mechanism (or computed on
        it), and the mechanism still holds that state, the hit hashes no
        key, reads neither the backend nor calls ``warm_start``, and
        returns a copy of the remembered
        :class:`Calibration` with new ``details`` dicts and lists.  That is
        exact because entries are content-keyed and deterministic and
        ``warm_start`` only merges, so the mechanism already holds
        everything the entry would restore.  Any other parts hash their key
        (:meth:`key_for`), take the full path and replace the slot.  A
        mechanism can lose its state and get the key back: the general MQM
        through an in-place edit since reverted or a ``quilt_sets``
        reassignment to equal content, any mechanism through a parameter
        reassigned and then restored.  Its
        :meth:`~repro.core.laplace.Mechanism.calibration_state_holder` is
        then a new object, and the hit hands the state over again instead
        of leaving the next release to re-run the search.

        A row whose ``scale`` is a bool, not a number, negative or not
        finite raises :class:`~repro.exceptions.ValidationError`, as does
        state the mechanism's ``warm_start`` refuses; neither counts as a
        hit.  A scale of 0.0 is legal (the no-noise baselines calibrate to
        it), so a row corrupted to 0.0 cannot be told from one.

        ``compute`` overrides how the miss is filled (the engine passes the
        sharded :class:`~repro.parallel.ParallelCalibrator` path here); it
        must produce the same calibration — and leave the mechanism in the
        same warm state — as ``mechanism.calibrate`` would, which the
        parallel calibrator guarantees bit-for-bit.
        """
        parts = _key_parts(mechanism, query, data)
        holder = mechanism.calibration_state_holder()
        with self._stats_lock:
            slot = self._handed.get(mechanism)
            handed = slot is not None and slot[1] is holder and _same_parts(parts, slot[0])
            if handed:
                self.hits += 1
        if handed:
            return _copy_of(slot[2]), True
        key = self.key_for(mechanism, query, data)
        payload = self.backend.get(key)
        if payload is not None:
            calibration = _checked_calibration(payload)
            state = payload.pop("state", None)
            if state and hasattr(mechanism, "warm_start"):
                mechanism.warm_start(state)
            kept = _copy_of(calibration)
            holder = mechanism.calibration_state_holder()
            with self._stats_lock:
                self.hits += 1
                self._handed[mechanism] = (_kept_parts(parts), holder, kept)
            return calibration, True
        with self._stats_lock:
            self.misses += 1
        calibration = compute() if compute is not None else mechanism.calibrate(query, data)
        stored = calibration.to_payload()
        # What a backend hit would decode, so later hits return the same.
        kept = Calibration.from_payload(json.loads(json.dumps(stored)))
        if hasattr(mechanism, "export_calibration_state"):
            stored["state"] = mechanism.export_calibration_state()
        self.backend.put(key, stored)
        holder = mechanism.calibration_state_holder()
        with self._stats_lock:
            self._handed[mechanism] = (_kept_parts(parts), holder, kept)
        return calibration, False

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        with self._stats_lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self.backend)


def _copy_of(calibration: Calibration) -> Calibration:
    """An equal calibration with new ``details`` dicts and lists, so a
    caller mutating what it got cannot change what the next one gets."""
    return Calibration(
        calibration.scale, calibration.epsilon, calibration.mechanism,
        _copied(calibration.details),
    )


def _copied(value: Any) -> Any:
    """A copy of a decoded JSON value: new dicts and lists, the same
    (immutable) scalars."""
    if type(value) is dict:
        return {key: _copied(item) for key, item in value.items()}
    if type(value) is list:
        return [_copied(item) for item in value]
    return value


def _checked_calibration(payload: dict[str, Any]) -> Calibration:
    """The calibration a stored payload holds, refusing a ``scale`` that no
    calibration produces: a bool, a non-number, a negative or a non-finite
    value would otherwise become the noise scale of every release served
    from the row."""
    scale = payload.get("scale")
    if (
        isinstance(scale, bool)
        or not isinstance(scale, (int, float))
        or not 0.0 <= scale < math.inf
    ):
        raise ValidationError(
            f"cached calibration scale {scale!r} is not a finite non-negative number"
        )
    return Calibration.from_payload(payload)
