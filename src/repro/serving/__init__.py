"""Serving layer: calibrate once, release many.

This package adapts the paper's one-shot mechanisms to a serving workload
(fixed instantiation, heavy release traffic) — the operational setting that
the composition literature on Pufferfish privacy treats as central.

* :class:`PrivacyEngine` — wraps any mechanism; cached calibration, batched
  vectorized releases, streaming sessions, enforced epsilon budget.
* :class:`ReleaseSession` — incremental (streamed) releases with per-value
  atomic budget accounting and one noise draw per chunk (see
  :mod:`repro.serving.stream`).
* :class:`CalibrationCache` — memoizes noise-scale computations, keyed on
  content fingerprints (see :mod:`repro.serving.fingerprint`).
* Backends: :class:`InMemoryLRUCache` (default) and :class:`SQLiteCache`
  (persists calibrations across processes).
"""

from repro.serving.cache import (
    CacheBackend,
    CalibrationCache,
    InMemoryLRUCache,
    SQLiteCache,
)
from repro.serving.engine import PrivacyEngine
from repro.serving.fingerprint import (
    cache_key,
    data_signature,
    mechanism_fingerprint,
    query_signature,
)
from repro.serving.stream import ReleaseSession

__all__ = [
    "CacheBackend",
    "CalibrationCache",
    "InMemoryLRUCache",
    "PrivacyEngine",
    "ReleaseSession",
    "SQLiteCache",
    "cache_key",
    "data_signature",
    "mechanism_fingerprint",
    "query_signature",
]
