"""Cache-key construction for the serving layer.

A calibration is reusable exactly when *everything the noise scale depends
on* is unchanged: the mechanism (with its distribution class Theta, its
epsilon, and any search knobs), the query, and the shape of the data the
chain mechanisms calibrate against (the multiset of segment lengths — never
the record values, which the scale computation must not read).  This module
turns those four components into a stable string key.

Design rule (see ``docs/architecture.md`` for the full ADR): **an over-coarse
key is a privacy bug, an over-fine key is only a cache miss.**  Every
fallback in this module therefore errs toward uniqueness:

* mechanisms without a content-based :meth:`~repro.core.laplace.Mechanism.
  calibration_fingerprint` fingerprint as their instance identity, salted
  with a per-process token so entries can never be confused across processes
  sharing one on-disk cache;
* queries wrapping anonymous callables include ``id(func)`` in their
  signature (two different lambdas never alias);
* datasets fingerprint as their full sorted length multiset, which every
  mechanism's scale computation is invariant to, even though most read less.
"""

from __future__ import annotations

import hashlib
import math
import operator
import uuid
from typing import Any

import numpy as np

from repro.core.laplace import Mechanism
from repro.core.queries import Query, signature_is_process_local

#: Per-process salt for identity-based (non-content) fingerprints.  Two
#: processes writing to one shared JSON cache can therefore never alias each
#: other's uncacheable-by-content mechanisms.
_PROCESS_SALT = uuid.uuid4().hex


def mechanism_fingerprint(mechanism: Mechanism) -> tuple:
    """The mechanism component of a cache key.

    Uses the mechanism's own :meth:`~repro.core.laplace.Mechanism.
    calibration_fingerprint`.  The base-class implementation embeds
    ``id(self)``; to keep that safe across interpreter lifetimes (ids are
    reused after garbage collection only for *dead* objects, but a JSON cache
    outlives the process) the per-process salt is appended whenever an
    ``("instance", ...)`` marker is present.
    """
    return _salted_fingerprint(mechanism.calibration_fingerprint())


def _salted_fingerprint(fingerprint: tuple) -> tuple:
    if any(
        isinstance(part, tuple) and part and part[0] == "instance" for part in fingerprint
    ):
        fingerprint = fingerprint + (("process", _PROCESS_SALT),)
    return fingerprint


def query_signature(query: Query) -> tuple:
    """The query component of a cache key (see :meth:`Query.signature`)."""
    return _salted_signature(query.signature())


def _salted_signature(signature: tuple) -> tuple:
    # Signatures containing anonymous-callable tokens (tagged ``("id", ...)``
    # by the query layer) are process-local; salt them so a shared on-disk
    # cache cannot alias them either.
    if signature_is_process_local(signature):
        signature = signature + (("process", _PROCESS_SALT),)
    return signature


def data_signature(data: Any) -> tuple:
    """The data-shape component of a cache key.

    Noise scales in this library depend on the data only through its segment
    structure: MQM reads the set of segment lengths, GroupDP the longest
    segment, the DP baselines and the Wasserstein Mechanism nothing at all.
    Fingerprinting the full sorted length multiset is therefore always
    sufficient (never under-keys any mechanism) at worst costing misses for
    mechanisms that read less.
    """
    lengths = getattr(data, "segment_lengths", None)
    if lengths:
        return ("segments", tuple(sorted(int(n) for n in lengths)))
    return ("array", int(np.asarray(data).size))


def cache_key(mechanism: Mechanism, query: Query, data: Any) -> str:
    """Deterministic string key for one (mechanism, query, data) triple.

    Epsilon is part of every mechanism fingerprint but is appended once more
    explicitly — the cost is zero and it makes the "epsilon changed, so the
    entry missed" property independent of any subclass's fingerprint
    discipline.
    """
    fingerprint, signature, shape, epsilon = _key_parts(mechanism, query, data)
    parts = (_salted_fingerprint(fingerprint), _salted_signature(signature), shape, epsilon)
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _key_parts(mechanism: Mechanism, query: Query, data: Any) -> tuple:
    """The four parts :func:`cache_key` hashes, before salting."""
    return (
        mechanism.calibration_fingerprint(),
        query.signature(),
        data_signature(data),
        float(mechanism.epsilon),
    )


def _kept_parts(value: Any) -> Any:
    """``value`` as a cache slot keeps it for :func:`_same_parts`: tuples
    leaf by leaf, a leaf of a :data:`_PLAIN` type as it is, and any other
    leaf as its ``repr`` now, the only thing :func:`cache_key` reads of it,
    so an object changed in place later cannot match its old self."""
    kind = type(value)
    if kind is tuple:
        kept = tuple(map(_kept_parts, value))
        # The tuple itself when all of it is kept as it is, so a memoized
        # part matches the next lookup's by identity.
        return value if all(map(operator.is_, kept, value)) else kept
    return value if kind in _PLAIN else _Repr(repr(value))


def _same_parts(live: tuple, kept: tuple) -> bool:
    """Whether :func:`_key_parts` ``live`` have, leaf by leaf, the ``repr``
    of parts kept by :func:`_kept_parts`, decided without building it.
    Salting reads only what a ``repr`` shows, so matching parts get one
    key.  Tuple ``==`` alone would be coarser: it equates ``1``, ``1.0``
    and ``True``, and ``0.0`` with ``-0.0``.  The data signature is the
    exception: :func:`data_signature` builds it from ``str`` literals and
    ``int`` values only, where ``==`` is exact."""
    return (
        live[2] == kept[2]
        and _same(live[3], kept[3])
        and _same(live[1], kept[1])
        and _same(live[0], kept[0])
    )


def _same(live: Any, kept: Any) -> bool:
    if live is kept:
        return True
    kind = type(live)
    if kind is not type(kept):
        return type(kept) is _Repr and repr(live) == kept
    if kind is tuple:
        if len(live) != len(kept):
            return False
        for a, b in zip(live, kept):
            if a is not b and not _same(a, b):
                return False
        return True
    if kind is float:
        # A ``nan`` matches only itself, above: any other is a miss.
        return live == kept and math.copysign(1.0, live) == math.copysign(1.0, kept)
    return live == kept


#: Leaf types a slot keeps as they are: immutable, and equal values of one
#: exact type among them have one ``repr``, except ``0.0`` and ``-0.0``.
_PLAIN = (str, int, bool, float, type(None))


class _Repr(str):
    """A kept leaf of a type not in :data:`_PLAIN`: its ``repr``."""
