"""Shard decomposition for parallel calibration.

The two calibrations this package shards are each a maximum (or a
dictionary) of *independent* sub-computations:

* ``MQMExact.sigma_max`` maximizes ``_sigma_for_chain`` over ``(chain index,
  segment length)`` pairs — each pair is one quilt search (Algorithm 3);
* ``MarkovQuiltMechanism.sigma_max`` (Algorithm 2, general networks)
  maximizes ``sigma_for_node`` over the nodes — each node is one quilt
  search whose max-influence kernels run on the worker's own
  :mod:`repro.inference` variable-elimination engine (networks pickle as
  their CPD arrays; the engine plan is rebuilt from the fingerprint-keyed
  registry on first use, so shard payloads stay small).  Candidate sets are
  pruned per node by :func:`per_node_general_shard`, which ships the exact
  lists the serial search walks — whether they came from the default
  distance shells or a :mod:`repro.distributions.structured` generator —
  and strips the (possibly unpicklable) generator strategy itself.  The
  clone is a ``copy.copy``, so subclasses ride along unchanged: a
  :class:`~repro.core.gaussian.GaussianMarkovQuiltMechanism` shard carries
  the subclass (with its ``delta`` and Gaussian ``_quilt_score``) and the
  worker's per-node search is the Gaussian one, bit-identically.

A multi-mechanism run (``ParallelCalibrator.calibrate_many``) also ships
each mechanism's whole calibration as one shard.

This module turns each of those computations into a :class:`Shard` — a
picklable, self-contained work item — plus a module-level :func:`run_shard`
dispatcher that a ``ProcessPoolExecutor`` worker (or the in-process serial
fallback) executes.  Determinism rule: a shard runs *exactly the code the
serial path runs* on *exactly the inputs the serial path passes*, so every
shard value is bit-identical to the serial intermediate, and the merge
operations (float ``max`` and dictionary fill-in) are order-insensitive —
which is what makes the parallel calibration bit-identical end to end (see
``docs/architecture.md``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import ValidationError

#: Shard kinds understood by :func:`run_shard`.
KIND_MQM_EXACT = "mqm-exact-chain-length"
KIND_MQM_GENERAL = "mqm-general-node"
KIND_CALIBRATION = "mechanism-calibration"

_KNOWN_KINDS = frozenset({KIND_MQM_EXACT, KIND_MQM_GENERAL, KIND_CALIBRATION})


@dataclass(frozen=True)
class Shard:
    """One independent unit of calibration work.

    Attributes
    ----------
    kind:
        Dispatch tag (one of the ``KIND_*`` constants).
    key:
        Merge key the parent uses to place the result — e.g. the segment
        length for a per-length shard, the node for a per-node shard.
    payload:
        Everything the worker needs, picklable.  Mechanism objects are
        shipped as copies, which carry no memoized results (see
        :meth:`repro.core.laplace.Mechanism.__getstate__`), so the pickled
        payload stays small.
    """

    kind: str
    key: Any
    payload: tuple

    def __post_init__(self) -> None:
        if self.kind not in _KNOWN_KINDS:
            raise ValidationError(f"unknown shard kind {self.kind!r}")


@dataclass(frozen=True)
class ShardResult:
    """The outcome of one shard: ``(kind, key, value)``.

    ``value`` is JSON-safe for the float-valued kinds; the
    ``mechanism-calibration`` kind carries ``(calibration_payload, state)``
    dictionaries (the exact objects the serving cache stores).
    """

    kind: str
    key: Any
    value: Any


def run_shard(shard: Shard) -> ShardResult:
    """Execute one shard; runs in a worker process or inline (serial
    fallback) — both paths produce the identical value by construction."""
    if shard.kind == KIND_MQM_EXACT:
        # The chain rides in the payload (chains pickle as their two small
        # arrays) so workers never re-enumerate the family; the index is the
        # serial enumeration position, used only for table-cache keying.
        mechanism, chain, chain_index, length = shard.payload
        value = float(mechanism._sigma_for_chain(chain_index, chain, length))
        return ShardResult(shard.kind, shard.key, value)
    if shard.kind == KIND_MQM_GENERAL:
        # One node's quilt search (Definition 4.5).  The worker resolves the
        # networks through its own engine registry, so repeated shards for
        # one Theta share factors and elimination orders within the process.
        mechanism, node = shard.payload
        sigma, quilt = mechanism.sigma_for_node(node)
        return ShardResult(shard.kind, shard.key, (float(sigma), quilt))
    if shard.kind == KIND_CALIBRATION:
        mechanism, query, data = shard.payload
        calibration = mechanism.calibrate(query, data)
        state = (
            mechanism.export_calibration_state()
            if hasattr(mechanism, "export_calibration_state")
            else None
        )
        return ShardResult(shard.kind, shard.key, (calibration.to_payload(), state))
    raise ValidationError(f"unknown shard kind {shard.kind!r}")  # pragma: no cover


def per_node_general_shard(template: Any, node: str, candidates: Any) -> Shard:
    """One Algorithm 2 node shard carrying only that node's quilt candidates.

    ``template`` is a copy of a :class:`~repro.core.markov_quilt.
    MarkovQuiltMechanism`; ``candidates`` is the **exact** candidate
    list the serial search would walk for ``node`` (shared object identity
    with the parent's ``quilt_sets`` entry), so the worker's
    ``sigma_for_node`` is bit-identical to the serial one by construction —
    this holds for the default distance shells and for every
    :mod:`repro.distributions.structured` generator alike, because the
    generator already ran in the parent's ``__init__`` and the materialized
    quilts are all a worker needs.  Pruning to one node keeps total payload
    volume linear in node count (shipping the full map in every shard would
    be quadratic), and the clone drops the generator strategy object itself:
    a user-supplied generator may be an unpicklable closure, which would
    otherwise force the entire plan inline for no reason.  Like every copy
    of a mechanism, the clone carries no per-node results.
    """
    clone = copy.copy(template)
    clone.quilt_sets = {node: list(candidates)}
    clone.quilt_generator = None
    return Shard(KIND_MQM_GENERAL, node, (clone, node))


def segment_lengths_of(data: Any) -> tuple[int, ...]:
    """The multiset of segment lengths a chain mechanism calibrates against
    — the same rule ``noise_scale`` applies (``segment_lengths`` attribute,
    else the flat array size)."""
    lengths = getattr(data, "segment_lengths", None)
    if lengths:
        return tuple(int(n) for n in lengths)
    return (int(np.asarray(data).size),)
