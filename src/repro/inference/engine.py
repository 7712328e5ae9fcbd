"""Variable-elimination engine for discrete Bayesian networks.

The general Markov Quilt Mechanism (Algorithm 2) needs ``P(X_Q | X_i = a)``
for every quilt candidate and every secret value — at the seed this was
computed by enumerating the full joint (capped at
:data:`~repro.distributions.bayesnet.MAX_JOINT_SIZE` assignments) in Python
loops, once per conditioning value.  This engine replaces enumeration with
**sum-product variable elimination** over the network's CPD factors:

* each query touches only the factors relevant to it (evidence is sliced in
  before any multiplication),
* elimination follows a **min-fill** order over the moralized factor graph,
  memoized per query shape,
* all products and marginalizations run as ``np.einsum`` contractions
  (:func:`repro.inference.factor.contract`),
* each bucket's message is memoized under the exact inputs of its
  contraction, so the quilt candidates of a search — which share most of
  their elimination work — contract each distinct bucket once; a hit
  returns the very floats a recomputation would,
* :meth:`InferenceEngine.conditional_tables` answers the mechanism's inner
  loop *batched*: one ``(k_node, *target_shape)`` tensor holding
  ``P(targets | node = v)`` for every ``v`` at once, from a single
  elimination run — instead of one dict per conditioning value.

Cost scales with the induced width of the elimination order, not the joint
size, so networks far beyond the enumeration cap are exact-inference
feasible (a 2^24-assignment chain runs in milliseconds).

Engines are memoized per network **content fingerprint** through
:func:`engine_for` — the same keying discipline as the serving layer's
calibration cache — so repeated queries against equal networks (including a
pickled copy in a parallel-calibration worker: shards carry networks, and
the worker's registry rebuilds the engine plan on first use) share factors,
orders, and cached marginals.
"""

from __future__ import annotations

import itertools
import operator
import threading
from collections import OrderedDict
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.inference.factor import Factor, contract

#: Engines retained in the per-process registry (LRU by network fingerprint).
MAX_CACHED_ENGINES = 64

#: Batched conditional tensors retained per engine (LRU by query shape).
MAX_CACHED_TABLES = 128

#: Cells of elimination messages retained per engine (LRU; 2^17 float64
#: cells is 1 MiB).  A message is retained only if it fills at most 1/64 of
#: the bound, so the memo always has room for 64 of them: a wide message
#: belongs to the last buckets of one query and hardly ever repeats, while
#: it would evict dozens of small ones that every candidate shares.
MAX_MESSAGE_CELLS = 1 << 17


class InferenceEngine:
    """Sum-product inference over one fixed network.

    The engine reads the network's structure and CPDs once at construction;
    it never mutates the network and is unaffected by (and unaware of) later
    ``add_node`` calls — :func:`engine_for` keys on the content fingerprint,
    so a grown network simply resolves to a fresh engine.

    Registry engines are shared by threads: message ids come from one
    atomic counter, and the message memo and the table cache change only
    under the engine's lock.
    """

    def __init__(self, network) -> None:
        self.nodes: tuple[str, ...] = tuple(network.nodes)
        self._states: dict[str, int] = {n: int(network.n_states(n)) for n in self.nodes}
        self._position: dict[str, int] = {n: i for i, n in enumerate(self.nodes)}
        self._parents: dict[str, tuple[str, ...]] = {
            n: tuple(network.parents(n)) for n in self.nodes
        }
        self._factors: tuple[Factor, ...] = tuple(
            Factor(self._parents[n] + (n,), network.cpd(n)) for n in self.nodes
        )
        self._factor_of: dict[str, Factor] = dict(zip(self.nodes, self._factors))
        self.fingerprint: str = network.fingerprint()
        self._order_cache: dict[tuple[frozenset, frozenset], tuple[str, ...]] = {}
        self._closure_cache: dict[frozenset, frozenset] = {}
        self._marginal_cache: dict[str, np.ndarray] = {}
        self._table_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        # (eliminated variable, input ids) -> (message id, message).
        self._messages: "OrderedDict[tuple, tuple[int, Factor]]" = OrderedDict()
        self._message_cells = 0
        self._message_ids = itertools.count()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------
    def n_states(self, name: str) -> int:
        """Number of states of ``name``."""
        return self._states[name]

    def marginal_of(self, node: str) -> np.ndarray:
        """Marginal distribution of one node (cached).

        Matches the enumeration oracle's convention: the returned vector is
        the summed joint mass, not re-normalized (it sums to 1 up to float
        round-off because every CPD row does).
        """
        if node not in self._marginal_cache:
            self._check_nodes((node,))
            self._marginal_cache[node] = self._eliminate((node,), {}).table.copy()
        return self._marginal_cache[node].copy()

    def marginals_given(
        self, targets: Sequence[str], given: Mapping[str, int]
    ) -> np.ndarray:
        """``P(targets | given)`` as a tensor over the target axes.

        ``targets`` must be distinct and disjoint from ``given``.  Raises
        :class:`~repro.exceptions.ValidationError` when the conditioning
        event has zero probability — the same error (and message shape) the
        enumeration path produced.
        """
        targets = tuple(targets)
        if len(set(targets)) != len(targets):
            raise ValidationError(f"targets must be distinct, got {targets!r}")
        overlap = [t for t in targets if t in given]
        if overlap:
            raise ValidationError(
                f"targets {overlap!r} also appear in the evidence; "
                "condition on them via `given` only"
            )
        self._check_nodes(targets)
        evidence = self._check_evidence(given)
        joint = self._eliminate(targets, evidence).table
        total = float(joint.sum())
        if total <= 0.0:
            raise ValidationError(
                f"conditioning event {dict(given)!r} has zero probability"
            )
        return joint / total

    def conditional_table(
        self, targets: Sequence[str], given: Mapping[str, int]
    ) -> dict[tuple[int, ...], float]:
        """``P(targets = . | given)`` in the enumeration oracle's dict shape.

        Target names may repeat and may appear in ``given`` (their value is
        then pinned), exactly as the legacy
        ``DiscreteBayesianNetwork.conditional_table`` accepted; every
        evidence-consistent target combination is present as a key, including
        zero-probability ones.
        """
        targets = tuple(targets)
        free = tuple(dict.fromkeys(t for t in targets if t not in given))
        tensor = self.marginals_given(free, given)
        free_index = {name: axis for axis, name in enumerate(free)}
        table: dict[tuple[int, ...], float] = {}
        for idx in np.ndindex(tensor.shape):
            key = tuple(
                int(given[t]) if t in given else int(idx[free_index[t]]) for t in targets
            )
            table[key] = float(tensor[idx])
        return table

    def conditional_tables(self, targets: Sequence[str], node: str) -> np.ndarray:
        """Batched conditionals: ``out[v]`` is ``P(targets | node = v)``.

        One elimination run produces the whole ``(k_node, *target_shape)``
        tensor — the kernel behind :func:`repro.core.markov_quilt.
        max_influence`.  Rows for node values with zero marginal probability
        (conditional undefined) are filled with ``np.nan``; callers restrict
        to the supported values, as Definition 2.1 does.
        """
        targets = tuple(targets)
        if node in targets:
            raise ValidationError(f"conditioning node {node!r} cannot be a target")
        if len(set(targets)) != len(targets):
            raise ValidationError(f"targets must be distinct, got {targets!r}")
        key = (targets, node)
        with self._lock:
            cached = self._table_cache.get(key)
            if cached is not None:
                self._table_cache.move_to_end(key)
                return cached
        self._check_nodes(targets + (node,))
        joint = self._eliminate(targets + (node,), {}).table
        # Move the node axis first: joint axes are (targets..., node).
        joint = np.moveaxis(joint, -1, 0)
        totals = joint.reshape(joint.shape[0], -1).sum(axis=1)
        out = np.full(joint.shape, np.nan)
        positive = totals > 0.0
        out[positive] = joint[positive] / totals[positive].reshape(
            (-1,) + (1,) * (joint.ndim - 1)
        )
        # The cached tensor is handed out without copying (it can be large
        # and every consumer only reads it); freeze it so an accidental
        # caller mutation raises instead of corrupting the registry-shared
        # engine — a silently wrong conditional here would mis-calibrate
        # every later max_influence on an equal-content network.
        out.flags.writeable = False
        with self._lock:
            self._table_cache[key] = out
            while len(self._table_cache) > MAX_CACHED_TABLES:
                self._table_cache.popitem(last=False)
        return out

    # ------------------------------------------------------------------
    # Elimination core
    # ------------------------------------------------------------------
    def _check_nodes(self, names: Sequence[str]) -> None:
        unknown = [n for n in names if n not in self._states]
        if unknown:
            raise ValidationError(f"unknown node(s) {unknown!r}")

    def _check_evidence(self, given: Mapping[str, int]) -> dict[str, int]:
        """``given`` with every value checked to be an integral state."""
        self._check_nodes(tuple(given))
        evidence: dict[str, int] = {}
        for name, value in given.items():
            try:
                state = operator.index(value)
            except TypeError:
                raise ValidationError(
                    f"evidence {name}={value!r} is not an integral state index"
                ) from None
            if not 0 <= state < self._states[name]:
                # An out-of-range state has probability zero by definition —
                # surface it as the zero-probability conditioning error the
                # enumeration path raised for the same input.
                raise ValidationError(
                    f"conditioning event {dict(given)!r} has zero probability"
                )
            evidence[name] = state
        return evidence

    def _ancestral_closure(self, seed: frozenset) -> frozenset:
        """``seed`` plus every DAG ancestor of a seed node (memoized).

        Nodes outside this closure are *barren* for a query over ``seed``:
        marginalizing them out contributes an exact factor of 1.  Pruning
        them before elimination means a query's float result depends only
        on the CPDs of the closure — so an edit anywhere else in the network
        leaves the query's answer **bit-identical**, which is the invariant
        the temporal incremental-recalibration path relies on.
        """
        cached = self._closure_cache.get(seed)
        if cached is not None:
            return cached
        closure = set(seed)
        frontier = list(seed)
        while frontier:
            for parent in self._parents[frontier.pop()]:
                if parent not in closure:
                    closure.add(parent)
                    frontier.append(parent)
        result = frozenset(closure)
        self._closure_cache[seed] = result
        return result

    def _eliminate(self, keep: tuple[str, ...], evidence: Mapping[str, int]) -> Factor:
        """Unnormalized ``sum_{others} P(X) * 1[evidence]`` over the kept axes.

        ``evidence`` maps names to checked integral states.  Every factor
        carries an id: a CPD's is its node plus its pinned evidence, a
        message's is minted when it is computed.  A bucket's message is
        memoized under ``(variable, ids of its inputs in order)``; equal keys
        name the same ``contract`` of the same arrays in the same operand
        order, so a hit returns exactly the floats recomputing would.
        """
        relevant = self._ancestral_closure(frozenset(keep) | frozenset(evidence))
        factors: list[tuple[Hashable, Factor]] = []
        scalar = 1.0
        # Nodes outside the closure are barren: they sum out to exactly 1.
        for name in sorted(relevant, key=self._position.__getitem__):
            factor = self._factor_of[name]
            pins = ()
            if evidence:
                pins = tuple((v, evidence[v]) for v in factor.variables if v in evidence)
            for var, value in pins:
                factor = factor.restrict(var, value)
            if factor.is_scalar:
                scalar *= factor.scalar()
            else:
                factors.append((name if not pins else (name, pins), factor))
        for var in self._elimination_order(
            frozenset(keep), frozenset(evidence), [f for _, f in factors]
        ):
            bucket = [entry for entry in factors if var in entry[1].variables]
            if not bucket:
                continue
            factors = [entry for entry in factors if var not in entry[1].variables]
            ident, reduced = self._message(var, bucket)
            if reduced.is_scalar:
                scalar *= reduced.scalar()
            else:
                factors.append((ident, reduced))
        if not factors:
            return Factor((), np.asarray(scalar))
        result = contract([f for _, f in factors], keep)
        return Factor(keep, result.table * scalar)

    def _message(
        self, var: str, bucket: list[tuple[Hashable, Factor]]
    ) -> tuple[int, Factor]:
        """The bucket's product with ``var`` summed out, memoized (LRU by
        cells, at most :data:`MAX_MESSAGE_CELLS`)."""
        key = (var, tuple(ident for ident, _ in bucket))
        with self._lock:
            hit = self._messages.get(key)
            if hit is not None:
                self._messages.move_to_end(key)
                return hit
        scope: set[str] = set()
        for _, factor in bucket:
            scope.update(factor.variables)
        scope.discard(var)
        reduced = contract(
            [f for _, f in bucket], sorted(scope, key=self._position.__getitem__)
        )
        reduced.table.flags.writeable = False
        entry = (next(self._message_ids), reduced)
        cells = reduced.table.size
        with self._lock:
            hit = self._messages.get(key)
            if hit is not None:  # another thread computed it meanwhile
                return hit
            if cells <= MAX_MESSAGE_CELLS // 64:
                self._messages[key] = entry
                self._message_cells += cells
                while self._message_cells > MAX_MESSAGE_CELLS:
                    _, (_, evicted) = self._messages.popitem(last=False)
                    self._message_cells -= evicted.table.size
        return entry

    def _elimination_order(
        self, keep: frozenset, removed: frozenset, factors: Sequence[Factor]
    ) -> tuple[str, ...]:
        """Min-fill order over the moralized factor graph (memoized).

        ``removed`` is the evidence set (its variables are sliced out of
        every scope before elimination, so they never appear in the graph).
        ``factors`` is the barren-pruned, evidence-restricted factor list —
        the memo key stays ``(keep, removed)`` because the pruned set is a
        pure function of it.  Ties break by current degree, then by
        topological position, making the order — and therefore the exact
        float reassociation of every contraction — deterministic across
        runs and processes.

        The graph is held as integer bitsets, one adjacency mask per
        variable.  Eliminating ``v`` changes the neighbourhood of ``v``'s
        neighbours and can join two neighbours of their neighbours, so only
        ``v``'s neighbours and the variables with two neighbours among them
        are re-keyed; every other key stands.  The key is a total
        order (positions are distinct), so the order is the one re-keying
        every variable at every step would pick.
        """
        cache_key = (keep, removed)
        cached = self._order_cache.get(cache_key)
        if cached is not None:
            return cached
        index: dict[str, int] = {}
        scopes: list[int] = []
        for factor in factors:
            scope = 0
            for var in factor.variables:
                if var not in removed:
                    scope |= 1 << index.setdefault(var, len(index))
            scopes.append(scope)
        names = list(index)
        adjacency = [0] * len(names)
        for scope in scopes:
            for i in _bits(scope):
                adjacency[i] |= scope
        for i in range(len(names)):
            adjacency[i] &= ~(1 << i)
        position = [self._position[name] for name in names]

        def key(i: int) -> tuple[int, int, int]:
            adjacent = adjacency[i]
            degree = adjacent.bit_count()
            # Per neighbour j, the neighbours j is not adjacent to (j itself
            # included, hence ``- degree``): each missing pair counts twice.
            missing = -degree
            rest = adjacent
            while rest:
                low = rest & -rest
                missing += (adjacent & ~adjacency[low.bit_length() - 1]).bit_count()
                rest ^= low
            return (missing // 2, degree, position[i])

        keys = {i: key(i) for i, name in enumerate(names) if name not in keep}
        order: list[str] = []
        while keys:
            best = min(keys, key=keys.__getitem__)
            del keys[best]
            adjacent = adjacency[best]
            beyond = 0
            for j in _bits(adjacent):
                adjacency[j] = (adjacency[j] | adjacent) & ~(1 << j) & ~(1 << best)
                beyond |= adjacency[j]
            # A variable beyond ``adjacent`` keeps its neighbours, and every
            # new edge joins two of ``adjacent``: its fill-in moves only if
            # two of its neighbours are there.
            for j in _bits(beyond | adjacent):
                if j in keys and (
                    adjacent >> j & 1 or (adjacency[j] & adjacent).bit_count() > 1
                ):
                    keys[j] = key(j)
            order.append(names[best])
        result = tuple(order)
        self._order_cache[cache_key] = result
        return result


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: Per-process engine registry, LRU by network fingerprint, under ``_ENGINES_LOCK``.
_ENGINES: "OrderedDict[str, InferenceEngine]" = OrderedDict()
_ENGINES_LOCK = threading.Lock()


def engine_for(network) -> InferenceEngine:
    """The (memoized) engine for a network.

    Keyed by :meth:`~repro.distributions.bayesnet.DiscreteBayesianNetwork.
    fingerprint`, so numerically identical networks — including copies that
    crossed a process boundary inside a calibration shard — share one engine
    with all its cached factors, elimination orders, and marginals.  A
    network mutated after use re-fingerprints and resolves to a new engine.
    """
    fingerprint = network.fingerprint()
    with _ENGINES_LOCK:
        engine = _ENGINES.get(fingerprint)
        if engine is None:
            engine = InferenceEngine(network)
            _ENGINES[fingerprint] = engine
            while len(_ENGINES) > MAX_CACHED_ENGINES:
                _ENGINES.popitem(last=False)
        else:
            _ENGINES.move_to_end(fingerprint)
        return engine


def invalidate_engine(fingerprint: str) -> bool:
    """Drop one cached engine by fingerprint; ``True`` if it was present.

    The LRU bound alone keeps the registry finite, but an *editing* workload
    (``repro.distributions.temporal``) mints a fresh fingerprint per edit and
    never queries the old one again — without eager invalidation each edit
    pins a dead engine plan (factors, orders, cached marginals) until 64
    later networks happen to push it out.  Eviction is always safe: an
    equal-content network simply rebuilds its engine on next use.
    """
    with _ENGINES_LOCK:
        return _ENGINES.pop(fingerprint, None) is not None


def engine_registry_size() -> int:
    """Number of engines currently pinned by the registry."""
    with _ENGINES_LOCK:
        return len(_ENGINES)


def clear_engine_registry() -> None:
    """Drop every cached engine (test isolation helper)."""
    with _ENGINES_LOCK:
        _ENGINES.clear()
