"""Discrete Bayesian networks.

Section 4 of the paper works with databases ``X = (X_1, ..., X_n)`` whose
dependence is a Bayesian network ``G = (X, E)``:

``P(X_1, ..., X_n) = prod_i P(X_i | parent(X_i))``.

This module implements the substrate needed by the general Markov Quilt
Mechanism (Algorithm 2):

* CPD storage and validation, topological ordering,
* exact joint enumeration (kept as the *test oracle* for moderate networks;
  guarded by a safety cap and memoized per network),
* conditional distributions ``P(X_A | X_i = a)`` and marginals, computed by
  the :mod:`repro.inference` variable-elimination engine — exact for any
  network whose elimination width is tractable, with no joint-size cap,
* Markov blankets and **d-separation** (Bayes-ball reachability over a
  parent/child index), which certifies condition 2 of Definition 4.2
  (``X_R`` independent of ``X_i`` given ``X_Q``) *for every* distribution
  that factorizes over G,
* automatic generation of Markov-quilt candidates by graph distance.

Nodes are identified by string names; each node has a finite number of
states labelled ``0..k-1``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import EnumerationError, ValidationError
from repro.inference import engine_for

#: Refuse to *enumerate* joints with more than this many assignments.  The
#: variable-elimination paths (:meth:`DiscreteBayesianNetwork.marginal_of`,
#: :meth:`DiscreteBayesianNetwork.conditional_table`) are not subject to
#: this cap — it only guards the explicit oracle
#: :meth:`DiscreteBayesianNetwork.enumerate_joint`.
MAX_JOINT_SIZE = 2_000_000


@dataclass(frozen=True)
class MarkovQuilt:
    """A Markov quilt ``(X_N, X_Q, X_R)`` for a node (Definition 4.2).

    ``quilt`` separates the protected node's "nearby" set ``nearby`` (which
    contains the node itself) from the "remote" set ``remote``.
    """

    node: str
    quilt: frozenset[str]
    nearby: frozenset[str]
    remote: frozenset[str]

    @property
    def is_trivial(self) -> bool:
        """The trivial quilt has an empty ``X_Q`` and ``X_R`` (everything is
        nearby); always admissible with max-influence 0."""
        return not self.quilt and not self.remote

    def card_nearby(self) -> int:
        """``card(X_N)`` — the count entering the quilt's score."""
        return len(self.nearby)


class DiscreteBayesianNetwork:
    """A Bayesian network over discrete variables with explicit CPDs.

    Build incrementally::

        net = DiscreteBayesianNetwork()
        net.add_node("X1", 2, cpd=[0.7, 0.3])
        net.add_node("X2", 2, parents=["X1"], cpd=[[0.9, 0.1], [0.2, 0.8]])

    ``cpd`` for a node with parents ``(P1, ..., Pm)`` is an array of shape
    ``(k_{P1}, ..., k_{Pm}, k_node)`` whose last axis sums to one.
    """

    def __init__(self) -> None:
        self._states: dict[str, int] = {}
        self._parents: dict[str, tuple[str, ...]] = {}
        # Children per node in insertion order; only add_node changes the
        # DAG, so the index never goes stale.
        self._children: dict[str, list[str]] = {}
        self._cpds: dict[str, np.ndarray] = {}
        self._order: list[str] = []
        self._fingerprint: str | None = None
        self._joint_memo: tuple[list[tuple[int, ...]], np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        n_states: int,
        *,
        parents: Sequence[str] = (),
        cpd: Sequence | np.ndarray,
    ) -> None:
        """Add a node with its conditional probability distribution.

        Parents must already exist (this enforces acyclicity for free since
        nodes are added in topological order).
        """
        if name in self._states:
            raise ValidationError(f"node {name!r} already exists")
        if n_states < 1:
            raise ValidationError(f"node {name!r} needs at least one state")
        for parent in parents:
            if parent not in self._states:
                raise ValidationError(
                    f"parent {parent!r} of {name!r} must be added before its child"
                )
        expected_shape = tuple(self._states[p] for p in parents) + (n_states,)
        table = np.asarray(cpd, dtype=float)
        if table.shape != expected_shape:
            raise ValidationError(
                f"cpd for {name!r} must have shape {expected_shape}, got {table.shape}"
            )
        if np.any(table < 0) or not np.allclose(table.sum(axis=-1), 1.0, atol=1e-8):
            raise ValidationError(f"cpd for {name!r} must be non-negative with last axis summing to 1")
        self._states[name] = int(n_states)
        self._parents[name] = tuple(parents)
        self._children[name] = []
        for parent in dict.fromkeys(parents):
            self._children[parent].append(name)
        self._cpds[name] = table / table.sum(axis=-1, keepdims=True)
        self._order.append(name)
        # Content changed: re-hash on next request and drop the memoized
        # joint (a stale fingerprint would also alias a stale inference
        # engine, since the engine registry keys on it).
        self._fingerprint = None
        self._joint_memo = None

    def update_cpd(self, name: str, cpd: Sequence | np.ndarray) -> None:
        """Replace the CPD of an existing node (structure unchanged).

        The new table must have the node's current shape
        ``(k_parents..., k_node)`` and pass the same validation as
        :meth:`add_node`.  Like ``add_node``, the edit invalidates the
        memoized fingerprint and joint, so a network updated after
        fingerprinting or calibration re-hashes — a stale fingerprint would
        alias a stale inference engine and serve stale calibrations.
        """
        if name not in self._states:
            raise ValidationError(f"cannot update CPD of unknown node {name!r}")
        expected_shape = tuple(
            self._states[p] for p in self._parents[name]
        ) + (self._states[name],)
        table = np.asarray(cpd, dtype=float)
        if table.shape != expected_shape:
            raise ValidationError(
                f"cpd for {name!r} must have shape {expected_shape}, got {table.shape}"
            )
        if np.any(table < 0) or not np.allclose(table.sum(axis=-1), 1.0, atol=1e-8):
            raise ValidationError(f"cpd for {name!r} must be non-negative with last axis summing to 1")
        self._cpds[name] = table / table.sum(axis=-1, keepdims=True)
        self._fingerprint = None
        self._joint_memo = None

    @classmethod
    def chain(cls, initial: np.ndarray, transition: np.ndarray, length: int) -> "DiscreteBayesianNetwork":
        """The Markov-chain network ``X1 -> X2 -> ... -> XT`` used throughout
        Section 4.4; nodes are named ``X1 .. X{length}``."""
        if length < 1:
            raise ValidationError(f"chain length must be >= 1, got {length}")
        initial = np.asarray(initial, dtype=float)
        transition = np.asarray(transition, dtype=float)
        k = initial.size
        net = cls()
        net.add_node("X1", k, cpd=initial)
        for t in range(2, length + 1):
            net.add_node(f"X{t}", k, parents=[f"X{t-1}"], cpd=transition)
        return net

    def fingerprint(self) -> str:
        """Content hash of the full network (DAG + CPDs).

        Two networks with equal fingerprints are numerically identical, so a
        calibration computed against one is valid for the other; used by the
        serving layer's cache keys.  Memoized; :meth:`add_node` invalidates
        the memo so a network grown after fingerprinting re-hashes.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        import hashlib

        digest = hashlib.sha256()
        for name in self._order:
            digest.update(f"{name}:{self._states[name]}:".encode())
            digest.update(",".join(self._parents[name]).encode())
            digest.update(np.ascontiguousarray(self._cpds[name], dtype=np.float64).tobytes())
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[str, ...]:
        """Node names in insertion (topological) order."""
        return tuple(self._order)

    def n_states(self, name: str) -> int:
        """Number of states of ``name``."""
        return self._states[name]

    def parents(self, name: str) -> tuple[str, ...]:
        """Parents of ``name``."""
        return self._parents[name]

    def children(self, name: str) -> tuple[str, ...]:
        """Children of ``name`` in insertion order."""
        return tuple(self._children[name])

    def cpd(self, name: str) -> np.ndarray:
        """The CPD table of ``name`` (copy)."""
        return self._cpds[name].copy()

    def markov_blanket(self, name: str) -> frozenset[str]:
        """Parents, children, and co-parents of ``name``."""
        blanket: set[str] = set(self._parents[name])
        for child in self.children(name):
            blanket.add(child)
            blanket.update(self._parents[child])
        blanket.discard(name)
        return frozenset(blanket)

    def undirected_neighbors(self, name: str) -> frozenset[str]:
        """Neighbors in the undirected skeleton (parents and children)."""
        return frozenset((*self._parents[name], *self._children[name]))

    # ------------------------------------------------------------------
    # d-separation (Bayes-ball reachability)
    # ------------------------------------------------------------------
    def is_d_separated(self, x: str, targets: Iterable[str], given: Iterable[str]) -> bool:
        """True when every node in ``targets`` is d-separated from ``x`` by
        ``given``; certifies ``P(targets | given, x) = P(targets | given)``
        for all distributions factorizing over this DAG.

        ``x`` inside ``given`` is ignored (it is the conditioning node, not
        evidence), and a target inside ``given`` counts as separated.  The
        search is Bayes-ball reachability (Shachter 1998; Koller & Friedman,
        Algorithm 3.1): it walks the active trails out of ``x`` and stops at
        the first target it reaches, so it visits only what ``x`` can reach.
        Raises :class:`ValidationError` naming any unknown node.
        """
        targets = set(targets)
        given = set(given)
        self._require_known(targets | given | {x})
        if x in targets:
            return False
        given.discard(x)
        targets -= given
        if not targets:
            return True
        # A collider passes the ball only if it or a descendant is observed.
        opens_collider = self._ancestral_closure(given)
        # The ball travels up (arrived from a child, or at x) or down
        # (arrived from a parent); each (node, direction) is visited once.
        up, down = [x], []
        seen_up: set[str] = set()
        seen_down: set[str] = set()
        while up or down:
            if up:
                node = up.pop()
                if node in seen_up:
                    continue
                seen_up.add(node)
                if node in targets:
                    return False
                if node not in given:
                    up.extend(self._parents[node])
                    down.extend(self._children[node])
            else:
                node = down.pop()
                if node in seen_down:
                    continue
                seen_down.add(node)
                if node in targets:
                    return False
                if node not in given:
                    down.extend(self._children[node])
                if node in opens_collider:
                    up.extend(self._parents[node])
        return True

    def _require_known(self, names: set[str]) -> None:
        unknown = names - self._states.keys()
        if unknown:
            raise ValidationError(f"unknown node(s) {sorted(unknown)!r}")

    def ancestral_closure(self, names: Iterable[str]) -> frozenset[str]:
        """``names`` plus every DAG ancestor of a named node.

        The marginal (and any conditional) over a set ``S`` is a function of
        the CPDs of ``ancestral_closure(S)`` only — the invariant behind the
        temporal incremental-recalibration rule: an edit whose dirty nodes
        avoid a quilt candidate's closure cannot change that candidate's
        max-influence.
        """
        seed = set(names)
        self._require_known(seed)
        return frozenset(self._ancestral_closure(seed))

    def _ancestral_closure(self, seed: set[str]) -> set[str]:
        closure = set(seed)
        frontier = list(seed)
        while frontier:
            node = frontier.pop()
            for parent in self._parents[node]:
                if parent not in closure:
                    closure.add(parent)
                    frontier.append(parent)
        return closure

    # ------------------------------------------------------------------
    # Markov quilt candidates
    # ------------------------------------------------------------------
    def trivial_quilt(self, node: str) -> MarkovQuilt:
        """The always-valid quilt with ``X_Q = {}`` and ``X_N = X``."""
        return MarkovQuilt(
            node=node,
            quilt=frozenset(),
            nearby=frozenset(self._order),
            remote=frozenset(),
        )

    def quilt_from_set(self, node: str, quilt_nodes: Iterable[str]) -> MarkovQuilt | None:
        """Build the quilt induced by a candidate separator set.

        ``X_N`` is the set of nodes still connected to ``node`` in the
        skeleton after deleting ``quilt_nodes``; ``X_R`` is the rest.  Returns
        ``None`` when d-separation fails (the candidate is not a valid quilt).
        Raises :class:`ValidationError` naming any unknown node.
        """
        quilt_set = frozenset(quilt_nodes)
        self._require_known(quilt_set | {node})
        quilt_set -= {node}
        # Connected component of `node` in the skeleton minus the quilt.
        component = {node}
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for nxt in (*self._parents[current], *self._children[current]):
                if nxt not in quilt_set and nxt not in component:
                    component.add(nxt)
                    frontier.append(nxt)
        remote = frozenset(self._states.keys() - quilt_set - component)
        if remote and not self.is_d_separated(node, remote, quilt_set):
            return None
        return MarkovQuilt(node=node, quilt=quilt_set, nearby=frozenset(component), remote=remote)

    def distance_quilts(self, node: str, max_radius: int | None = None) -> list[MarkovQuilt]:
        """Quilt candidates by skeleton distance plus the trivial quilt.

        For each radius ``r`` the candidate separator is the set of nodes at
        skeleton distance exactly ``r`` from ``node``; its validity is
        certified by d-separation.  For chains this generates the symmetric
        two-sided quilts ``{X_{i-r}, X_{i+r}}``; :mod:`repro.core.mqm_chain`
        generates the richer asymmetric set of Lemma 4.6.
        """
        distances = self._skeleton_distances(node)
        finite = [d for d in distances.values() if np.isfinite(d) and d > 0]
        radii = sorted(set(int(d) for d in finite))
        if max_radius is not None:
            radii = [r for r in radii if r <= max_radius]
        quilts = [self.trivial_quilt(node)]
        for radius in radii:
            separator = {n for n, d in distances.items() if d == radius}
            candidate = self.quilt_from_set(node, separator)
            if candidate is not None and not candidate.is_trivial:
                quilts.append(candidate)
        return quilts

    def is_path_graph(self) -> bool:
        """True when the skeleton is a single simple path (a Markov chain).

        Requires **connectivity**, not just the path degree profile: a
        disconnected union of paths (two 2-node chains have degrees
        ``[1, 1, 1, 1]``) and a path-plus-cycle union (degrees ``<= 2`` with
        two endpoints *and* ``n - 1`` edges) both fail here, where the
        seed's degree-multiset check accepted them and the path-walk in
        :meth:`chain_quilts` then crashed.
        """
        n = len(self._order)
        if n == 1:
            return True
        degrees = [len(self.undirected_neighbors(name)) for name in self._order]
        if any(d > 2 for d in degrees) or sorted(degrees)[:2] != [1, 1]:
            return False
        edges = sum(len(self._parents[name]) for name in self._order)
        if edges != n - 1:
            return False
        distances = self._skeleton_distances(self._order[0])
        return all(np.isfinite(d) for d in distances.values())

    def chain_quilts(self, node: str, max_window: int | None = None) -> list[MarkovQuilt]:
        """The Lemma 4.6 asymmetric quilt set for path-graph networks.

        For a chain ``X_1 - ... - X_T`` and node ``X_i`` this generates the
        two-sided quilts ``{X_{i-a}, X_{i+b}}``, the one-sided quilts
        ``{X_{i-a}}`` / ``{X_{i+b}}``, and the trivial quilt — the reduced
        search set that Algorithm 3 uses.  With these quilt sets the general
        mechanism (Algorithm 2) matches the chain-specialized MQMExact.

        Raises :class:`ValidationError` when the skeleton is not a single
        connected path — including the disconnected union-of-paths case,
        which matches the path degree profile but cannot be walked
        end-to-end (use the per-component generators in
        :mod:`repro.distributions.structured` for those).
        """
        if not self.is_path_graph():
            raise ValidationError(
                "chain_quilts requires a connected path-graph network"
            )
        # Order nodes along the path starting from an endpoint.
        order = self._path_order()
        position = order.index(node)
        length = len(order)
        window = max_window if max_window is not None else length
        quilts = [self.trivial_quilt(node)]
        for a in range(1, min(position, window) + 1):
            left = position - a
            quilts.append(self._interval_quilt(order, position, left, None))
            for b in range(1, min(length - 1 - position, window) + 1):
                if a + b - 1 > window:
                    continue
                quilts.append(self._interval_quilt(order, position, left, position + b))
        for b in range(1, min(length - 1 - position, window) + 1):
            quilts.append(self._interval_quilt(order, position, None, position + b))
        return quilts

    def _path_order(self) -> list[str]:
        """Node names ordered along the path skeleton."""
        if len(self._order) == 1:
            return list(self._order)
        endpoints = [n for n in self._order if len(self.undirected_neighbors(n)) == 1]
        current = endpoints[0]
        ordered = [current]
        previous: str | None = None
        while len(ordered) < len(self._order):
            neighbors = [n for n in self.undirected_neighbors(current) if n != previous]
            previous, current = current, neighbors[0]
            ordered.append(current)
        return ordered

    def _interval_quilt(
        self,
        order: list[str],
        position: int,
        left: int | None,
        right: int | None,
    ) -> MarkovQuilt:
        """Quilt with separator nodes at path positions ``left``/``right``."""
        quilt_set = set()
        nearby_lo = 0
        nearby_hi = len(order) - 1
        if left is not None:
            quilt_set.add(order[left])
            nearby_lo = left + 1
        if right is not None:
            quilt_set.add(order[right])
            nearby_hi = right - 1
        nearby = set(order[nearby_lo : nearby_hi + 1])
        remote = set(order) - nearby - quilt_set
        return MarkovQuilt(
            node=order[position],
            quilt=frozenset(quilt_set),
            nearby=frozenset(nearby),
            remote=frozenset(remote),
        )

    def _skeleton_distances(self, source: str) -> dict[str, float]:
        distances = {n: float("inf") for n in self._order}
        distances[source] = 0.0
        frontier = [source]
        while frontier:
            next_frontier: list[str] = []
            for node in frontier:
                for nxt in (*self._parents[node], *self._children[node]):
                    if distances[nxt] == float("inf"):
                        distances[nxt] = distances[node] + 1
                        next_frontier.append(nxt)
            frontier = next_frontier
        return distances

    # ------------------------------------------------------------------
    # Exact inference by enumeration
    # ------------------------------------------------------------------
    def joint_size(self) -> int:
        """Number of assignments in the full joint."""
        size = 1
        for k in self._states.values():
            size *= k
        return size

    def enumerate_joint(self) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """All assignments (tuples in node order) with their probabilities.

        This is the brute-force **test oracle**: every inference result the
        engine produces is checked against it (within the cap) by the
        equivalence suite.  Raises :class:`EnumerationError` beyond
        :data:`MAX_JOINT_SIZE`.  The enumerated joint is memoized — a sweep
        that consults the oracle repeatedly (as the seed's
        ``conditional_table`` did on every call) pays for the enumeration
        once per network; ``add_node`` invalidates the memo.  Callers must
        not mutate the returned structures.
        """
        if self._joint_memo is not None:
            return self._joint_memo
        size = self.joint_size()
        if size > MAX_JOINT_SIZE:
            raise EnumerationError(
                f"joint has {size} assignments (> {MAX_JOINT_SIZE}); "
                "use marginal_of/conditional_table (variable elimination) "
                "or the chain-specialized algorithms instead"
            )
        ranges = [range(self._states[n]) for n in self._order]
        assignments = list(itertools.product(*ranges))
        probs = np.empty(len(assignments))
        index = {n: i for i, n in enumerate(self._order)}
        for row, assignment in enumerate(assignments):
            prob = 1.0
            for node in self._order:
                parent_idx = tuple(assignment[index[p]] for p in self._parents[node])
                prob *= self._cpds[node][parent_idx + (assignment[index[node]],)]
                if prob == 0.0:
                    break
            probs[row] = prob
        self._joint_memo = (assignments, probs)
        return self._joint_memo

    def inference_engine(self):
        """The memoized :class:`~repro.inference.engine.InferenceEngine`
        for this network's current content (see
        :func:`repro.inference.engine_for`)."""
        return engine_for(self)

    def conditional_table(
        self,
        targets: Sequence[str],
        given: Mapping[str, int],
    ) -> dict[tuple[int, ...], float]:
        """``P(targets = . | given)`` as a mapping from target tuples.

        Computed by variable elimination (no joint-size cap); the key set
        and values match the enumeration oracle exactly: every
        evidence-consistent target combination appears, including
        zero-probability ones.  Raises :class:`ValidationError` when the
        conditioning event has zero probability.
        """
        return engine_for(self).conditional_table(tuple(targets), given)

    def marginal_of(self, node: str) -> np.ndarray:
        """Marginal distribution of a single node (variable elimination)."""
        return engine_for(self).marginal_of(node)

    def __getstate__(self) -> dict:
        """Pickle without the memoized joint.

        Calibration shards ship networks across process boundaries; the
        memo can hold up to :data:`MAX_JOINT_SIZE` rows, which would dwarf
        the payload, and the worker's engine registry re-derives everything
        it needs from the CPDs.
        """
        state = self.__dict__.copy()
        state["_joint_memo"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiscreteBayesianNetwork(nodes={len(self._order)})"
