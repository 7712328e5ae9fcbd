"""Temporal scenario networks: editable BNs with incremental recalibration.

The paper's own workloads (activity traces, power readings) are
time-evolving correlated streams, but every scenario elsewhere in the repo
is a static graph.  :class:`TemporalNetwork` wraps a
:class:`~repro.distributions.bayesnet.DiscreteBayesianNetwork` with an
**edit log** — ``append_node`` (the stream grows), ``update_cpd`` (a
re-estimated model), ``retire_window`` (the oldest window is marginalized
out exactly) — and a **windowed clock** that is purely logical: callers
advance it explicitly, so fingerprints and replay stay deterministic (no
wall clocks, per lint rule R4).

Incremental recalibration
-------------------------
A :class:`~repro.core.markov_quilt.MarkovQuiltMechanism` sigma for node
``i`` is determined by (a) the candidate quilt list of ``i`` and (b) the
conditionals ``P(X_Q | X_i)`` of every candidate — and a conditional over
``S`` is a function of the CPDs of ``ancestral_closure(S)`` *only*.  After
an edit with dirty node set ``D``, a previously computed ``(sigma, quilt)``
for node ``i`` therefore survives exactly when:

1. the candidate quilt list of ``i`` on the edited network is identical
   (ordered, including the nearby/remote partitions) to the one it was
   computed under, and
2. for every candidate ``q`` of ``i``,
   ``ancestral_closure(q.quilt | {i})`` avoids ``D``.  Since ``d`` lies in
   ``ancestral_closure(S)`` exactly when ``S`` meets ``d``'s descendants,
   this is checked as: neither ``i`` nor any ``q.quilt`` holds a node of
   ``D`` or a descendant of one.

Because the inference engine prunes barren nodes (factors outside the
query's ancestral closure never enter the contraction), a surviving sigma
is **bit-identical** to what a from-scratch calibration of the edited
network would compute — not merely close.  :meth:`TemporalNetwork.
calibrated_mechanism` applies the rule: survivors are copied into the new
mechanism's warm cache and only the invalidated nodes re-run the quilt
search.  On the structured families (grid/hub/blocks) a single-node CPD
edit dirties one small ancestral neighborhood, so a k-node edit is a cache
hit for every untouched node instead of a full recalibration.

Window retirement
-----------------
``retire_window`` removes the oldest live window *exactly*: with retired
set ``R`` (required to be ancestrally closed) and frontier
``F = {live nodes with a retired parent}``, the live marginal factorizes as
``P(live) = [prod of unchanged CPDs outside F] * g(F | W)`` where ``W`` is
the set of live non-frontier parents of ``F`` and ``g`` is the retired
block's contribution.  ``g`` is chained over ``F`` in topological order and
each factor is computed by exact inference on an auxiliary network (``W``
as uniform roots, then ``R`` and ``F`` with their original CPDs) — so the
rebuilt network's joint equals the old network's live marginal, and the
stream can run forever on a bounded node count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.distributions.bayesnet import DiscreteBayesianNetwork, MarkovQuilt
from repro.exceptions import ValidationError
from repro.inference import InferenceEngine, invalidate_engine

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.markov_quilt import MarkovQuiltMechanism
    from repro.distributions.structured import QuiltGenerator

#: Refuse to build a retirement conditional with more than this many cells —
#: the frontier chain's tables grow with the product of the frontier's state
#: spaces, and a silent blow-up here would stall the stream.
MAX_RETIRE_TABLE = 1 << 20


@dataclass(frozen=True)
class TemporalEdit:
    """One entry of the edit log.

    ``dirty`` is the set of node names whose CPDs this edit changed (or
    introduced, or rebuilt): the incremental-recalibration rule invalidates
    exactly the cached sigmas whose quilt closures touch a dirty node.
    """

    op: str  # "append" | "update_cpd" | "retire"
    window: int
    dirty: frozenset[str]
    retired_fingerprint: str


@dataclass(frozen=True)
class RecalibrationReport:
    """What one :meth:`TemporalNetwork.calibrated_mechanism` call did."""

    total_nodes: int
    reused_nodes: int
    recomputed_nodes: int
    edits_applied: int
    cold: bool

    @property
    def reuse_fraction(self) -> float:
        """Fraction of nodes served from the previous calibration."""
        return self.reused_nodes / self.total_nodes if self.total_nodes else 0.0


@dataclass
class _CalibrationMemo:
    """The candidate lists and per-node results of the calibration made
    after edit ``edit_index``, copied out of its mechanism: a caller that
    reassigns that mechanism's parameters drops its results, and never
    changes what a later recalibration reuses."""

    edit_index: int
    quilt_sets: dict[str, list[MarkovQuilt]]
    results: dict[str, tuple[float, MarkovQuilt]]


class TemporalNetwork:
    """An editable Bayesian network with windowed, logged, exact edits.

    Parameters
    ----------
    base:
        Initial network (defaults to an empty one); its nodes are assigned
        to window ``window``.
    window:
        Initial logical window index.  The clock is injected/logical —
        advance it with :meth:`advance_window`; nothing here reads wall
        time, so an identical edit sequence replays bit-identically.
    """

    def __init__(
        self, base: DiscreteBayesianNetwork | None = None, *, window: int = 0
    ) -> None:
        self._net = base if base is not None else DiscreteBayesianNetwork()
        self._window = int(window)
        self._windows: dict[str, int] = {
            name: self._window for name in self._net.nodes
        }
        self._edits: list[TemporalEdit] = []
        self._calibrations: dict[tuple, _CalibrationMemo] = {}
        self.retired_engine_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def network(self) -> DiscreteBayesianNetwork:
        """The current live network (treat as read-only; edit through me)."""
        return self._net

    @property
    def window(self) -> int:
        """Current logical window index."""
        return self._window

    @property
    def nodes(self) -> tuple[str, ...]:
        """Live node names in insertion (topological) order."""
        return self._net.nodes

    @property
    def edit_log(self) -> tuple[TemporalEdit, ...]:
        """Every edit applied so far, in order."""
        return tuple(self._edits)

    def window_of(self, name: str) -> int:
        """The window a live node was appended under."""
        if name not in self._windows:
            raise ValidationError(f"unknown (or retired) node {name!r}")
        return self._windows[name]

    def live_windows(self) -> tuple[int, ...]:
        """Distinct windows that still hold live nodes, ascending."""
        return tuple(sorted(set(self._windows.values())))

    def fingerprint(self) -> str:
        """Content fingerprint of the current live network."""
        return self._net.fingerprint()

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------
    def advance_window(self, steps: int = 1) -> int:
        """Advance the logical clock; future appends land in the new window."""
        if steps < 1:
            raise ValidationError(f"steps must be >= 1, got {steps}")
        self._window += int(steps)
        return self._window

    def append_node(
        self,
        name: str,
        n_states: int,
        *,
        parents: Sequence[str] = (),
        cpd,
    ) -> None:
        """Append a node to the stream under the current window."""
        retired = self._retire_live_engine()
        self._net.add_node(name, n_states, parents=parents, cpd=cpd)
        self._windows[name] = self._window
        self._edits.append(
            TemporalEdit(
                op="append",
                window=self._window,
                dirty=frozenset((name,)),
                retired_fingerprint=retired,
            )
        )

    def update_cpd(self, name: str, cpd) -> None:
        """Replace one live node's CPD (structure unchanged)."""
        retired = self._retire_live_engine()
        self._net.update_cpd(name, cpd)
        self._edits.append(
            TemporalEdit(
                op="update_cpd",
                window=self._window,
                dirty=frozenset((name,)),
                retired_fingerprint=retired,
            )
        )

    def retire_window(self) -> frozenset[str]:
        """Marginalize the oldest live window out of the network, exactly.

        Requirements (each raises :class:`ValidationError`):

        * at least two distinct live windows (the current frontier of the
          stream is never retired out from under itself),
        * the retired set is ancestrally closed — every parent of a retired
          node is retired with it,
        * the frontier conditionals stay under :data:`MAX_RETIRE_TABLE`.

        Returns the set of retired node names.  The surviving network's
        joint equals the previous network's marginal over the surviving
        nodes (see the module docstring for the factorization), so every
        downstream conditional — and therefore every quilt influence over
        live nodes — is preserved.
        """
        windows = self.live_windows()
        if len(windows) < 2:
            raise ValidationError(
                "retire_window needs at least two live windows; "
                "advance_window and append the next window first"
            )
        oldest = windows[0]
        order = self._net.nodes
        retired = frozenset(n for n in order if self._windows[n] == oldest)
        live = [n for n in order if n not in retired]
        for name in sorted(retired):
            for parent in self._net.parents(name):
                if parent not in retired:
                    raise ValidationError(
                        f"retired window {oldest} is not ancestrally closed: "
                        f"{name!r} keeps live parent {parent!r}"
                    )
        frontier = [
            n
            for n in live
            if any(p in retired for p in self._net.parents(n))
        ]
        rebuilt = self._rebuild_without(retired, live, frontier)
        retired_fp = self._retire_live_engine()
        self._net = rebuilt
        for name in sorted(retired):
            del self._windows[name]
        self._edits.append(
            TemporalEdit(
                op="retire",
                window=oldest,
                # Frontier CPDs are rebuilt (numerically re-derived), so any
                # quilt whose closure touches them must recalibrate; retired
                # names can never appear in a live closure and ride along
                # only for the log's sake.
                dirty=retired | frozenset(frontier),
                retired_fingerprint=retired_fp,
            )
        )
        return retired

    def _retire_live_engine(self) -> str:
        """Evict the registry engine pinned by the pre-edit fingerprint.

        Every edit mints a fresh content fingerprint; without eager
        invalidation an indefinite stream leaves one dead engine plan per
        edit in :func:`repro.inference.engine_for`'s LRU until churn pushes
        it out.  Eviction is always safe — an equal-content network simply
        rebuilds on next use.
        """
        fingerprint = self._net.fingerprint()
        invalidate_engine(fingerprint)
        self.retired_engine_count += 1
        return fingerprint

    def _rebuild_without(
        self,
        retired: frozenset[str],
        live: list[str],
        frontier: list[str],
    ) -> DiscreteBayesianNetwork:
        """The live-marginal network after dropping ``retired``."""
        net = self._net
        frontier_set = set(frontier)
        # Live non-frontier parents of the frontier, in insertion order.
        outside_parents: list[str] = []
        seen: set[str] = set()
        for f in frontier:
            for p in net.parents(f):
                if p not in retired and p not in frontier_set and p not in seen:
                    seen.add(p)
                    outside_parents.append(p)
        position = {name: i for i, name in enumerate(net.nodes)}
        outside_parents.sort(key=position.__getitem__)

        new_parents: dict[str, tuple[str, ...]] = {}
        new_cpds: dict[str, np.ndarray] = {}
        if frontier:
            aux = DiscreteBayesianNetwork()
            for w in outside_parents:
                k = net.n_states(w)
                aux.add_node(w, k, cpd=np.full(k, 1.0 / k))
            for name in net.nodes:
                if name in retired or name in frontier_set:
                    aux.add_node(
                        name,
                        net.n_states(name),
                        parents=net.parents(name),
                        cpd=net.cpd(name),
                    )
            # Direct construction: a throwaway network must not occupy a
            # registry slot.
            engine = InferenceEngine(aux)
            conditioning: list[str] = []
            running_outside: set[str] = set()
            for i, f in enumerate(frontier):
                for p in net.parents(f):
                    if p not in retired and p not in frontier_set:
                        running_outside.add(p)
                conditioning = sorted(
                    set(frontier[:i]) | running_outside,
                    key=position.__getitem__,
                )
                shape = [net.n_states(c) for c in conditioning]
                cells = int(np.prod(shape + [net.n_states(f)], dtype=np.int64))
                if cells > MAX_RETIRE_TABLE:
                    raise ValidationError(
                        f"retiring window would build a {cells}-cell "
                        f"conditional for frontier node {f!r} "
                        f"(> {MAX_RETIRE_TABLE}); the frontier is too wide "
                        "to marginalize exactly"
                    )
                joint = engine.marginals_given(tuple(conditioning) + (f,), {})
                denom = joint.sum(axis=-1, keepdims=True)
                k = net.n_states(f)
                # Unreachable conditioning rows get a uniform filler — any
                # valid distribution works, the row has zero mass.
                cpd = np.where(denom > 0.0, joint / np.where(denom > 0.0, denom, 1.0), 1.0 / k)
                new_parents[f] = tuple(conditioning)
                new_cpds[f] = cpd

        rebuilt = DiscreteBayesianNetwork()
        for name in live:
            if name in frontier_set:
                rebuilt.add_node(
                    name,
                    net.n_states(name),
                    parents=new_parents[name],
                    cpd=new_cpds[name],
                )
            else:
                rebuilt.add_node(
                    name,
                    net.n_states(name),
                    parents=net.parents(name),
                    cpd=net.cpd(name),
                )
        return rebuilt

    # ------------------------------------------------------------------
    # Incremental recalibration
    # ------------------------------------------------------------------
    def calibrated_mechanism(
        self,
        epsilon: float,
        *,
        quilt_generator: "QuiltGenerator | None" = None,
        max_radius: int | None = None,
    ) -> "tuple[MarkovQuiltMechanism, RecalibrationReport]":
        """A fully calibrated mechanism for the current network.

        The first call per ``(epsilon, generator)`` runs the full quilt
        search.  Later calls rebuild the candidate sets on the edited
        network, copy every *surviving* ``(sigma, quilt)`` into the new
        mechanism (survival rule in the module docstring — bit-identical to
        a from-scratch calibration), and re-search only the invalidated
        nodes.  The returned mechanism is always fully forced
        (:meth:`~repro.core.markov_quilt.MarkovQuiltMechanism.sigma_max`
        has run).
        """
        from repro.core.markov_quilt import MarkovQuiltMechanism

        key = (float(epsilon), quilt_generator, max_radius)
        try:
            memo = self._calibrations.get(key)
        except TypeError:  # unhashable generator — no memoization
            key = None
            memo = None
        structural = memo is None or any(
            edit.op != "update_cpd" for edit in self._edits[memo.edit_index :]
        )
        if structural:
            mechanism = MarkovQuiltMechanism(
                [self._net],
                epsilon,
                quilt_generator=quilt_generator,
                max_radius=max_radius,
            )
        else:
            # Pure-CPD edits preserve the DAG, and candidate enumeration is
            # structural — d-separation reads edges and cardinalities, never
            # CPD values — so the previous candidate lists replay verbatim
            # and the O(nodes x candidates) d-separation sweep is skipped.
            mechanism = MarkovQuiltMechanism(
                [self._net], epsilon, quilt_sets=memo.quilt_sets
            )
            mechanism.quilt_generator = quilt_generator
        reused = 0
        if memo is not None:
            results = mechanism.calibration_state_holder()
            stale = self._descendants(
                name
                for edit in self._edits[memo.edit_index :]
                for name in edit.dirty
            )
            for node in self.nodes:
                cached = memo.results.get(node)
                if cached is None or node in stale:
                    continue
                candidates = mechanism.quilt_sets[node]
                if candidates != memo.quilt_sets.get(node):
                    continue
                if all(stale.isdisjoint(quilt.quilt) for quilt in candidates):
                    results[node] = cached
                    reused += 1
        mechanism.sigma_max()  # force every remaining node
        if key is not None:
            self._calibrations[key] = _CalibrationMemo(
                edit_index=len(self._edits),
                quilt_sets=mechanism.quilt_sets,
                results=dict(mechanism.calibration_state_holder()),
            )
        total = len(self.nodes)
        return mechanism, RecalibrationReport(
            total_nodes=total,
            reused_nodes=reused,
            recomputed_nodes=total - reused,
            edits_applied=len(self._edits)
            - (memo.edit_index if memo is not None else 0),
            cold=memo is None,
        )

    def _descendants(self, dirty: Iterable[str]) -> set[str]:
        """The live nodes of ``dirty`` and all their descendants: the
        nodes whose conditionals an edit of ``dirty`` can change (rule 2 of
        the module docstring).  Retired names are not live and drop out."""
        stale = {name for name in dirty if name in self._windows}
        frontier = list(stale)
        while frontier:
            for child in self._net.children(frontier.pop()):
                if child not in stale:
                    stale.add(child)
                    frontier.append(child)
        return stale


__all__ = [
    "MAX_RETIRE_TABLE",
    "MarkovQuilt",
    "RecalibrationReport",
    "TemporalEdit",
    "TemporalNetwork",
]
