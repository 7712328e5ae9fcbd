"""The Markov Quilt Mechanism for general Bayesian networks (Algorithm 2).

For each node ``X_i`` the mechanism searches a set of Markov quilts
``(X_N, X_Q, X_R)`` (Definition 4.2).  A quilt with max-influence
``e_Theta(X_Q | X_i) < epsilon`` receives the score
``card(X_N) / (epsilon - e_Theta(X_Q|X_i))``; the node's sigma is the best
(smallest) score, and the released noise is ``L * max_i sigma_i * Lap(1)``
(Theorem 4.3).

Max-influence (Definition 4.1) is computed *exactly* here through the
:mod:`repro.inference` variable-elimination engine: one batched
``conditional_tables(X_Q, X_i)`` tensor per theta, reduced by a log-space
sup-ratio over all ordered secret-value pairs at once (the tensor analogue of
:func:`repro.core.mqm_chain._sup_ratio_table`).  The Markov-chain
specialization in :mod:`repro.core.mqm_chain` avoids even that.
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.distributions.structured import QuiltGenerator

from repro.core.accounting import signature_digest
from repro.core.laplace import Mechanism
from repro.core.queries import Query
from repro.distributions.bayesnet import DiscreteBayesianNetwork, MarkovQuilt
from repro.exceptions import PrivacyParameterError, ValidationError
from repro.inference import engine_for

#: Marginal probabilities below this are treated as zero when deciding which
#: secret values are admissible under a theta.
MARGINAL_ATOL = 1e-12


def _pairwise_sup_ratio(tables: np.ndarray) -> float:
    """``max_{a != b} sup_x log tables[a, x] / tables[b, x]`` in log space.

    ``tables`` is a ``(m, M)`` matrix of conditional distributions (rows sum
    to one).  The supremum for a row pair ranges over the support of the
    numerator row only: entries with numerator mass <= :data:`MARGINAL_ATOL`
    contribute nothing (their log is ``-inf``); a supported numerator entry
    over an unsupported denominator entry makes the pair's ratio unbounded
    (``finite - -inf = +inf``), exactly as the enumeration-era dict walk
    decided it.
    """
    if tables.shape[0] < 2:
        return 0.0
    with np.errstate(divide="ignore"):
        logs = np.where(tables > MARGINAL_ATOL, np.log(tables), -np.inf)
    with np.errstate(invalid="ignore"):
        diff = logs[:, None, :] - logs[None, :, :]
    # -inf - -inf (both off-support) is NaN; such entries contribute nothing.
    diff = np.where(np.isnan(diff), -np.inf, diff)
    pair_sup = diff.max(axis=2)
    np.fill_diagonal(pair_sup, -np.inf)
    return float(pair_sup.max())


def _influence_tables(
    networks: Sequence[DiscreteBayesianNetwork],
    quilt: MarkovQuilt,
) -> tuple[float, list[np.ndarray]]:
    """``e_Theta(X_Q | X_i)`` and the per-theta tables it was reduced from.

    Each table is one theta's ``(m, M)`` matrix of ``P(X_Q | X_i = v)`` rows
    over its ``m >= 2`` supported secret values ``v``; a theta with fewer
    supported values has nothing to compare and contributes no table.  The
    reduction stops at the first unbounded theta, as its result is final.
    :func:`max_influence` returns the influence; the quilt search also reads
    an inadmissible quilt's tables (:func:`_screen_capacity`).
    """
    if quilt.is_trivial or not quilt.quilt:
        return 0.0, []
    targets = sorted(quilt.quilt)
    supremum = 0.0
    reduced: list[np.ndarray] = []
    for network in networks:
        engine = engine_for(network)
        marginal = engine.marginal_of(quilt.node)
        values = np.flatnonzero(marginal > MARGINAL_ATOL)
        if values.size < 2:
            continue  # fewer than two admissible secret values: nothing to compare
        tensor = engine.conditional_tables(targets, quilt.node)
        tables = tensor.reshape(tensor.shape[0], -1)[values]
        reduced.append(tables)
        supremum = max(supremum, _pairwise_sup_ratio(tables))
        if np.isinf(supremum):
            return float("inf"), reduced
    return float(max(supremum, 0.0)), reduced


def max_influence(
    networks: Sequence[DiscreteBayesianNetwork],
    quilt: MarkovQuilt,
) -> float:
    """``e_Theta(X_Q | X_i)`` of Definition 4.1, exactly.

    ``networks`` is the class Theta: Bayesian networks sharing a DAG but with
    possibly different CPDs.  The trivial quilt always has influence 0.
    Secret values with zero marginal probability under a theta are skipped
    for that theta (Definition 2.1 only constrains positive-probability
    secrets).

    Per theta this costs one variable-elimination run producing the batched
    ``P(X_Q | X_i = .)`` tensor plus one vectorized log-ratio reduction —
    the engine memoizes factors and marginals per network fingerprint, so a
    quilt search over many candidates never recomputes shared state (the
    seed re-enumerated the full joint on every call).
    """
    return _influence_tables(networks, quilt)[0]


def _screen_capacity(tables: Sequence[np.ndarray], epsilon: float) -> float:
    """The capacity ``K`` of an inadmissible ``X_A`` (``e(X_A|X_i) >= epsilon``)
    in the quilt search's inclusion screen.

    ``tables`` are the matrices :func:`_influence_tables` reduced for
    ``X_A``.  ``K`` is the largest value with ``P(x|a) * (1 - 1e-9) - K *
    MARGINAL_ATOL >= exp(epsilon * (1 + 1e-9)) * P(x|b)`` for some theta,
    supported secret pair ``a != b`` and cell ``x`` (``-inf`` when no cell
    qualifies).  A quilt ``X_B ⊇ X_A`` with ``M = prod card(X_B - X_A) <=
    K`` is inadmissible too: the ``M`` cells of ``X_B`` over ``x`` sum to
    ``P(x|.)``, those off support (at most ``MARGINAL_ATOL``, see
    :func:`_pairwise_sup_ratio`) hold at most ``M * MARGINAL_ATOL`` of it,
    so the on-support rest is positive with ratio at least
    ``exp(epsilon)``, and by the mediant inequality so is one of its cells.
    The ``1e-9`` margins absorb the last-bit rounding between the
    eliminations of ``X_A`` and ``X_B``.  Without the ``MARGINAL_ATOL``
    term the screen is wrong: ``P(x|a) = 1.5e-12`` over ``P(x|b) = 1e-14``
    makes ``X_A``'s influence infinite, yet split over a fair coin both
    halves are off support and ``X_B`` can be admissible (``K`` is 1 there).
    """
    ratio = math.exp(epsilon * (1.0 + 1e-9))
    capacity = -math.inf
    for table in tables:
        slack = (1.0 - 1e-9) * table[:, None, :] - ratio * table[None, :, :]
        pairs = np.arange(table.shape[0])
        slack[pairs, pairs] = -np.inf
        capacity = max(capacity, float(slack.max()) / MARGINAL_ATOL)
    return capacity


class MarkovQuiltMechanism(Mechanism):
    """Algorithm 2 on a class of Bayesian networks.

    Parameters
    ----------
    networks:
        The class Theta (shared DAG, arbitrary CPDs).
    epsilon:
        Privacy parameter.
    quilt_sets:
        Optional mapping ``node -> list of MarkovQuilt``; defaults to the
        distance-based candidates of
        :meth:`DiscreteBayesianNetwork.distance_quilts` (which always include
        the trivial quilt, as Theorem 4.3 requires).  Entries are validated:
        every key must be a node of the network and every quilt filed under
        a key must protect that node — a quilt calibrated for the wrong node
        would bake the mismatch into ``calibration_fingerprint`` and
        silently mis-scale its noise.
    quilt_generator:
        Optional strategy callable ``generator(network, node) -> quilts``
        used to build the candidate sets from the reference network (e.g.
        the structured-topology generators of
        :mod:`repro.distributions.structured`).  Mutually exclusive with
        ``quilt_sets``; when neither is given the default distance-shell
        generation is used, unchanged.
    max_radius:
        Radius cap for the default quilt generation.

    Each node's ``(sigma, active quilt)`` is searched once and memoized for
    the networks, candidate sets and score parameters it was computed
    under: an in-place network edit, a reassigned ``quilt_sets`` or a
    reassigned ``epsilon`` drops every result before its next use
    (:meth:`_node_results`), and :meth:`quilt_signature` is built once per
    set of results.
    """

    name = "MarkovQuilt"

    def __init__(
        self,
        networks: Sequence[DiscreteBayesianNetwork],
        epsilon: float,
        *,
        quilt_sets: Mapping[str, Sequence[MarkovQuilt]] | None = None,
        quilt_generator: "QuiltGenerator | None" = None,
        max_radius: int | None = None,
    ) -> None:
        super().__init__(epsilon)
        networks = list(networks)
        if not networks:
            raise ValidationError("Theta must contain at least one network")
        nodes = networks[0].nodes
        for network in networks[1:]:
            if network.nodes != nodes:
                raise ValidationError("all networks in Theta must share the same node set")
        self.networks = networks
        self.reference = networks[0]
        if quilt_sets is not None and quilt_generator is not None:
            raise ValidationError(
                "pass quilt_sets or quilt_generator, not both"
            )
        self.quilt_generator = quilt_generator
        if quilt_sets is None and quilt_generator is None:
            quilt_sets = {
                node: self.reference.distance_quilts(node, max_radius) for node in nodes
            }
        elif quilt_sets is None:
            quilt_sets = {
                node: list(quilt_generator(self.reference, node)) for node in nodes
            }
        else:
            quilt_sets = {node: list(qs) for node, qs in quilt_sets.items()}
        node_set = frozenset(nodes)
        for key, candidates in quilt_sets.items():
            if key not in node_set:
                raise ValidationError(
                    f"quilt_sets key {key!r} is not a node of the network"
                )
            for quilt in candidates:
                if quilt.node != key:
                    raise ValidationError(
                        f"quilt protecting node {quilt.node!r} filed under "
                        f"quilt_sets key {key!r}"
                    )
        for node in nodes:
            candidates = quilt_sets.setdefault(node, [])
            if not any(q.is_trivial for q in candidates):
                # Theorem 4.3 requires the trivial quilt to be available.
                candidates.append(self.reference.trivial_quilt(node))
        self.quilt_sets = quilt_sets
        self._sigma_cache: dict[str, tuple[float, MarkovQuilt]] = {}
        #: ``(network fingerprints, quilt_sets object, score parameters)``
        #: the entries of ``_sigma_cache`` were computed for (see
        #: :meth:`_node_results`).
        self._sigma_inputs: tuple[tuple[str, ...], Mapping, tuple] = (
            self._fingerprints(),
            quilt_sets,
            self._score_parameters(),
        )
        #: ``(quilt_sets object, digest)`` of :meth:`_quilt_sets_digest`.
        self._quilt_digest: tuple[Mapping, str] | None = None
        #: Memo of :meth:`quilt_signature`, dropped whenever a per-node
        #: result may change.
        self._signature: str | None = None

    def __getstate__(self) -> dict:
        """Copy and pickle without the quilt-set digest or signature memos.

        The digest memo references the full ``quilt_sets`` map, and a
        per-node parallel shard must ship only its own node's candidates;
        for the same reason a clone whose ``quilt_sets`` was reassigned
        ships neither its stale results nor the old map they were recorded
        against.  Stale network fingerprints are kept as recorded:
        :meth:`repro.distributions.temporal.TemporalNetwork.calibrated_mechanism`
        reads a previous mechanism's results across edits on purpose.
        """
        state = self.__dict__.copy()
        state["_quilt_digest"] = None
        state["_signature"] = None
        fingerprints, quilt_sets, parameters = self._sigma_inputs
        if quilt_sets is not self.quilt_sets:
            state["_sigma_cache"] = {}
            state["_sigma_inputs"] = (fingerprints, self.quilt_sets, parameters)
        return state

    def _fingerprints(self) -> tuple[str, ...]:
        """Every network's content fingerprint (memoized by the network)."""
        return tuple(network.fingerprint() for network in self.networks)

    def _score_parameters(self) -> tuple:
        """The scalars :meth:`_quilt_score` reads besides the quilt."""
        return (self.epsilon,)

    def _node_results(self) -> dict[str, tuple[float, MarkovQuilt]]:
        """``_sigma_cache``, emptied first (with the signature memo) when a
        network was edited, ``quilt_sets`` reassigned or a score parameter
        (:meth:`_score_parameters`) changed since its entries were computed,
        so per-node results follow the inputs the cache key reads.  Networks
        compare by their memoized fingerprints, ``quilt_sets`` by identity
        and the parameters by value: about a microsecond, where the
        quilt-set digest would cost more than a recalibration.
        """
        fingerprints = self._fingerprints()
        parameters = self._score_parameters()
        recorded, quilt_sets, recorded_parameters = self._sigma_inputs
        if (
            quilt_sets is not self.quilt_sets
            or recorded != fingerprints
            or recorded_parameters != parameters
        ):
            self._sigma_cache = {}
            self._signature = None
            self._sigma_inputs = (fingerprints, self.quilt_sets, parameters)
        return self._sigma_cache

    def calibration_state_holder(self) -> dict:
        """The object holding this mechanism's per-node results: the same
        object for as long as they are kept, a new one once an in-place
        network edit or a ``quilt_sets`` reassignment drops them.

        The calibration cache compares it by identity to tell a mechanism
        that still holds the state an entry handed it from one that lost
        that state to an edit since reverted, whose key is the entry's
        again (:meth:`repro.serving.cache.CalibrationCache.get_or_compute`).
        """
        return self._node_results()

    def calibration_fingerprint(self) -> tuple:
        """Theta (every network content-hashed), epsilon, and the candidate
        quilt sets (which bound the search and therefore the chosen sigma).

        Network fingerprints are read live, so an edit changes the key; the
        quilt-set part is a memoized digest (see :meth:`_quilt_sets_digest`).
        """
        return (
            "MarkovQuilt",
            self.epsilon,
            self._fingerprints(),
            self._quilt_sets_digest(),
        )

    def _quilt_sets_digest(self) -> str:
        """Hash of every node's ordered candidate list, each candidate as
        its sorted ``X_Q`` and ``X_N`` (the score reads ``card(X_N)``, so
        candidates differing only in ``X_N`` must not share a key).

        Computed on first use and kept while ``self.quilt_sets`` is the same
        object, which is also as long as the per-node results are kept:
        reassign ``quilt_sets`` rather than editing it in place once the
        mechanism has been used.
        """
        quilt_sets = self.quilt_sets
        memo = self._quilt_digest
        if memo is None or memo[0] is not quilt_sets:
            parts = tuple(
                (
                    node,
                    tuple(
                        (tuple(sorted(q.quilt)), tuple(sorted(q.nearby)))
                        for q in candidates
                    ),
                )
                for node, candidates in sorted(quilt_sets.items())
            )
            memo = (quilt_sets, hashlib.sha256(repr(parts).encode()).hexdigest())
            self._quilt_digest = memo
        return memo[1]

    def export_calibration_state(self) -> dict:
        """JSON-safe snapshot of the per-node quilt-search results (see
        :meth:`repro.core.mqm_chain.MQMExact.export_calibration_state`).

        Each entry is ``[node, sigma, index]``, where ``index`` locates the
        node's active quilt in ``quilt_sets[node]``, so a warm cache entry
        restores :meth:`sigma_max`, :meth:`active_quilts`, and
        :meth:`quilt_signature` without re-running any quilt search.  Only
        valid under an identical :meth:`calibration_fingerprint`, which pins
        every node's ordered candidate list.
        """
        return {
            "sigma_by_node": [
                [node, float(sigma), self.quilt_sets[node].index(quilt)]
                for node, (sigma, quilt) in sorted(self._node_results().items())
            ]
        }

    def warm_start(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_calibration_state`.

        The state may have been read from a file, so every entry is checked
        before any is applied: an unknown node, an index that is not an
        in-range integer, or a sigma that is not a finite positive number
        (every real sigma is ``card(X_N) / (epsilon - e) > 0``; a bool is
        refused too) raises :class:`~repro.exceptions.ValidationError`.
        Entries merge into the per-node results; the signature memo is
        dropped.
        """
        restored: dict[str, tuple[float, MarkovQuilt]] = {}
        for entry in state.get("sigma_by_node", []):
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ValidationError(f"malformed warm-start entry {entry!r}")
            node, sigma, index = entry
            candidates = self.quilt_sets.get(node) if isinstance(node, str) else None
            if candidates is None:
                raise ValidationError(f"warm-start state names unknown node {node!r}")
            if type(index) is not int or not 0 <= index < len(candidates):
                raise ValidationError(
                    f"warm-start quilt index {index!r} for node {node!r} is not "
                    f"in range(0, {len(candidates)})"
                )
            if (
                isinstance(sigma, bool)
                or not isinstance(sigma, (int, float))
                or not 0.0 < sigma < math.inf
            ):
                raise ValidationError(
                    f"warm-start sigma {sigma!r} for node {node!r} is not a "
                    "finite positive number"
                )
            restored[node] = (float(sigma), candidates[index])
        self._node_results().update(restored)
        self._signature = None

    def _quilt_score(self, quilt: MarkovQuilt, influence: float) -> float:
        """The sigma contribution of an admissible quilt (Definition 4.5):
        ``card(X_N) / (epsilon - e_Theta(X_Q|X_i))`` for the Laplace MQM.
        The Gaussian variant overrides only this hook, so the search loop,
        memo structure, warm-start snapshots, and per-node parallel shards
        are shared verbatim.

        Contract the search relies on: a quilt is admitted iff its influence
        is below ``epsilon``, and the score never falls as influence grows,
        so ``_quilt_score(quilt, 0.0)`` bounds every admissible score of the
        quilt from below (:meth:`_candidate_scores`)."""
        return quilt.card_nearby() / (self.epsilon - influence)

    def sigma_for_node(self, node: str) -> tuple[float, MarkovQuilt]:
        """``(sigma_i, active quilt)`` for one node (Definition 4.5): the
        first candidate, in candidate order, with the smallest score."""
        results = self._node_results()
        if node not in results:
            candidates = self.quilt_sets[node]
            best_score = float("inf")
            best_quilt: MarkovQuilt | None = None
            for quilt, score in zip(candidates, self._candidate_scores(candidates)):
                if score < best_score:
                    best_score = score
                    best_quilt = quilt
            if best_quilt is None:  # pragma: no cover - trivial quilt always scores
                raise PrivacyParameterError(f"no admissible quilt for node {node!r}")
            results[node] = (best_score, best_quilt)
            self._signature = None
        return results[node]

    def _candidate_scores(self, candidates: Sequence[MarkovQuilt]) -> list[float]:
        """Every candidate's score, in candidate order, ``inf`` where the
        candidate is inadmissible or ruled out unevaluated.

        Candidates are evaluated in ascending ``|X_Q|`` (candidate index
        breaks ties), and one is skipped without building its joint when

        * its zero-influence score is strictly above the best score found so
          far: by the :meth:`_quilt_score` contract its score is at least
          that, so it can neither win nor tie; or
        * it contains an evaluated inadmissible ``X_A`` whose capacity covers
          the split, ``prod card(X_Q - X_A) <= K`` (:func:`_screen_capacity`),
          which makes it inadmissible too.

        A skipped candidate never holds the minimum score, so the first
        strict minimum in candidate order — the winner — is the one a full
        evaluation picks.
        """
        order = sorted(range(len(candidates)), key=lambda k: len(candidates[k].quilt))
        scores = [math.inf] * len(candidates)
        best = math.inf
        inadmissible: list[tuple[frozenset[str], float]] = []
        for k in order:
            quilt = candidates[k]
            if self._quilt_score(quilt, 0.0) > best or any(
                inner <= quilt.quilt and self._cells(quilt.quilt - inner) <= capacity
                for inner, capacity in inadmissible
            ):
                continue
            influence, tables = _influence_tables(self.networks, quilt)
            if influence < self.epsilon:
                scores[k] = self._quilt_score(quilt, influence)
                best = min(best, scores[k])
            else:
                inadmissible.append(
                    (quilt.quilt, _screen_capacity(tables, self.epsilon))
                )
        return scores

    def _cells(self, names: frozenset[str]) -> int:
        """``prod card(names)``, each card the largest over Theta."""
        return math.prod(
            max(network.n_states(name) for network in self.networks) for name in names
        )

    def _all_results(self) -> dict[str, tuple[float, MarkovQuilt]]:
        """Every node's ``(sigma, active quilt)``, searching the missing
        ones: one staleness check for the whole network, not one per node."""
        results = self._node_results()
        for node in self.reference.nodes:
            if node not in results:
                self.sigma_for_node(node)
        return results

    def sigma_max(self) -> float:
        """``max_i sigma_i`` — the noise multiplier of Algorithm 2."""
        results = self._all_results()
        return max(results[node][0] for node in self.reference.nodes)

    def active_quilts(self) -> dict[str, MarkovQuilt]:
        """The active quilt of every node (used for composition accounting)."""
        results = self._all_results()
        return {node: results[node][1] for node in self.reference.nodes}

    def noise_scale(self, query: Query, data: np.ndarray) -> float:
        return query.lipschitz * self.sigma_max() / 1.0

    def scale_details(self, query: Query, data: np.ndarray) -> dict:
        results = self._all_results()
        worst = max(self.reference.nodes, key=lambda n: results[n][0])
        sigma, quilt = results[worst]
        return {
            "sigma_max": sigma,
            "worst_node": worst,
            "active_quilt": sorted(quilt.quilt),
        }

    def quilt_signature(self) -> str:
        """The active quilts as one 64-character hex digest; two MQM
        releases compose linearly when their signatures match (Theorem
        4.4).

        The :func:`~repro.core.accounting.signature_digest` of the tuple of
        ``(node, sorted active-quilt members)`` pairs, in node order.
        Built once and kept until a per-node result may change (a search,
        a ``warm_start``, an edit).
        """
        self._node_results()
        signature = self._signature
        if signature is None:
            results = self._all_results()
            signature = signature_digest(
                tuple(
                    (node, tuple(sorted(results[node][1].quilt)))
                    for node in self.reference.nodes
                )
            )
            self._signature = signature
        return signature
