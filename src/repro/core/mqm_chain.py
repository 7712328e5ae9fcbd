"""Markov Quilt Mechanism specialized to Markov chains (Section 4.4).

Two mechanisms are provided:

* :class:`MQMExact` (Algorithm 3) computes max-influence *exactly* through
  the decomposition of Eq. (5), searching the reduced quilt set of
  Lemma 4.6 — two-sided quilts ``{X_{i-a}, X_{i+b}}``, one-sided quilts
  ``{X_{i-a}}`` / ``{X_{i+b}}`` and the trivial quilt.  When the family
  allows every initial distribution, the marginal term is maximized in
  closed form over initials (Appendix C.4); when a chain starts from its
  stationary distribution, influences are index-independent and the search
  collapses per Lemma C.4.
* :class:`MQMApprox` (Algorithm 4) replaces the exact max-influence with the
  closed-form mixing bound of Lemma 4.8 (or the tighter reversible form of
  Lemma C.1), parameterized only by ``pi_min`` and the eigengap ``g`` of the
  family, with the ``a*`` middle-node fast path of Lemma 4.9.

Indexing: nodes are 0-based (``t = 0 .. T-1``); a two-sided quilt is
``(a, b)`` with ``a, b >= 1``, nearby-set cardinality ``a + b - 1``.  The
left-only quilt ``{X_{t-a}}`` has nearby cardinality ``T - 1 - t + a`` and
the right-only quilt ``{X_{t+b}}`` has ``t + b``; the trivial quilt has
``T``.  Under Eq. (5) the ordered-pair ``(x, x')`` decomposition is::

    log P(X_Q | X_t = x) / P(X_Q | X_t = x')
      = [log p_t(x') - log p_t(x)]                  (marginal term, M)
      + max_u log P^a(u, x) / P^a(u, x')            (past term, L_a)
      + max_v log P^b(x, v) / P^b(x', v)            (future term, R_b)
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.core.laplace import Mechanism
from repro.core.queries import Query
from repro.distributions.chain_family import ChainFamily, FiniteChainFamily
from repro.distributions.markov import MarkovChain
from repro.exceptions import EnumerationError, NotApplicableError, ValidationError

#: Probabilities below this threshold are structural zeros.
ATOL = 1e-12

#: Safety cap for the per-node tensor search (non-stationary chains).
MAX_TENSOR_CELLS = 50_000_000

#: Cap on the exact two-sided influence table edge (memory/time guard).
MAX_EXACT_WINDOW_LARGE_K = 1024
MAX_EXACT_WINDOW_SMALL_K = 4096

#: Cap on the number of candidate quilt extents per side for MQMApprox's
#: single middle-node fast path before switching to a geometric ladder.
MAX_APPROX_CANDIDATES = 2048

#: Candidate-ladder cap for the per-length table searches (multi-segment
#: datasets evaluate hundreds of lengths; restricting the quilt search to a
#: geometric ladder of extents keeps that linear-time while remaining a
#: valid — merely slightly conservative — mechanism).
TABLE_LADDER_CAP = 192


# ----------------------------------------------------------------------
# Low-level log-ratio tables
# ----------------------------------------------------------------------
def _sup_ratio_table(numer_logs: np.ndarray, denom_logs: np.ndarray) -> np.ndarray:
    """``out[x, x'] = max_u numer_logs[u, x] - denom_logs[u, x']``.

    ``-inf - -inf`` (both probabilities zero) contributes nothing and is
    mapped to ``-inf``; ``finite - -inf`` correctly becomes ``+inf`` (the
    ratio is unbounded, making the quilt unusable for that pair).
    """
    with np.errstate(invalid="ignore"):
        diff = numer_logs[:, :, None] - denom_logs[:, None, :]
    diff = np.where(np.isnan(diff), -np.inf, diff)
    return diff.max(axis=0)


def _masked_max(matrix: np.ndarray, valid: np.ndarray) -> float:
    """Max over entries where ``valid``; ``-inf`` when nothing is valid."""
    if not valid.any():
        return -np.inf
    return float(matrix[valid].max())


class _ChainTables:
    """Cached Eq. (5) term tables for one chain.

    ``left(a)`` and ``right(b)`` are the past/future ``(k, k)`` tables;
    ``marginal_term(t)`` is the marginal matrix (fixed-initial or the
    Appendix C.4 initial-free version); ``valid_pairs(t)`` is the boolean
    admissible ordered-pair mask at node ``t``.
    """

    def __init__(
        self, chain: MarkovChain, *, free_initial: bool, restrict_support: bool = True
    ) -> None:
        self.chain = chain
        self.free_initial = free_initial
        #: When true (default), the Eq. (5) maximum over the past value ``u``
        #: is restricted to values achievable at node ``t - a`` — sound per
        #: Definition 4.1 and slightly tighter than the paper's literal
        #: Eq. (5), which ranges over the whole state space.  Set false to
        #: match the paper's published numbers bit-for-bit (e.g. the running
        #: example's sigma = 13.0219 under theta_1, whose initial
        #: distribution makes state 1 unreachable at X_1).
        self.restrict_support = restrict_support
        self.k = chain.n_states
        self._left: dict[tuple[int, tuple[bool, ...] | None], np.ndarray] = {}
        self._right: dict[int, np.ndarray] = {}
        self._marginal_terms: dict[int, np.ndarray] = {}
        self._valid: dict[int, np.ndarray] = {}
        self._off_diag = ~np.eye(self.k, dtype=bool)

    def support(self, t: int) -> np.ndarray:
        """Boolean mask of states with positive marginal at node ``t``."""
        if self.free_initial:
            if t == 0:
                return np.ones(self.k, dtype=bool)
            logs = self.chain.log_power(t)
            return np.isfinite(logs).any(axis=0)
        return self.chain.marginal(t) > ATOL

    def valid_pairs(self, t: int) -> np.ndarray:
        """Admissible ordered pairs ``(x, x')``: both supported, distinct."""
        if t not in self._valid:
            supp = self.support(t)
            self._valid[t] = supp[:, None] & supp[None, :] & self._off_diag
        return self._valid[t]

    def marginal_term(self, t: int) -> np.ndarray:
        """``M[x, x'] = log p_t(x') - log p_t(x)`` (or its C.4 supremum)."""
        if t not in self._marginal_terms:
            if self.free_initial:
                if t == 0:
                    # Node 0 never owns a left-reaching quilt; the supremum
                    # over initial distributions is unbounded.
                    term = np.full((self.k, self.k), np.inf)
                else:
                    logs = self.chain.log_power(t)
                    # out[x, x'] = max_y logs[y, x'] - logs[y, x]
                    term = _sup_ratio_table(logs, logs).T
            else:
                with np.errstate(divide="ignore"):
                    logp = np.log(self.chain.marginal(t))
                with np.errstate(invalid="ignore"):
                    term = logp[None, :] - logp[:, None]
                term = np.where(np.isnan(term), -np.inf, term)
            self._marginal_terms[t] = term
        return self._marginal_terms[t]

    def left(self, a: int, t: int | None = None) -> np.ndarray:
        """Past table ``L_a[x, x'] = max_u log P^a(u,x)/P^a(u,x')``.

        When ``t`` is given (fixed-initial chains), ``u`` ranges over the
        support of the marginal at ``t - a``; with a free initial
        distribution every ``u`` is achievable.
        """
        mask_key: tuple[bool, ...] | None = None
        if self.restrict_support and not self.free_initial and t is not None:
            supp = self.support(t - a)
            if not supp.all():
                mask_key = tuple(bool(s) for s in supp)
        key = (a, mask_key)
        if key not in self._left:
            logs = self.chain.log_power(a)
            if mask_key is not None:
                logs = logs[np.array(mask_key), :]
            if logs.size == 0:
                table = np.full((self.k, self.k), -np.inf)
            else:
                table = _sup_ratio_table(logs, logs)
            self._left[key] = table
        return self._left[key]

    def right(self, b: int) -> np.ndarray:
        """Future table ``R_b[x, x'] = max_v log P^b(x,v)/P^b(x',v)``."""
        if b not in self._right:
            logs_t = self.chain.log_power(b).T
            self._right[b] = _sup_ratio_table(logs_t, logs_t)
        return self._right[b]


def chain_max_influence(
    chain: MarkovChain,
    t: int,
    a: int | None,
    b: int | None,
    *,
    free_initial: bool = False,
    restrict_support: bool = True,
) -> float:
    """Exact max-influence ``e_theta(X_Q | X_t)`` for one quilt (Eq. 5).

    ``a``/``b`` give the quilt endpoints ``{X_{t-a}, X_{t+b}}``; pass ``None``
    to drop a side (one-sided quilts) or both for the trivial quilt
    (influence 0).  Node indices are 0-based; ``free_initial`` selects the
    Appendix C.4 supremum over initial distributions.
    """
    if a is None and b is None:
        return 0.0
    if a is not None and (a < 1 or t - a < 0):
        raise ValidationError(f"left endpoint t-a={t - a} out of range")
    if b is not None and b < 1:
        raise ValidationError(f"right gap b={b} must be >= 1")
    tables = _ChainTables(
        chain, free_initial=free_initial, restrict_support=restrict_support
    )
    valid = tables.valid_pairs(t)
    total = np.zeros((chain.n_states, chain.n_states))
    if a is not None:
        with np.errstate(invalid="ignore"):
            total = total + tables.marginal_term(t) + tables.left(a, t)
    if b is not None:
        with np.errstate(invalid="ignore"):
            total = total + tables.right(b)
    total = np.where(np.isnan(total), -np.inf, total)
    result = _masked_max(total, valid)
    if result == -np.inf:
        # Fewer than two admissible values: nothing to protect.
        return 0.0
    return max(result, 0.0)


# ----------------------------------------------------------------------
# sigma-max search over index-independent score tables
# ----------------------------------------------------------------------
def sigma_max_from_iid_tables(
    length: int,
    epsilon: float,
    a_values: np.ndarray,
    b_values: np.ndarray,
    influence_two_sided: np.ndarray,
    influence_left: np.ndarray,
    influence_right: np.ndarray,
) -> float:
    """``max_t sigma_t`` when max-influence does not depend on ``t``.

    Applies to stationary-start chains under MQMExact and always under
    MQMApprox.  ``a_values``/``b_values`` are the sorted candidate quilt
    extents; ``influence_two_sided[i, j]`` is the influence of the quilt
    ``(a_values[i], b_values[j])`` and the one-sided arrays match their
    candidate lists.  The trivial quilt (score ``length / epsilon``) is
    always considered.

    The search is exact over the candidate set: nodes within the window of
    either boundary are evaluated directly (vectorized), and the interior
    maximum uses the fact that for interior nodes the two-sided option is a
    constant while the left/right one-sided scores are monotone in ``t``
    (decreasing/increasing), so their pointwise minimum is unimodal and the
    maximizer sits at the crossing.
    """
    if length < 1:
        raise ValidationError(f"chain length must be >= 1, got {length}")
    trivial = length / epsilon
    a_values = np.asarray(a_values, dtype=np.int64)
    b_values = np.asarray(b_values, dtype=np.int64)
    if a_values.size == 0 or b_values.size == 0:
        return trivial

    with np.errstate(invalid="ignore"):
        gap_two = epsilon - influence_two_sided
        gap_left = epsilon - influence_left
        gap_right = epsilon - influence_right
    cards = (a_values[:, None] + b_values[None, :] - 1).astype(float)
    score_two = np.where(gap_two > 0, cards / np.where(gap_two > 0, gap_two, 1.0), np.inf)
    # Prefix minimum: best two-sided score using extents <= (a_max, b_max).
    prefix_two = np.minimum.accumulate(np.minimum.accumulate(score_two, axis=0), axis=1)
    inv_left = np.where(gap_left > 0, 1.0 / np.where(gap_left > 0, gap_left, 1.0), np.inf)
    inv_right = np.where(gap_right > 0, 1.0 / np.where(gap_right > 0, gap_right, 1.0), np.inf)

    window_a = int(a_values.max())
    window_b = int(b_values.max())

    def counts_leq(values: np.ndarray, limit: np.ndarray) -> np.ndarray:
        """Per-node number of candidate extents within the room limit."""
        return np.searchsorted(values, limit, side="right")

    def sigma_for_nodes(nodes: np.ndarray) -> np.ndarray:
        room_left = nodes
        room_right = length - 1 - nodes
        n_a = counts_leq(a_values, room_left)
        n_b = counts_leq(b_values, room_right)
        best = np.full(nodes.shape, trivial)
        both = (n_a > 0) & (n_b > 0)
        if both.any():
            best[both] = np.minimum(best[both], prefix_two[n_a[both] - 1, n_b[both] - 1])
        # Left-only quilts: score (length - 1 - t + a) / (eps - e_left(a)).
        with np.errstate(invalid="ignore"):
            left_scores = (room_right[:, None] + a_values[None, :]) * inv_left[None, :]
        left_scores = np.where(
            np.arange(a_values.size)[None, :] < n_a[:, None], left_scores, np.inf
        )
        best = np.minimum(best, np.nan_to_num(left_scores, nan=np.inf).min(axis=1))
        # Right-only quilts: score (t + b) / (eps - e_right(b)).
        with np.errstate(invalid="ignore"):
            right_scores = (room_left[:, None] + b_values[None, :]) * inv_right[None, :]
        right_scores = np.where(
            np.arange(b_values.size)[None, :] < n_b[:, None], right_scores, np.inf
        )
        best = np.minimum(best, np.nan_to_num(right_scores, nan=np.inf).min(axis=1))
        return best

    interior_start = window_a
    interior_end = length - 1 - window_b  # inclusive
    edge_nodes = np.unique(
        np.concatenate(
            [
                np.arange(0, min(interior_start, length)),
                np.arange(max(interior_end + 1, 0), length),
            ]
        )
    )
    sigma = float(sigma_for_nodes(edge_nodes).max()) if edge_nodes.size else 0.0

    if interior_start <= interior_end:
        two_const = float(prefix_two[-1, -1])

        def one_sided_min(room: float, values: np.ndarray, inv: np.ndarray) -> float:
            with np.errstate(invalid="ignore"):
                scores = (room + values) * inv
            scores = np.nan_to_num(scores, nan=np.inf)
            return float(scores.min()) if scores.size else np.inf

        def lb(t: int) -> float:
            return one_sided_min(float(length - 1 - t), a_values.astype(float), inv_left)

        def rb(t: int) -> float:
            return one_sided_min(float(t), b_values.astype(float), inv_right)

        # lb decreases with t, rb increases: min(lb, rb) is unimodal, peaked
        # where they cross.  Binary-search the crossing.
        lo, hi = interior_start, interior_end
        while lo < hi:
            mid = (lo + hi) // 2
            if rb(mid) >= lb(mid):
                hi = mid
            else:
                lo = mid + 1
        candidates = {interior_start, interior_end, lo, max(interior_start, lo - 1)}
        peak = max(min(lb(t), rb(t)) for t in candidates)
        sigma = max(sigma, min(trivial, two_const, peak))
    return sigma


def _geometric_ladder(max_value: int, cap: int) -> np.ndarray:
    """Sorted unique integers ``1..max_value``; geometric once above ``cap``."""
    if max_value <= cap:
        return np.arange(1, max_value + 1, dtype=np.int64)
    dense = np.arange(1, cap // 2 + 1, dtype=np.int64)
    sparse = np.unique(
        np.geomspace(cap // 2 + 1, max_value, num=cap - dense.size).astype(np.int64)
    )
    return np.unique(np.concatenate([dense, sparse, [max_value]]))


# ----------------------------------------------------------------------
# MQMExact (Algorithm 3)
# ----------------------------------------------------------------------
class MQMExact(Mechanism):
    """Algorithm 3: exact Markov Quilt Mechanism for Markov chains.

    Parameters
    ----------
    family:
        A :class:`~repro.distributions.chain_family.ChainFamily` (or a single
        :class:`MarkovChain`, wrapped into a singleton family).  For families
        with ``free_initial`` the Appendix C.4 optimization over initial
        distributions is applied per transition matrix.
    epsilon:
        Privacy parameter.
    max_window:
        The quilt-extent cap ``l`` of Algorithm 3 (endpoints at distance
        ``<= l``).  ``None`` derives it from MQMApprox's optimal quilt (the
        paper's procedure for the real-data experiments) and falls back to
        the full chain for short chains.
    restrict_support:
        When true (default), the Eq. (5) maximum over past values is
        restricted to values achievable under theta (tighter, still
        private); false reproduces the paper's literal Eq. (5).
    """

    name = "MQMExact"

    def __init__(
        self,
        family: ChainFamily | MarkovChain,
        epsilon: float,
        *,
        max_window: int | None = None,
        restrict_support: bool = True,
    ) -> None:
        super().__init__(epsilon)
        if isinstance(family, MarkovChain):
            family = FiniteChainFamily.singleton(family)
        self.family = family
        self.max_window = max_window
        self.restrict_support = restrict_support
        self._sigma_cache: dict[tuple[int, ...], float] = {}
        self._table_cache: dict[tuple[int, int], tuple] = {}
        #: The calibration fingerprint both memos were filled under (see
        #: :meth:`_length_results`).
        self._sigma_inputs = self.calibration_fingerprint()

    # -- public API ----------------------------------------------------
    def calibration_fingerprint(self) -> tuple:
        """Everything the noise scale depends on besides query and lengths:
        the family Theta (content-hashed), epsilon, and the two search knobs
        (``max_window`` changes which quilts are considered; the
        ``restrict_support`` variant computes a different — tighter — Eq. (5)
        maximum)."""
        return (
            "MQMExact",
            self.epsilon,
            self.family.fingerprint(),
            self.max_window,
            self.restrict_support,
        )

    def _length_results(self) -> dict[tuple[int, ...], float]:
        """``_sigma_cache``, emptied first (with the chain-table memo) when
        a part of :meth:`calibration_fingerprint` was reassigned since its
        entries were computed."""
        parameters = self.calibration_fingerprint()
        if parameters != self._sigma_inputs:
            self._sigma_cache = {}
            self._table_cache = {}
            self._sigma_inputs = parameters
        return self._sigma_cache

    def export_calibration_state(self) -> dict:
        """JSON-safe snapshot of the per-length-set sigma results.

        The serving layer stores this alongside the cached scale so that a
        warm (possibly on-disk) cache entry can restore the mechanism's
        internal memo via :meth:`warm_start` — subsequent ``sigma_max`` calls
        for the same length sets then cost a dictionary lookup instead of a
        quilt search.  Only valid under an identical
        :meth:`calibration_fingerprint`.
        """
        return {
            "sigma_by_lengths": [
                [list(key), float(value)] for key, value in self._length_results().items()
            ]
        }

    def warm_start(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_calibration_state`."""
        results = self._length_results()
        for key, value in state.get("sigma_by_lengths", []):
            results[tuple(int(n) for n in key)] = float(value)

    def sigma_max(self, lengths: Iterable[int] | int) -> float:
        """``sigma_max`` over chains in Theta and segment lengths."""
        if isinstance(lengths, (int, np.integer)):
            lengths = (int(lengths),)
        key = tuple(sorted(set(int(n) for n in lengths)))
        if any(n < 1 for n in key):
            raise ValidationError("segment lengths must be >= 1")
        results = self._length_results()
        if key not in results:
            sigma = 0.0
            for index, chain in enumerate(self.family.chains()):
                for length in key:
                    sigma = max(sigma, self._sigma_for_chain(index, chain, length))
            results[key] = sigma
        return results[key]

    def noise_scale(self, query: Query, data) -> float:
        lengths = getattr(data, "segment_lengths", None) or (int(np.asarray(data).size),)
        return query.lipschitz * self.sigma_max(lengths)

    def scale_details(self, query: Query, data) -> dict:
        lengths = getattr(data, "segment_lengths", None) or (int(np.asarray(data).size),)
        return {"sigma_max": self.sigma_max(lengths)}

    # -- internals -------------------------------------------------------
    def _window_for(self, chain: MarkovChain, length: int) -> int:
        if self.max_window is not None:
            return max(1, min(self.max_window, length))
        window = None
        try:
            approx = MQMApprox(self.family, self.epsilon)
            window = approx.optimal_quilt_extent(length)
        except NotApplicableError:
            window = None
        if window is None:
            window = min(length, 256)
        cap = (
            MAX_EXACT_WINDOW_SMALL_K
            if chain.n_states <= 8
            else MAX_EXACT_WINDOW_LARGE_K
        )
        return max(1, min(window, length, cap))

    def _sigma_for_chain(self, index: int, chain: MarkovChain, length: int) -> float:
        window = self._window_for(chain, length)
        stationary_start = (
            not self.family.free_initial
            and float(np.abs(chain.initial @ chain.transition - chain.initial).max()) < 1e-10
            and float(chain.initial.min()) > ATOL
        )
        if stationary_start:
            tables = self._stationary_tables(index, chain, window)
            return sigma_max_from_iid_tables(length, self.epsilon, *tables)
        cells = length * window * window * chain.n_states**2
        if cells > MAX_TENSOR_CELLS:
            raise EnumerationError(
                f"per-node exact search needs ~{cells:.2g} cells for T={length}, "
                f"l={window}, k={chain.n_states}; start the chain from its "
                "stationary distribution or reduce max_window"
            )
        return self._sigma_per_node(chain, length, window)

    def _stationary_tables(self, index: int, chain: MarkovChain, window: int) -> tuple:
        key = (index, window)
        if key not in self._table_cache:
            tables = _ChainTables(
                chain, free_initial=False, restrict_support=self.restrict_support
            )
            marginal = tables.marginal_term(0)  # stationary: same for all t
            valid = tables.valid_pairs(0)
            invalid_mask = np.where(valid, 0.0, -np.inf)
            a_values = _geometric_ladder(window, TABLE_LADDER_CAP)
            b_values = a_values.copy()
            lefts = np.stack([tables.left(int(a)) for a in a_values])
            rights = np.stack([tables.right(int(b)) for b in b_values])
            with np.errstate(invalid="ignore"):
                left_tot = marginal[None] + lefts + invalid_mask[None]
                right_tot = rights + invalid_mask[None]
            left_tot = np.where(np.isnan(left_tot), -np.inf, left_tot)
            right_tot = np.where(np.isnan(right_tot), -np.inf, right_tot)
            e_left = np.maximum(left_tot.max(axis=(1, 2)), 0.0)
            e_right = np.maximum(right_tot.max(axis=(1, 2)), 0.0)
            e_two = np.empty((a_values.size, b_values.size))
            for i in range(a_values.size):
                with np.errstate(invalid="ignore"):
                    combined = left_tot[i][None] + rights
                combined = np.where(np.isnan(combined), -np.inf, combined)
                e_two[i] = combined.max(axis=(1, 2))
            e_two = np.maximum(e_two, 0.0)
            self._table_cache[key] = (a_values, b_values, e_two, e_left, e_right)
        return self._table_cache[key]

    def _sigma_per_node(self, chain: MarkovChain, length: int, window: int) -> float:
        tables = _ChainTables(
            chain,
            free_initial=self.family.free_initial,
            restrict_support=self.restrict_support,
        )
        trivial = length / self.epsilon
        side_max = min(window, length - 1)
        rights = (
            np.stack([tables.right(b) for b in range(1, side_max + 1)])
            if side_max >= 1
            else None
        )
        # Default (unmasked) left tables, hoisted out of the node loop; nodes
        # whose past hits an incompletely-supported marginal get a per-(t, a)
        # masked replacement below (rare: typically only t - a = 0).
        lefts = (
            np.stack([tables.left(a) for a in range(1, side_max + 1)])
            if side_max >= 1
            else None
        )
        restricted: list[int] = []
        if self.restrict_support and not self.family.free_initial:
            restricted = [
                pos for pos in range(length - 1) if not tables.support(pos).all()
            ]
        sigma = 0.0
        for t in range(length):
            valid = tables.valid_pairs(t)
            if not valid.any():
                continue  # nothing to protect at this node under this theta
            invalid_mask = np.where(valid, 0.0, -np.inf)
            best = trivial
            amax = min(t, window)
            bmax = min(length - 1 - t, window)
            marg = tables.marginal_term(t)
            left_raw = None
            if amax >= 1:
                with np.errstate(invalid="ignore"):
                    left_raw = marg[None] + lefts[:amax]
                left_raw = np.where(np.isnan(left_raw), -np.inf, left_raw)
                for pos in restricted:
                    a = t - pos
                    if 1 <= a <= amax:
                        with np.errstate(invalid="ignore"):
                            row = marg + tables.left(a, t)
                        left_raw[a - 1] = np.where(np.isnan(row), -np.inf, row)
                with np.errstate(invalid="ignore"):
                    left_tot = left_raw + invalid_mask[None]
                left_tot = np.where(np.isnan(left_tot), -np.inf, left_tot)
                e_left = np.maximum(left_tot.max(axis=(1, 2)), 0.0)
                cards = length - 1 - t + np.arange(1, amax + 1, dtype=float)
                best = min(best, _best_score(cards, e_left, self.epsilon))
            if bmax >= 1:
                with np.errstate(invalid="ignore"):
                    right_tot = rights[:bmax] + invalid_mask[None]
                right_tot = np.where(np.isnan(right_tot), -np.inf, right_tot)
                e_right = np.maximum(right_tot.max(axis=(1, 2)), 0.0)
                cards = t + np.arange(1, bmax + 1, dtype=float)
                best = min(best, _best_score(cards, e_right, self.epsilon))
            if amax >= 1 and bmax >= 1:
                with np.errstate(invalid="ignore"):
                    combined = (
                        left_raw[:, None] + rights[None, :bmax] + invalid_mask[None, None]
                    )
                combined = np.where(np.isnan(combined), -np.inf, combined)
                e_two = np.maximum(combined.max(axis=(2, 3)), 0.0)
                cards = (
                    np.arange(1, amax + 1, dtype=float)[:, None]
                    + np.arange(1, bmax + 1, dtype=float)[None, :]
                    - 1.0
                )
                best = min(best, _best_score(cards, e_two, self.epsilon))
            sigma = max(sigma, best)
        return sigma


def _best_score(cards: np.ndarray, influences: np.ndarray, epsilon: float) -> float:
    with np.errstate(invalid="ignore"):
        gaps = epsilon - influences
    scores = np.where(gaps > 0, cards / np.where(gaps > 0, gaps, 1.0), np.inf)
    scores = np.nan_to_num(scores, nan=np.inf)
    return float(scores.min()) if scores.size else np.inf


# ----------------------------------------------------------------------
# MQMApprox (Algorithm 4)
# ----------------------------------------------------------------------
class MQMApprox(Mechanism):
    """Algorithm 4: mixing-bound Markov Quilt Mechanism for Markov chains.

    The max-influence of the quilt ``{X_{t-a}, X_{t+b}}`` is upper-bounded in
    closed form (Lemma 4.8 / Lemma C.1) by::

        log((1 + D_b) / (1 - D_b)) + 2 * log((1 + D_a) / (1 - D_a)),
        D_t = exp(-t * g / 2) / pi_min

    using only ``pi_min`` (Eq. 6) and the eigengap ``g`` (Eq. 7/14) of the
    family.  One-sided quilts use the single/double factor respectively.

    Parameters
    ----------
    family:
        The distribution class; must consist of irreducible aperiodic chains.
    epsilon:
        Privacy parameter.
    reversible:
        Force the reversible (``2 * (1 - |lambda_2(P)|)``, Lemma C.1) or the
        general (``1 - |lambda_2(P P*)|``, Lemma 4.8) eigengap.  ``None``
        auto-detects per chain, which matches Eq. (14).
    """

    name = "MQMApprox"

    def __init__(
        self,
        family: ChainFamily | MarkovChain,
        epsilon: float,
        *,
        reversible: bool | None = None,
    ) -> None:
        super().__init__(epsilon)
        if isinstance(family, MarkovChain):
            family = FiniteChainFamily.singleton(family)
        self.family = family
        self.pi_min = float(family.pi_min())
        self.gap = float(self._family_eigengap(reversible))
        if self.pi_min <= 0 or self.gap <= 0:
            raise NotApplicableError(
                "MQMApprox requires irreducible aperiodic chains with positive "
                f"stationary mass (pi_min={self.pi_min:.3g}, g={self.gap:.3g})"
            )
        self._sigma_cache: dict[int, float] = {}
        #: The scalars ``_sigma_cache`` was filled under (see
        #: :meth:`_length_results`).
        self._sigma_inputs = self.calibration_fingerprint()

    def _family_eigengap(self, reversible: bool | None) -> float:
        if reversible is None:
            return self.family.eigengap()
        if isinstance(self.family, FiniteChainFamily):
            return min(chain.eigengap(reversible=reversible) for chain in self.family.chains())
        if reversible and getattr(self.family, "reversible", False):
            return self.family.eigengap()
        return min(chain.eigengap(reversible=reversible) for chain in self.family.chains())

    # -- calibration identity ---------------------------------------------
    def calibration_fingerprint(self) -> tuple:
        """Lemma 4.8's bound reads the family only through ``pi_min`` and the
        eigengap, so those two scalars (plus epsilon) are the *complete*
        calibration identity — two different families with the same mixing
        parameters genuinely share every MQMApprox noise scale."""
        return ("MQMApprox", self.epsilon, self.pi_min, self.gap)

    def _length_results(self) -> dict[int, float]:
        """``_sigma_cache``, emptied first when a scalar of
        :meth:`calibration_fingerprint` was reassigned since its entries
        were computed."""
        parameters = self.calibration_fingerprint()
        if parameters != self._sigma_inputs:
            self._sigma_cache = {}
            self._sigma_inputs = parameters
        return self._sigma_cache

    def export_calibration_state(self) -> dict:
        """JSON-safe snapshot of the per-length sigma table (see
        :meth:`MQMExact.export_calibration_state`)."""
        return {
            "sigma_by_length": [
                [int(length), float(value)]
                for length, value in self._length_results().items()
            ]
        }

    def warm_start(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_calibration_state`."""
        results = self._length_results()
        for length, value in state.get("sigma_by_length", []):
            results[int(length)] = float(value)

    # -- closed-form influence bounds -----------------------------------
    def _delta(self, t: np.ndarray | float) -> np.ndarray | float:
        return np.exp(-np.asarray(t, dtype=float) * self.gap / 2.0) / self.pi_min

    def right_influence(self, b: np.ndarray | float) -> np.ndarray | float:
        """Bound for the future-only quilt ``{X_{t+b}}``."""
        delta = self._delta(b)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.log((1.0 + delta) / (1.0 - delta))
        return np.where(delta < 1.0, value, np.inf)

    def left_influence(self, a: np.ndarray | float) -> np.ndarray | float:
        """Bound for the past-only quilt ``{X_{t-a}}`` (squared factor)."""
        return 2.0 * self.right_influence(a)

    def two_sided_influence(
        self, a: np.ndarray | float, b: np.ndarray | float
    ) -> np.ndarray | float:
        """Lemma 4.8 bound for ``{X_{t-a}, X_{t+b}}``."""
        return self.left_influence(a) + self.right_influence(b)

    def a_star(self) -> int:
        """The search radius of Lemma 4.9."""
        ratio = (math.exp(self.epsilon / 6.0) + 1.0) / (math.exp(self.epsilon / 6.0) - 1.0)
        return 2 * math.ceil(math.log(ratio / self.pi_min) / self.gap)

    # -- sigma search ------------------------------------------------------
    def sigma_max(self, lengths: Iterable[int] | int) -> float:
        """``sigma_max`` over segment lengths (scores are index-independent)."""
        if isinstance(lengths, (int, np.integer)):
            lengths = (int(lengths),)
        results = self._length_results()
        return max(self._sigma_for_length(results, int(n)) for n in lengths)

    def _sigma_for_length(self, results: dict[int, float], length: int) -> float:
        if length < 1:
            raise ValidationError("segment lengths must be >= 1")
        if length not in results:
            astar = self.a_star()
            if length >= 8 * astar:
                results[length] = self._sigma_middle(length, astar)
            else:
                results[length] = self._sigma_full(length, astar)
        return results[length]

    def _candidates(self, max_extent: int) -> np.ndarray:
        return _geometric_ladder(max_extent, MAX_APPROX_CANDIDATES)

    def _sigma_middle(self, length: int, astar: int) -> float:
        """Lemma 4.9 fast path: only the middle node, extents ``<= 4 a*``."""
        values = self._candidates(4 * astar)
        e_left = np.asarray(self.left_influence(values))
        e_right = np.asarray(self.right_influence(values))
        influence = e_left[:, None] + e_right[None, :]
        cards = (values[:, None] + values[None, :] - 1).astype(float)
        best = _best_score(cards, influence, self.epsilon)
        return min(best, length / self.epsilon)

    def _sigma_full(self, length: int, astar: int) -> float:
        window = min(length, 4 * astar)
        values = _geometric_ladder(window, TABLE_LADDER_CAP)
        e_left = np.asarray(self.left_influence(values))
        e_right = np.asarray(self.right_influence(values))
        influence = e_left[:, None] + e_right[None, :]
        return sigma_max_from_iid_tables(
            length, self.epsilon, values, values, influence, e_left, e_right
        )

    def optimal_quilt_extent(self, length: int) -> int | None:
        """Extent ``a + b`` of the best two-sided quilt for the middle node;
        ``None`` when the trivial quilt wins.  Used by the paper to size
        MQMExact's search window on the real datasets."""
        astar = self.a_star()
        values = self._candidates(min(4 * astar, max(length, 1)))
        mid = (length - 1) // 2
        feasible_a = values[values <= mid]
        feasible_b = values[values <= max(length - 1 - mid, 0)]
        if feasible_a.size == 0 or feasible_b.size == 0:
            return None
        e_left = np.asarray(self.left_influence(feasible_a))
        e_right = np.asarray(self.right_influence(feasible_b))
        influence = e_left[:, None] + e_right[None, :]
        cards = (feasible_a[:, None] + feasible_b[None, :] - 1).astype(float)
        with np.errstate(invalid="ignore"):
            gaps = self.epsilon - influence
        scores = np.where(gaps > 0, cards / np.where(gaps > 0, gaps, 1.0), np.inf)
        if not np.isfinite(scores).any():
            return None
        best = np.unravel_index(np.argmin(scores), scores.shape)
        if scores[best] >= length / self.epsilon:
            return None
        return int(feasible_a[best[0]] + feasible_b[best[1]])

    def noise_scale(self, query: Query, data) -> float:
        lengths = getattr(data, "segment_lengths", None) or (int(np.asarray(data).size),)
        return query.lipschitz * self.sigma_max(lengths)

    def scale_details(self, query: Query, data) -> dict:
        lengths = getattr(data, "segment_lengths", None) or (int(np.asarray(data).size),)
        return {
            "sigma_max": self.sigma_max(lengths),
            "pi_min": self.pi_min,
            "eigengap": self.gap,
            "a_star": self.a_star(),
        }
