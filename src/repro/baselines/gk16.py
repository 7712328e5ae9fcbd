"""GK16 — the Ghosh–Kleinberg influence-matrix baseline [14].

The paper compares the Markov Quilt Mechanism against the concurrent
mechanism of Ghosh and Kleinberg ("Inferential privacy guarantees for
differentially private mechanisms", arXiv:1603.01508), describing it as
follows (Section 5.1): the algorithm "defines and computes an 'influence
matrix' for each theta in Theta.  The algorithm applies only when the
spectral norm of this matrix is less than 1, and the standard deviation of
noise added increases as the spectral norm approaches 1."

No reference implementation exists, so this module reconstructs the
mechanism from that description (the substitution is documented in
DESIGN.md Section 4):

* the **influence matrix** ``Gamma_theta`` holds Dobrushin-style influence
  coefficients: ``Gamma[i, j]`` is the worst-case total-variation change of
  the conditional law ``P(X_i | X_j, rest)`` when ``X_j`` flips, maximized
  over the configurations of the remaining conditioning variables.  For a
  Markov chain only adjacent entries are non-zero, computed exactly from
  ``P(X_i | X_{i-1}, X_{i+1}) ∝ P(X_{i-1}, .) ⊙ P(., X_{i+1})``;
* with ``rho = max_theta ||Gamma_theta||_2 < 1`` the entry-DP Laplace
  mechanism run at the stronger budget ``epsilon (1 - rho) / (1 + rho)``
  guarantees inferential (Pufferfish) level ``epsilon``, i.e. noise scale
  ``L (1 + rho) / ((1 - rho) epsilon)``.

This reconstruction preserves every property the evaluation relies on:
inapplicability ("N/A") once ``rho >= 1`` regardless of epsilon, noise
diverging as ``rho -> 1``, and accuracy beating MQM for weakly correlated
families while losing (then failing entirely) as correlation grows.
"""

from __future__ import annotations



import numpy as np

from repro.core.laplace import Mechanism
from repro.core.queries import Query
from repro.distributions.chain_family import ChainFamily, FiniteChainFamily
from repro.distributions.markov import MarkovChain
from repro.exceptions import NotApplicableError, ValidationError

#: Spectral norms within this tolerance of 1 are treated as inapplicable.
RHO_RTOL = 1e-9


def _normalized_laws(weights: np.ndarray) -> np.ndarray:
    """Normalize the last axis into conditional laws; all-zero rows -> NaN
    (the conditioning event is impossible and must not contribute)."""
    totals = weights.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):
        laws = np.where(totals > 0, weights / np.where(totals > 0, totals, 1.0), np.nan)
    return laws


def _max_pairwise_tv(laws: np.ndarray, axis: int) -> float:
    """Max total-variation distance between laws that differ only along
    ``axis`` (vectorized over every other index); NaN laws are skipped."""
    a = np.expand_dims(laws, axis)
    b = np.expand_dims(laws, axis + 1)
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - b).sum(axis=-1)
    return 0.5 * float(np.nan_to_num(diff, nan=0.0).max(initial=0.0))


def _interior_coefficients(transition: np.ndarray) -> tuple[float, float]:
    """(past-neighbor, future-neighbor) influence of an interior node.

    ``P(X_t = x | X_{t-1} = u, X_{t+1} = v) ∝ P(u, x) P(x, v)``; the chain is
    homogeneous, so one computation covers every interior node.
    """
    # weights[u, v, x] = P(u, x) * P(x, v)
    weights = transition[:, None, :] * transition.T[None, :, :]
    laws = _normalized_laws(weights)
    gamma_prev = _max_pairwise_tv(laws, axis=0)  # vary u with v fixed
    laws_uv = np.swapaxes(laws, 0, 1)
    gamma_next = _max_pairwise_tv(laws_uv, axis=0)  # vary v with u fixed
    return gamma_prev, gamma_next


def _first_node_next_influence(
    transition: np.ndarray, initial: np.ndarray | None
) -> float:
    """Influence of ``X_2`` on ``X_1``: ``P(X_1 = x | X_2 = v) ∝ q(x) P(x, v)``.

    With a free initial distribution the weighting is uniform over states
    (the adversary may put mass anywhere).
    """
    k = transition.shape[0]
    weights_q = initial if initial is not None else np.ones(k)
    # weights[v, x] = q(x) * P(x, v)
    weights = (weights_q[:, None] * transition).T
    laws = _normalized_laws(weights)
    return _max_pairwise_tv(laws, axis=0)


def _last_node_prev_influence(transition: np.ndarray) -> float:
    """Influence of ``X_{T-1}`` on ``X_T``: conditional laws are the rows of P."""
    return _max_pairwise_tv(_normalized_laws(transition.copy()), axis=0)


def chain_influence_matrix(chain: MarkovChain, length: int, *, free_initial: bool = False) -> np.ndarray:
    """The tridiagonal influence matrix of a chain of ``length`` nodes.

    ``Gamma[t, t-1]`` is the influence of the past neighbor on node ``t``
    (maximized over the future neighbor's value and vice versa); all
    non-adjacent influences vanish by the Markov property.  Homogeneity
    makes every interior entry identical, so the build is O(k^4 + length).
    """
    if length < 1:
        raise ValidationError(f"length must be >= 1, got {length}")
    transition = chain.transition
    initial = None if free_initial else chain.initial
    gamma = np.zeros((length, length))
    if length == 1:
        return gamma
    first_next = _first_node_next_influence(transition, initial)
    last_prev = _last_node_prev_influence(transition)
    if length == 2:
        gamma[0, 1] = first_next
        gamma[1, 0] = last_prev
        return gamma
    gamma_prev, gamma_next = _interior_coefficients(transition)
    idx = np.arange(1, length - 1)
    gamma[idx, idx - 1] = gamma_prev
    gamma[idx, idx + 1] = gamma_next
    gamma[0, 1] = first_next
    gamma[length - 1, length - 2] = last_prev
    return gamma


def influence_spectral_norm(chain: MarkovChain, length: int, *, free_initial: bool = False) -> float:
    """``||Gamma_theta||_2`` for one chain.

    For long chains the norm of the tridiagonal Toeplitz-like matrix is
    estimated on a truncated window (entries far from the boundary repeat),
    which upper-approximates within numerical tolerance at a fraction of the
    cost.
    """
    window = min(length, 64)
    gamma = chain_influence_matrix(chain, window, free_initial=free_initial)
    norm = float(np.linalg.norm(gamma, 2))
    if length > window:
        # Interior coefficients repeat; the infinite-banded operator norm is
        # bounded by gamma_prev + gamma_next of an interior node, which the
        # truncated spectral norm approaches from below.  Take the max of
        # both estimates to stay conservative.
        mid = window // 2
        banded = float(gamma[mid, mid - 1] + gamma[mid, mid + 1])
        norm = max(norm, min(banded, norm * (1.0 + 1e-6)))
    return norm


class GK16Mechanism(Mechanism):
    """GK16 baseline: entry-DP Laplace at budget ``eps (1-rho)/(1+rho)``.

    Parameters
    ----------
    family:
        The distribution class; ``rho`` is the worst spectral norm over its
        (grid of) chains.
    epsilon:
        Target Pufferfish/inferential privacy level.
    length:
        Chain length used to build the influence matrices.  The noise scale
        is evaluated lazily against the dataset's longest segment when not
        provided.

    Raises
    ------
    NotApplicableError
        When ``rho >= 1`` — the "N/A" entries of Tables 1 and 3.  The
        condition depends only on Theta, never on epsilon, matching the
        paper's observation.
    """

    name = "GK16"

    def __init__(
        self,
        family: ChainFamily | MarkovChain,
        epsilon: float,
        *,
        length: int | None = None,
    ) -> None:
        super().__init__(epsilon)
        if isinstance(family, MarkovChain):
            family = FiniteChainFamily.singleton(family)
        self.family = family
        self.length = length

    def calibration_fingerprint(self) -> tuple:
        return ("GK16", self.epsilon, self.family.fingerprint(), self.length)

    def rho(self, length: int) -> float:
        """Worst spectral norm over the family for the given chain length."""
        norms = self.calibration_state_holder()
        if length not in norms:
            free = self.family.free_initial
            norms[length] = max(
                influence_spectral_norm(chain, length, free_initial=free)
                for chain in self.family.chains()
            )
        return norms[length]

    def is_applicable(self, length: int | None = None) -> bool:
        """Whether ``rho < 1`` (the condition is epsilon-independent)."""
        length = length or self.length
        if length is None:
            raise ValidationError("provide a chain length to evaluate applicability")
        return self.rho(length) < 1.0 - RHO_RTOL

    def amplification(self, length: int) -> float:
        """The noise multiplier ``(1 + rho) / (1 - rho)``."""
        rho = self.rho(length)
        if rho >= 1.0 - RHO_RTOL:
            raise NotApplicableError(
                f"GK16 does not apply: influence spectral norm {rho:.4f} >= 1"
            )
        return (1.0 + rho) / (1.0 - rho)

    def noise_scale(self, query: Query, data) -> float:
        lengths = getattr(data, "segment_lengths", None) or (int(np.asarray(data).size),)
        length = self.length or int(max(lengths))
        return query.lipschitz * self.amplification(length) / self.epsilon

    def scale_details(self, query: Query, data) -> dict:
        lengths = getattr(data, "segment_lengths", None) or (int(np.asarray(data).size),)
        length = self.length or int(max(lengths))
        return {"rho": self.rho(length), "amplification": self.amplification(length)}
