"""The Gaussian Markov Quilt Mechanism (Rényi-Pufferfish additive noise).

Pierquin et al. ("Rényi Pufferfish Privacy", PAPERS.md) show that general
additive-noise mechanisms — Gaussian in particular — satisfy Pufferfish
guarantees when the noise covers the *shift* a secret change induces on the
query answer, with the remaining correlation leakage handled exactly as in
the Markov Quilt Mechanism.  :class:`GaussianMarkovQuiltMechanism` is that
construction on the paper's Algorithm 2 decomposition:

* the quilt search, max-influence computation (the PR 3 tensorized
  variable-elimination kernels), memo/warm-start plumbing, and per-node
  parallel shards are inherited verbatim from
  :class:`~repro.core.markov_quilt.MarkovQuiltMechanism`;
* only the per-quilt *score* changes: an admissible quilt ``(X_N, X_Q,
  X_R)`` with max-influence ``e < epsilon`` shifts the query answer by at
  most ``L * card(X_N)``, and a zero-concentrated-DP calibration picks the
  Gaussian standard deviation ``sigma = L * card(X_N) / sqrt(2 * rho)``
  with ``rho = rho(epsilon - e, delta)`` such that the Gaussian shift
  accounts for ``(epsilon - e, delta)`` and the quilt leakage for the
  remaining ``e`` — together ``(epsilon, delta)``-Pufferfish per release.

The zCDP calibration (Bun–Steinke:  ``rho``-zCDP implies ``(rho + 2 *
sqrt(rho * log(1/delta)), delta)``-DP, inverted in closed form by
:func:`gaussian_rho`) is valid for **every** ``epsilon > 0`` — unlike the
classical ``sqrt(2 log(1.25/delta))/epsilon`` mechanism, which requires
``epsilon < 1`` and would silently under-noise at the paper's larger
privacy levels.

Why bother with Gaussian noise at all: each release's Rényi cost curve
(:meth:`GaussianMarkovQuiltMechanism.rdp_curve`) is quadratic in the order
with **no pure-epsilon floor**, so under the
:class:`~repro.core.accounting.RenyiAccountant` a stream of Gaussian
releases composes at the strong-composition rate from the first release —
the regime where one budget serves multiples of what linear accounting
admits.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.core.markov_quilt import MarkovQuiltMechanism
from repro.distributions.bayesnet import DiscreteBayesianNetwork, MarkovQuilt
from repro.exceptions import PrivacyParameterError


def gaussian_rho(epsilon: float, delta: float) -> float:
    """The zCDP level ``rho`` whose ``(epsilon(rho, delta), delta)``
    conversion equals ``epsilon``: ``(sqrt(log(1/delta) + epsilon) -
    sqrt(log(1/delta)))^2`` (the closed-form inverse of
    :func:`rho_to_epsilon`)."""
    if epsilon <= 0:
        raise PrivacyParameterError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise PrivacyParameterError(f"delta must be in (0, 1), got {delta}")
    log_term = math.log(1.0 / delta)
    return (math.sqrt(log_term + epsilon) - math.sqrt(log_term)) ** 2


def rho_to_epsilon(rho: float, delta: float) -> float:
    """Bun–Steinke conversion: ``rho``-zCDP implies ``(rho + 2 * sqrt(rho *
    log(1/delta)), delta)``-DP."""
    if rho < 0:
        raise PrivacyParameterError(f"rho must be >= 0, got {rho}")
    if not 0.0 < delta < 1.0:
        raise PrivacyParameterError(f"delta must be in (0, 1), got {delta}")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


class GaussianMarkovQuiltMechanism(MarkovQuiltMechanism):
    """Algorithm 2 with Gaussian noise and an ``(epsilon, delta)`` target.

    Parameters are those of
    :class:`~repro.core.markov_quilt.MarkovQuiltMechanism` plus ``delta``,
    the per-release failure probability.  The released noise is
    ``N(0, (L * sigma_max)^2)`` where ``sigma_max`` maximizes the per-node
    Gaussian scores over the same quilt candidates the Laplace variant
    searches (the max-influence values are identical — only the score
    formula differs — so calibrations share all the expensive inference
    work and the per-node parallel shard decomposition).

    Composition: under the linear accountant, K releases compose to
    ``(K * epsilon, K * delta)`` (basic composition — the accountant's
    ledger tracks the epsilon part).  Under the
    :class:`~repro.core.accounting.RenyiAccountant` the mechanism's own
    :meth:`rdp_curve` is charged instead, which composes at the
    strong-composition rate.  Both require the fixed-active-quilt condition
    the accountants enforce through quilt signatures.
    """

    name = "GaussianMarkovQuilt"
    noise_kind = "gaussian"

    def __init__(
        self,
        networks: Sequence[DiscreteBayesianNetwork],
        epsilon: float,
        *,
        delta: float = 1e-6,
        quilt_sets: "Mapping[str, Sequence[MarkovQuilt]] | None" = None,
        quilt_generator=None,
        max_radius: int | None = None,
    ) -> None:
        if not 0.0 < delta < 1.0:
            raise PrivacyParameterError(f"delta must be in (0, 1), got {delta}")
        # Set before super().__init__ so any eager score computation sees it.
        self.delta = float(delta)
        super().__init__(
            networks,
            epsilon,
            quilt_sets=quilt_sets,
            quilt_generator=quilt_generator,
            max_radius=max_radius,
        )

    # -- the one hook that differs from the Laplace MQM -------------------
    def _quilt_score(self, quilt: MarkovQuilt, influence: float) -> float:
        """Gaussian score: ``card(X_N) / sqrt(2 * rho(epsilon - e, delta))``.

        The quilt's leakage ``e`` spends part of the epsilon target; the
        Gaussian noise must deliver ``(epsilon - e, delta)`` against the
        ``L * card(X_N)`` shift, which the zCDP calibration prices at
        ``sigma = shift / sqrt(2 * rho)``.
        """
        return quilt.card_nearby() / math.sqrt(
            2.0 * gaussian_rho(self.epsilon - influence, self.delta)
        )

    def _leading_parameters(self) -> tuple:
        """The Laplace MQM's head re-tagged with the class and delta — a
        Gaussian calibration must never alias a Laplace one for the same
        Theta (the scales differ), nor two deltas each other."""
        return ("GaussianMarkovQuilt", float(self.delta), self.epsilon)

    def scale_details(self, query, data) -> dict:
        details = super().scale_details(query, data)
        snr, e_sup = self._rdp_summary()
        details["delta"] = self.delta
        details["rdp"] = {"max_snr": snr, "e_sup": e_sup}
        return details

    # -- Rényi cost curve --------------------------------------------------
    def _rdp_profile(self) -> list[tuple[float, float]]:
        """Per node: ``(shift/sigma ratio, active-quilt leakage e)``.

        The ratio is query-independent — the released standard deviation is
        ``L * sigma_max`` against a shift of ``L * card(X_N)``, so the
        Lipschitz constant cancels.  The leakage is recovered from the
        active quilt's score in closed form (the score inverts to
        ``rho``, and ``rho`` to ``epsilon - e``), so no max-influence
        computation is repeated here.
        """
        sigma = self.sigma_max()
        results = self.calibration_state_holder()
        profile = []
        for node in self.reference.nodes:
            score, quilt = results[node]
            card = float(quilt.card_nearby())
            rho = card * card / (2.0 * score * score)
            leakage = min(
                self.epsilon, max(0.0, self.epsilon - rho_to_epsilon(rho, self.delta))
            )
            profile.append((card / sigma, leakage))
        return profile

    def _rdp_summary(self) -> tuple[float, float]:
        profile = self._rdp_profile()
        return (
            max(ratio for ratio, _ in profile),
            max(leakage for _, leakage in profile),
        )

    def rdp_curve(self, orders: np.ndarray) -> np.ndarray:
        """Per-release Rényi cost at each order ``alpha``.

        For a secret pair at node ``i``: the released conditionals are
        Gaussian mixtures whose Rényi divergence splits (the shift-reduction
        argument of Pierquin et al.) into the Gaussian shift term ``alpha *
        (shift_i / sigma)^2 / 2`` plus the quilt's max-divergence leakage
        ``e_i``; the curve takes the max over nodes order-by-order.  At
        ``alpha = inf`` the Gaussian term is unbounded — the cost is
        ``inf``, which the Rényi accountant carries gracefully (the finite
        orders always dominate the conversion for Gaussian releases).
        """
        orders = np.asarray(orders, dtype=float)
        profile = self._rdp_profile()
        ratios = np.array([ratio for ratio, _ in profile])
        leakages = np.array([leakage for _, leakage in profile])
        with np.errstate(invalid="ignore"):
            per_node = 0.5 * orders[None, :] * (ratios**2)[:, None] + leakages[:, None]
        costs = per_node.max(axis=0)
        costs[np.isinf(orders)] = math.inf
        return costs
