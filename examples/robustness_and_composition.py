"""Robustness against mis-specified adversaries, and composition.

Two operational questions the paper answers beyond the core mechanisms:

1. **What if the adversary's belief is not in Theta?**  Theorem 2.4: an
   eps-Pufferfish mechanism still guarantees eps + 2*Delta against a belief
   at conditional max-divergence Delta from Theta.  We compute Delta for a
   drifting belief and watch the effective epsilon degrade gracefully.

2. **Can I release repeatedly?**  Pufferfish does not compose in general,
   but the Markov Quilt Mechanism does when every release uses the same
   active quilts (Theorem 4.4).  The CompositionAccountant tracks this and
   enforces a budget.

Run:  python examples/robustness_and_composition.py
"""

import numpy as np

from repro import (
    CompositionAccountant,
    FiniteChainFamily,
    MQMExact,
    MarkovChain,
    MarkovChainModel,
    Secret,
    StateFrequencyQuery,
    TimeSeriesDataset,
    adversary_distance,
    effective_epsilon,
)
from repro.core.models import TabularDataModel
from repro.exceptions import PrivacyParameterError

EPSILON = 1.0
SEED = 99


def robustness_demo() -> None:
    """Effective epsilon against beliefs drifting away from Theta."""
    length = 5
    theta = MarkovChain([0.6, 0.4], [[0.8, 0.2], [0.3, 0.7]])
    family_model = MarkovChainModel(theta, length).to_tabular()
    secrets = [Secret(i, v) for i in range(length) for v in (0, 1)]

    print("adversary drift vs effective privacy (Theorem 2.4):")
    print(f"{'drift':>6}  {'Delta':>8}  {'effective eps':>13}")
    for drift in (0.0, 0.02, 0.05, 0.10):
        # The adversary believes a chain whose transition probabilities are
        # shifted by `drift` — outside Theta for drift > 0.
        p = np.clip(np.array([[0.8 + drift, 0.2 - drift], [0.3 - drift, 0.7 + drift]]), 0.01, 0.99)
        p = p / p.sum(axis=1, keepdims=True)
        tilde = MarkovChainModel(MarkovChain([0.6, 0.4], p), length).to_tabular()
        delta = adversary_distance(tilde, [family_model], secrets)
        print(f"{drift:6.2f}  {delta:8.4f}  {effective_epsilon(EPSILON, delta):13.4f}")
    print()


def composition_demo() -> None:
    """Budgeted repeated releases through one quilt configuration."""
    rng = np.random.default_rng(SEED)
    theta = MarkovChain([0.6, 0.4], [[0.9, 0.1], [0.2, 0.8]]).with_stationary_initial()
    family = FiniteChainFamily.singleton(theta)
    data = TimeSeriesDataset.from_sequence(theta.sample(3_000, rng), 2)
    query = StateFrequencyQuery(1, data.n_observations)

    per_release_eps = 0.5
    mechanism = MQMExact(family, per_release_eps, max_window=128)
    # All releases share the family, epsilon and quilt window, hence the
    # same active quilts — the Theorem 4.4 condition.
    signature = ("MQMExact", per_release_eps, 128, data.segment_lengths)

    accountant = CompositionAccountant(budget=2.0)
    release_count = 0
    print(f"releasing with eps={per_release_eps} per query, budget 2.0:")
    while True:
        try:
            accountant.record(per_release_eps, quilt_signature=signature)
        except PrivacyParameterError as stop:
            print(f"  stopped: {stop}")
            break
        release = mechanism.release(data, query, rng)
        release_count += 1
        print(
            f"  release {release_count}: {release.value:.4f} "
            f"(composed guarantee so far: {accountant.total_epsilon():.1f})"
        )
    print(f"total releases: {release_count}; budget spent: {accountant.total_epsilon():.1f}")


if __name__ == "__main__":
    robustness_demo()
    composition_demo()
