"""Quickstart: Pufferfish-private release of a correlated time series.

A single subject's binary activity trace is modeled as a Markov chain whose
exact parameters are unknown — only the family Theta = [0.3, 0.7] (all
moderately sticky binary chains, any starting state) is assumed.  We publish
the fraction of time spent in state 1 with eps = 1 Pufferfish privacy and
compare the Markov Quilt Mechanism against group differential privacy.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    GroupDPMechanism,
    IntervalChainFamily,
    MQMApprox,
    MQMExact,
    StateFrequencyQuery,
    TimeSeriesDataset,
)

EPSILON = 1.0
LENGTH = 2_000
SEED = 42


def main() -> None:
    # 1. The distribution class Theta: binary chains with self-transition
    #    probabilities in [0.3, 0.7] and any initial distribution.
    family = IntervalChainFamily(0.3)

    # 2. Some data that plausibly came from Theta.
    rng = np.random.default_rng(SEED)
    theta = family.sample_theta(rng)
    data = TimeSeriesDataset.from_sequence(theta.sample(LENGTH, rng), 2)
    query = StateFrequencyQuery(1, data.n_observations)
    exact_value = query(data.concatenated)
    print(f"exact fraction of time in state 1: {exact_value:.4f}")

    # 3. Release under each mechanism.  MQMExact searches quilts with
    #    endpoints up to 64 steps away (the paper's `l` parameter); wider
    #    windows buy nothing once the chain has mixed.
    scales = {}
    for mechanism in (
        MQMExact(family, EPSILON, max_window=64),
        MQMApprox(family, EPSILON),
        GroupDPMechanism(EPSILON),
    ):
        release = mechanism.release(data, query, rng)
        scales[mechanism.name] = release.noise_scale
        print(
            f"{mechanism.name:>10}: released {release.value: .4f} "
            f"(|error| {release.l1_error():.4f}, Laplace scale {release.noise_scale:.4f})"
        )

    # 4. Why this matters: entry-level DP would use scale L/eps = 1/T — far
    #    too little noise to hide a correlated activity bout — while GroupDP
    #    treats the whole series as one record (scale 1/eps).  The Markov
    #    Quilt Mechanism sits in between, scaling with the family's mixing
    #    time instead of the record count.
    print(
        "\nnoise scales: entry-DP",
        f"{query.lipschitz / EPSILON:.2e} (not private for correlated data),",
        f"MQMExact {scales['MQMExact']:.2e},",
        f"GroupDP {scales['GroupDP']:.2e}",
    )


if __name__ == "__main__":
    main()
