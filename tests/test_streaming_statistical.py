"""Statistical audits of the *streamed* release distribution.

Marked ``@pytest.mark.statistical`` and mirroring
``tests/test_statistical_release.py``, but driving every release through a
:class:`~repro.serving.ReleaseSession` instead of the batched path, so the
distribution-level guarantees are evidenced on the streaming code itself:

* **Noise law** — the noise a session adds is Laplace with the calibrated
  scale (one-sample Kolmogorov–Smirnov against the closed-form CDF), and it
  matches the *batched* path's noise law under independent seeds
  (two-sample KS): streaming changes the delivery, never the distribution.
* **Empirical epsilon** — the likelihood-ratio count audit of the batched
  suite, re-run on streamed outputs over neighboring datasets: the
  empirical log acceptance ratio at the midpoint half-line must respect the
  mechanism's epsilon, and must match the asymptotic ``1 / sigma``
  separation (so the audit is not vacuously passing).

All randomness is seeded; thresholds leave comfortable margins over the
seeded statistics.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.mqm_chain import MQMExact
from repro.core.queries import StateFrequencyQuery
from repro.distributions.chain_family import FiniteChainFamily
from repro.distributions.markov import MarkovChain
from repro.serving import PrivacyEngine

EPSILON = 1.0
LENGTH = 30
N_SAMPLES = 4000

pytestmark = pytest.mark.statistical


@pytest.fixture(scope="module")
def workload():
    chain = MarkovChain(
        [0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]]
    ).with_stationary_initial()
    family = FiniteChainFamily([chain])
    query = StateFrequencyQuery(1, LENGTH)
    data = np.zeros(LENGTH, dtype=int)
    return family, query, data


def make_engine(family) -> PrivacyEngine:
    return PrivacyEngine(MQMExact(family, EPSILON, max_window=LENGTH))


def laplace_cdf(x: np.ndarray, loc: float, scale: float) -> np.ndarray:
    z = (np.asarray(x, dtype=float) - loc) / scale
    return np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))


def ks_one_sample(samples: np.ndarray, cdf_values_at_sorted: np.ndarray) -> float:
    """KS statistic of ``samples`` against a continuous CDF (evaluated at
    the sorted samples)."""
    n = samples.size
    grid = np.arange(1, n + 1) / n
    return float(
        np.max(
            np.maximum(
                grid - cdf_values_at_sorted, cdf_values_at_sorted - (grid - 1.0 / n)
            )
        )
    )


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    values = np.concatenate([a, b])
    values.sort(kind="mergesort")
    cdf_a = np.searchsorted(np.sort(a), values, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), values, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def _streamed_values(engine, data, query, n: int, seed: int) -> np.ndarray:
    with engine.stream(
        data, query, rng=seed, max_releases=n
    ) as session:
        return np.array([release.value for release in session])


def _streamed_noise(engine, data, query, n: int, seed: int) -> np.ndarray:
    with engine.stream(
        data, query, rng=seed, max_releases=n
    ) as session:
        return np.array([r.value - r.true_value for r in session])


def test_streamed_noise_matches_calibrated_laplace_ks(workload):
    family, query, data = workload
    engine = make_engine(family)
    scale = engine.calibrate(query, data).scale
    noise = np.sort(_streamed_noise(engine, data, query, N_SAMPLES, seed=11))
    statistic = ks_one_sample(noise, laplace_cdf(noise, 0.0, scale))
    # 1.63 / sqrt(n) is the alpha = 0.01 critical value; seeds are fixed, so
    # this is a deterministic regression gate with real statistical meaning.
    assert statistic < 1.63 / math.sqrt(N_SAMPLES)


def test_streamed_noise_matches_batch_noise_law_ks(workload):
    """Two-sample KS under independent seeds: the streamed path obeys the
    same noise law as the batched path (the seeded case is bit-identical
    and tested exactly in tests/test_streaming_properties.py)."""
    family, query, data = workload
    streamed = _streamed_noise(make_engine(family), data, query, N_SAMPLES, seed=13)
    batch_engine = make_engine(family)
    batched = np.array(
        [
            r.value - r.true_value
            for r in batch_engine.release_batch([(data, query)] * N_SAMPLES, rng=17)
        ]
    )
    statistic = ks_two_sample(streamed, batched)
    # alpha = 0.01 two-sample critical value: 1.63 * sqrt(2 / n).
    assert statistic < 1.63 * math.sqrt(2.0 / N_SAMPLES)


def test_streamed_chunking_does_not_change_the_noise_law(workload):
    """A session drained in ragged chunks has the same distribution as one
    drained one-at-a-time (they are literally the same values under one
    seed — so compare across seeds to make the claim distributional)."""
    family, query, data = workload
    one_at_a_time = _streamed_noise(make_engine(family), data, query, N_SAMPLES, seed=19)
    engine = make_engine(family)
    chunked: list[float] = []
    with engine.stream(
        data, query, rng=23, max_releases=N_SAMPLES
    ) as session:
        while True:
            chunk = session.take(113)
            if not chunk:
                break
            chunked.extend(r.value - r.true_value for r in chunk)
    statistic = ks_two_sample(one_at_a_time, np.asarray(chunked))
    assert statistic < 1.63 * math.sqrt(2.0 / N_SAMPLES)


def _empirical_epsilon(
    values_d: np.ndarray, values_d_prime: np.ndarray, midpoint: float
) -> float:
    p = float(np.mean(values_d >= midpoint))
    q = float(np.mean(values_d_prime >= midpoint))
    assert 0.0 < p < 1.0 and 0.0 < q < 1.0
    return abs(math.log(q / p))


def test_empirical_epsilon_audit_on_streamed_outputs(workload):
    family, query, data = workload
    neighbor = data.copy()
    neighbor[LENGTH // 2] = 1  # one record changed
    engine_d = make_engine(family)
    engine_n = make_engine(family)
    values_d = _streamed_values(engine_d, data, query, N_SAMPLES, seed=23)
    values_n = _streamed_values(engine_n, neighbor, query, N_SAMPLES, seed=29)
    midpoint = (float(query(data)) + float(query(neighbor))) / 2.0

    eps_hat = _empirical_epsilon(values_d, values_n, midpoint)
    # The guarantee: the log acceptance ratio of ANY region is at most
    # epsilon.  Slack covers binomial sampling error at n = 4000 (a few
    # standard errors of ~0.016 each side).
    assert eps_hat <= EPSILON + 0.10

    # Power check: the midpoint half-line achieves (asymptotically) the true
    # separation |F(D) - F(D')| / scale = 1 / sigma, so the audit is not
    # vacuously passing because the estimator collapsed to zero.
    sigma = engine_d.calibrate(query, data).details["sigma_max"]
    assert abs(eps_hat - 1.0 / sigma) < 0.12
