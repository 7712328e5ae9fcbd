"""E4 — Table 2: running time of the noise-scale computation.

The paper times "an optimized algorithm that calculates the scale parameter
of the Laplace noise" for GK16, MQMApprox and MQMExact on: the synthetic
setting (averaged over transition matrices on a grid, matching the paper's
``p0, p1 in {0.1, 0.11, ..., 0.9}``), the three activity cohorts, and the
power dataset.

Absolute seconds differ from the paper's 2017 desktop (and our tables are
vectorized differently), but the two orderings the paper highlights hold:
MQMApprox is orders of magnitude faster than MQMExact, and MQMExact's cost
grows with the state space (power's 51 states dominate).
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.reporting import Table
from repro.baselines.gk16 import GK16Mechanism
from repro.core.mqm_chain import MQMApprox, MQMExact
from repro.core.queries import RelativeFrequencyHistogram, StateFrequencyQuery
from repro.data.activity import generate_study
from repro.data.estimation import empirical_chain
from repro.data.power import generate_power_dataset
from repro.distributions.chain_family import FiniteChainFamily, IntervalChainFamily
from repro.distributions.markov import MarkovChain
from repro.exceptions import NotApplicableError
from repro.experiments.config import FULL, ActivityConfig, PowerConfig
from repro.paperdata import TABLE2
from repro.serving.engine import PrivacyEngine
from repro.utils.rngtools import resolve_rng


def time_call(func) -> float:
    """Wall-clock seconds of one invocation."""
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def sweep_workload(
    epsilon: float = 1.0, length: int = 100, grid_points: int = 9
) -> tuple[list[MQMExact], StateFrequencyQuery, np.ndarray]:
    """The Table 2 synthetic calibration sweep as a multi-mechanism workload.

    One ``MQMExact`` per grid chain (the per-theta unit the paper times),
    plus the query and data they calibrate against.  This is the workload
    ``benchmarks/bench_parallel_calibration.py`` and ``python -m repro
    calibrate`` shard across workers.
    """
    grid = np.linspace(0.1, 0.9, grid_points)
    query = StateFrequencyQuery(1, length)
    data = np.zeros(length, dtype=np.int64)
    mechanisms = [
        MQMExact(
            FiniteChainFamily.singleton(
                MarkovChain(
                    IntervalChainFamily.stationary_for(float(p0), float(p1)),
                    IntervalChainFamily.transition_for(float(p0), float(p1)),
                )
            ),
            epsilon,
            max_window=length,
        )
        for p0 in grid
        for p1 in grid
    ]
    return mechanisms, query, data


def parallel_sweep_timings(
    workers: int | None, epsilon: float = 1.0, length: int = 100, grid_points: int = 9
) -> dict[str, float | bool | int]:
    """Serial-versus-sharded wall time for the synthetic calibration sweep.

    Runs the identical per-theta MQMExact calibrations once serially and
    once sharded across ``workers`` processes, and checks the resulting
    scales are bit-identical (they must be — see
    ``docs/architecture.md``).
    """
    from repro.parallel import ParallelCalibrator

    mechanisms, query, data = sweep_workload(epsilon, length, grid_points)
    serial_seconds = time_call(
        lambda: [m.calibrate(query, data) for m in mechanisms]
    )
    serial_scales = [m.calibrate(query, data).scale for m in mechanisms]

    fresh, query, data = sweep_workload(epsilon, length, grid_points)
    calibrator = ParallelCalibrator(max_workers=workers, min_parallel_cost=0.0)
    parallel_seconds = time_call(lambda: calibrator.calibrate_many(fresh, query, data))
    parallel_scales = [m.calibrate(query, data).scale for m in fresh]
    return {
        "workers": calibrator.max_workers,
        "n_shards": len(mechanisms),
        "serial_seconds": float(serial_seconds),
        "parallel_seconds": float(parallel_seconds),
        "speedup": float(serial_seconds / parallel_seconds),
        "bit_identical": serial_scales == parallel_scales,
    }


def synthetic_timings(
    epsilon: float = 1.0, length: int = 100, grid_points: int = 9
) -> dict[str, float | None]:
    """Average per-theta scale-computation time over a (p0, p1) grid."""
    grid = np.linspace(0.1, 0.9, grid_points)
    query = StateFrequencyQuery(1, length)
    data = np.zeros(length, dtype=np.int64)
    times: dict[str, list[float]] = {"GK16": [], "MQMApprox": [], "MQMExact": []}
    for p0 in grid:
        for p1 in grid:
            chain = FiniteChainFamily.singleton(
                MarkovChain(
                    IntervalChainFamily.stationary_for(float(p0), float(p1)),
                    IntervalChainFamily.transition_for(float(p0), float(p1)),
                )
            )
            gk16 = GK16Mechanism(chain, epsilon, length=length)
            try:
                times["GK16"].append(time_call(lambda: gk16.noise_scale(query, data)))
            except NotApplicableError:
                pass
            try:
                approx = MQMApprox(chain, epsilon)
                times["MQMApprox"].append(
                    time_call(lambda: approx.noise_scale(query, data))
                )
            except NotApplicableError:
                pass
            exact = MQMExact(chain, epsilon, max_window=length)
            times["MQMExact"].append(time_call(lambda: exact.noise_scale(query, data)))
    return {
        name: (float(np.mean(values)) if values else None)
        for name, values in times.items()
    }


def dataset_timings(
    family,
    dataset,
    epsilon: float = 1.0,
    *,
    include_warm: bool = False,
) -> dict[str, float | None]:
    """Scale-computation time for one estimated-chain dataset.

    Timings go through a cold :class:`~repro.serving.PrivacyEngine` per
    mechanism — the cost measured is one cache-missing calibration, i.e. the
    quantity the paper's Table 2 reports.  With ``include_warm`` a second
    MQMExact engine sharing the first's cache is timed as
    ``MQMExact(warm)``, showing what repeat traffic actually pays.
    """
    query = RelativeFrequencyHistogram(dataset.n_states, dataset.n_observations)
    out: dict[str, float | None] = {}
    gk16 = PrivacyEngine(GK16Mechanism(family, epsilon))
    try:
        out["GK16"] = time_call(lambda: gk16.calibrate(query, dataset))
    except NotApplicableError:
        out["GK16"] = None
    approx = MQMApprox(family, epsilon)
    out["MQMApprox"] = time_call(lambda: PrivacyEngine(approx).calibrate(query, dataset))
    window = approx.optimal_quilt_extent(dataset.longest_segment) or 64
    exact = PrivacyEngine(MQMExact(family, epsilon, max_window=window))
    out["MQMExact"] = time_call(lambda: exact.calibrate(query, dataset))
    if include_warm:
        warm = PrivacyEngine(
            MQMExact(family, epsilon, max_window=window), cache=exact.cache
        )
        out["MQMExact(warm)"] = time_call(lambda: warm.calibrate(query, dataset))
    return out


def run(
    activity: ActivityConfig = FULL.activity,
    power: PowerConfig = FULL.power,
    *,
    include_power: bool = True,
) -> Table:
    """Regenerate Table 2 (seconds per scale computation)."""
    rng = resolve_rng(activity.seed)
    columns = ["synthetic"]
    results: dict[str, dict[str, float | None]] = {"synthetic": synthetic_timings()}
    for group in generate_study(rng, scale=activity.scale):
        chain = empirical_chain(group, smoothing=activity.smoothing)
        family = FiniteChainFamily.singleton(chain)
        results[group.name] = dataset_timings(family, group.pooled_dataset())
        columns.append(group.name)
    if include_power:
        dataset, _ = generate_power_dataset(power.length, resolve_rng(power.seed))
        chain = empirical_chain(dataset, smoothing=power.smoothing)
        results["power"] = dataset_timings(FiniteChainFamily.singleton(chain), dataset)
        columns.append("power")
    table = Table(
        "Table 2 — seconds to compute the Laplace scale (eps=1); "
        "paper values in repro.paperdata.TABLE2",
        ["mechanism", *columns],
    )
    for mechanism in ("GK16", "MQMApprox", "MQMExact"):
        table.add_row(mechanism, [results[c].get(mechanism) for c in columns])
    return table


def main(
    activity: ActivityConfig = FULL.activity,
    power: PowerConfig = FULL.power,
) -> None:
    """Print measured timings next to the paper's."""
    table = run(activity, power)
    print(table.render())
    print()
    paper = Table("Table 2 — paper-reported seconds", ["mechanism", *TABLE2["columns"]])
    for mechanism in ("GK16", "MQMApprox", "MQMExact"):
        paper.add_row(mechanism, TABLE2[mechanism])
    print(paper.render())


if __name__ == "__main__":
    main()
