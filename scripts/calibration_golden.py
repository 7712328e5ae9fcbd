#!/usr/bin/env python
"""Golden calibrations, pinned bit for bit.

Calibrates a fixed set of general Markov-quilt mechanisms (Laplace and
Gaussian, structured quilt generators and distance shells, one- and
two-network Theta, and a blocks network after seeded CPD edits through
``TemporalNetwork``) and records, per configuration, ``sigma_max`` and every
node's sigma as ``float.hex`` with the sorted members of its active quilt.
It also pins the chain mechanisms (Algorithms 3 and 4: the Section 4.4
running example, a stationary-start chain, a free-initial interval family,
Table 2's FAST activity cohorts) and the baselines (GK16 and the Section 3.1
Wasserstein example) by the scale of one unit-Lipschitz release each::

    python scripts/calibration_golden.py           # compare with the pins
    python scripts/calibration_golden.py --write   # rewrite the pins

The pins live in ``tests/data/calibration_golden.json``; the tier-1 test
``tests/test_calibration_golden.py`` and ``scripts/check_all.py`` import
this module and compare through :func:`diff`.  Rewriting the file is its own
argued change: a performance change that needs new pins does not claim
bit-identical calibrations.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "data" / "calibration_golden.json"

#: The calibrate-cold privacy level; the scenarios also run at 2.0.
EPSILON = 0.5

#: Seeded single-CPD edits applied to blocks 20x10 before its last pin.
N_EDITS = 6
EDIT_SEED = 26

#: The segment lengths MQMApprox is pinned at on ``IntervalChainFamily(0.3)``:
#: a* is 8 there, so 50 takes the full search and the rest the Lemma 4.9
#: middle-node path.
APPROX_LENGTHS = (50, 100, 400, 5000, 20000)


def _ensure_src() -> None:
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _cold_network(family: str):
    """calibrate-cold's networks (grid 6x6, hub 8x6, blocks 20x10) with
    their structured generators, built as the benchmark builds them."""
    from repro.distributions import structured as s

    if family == "grid":
        return s.grid_network(6, 6), s.GridQuiltGenerator(6, 6)
    if family == "hub":
        spokes = tuple(
            tuple(s.spoke_node(i, j) for j in range(1, 7)) for i in range(8)
        )
        return s.hub_and_spoke_network(8, 6), s.HubQuiltGenerator(spokes)
    blocks = tuple(tuple(s.block_node(i, j) for j in range(10)) for i in range(20))
    return s.household_blocks_network(20, 10), s.BlockQuiltGenerator(blocks)


def _edited_blocks():
    """blocks 20x10 recalibrated after each of :data:`N_EDITS` seeded
    ``update_cpd`` edits (every other member position, a seeded block)."""
    import numpy as np

    from repro.distributions import TemporalNetwork
    from repro.distributions.structured import block_node

    network, generator = _cold_network("blocks")
    temporal = TemporalNetwork(network)
    mechanism, _ = temporal.calibrated_mechanism(EPSILON, quilt_generator=generator)
    rng = np.random.default_rng(EDIT_SEED)
    for i in range(N_EDITS):
        node = block_node(int(rng.integers(20)), (2 * i) % 10)
        cpd = rng.uniform(0.05, 0.95, size=network.cpd(node).shape)
        temporal.update_cpd(node, cpd / cpd.sum(axis=-1, keepdims=True))
        mechanism, _ = temporal.calibrated_mechanism(EPSILON, quilt_generator=generator)
    return mechanism


def configurations() -> "dict[str, Callable[[], object]]":
    """Name -> zero-argument factory of one mechanism, in pin order."""
    _ensure_src()
    from repro.core import GaussianMarkovQuiltMechanism, MarkovQuiltMechanism
    from repro.distributions import structured as s

    def cold(family: str, mechanism_class):
        def build():
            network, generator = _cold_network(family)
            return mechanism_class([network], EPSILON, quilt_generator=generator)

        return build

    def shells(make_network, *args):
        return lambda: MarkovQuiltMechanism([make_network(*args)], EPSILON)

    def scenario(make_bundle, epsilon: float, mechanism_class):
        def build():
            bundle = make_bundle()
            return mechanism_class(
                bundle.networks, epsilon, quilt_generator=bundle.quilt_generator
            )

        return build

    configs: "dict[str, Callable[[], object]]" = {}
    for family in ("grid", "hub", "blocks"):
        size = {"grid": "6x6", "hub": "8x6", "blocks": "20x10"}[family]
        configs[f"cold-{family}-{size}-laplace"] = cold(family, MarkovQuiltMechanism)
        configs[f"cold-{family}-{size}-gaussian"] = cold(
            family, GaussianMarkovQuiltMechanism
        )
    configs["shells-grid-6x6"] = shells(s.grid_network, 6, 6)
    configs["shells-hub-8x6"] = shells(s.hub_and_spoke_network, 8, 6)
    configs["shells-grid-4x5"] = shells(s.grid_network, 4, 5)
    scenarios = {
        "scenario-grid-5x5": lambda: s.grid_scenario(5, 5),
        "scenario-hub-4x4": lambda: s.hub_and_spoke_scenario(4, 4),
        "scenario-blocks-3x5": lambda: s.household_blocks_scenario(3, 5),
    }
    for name, make_bundle in scenarios.items():
        for epsilon in (0.5, 2.0):
            configs[f"{name}-eps{epsilon}-laplace"] = scenario(
                make_bundle, epsilon, MarkovQuiltMechanism
            )
            configs[f"{name}-eps{epsilon}-gaussian"] = scenario(
                make_bundle, epsilon, GaussianMarkovQuiltMechanism
            )
    configs[f"temporal-blocks-20x10-{N_EDITS}-edits"] = _edited_blocks
    configs.update(_chain_configurations())
    return configs


def _chain_configurations() -> "dict[str, Callable[[], tuple]]":
    """Name -> zero-argument factory of ``(mechanism, data)`` for the chain
    mechanisms and the baselines, pinned by :func:`pin`'s scale."""
    import numpy as np

    from repro import paperdata
    from repro.baselines.gk16 import GK16Mechanism
    from repro.core import MQMApprox, MQMExact, WassersteinMechanism
    from repro.core.framework import entrywise_instantiation
    from repro.core.models import FluCliqueModel
    from repro.data.datasets import TimeSeriesDataset
    from repro.distributions.chain_family import FiniteChainFamily, IntervalChainFamily
    from repro.distributions.markov import MarkovChain

    def theta(name: str) -> MarkovChain:
        chain = paperdata.RUNNING_EXAMPLE[name]
        return MarkovChain(chain["initial"], chain["transition"])

    def running(name: str, **options):
        return lambda: (
            MQMExact(FiniteChainFamily([theta(name)]), 1.0, max_window=100, **options),
            np.zeros(100),
        )

    def stationary_start():
        transition = [[0.8, 0.2], [0.3, 0.7]]
        chain = MarkovChain(MarkovChain([1.0, 0.0], transition).stationary(), transition)
        data = TimeSeriesDataset([np.zeros(100, dtype=int), np.zeros(200, dtype=int)], 2)
        return MQMExact(chain, 1.0, max_window=32), data

    def approx(length: int):
        return lambda: (MQMApprox(IntervalChainFamily(0.3), 1.0), np.zeros(length))

    def cohort(index: int, exact: bool):
        return lambda: _table2_cohort(index, exact)

    def flu():
        model = FluCliqueModel([4], [paperdata.FLU_EXAMPLE["count_distribution"]])
        return WassersteinMechanism(entrywise_instantiation(4, 2, [model]), 1.0), np.zeros(4)

    configs: "dict[str, Callable[[], tuple]]" = {
        "running-example-theta1-T100-literal": running("theta1", restrict_support=False),
        "running-example-theta1-T100": running("theta1"),
        "running-example-theta2-T100": running("theta2"),
        "stationary-start-T100-T200-window32": stationary_start,
        "interval-0.3-free-initial-T100-window16": lambda: (
            MQMExact(IntervalChainFamily(0.3), 1.0, max_window=16), np.zeros(100)
        ),
        "approx-running-example-T100": lambda: (
            MQMApprox(
                FiniteChainFamily([theta("theta1"), theta("theta2")]), 1.0, reversible=False
            ),
            np.zeros(100),
        ),
    }
    for length in APPROX_LENGTHS:
        configs[f"approx-interval-0.3-T{length}"] = approx(length)
    for index, name in enumerate(("cyclist", "older-woman", "overweight-woman")):
        configs[f"table2-fast-{name}-approx"] = cohort(index, exact=False)
        configs[f"table2-fast-{name}-exact"] = cohort(index, exact=True)
    configs["gk16-running-example-theta2-T100"] = lambda: (
        GK16Mechanism(FiniteChainFamily([theta("theta2")]), 1.0, length=100),
        np.zeros(100),
    )
    configs["wasserstein-flu-clique"] = flu
    return configs


@functools.lru_cache(maxsize=1)
def _fast_cohorts() -> tuple:
    """The FAST profile's activity cohorts, generated once."""
    from repro.data.activity import generate_study
    from repro.experiments.config import FAST

    return tuple(generate_study(FAST.activity.seed, scale=FAST.activity.scale))


def _table2_cohort(index: int, exact: bool) -> tuple:
    """Table 2's MQMApprox or MQMExact on one FAST cohort, with its pooled
    dataset, built as ``repro.experiments.table2_runtime.dataset_timings``
    builds them."""
    from repro.core import MQMApprox, MQMExact
    from repro.data.estimation import empirical_chain
    from repro.distributions.chain_family import FiniteChainFamily
    from repro.experiments.config import FAST

    group = _fast_cohorts()[index]
    family = FiniteChainFamily.singleton(
        empirical_chain(group, smoothing=FAST.activity.smoothing)
    )
    dataset = group.pooled_dataset()
    approx = MQMApprox(family, FAST.activity.epsilon)
    if not exact:
        return approx, dataset
    window = approx.optimal_quilt_extent(dataset.longest_segment) or 64
    return MQMExact(family, FAST.activity.epsilon, max_window=window), dataset


def pin(built) -> dict:
    """One configuration's pins, every float as hex.

    A general MQM pins ``sigma_max`` and, per node in network order,
    ``[sigma, sorted active-quilt members]``.  A ``(mechanism, data)`` pair
    pins, under ``sigma_max`` and with no nodes, the scale of a
    ``CountQuery`` release on the data: the query is 1-Lipschitz and every
    such configuration runs at epsilon 1, so that is a chain mechanism's
    ``sigma_max``, GK16's amplification and the Wasserstein bound ``W``."""
    if isinstance(built, tuple):
        from repro.core.queries import CountQuery

        mechanism, data = built
        return {"sigma_max": float(mechanism.noise_scale(CountQuery(), data)).hex(), "nodes": {}}
    mechanism = built
    nodes = {}
    for node in mechanism.reference.nodes:
        sigma, quilt = mechanism.sigma_for_node(node)
        nodes[node] = [sigma.hex(), sorted(quilt.quilt)]
    return {"sigma_max": mechanism.sigma_max().hex(), "nodes": nodes}


def generate() -> dict:
    """Every configuration's pins, calibrated now."""
    return {name: pin(build()) for name, build in configurations().items()}


def dumps(golden: dict) -> str:
    """The golden file's text: one line per node, so a diff names it."""
    lines = ["{"]
    for i, (name, entry) in enumerate(golden.items()):
        lines.append(f"  {json.dumps(name)}: {{")
        lines.append(f'    "sigma_max": {json.dumps(entry["sigma_max"])},')
        lines.append('    "nodes": {')
        items = list(entry["nodes"].items())
        for j, (node, value) in enumerate(items):
            comma = "," if j < len(items) - 1 else ""
            lines.append(f"      {json.dumps(node)}: {json.dumps(value)}{comma}")
        lines.append("    }")
        lines.append("  }" + ("," if i < len(golden) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def diff(expected: dict, actual: dict) -> "list[str]":
    """Every pin that differs, one line each; empty when bit-identical."""
    problems = []
    for name in sorted(expected.keys() | actual.keys()):
        if name not in actual or name not in expected:
            side = "calibrated" if name not in expected else "pinned"
            problems.append(f"{name}: only {side}")
            continue
        want, got = expected[name], actual[name]
        if want["sigma_max"] != got["sigma_max"]:
            problems.append(
                f"{name}: sigma_max {got['sigma_max']} != pinned {want['sigma_max']}"
            )
        for node in sorted(want["nodes"].keys() | got["nodes"].keys()):
            if want["nodes"].get(node) != got["nodes"].get(node):
                problems.append(
                    f"{name}: node {node} {got['nodes'].get(node)} "
                    f"!= pinned {want['nodes'].get(node)}"
                )
    return problems


def check() -> int:
    """Calibrate everything and compare with the committed pins."""
    problems = diff(load(), generate())
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    print(f"calibration-golden: all configurations match {GOLDEN_PATH.name}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="rewrite the golden file"
    )
    args = parser.parse_args(argv)
    if args.write:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(dumps(generate()))
        print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}")
        return 0
    return check()


if __name__ == "__main__":
    sys.exit(main())
