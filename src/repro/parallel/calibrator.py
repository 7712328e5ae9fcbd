"""ParallelCalibrator: sharded multi-core calibration.

The two expensive calibrations behind Table 2 decompose into independent
shards: Algorithm 3 (:class:`~repro.core.mqm_chain.MQMExact`, one shard per
chain × segment length) and Algorithm 2 (the general
:class:`~repro.core.markov_quilt.MarkovQuiltMechanism`, one shard per node)
— see :mod:`repro.parallel.shards`.  :class:`ParallelCalibrator` plans those
shards, executes them on a ``ProcessPoolExecutor`` (or inline, when a pool
cannot pay for itself), and merges the results back into the mechanism's own
memo structures, after which the mechanism's ordinary serial
:meth:`~repro.core.laplace.Mechanism.calibrate` produces the final
:class:`~repro.core.laplace.Calibration` from warm lookups.  Every other
mechanism calibrates serially, and :meth:`ParallelCalibrator.calibrate_many`
runs one shard per mechanism.

Determinism guarantee
---------------------
Parallel calibration is **bit-identical** to serial calibration, not merely
close: each shard runs the exact serial sub-computation on the exact serial
inputs, and the merges are order-insensitive (float ``max`` is associative
and commutative exactly — no additions are reordered; per-key dictionary
fills never combine two shard values).  The equivalence is asserted across a
(T, state count, epsilon) grid in ``tests/test_parallel_calibrator.py`` and
re-asserted on every run of ``benchmarks/bench_parallel_calibration.py``.

Fallback rules
--------------
The pool is skipped (shards run inline, same results) when any of:

* fewer than two workers would run, i.e. ``max_workers <= 1`` or the plan
  has a single shard;
* the plan's estimated cost is below ``min_parallel_cost`` (small payloads
  lose more to process startup and pickling than they gain);
* a shard payload is unpicklable (e.g. a ``calibrate_many`` shard whose
  ``ScalarQuery`` wraps a lambda).

Worker processes are per-call, not long-lived: calibration is a cold-path
operation (the serving layer caches its results), so keeping a pool warm
between calls would hold memory for no benefit.
"""

from __future__ import annotations

import copy
import os
import pickle
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Any, Callable, Sequence

from repro.core.laplace import Calibration, Mechanism
from repro.core.markov_quilt import MarkovQuiltMechanism
from repro.core.mqm_chain import MQMExact
from repro.core.queries import Query
from repro.exceptions import ValidationError
from repro.parallel.shards import (
    KIND_CALIBRATION,
    KIND_MQM_EXACT,
    KIND_MQM_GENERAL,
    Shard,
    ShardResult,
    per_node_general_shard,
    run_shard,
    segment_lengths_of,
)

#: Internal-cache attributes stripped from mechanism clones before pickling.
#: Shipping warm tables (numpy arrays, per-length memos) would bloat every
#: shard payload with state the worker is about to recompute or not need.
_CACHE_ATTRS = ("_sigma_cache", "_table_cache", "_bound_cache", "_warm_bounds")


def _pristine(mechanism: Mechanism) -> Mechanism:
    """A shallow clone of ``mechanism`` with empty internal caches.

    Shares the (immutable) family/instantiation objects; never mutates the
    original.  Cloning instead of re-running ``__init__`` keeps derived
    parameters (e.g. MQMApprox's ``pi_min``/eigengap) bit-identical without
    recomputing them in the parent.
    """
    clone = copy.copy(mechanism)
    for attr in _CACHE_ATTRS:
        if hasattr(clone, attr):
            setattr(clone, attr, {})
    return clone


class ParallelCalibrator:
    """Execute a calibration as independent shards across worker processes.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.  ``<= 1`` disables the
        pool entirely (every plan runs inline).
    min_parallel_cost:
        Minimum estimated plan cost (sum of per-shard cost hints, roughly
        "segment positions searched") before a pool is considered.  Small
        payloads run inline; set to 0 to force pooling in tests.
    executor_factory:
        Called as ``factory(n_workers)`` to build the executor; defaults to
        ``ProcessPoolExecutor``.  Injection point for tests.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        min_parallel_cost: float = 512.0,
        executor_factory: Callable[[int], Executor] | None = None,
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValidationError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        self.min_parallel_cost = float(min_parallel_cost)
        self._executor_factory = executor_factory
        #: Execution counters (introspection for tests and benchmarks).
        self.pool_runs = 0
        self.serial_runs = 0
        self.shards_executed = 0

    # -- planning --------------------------------------------------------
    def plan(self, mechanism: Mechanism, query: Query, data: Any) -> list[Shard]:
        """The shard decomposition :meth:`calibrate` would execute.

        Empty when the mechanism is already warm for this workload or is
        neither an ``MQMExact`` nor a general MQM — in both cases
        :meth:`calibrate` simply runs the serial path.
        """
        if isinstance(mechanism, MQMExact):
            lengths = segment_lengths_of(data)
            key = tuple(sorted(set(lengths)))
            if any(n < 1 for n in key):
                raise ValidationError("segment lengths must be >= 1")
            if key in mechanism._length_results():
                return []
            template = _pristine(mechanism)
            return [
                Shard(
                    KIND_MQM_EXACT,
                    (index, length),
                    (template, chain, index, length),
                )
                for index, chain in enumerate(mechanism.family.chains())
                for length in key
            ]
        if isinstance(mechanism, MarkovQuiltMechanism):
            # Algorithm 2: one shard per node whose quilt search is cold.
            # Each clone ships Theta (networks pickle as their CPD arrays;
            # the worker's inference-engine plan is rebuilt from the
            # fingerprint-keyed registry) but only *its own node's* quilt
            # candidates — see per_node_general_shard for the pruning and
            # generator-stripping rules.  Subclasses match here too:
            # GaussianMarkovQuiltMechanism shards through the same plan,
            # and the copy.copy clone keeps its delta and Gaussian score.
            results = mechanism._node_results()
            missing = [node for node in mechanism.reference.nodes if node not in results]
            template = _pristine(mechanism)
            return [
                per_node_general_shard(template, node, mechanism.quilt_sets[node])
                for node in missing
            ]
        return []

    # -- execution -------------------------------------------------------
    def _plan_cost(self, shards: Sequence[Shard]) -> float:
        cost = 0.0
        for shard in shards:
            if shard.kind == KIND_MQM_EXACT:
                # The segment length: the positions this chain's search walks.
                cost += float(shard.payload[3])
            elif shard.kind == KIND_MQM_GENERAL:
                # Cost hint: one variable-elimination run per candidate
                # quilt per theta (the node's search loop body).
                mechanism = shard.payload[0]
                cost += 32.0 * len(mechanism.quilt_sets.get(shard.key, ())) * len(
                    mechanism.networks
                )
            else:
                cost += 128.0
        return cost

    def execute(self, shards: Sequence[Shard]) -> list[ShardResult]:
        """Run shards — pooled when worthwhile and possible, else inline.

        Both paths execute :func:`~repro.parallel.shards.run_shard` on the
        same objects, so the results are identical by construction; only
        wall-clock differs.
        """
        shards = list(shards)
        if not shards:
            return []
        self.shards_executed += len(shards)
        workers = min(self.max_workers, len(shards))
        if (
            workers <= 1
            or self._plan_cost(shards) < self.min_parallel_cost
            or not _picklable(shards)
        ):
            self.serial_runs += 1
            return [run_shard(shard) for shard in shards]
        self.pool_runs += 1
        factory = self._executor_factory or (
            lambda n: ProcessPoolExecutor(max_workers=n)
        )
        chunksize = max(1, len(shards) // (workers * 4))
        with factory(workers) as pool:
            return list(pool.map(run_shard, shards, chunksize=chunksize))

    # -- public entry points ---------------------------------------------
    def calibrate(self, mechanism: Mechanism, query: Query, data: Any) -> Calibration:
        """Sharded equivalent of ``mechanism.calibrate(query, data)``.

        Plans, executes, merges the shard results into the mechanism's memo
        state, and finishes with the ordinary serial ``calibrate`` — which
        now only performs warm lookups.  Mechanisms other than ``MQMExact``
        and the general MQM run fully serial.  The returned
        :class:`Calibration` (scale *and* diagnostics) is bit-identical to
        the serial one.
        """
        shards = self.plan(mechanism, query, data)
        if shards:
            self._merge(mechanism, data, self.execute(shards))
        return mechanism.calibrate(query, data)

    def calibrate_many(
        self,
        mechanisms: Sequence[Mechanism],
        query: Query,
        data: Any,
    ) -> list[Calibration]:
        """Calibrate several mechanisms against one workload — one shard per
        mechanism (the multi-mechanism trial-run shape of the experiment
        scripts).  Each parent mechanism is warm-started from its worker's
        exported state, so follow-up ``calibrate``/``noise_scale`` calls on
        the originals are lookups."""
        shards = [
            Shard(KIND_CALIBRATION, position, (_pristine(mechanism), query, data))
            for position, mechanism in enumerate(mechanisms)
        ]
        by_position = {result.key: result.value for result in self.execute(shards)}
        calibrations = []
        for position, mechanism in enumerate(mechanisms):
            payload, state = by_position[position]
            if state and hasattr(mechanism, "warm_start"):
                mechanism.warm_start(state)
            calibrations.append(Calibration.from_payload(payload))
        return calibrations

    # -- merging ---------------------------------------------------------
    def _merge(
        self, mechanism: Mechanism, data: Any, results: Sequence[ShardResult]
    ) -> None:
        """Fold shard results into the mechanism's own memo structures,
        reproducing exactly the state the serial computation leaves behind."""
        if isinstance(mechanism, MQMExact):
            key = tuple(sorted(set(segment_lengths_of(data))))
            sigma = 0.0
            for result in results:
                sigma = max(sigma, float(result.value))
            mechanism._length_results()[key] = sigma
        else:  # the general MQM, the only other mechanism plan() shards
            node_results = mechanism._node_results()
            for result in results:
                sigma, quilt = result.value
                node_results[str(result.key)] = (float(sigma), quilt)


def _picklable(shards: Sequence[Shard]) -> bool:
    """Whether every shard survives pickling (process-pool transport).

    Queries wrapping lambdas/closures and other process-local objects fail
    here; the caller falls back to inline execution, which needs no
    transport and produces the same results.
    """
    try:
        pickle.dumps(shards)
        return True
    except Exception:
        return False


def as_calibrator(
    spec: "int | ParallelCalibrator | None",
) -> ParallelCalibrator | None:
    """Normalize the user-facing ``parallel=`` option.

    ``None`` → no parallelism; an ``int`` → that many workers; an existing
    :class:`ParallelCalibrator` is used as-is.  ``True`` and ``False`` raise
    :class:`~repro.exceptions.ValidationError`: a ``bool`` is an ``int``, so
    ``True`` would otherwise become one worker.
    """
    if spec is None or isinstance(spec, ParallelCalibrator):
        return spec
    if isinstance(spec, int) and not isinstance(spec, bool):
        return ParallelCalibrator(max_workers=spec)
    raise ValidationError(
        f"parallel= expects None, an int, or a ParallelCalibrator, got {spec!r}"
    )
