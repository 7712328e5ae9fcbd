"""Outside-in span tracer for the benchmark's traced runs.

The tracer never edits the program.  ``install`` replaces public functions
of each layer -- attributes of the modules and classes that define them --
with wrappers that record a span, and ``uninstall`` puts the originals
back.  A function that no longer exists is reported as an absent span
rather than a crash, so the benchmark keeps working while later changes
delete or rename layer functions.

Spans live in memory as ``(name, start_ns, end_ns, parent, op_id, note)``
and are summarised when the run ends.  Only spans inside an operation
opened with :meth:`Tracer.op` are kept, so set-up work between operations
does not pollute the per-operation figures.

The benchmark drives one request at a time (a closed loop with one
client), so a single process-wide span stack is enough: while the event
loop awaits a handler running on a worker thread, nothing else runs.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
import time
from collections import defaultdict

# (module, owner class or None for a module function, attribute, span name,
#  note) -- the note is a function of (args, result) kept with the span.
LAYER_POINTS = (
    ("repro.service.app", "AsgiApp", "__call__", "app.call", None),
    ("repro.service.app", "PrivacyService", "release", "service.release", None),
    ("repro.service.app", "PrivacyService", "open_stream", "service.open_stream", None),
    ("repro.service.app", "PrivacyService", "stream_next", "service.stream_next", None),
    ("repro.service.app", "PrivacyService", "close_stream", "service.close_stream", None),
    ("repro.service.app", "PrivacyService", "get_tenant", "service.get_tenant", None),
    ("repro.service.ledger", "TenantLedger", "reserve", "ledger.reserve", None),
    ("repro.service.ledger", "TenantLedger", "consume", "ledger.consume", None),
    ("repro.service.ledger", "TenantLedger", "release_unused", "ledger.release_unused", None),
    ("repro.service.ledger", "TenantLedger", "snapshot", "ledger.snapshot", None),
    ("repro.service.ledger", "TenantLedger", "consume_idempotent", "ledger.consume_idempotent", None),
    ("repro.service.ledger", "TenantLedger", "idempotent_response", "ledger.idempotent_response", None),
    ("repro.service.ledger", None, "accountant_from_state", "ledger.rehydrate", None),
    ("repro.service.stores", "LedgerStore", "run", "stores.txn", None),
    ("repro.service.stores", "SQLiteLedgerStore", "peek", "stores.peek", None),
    ("repro.service.retry", "RetryingLedgerStore", "run", "stores.retrying_run", None),
    ("repro.serving.cache", "CalibrationCache", "get_or_compute", "cache.lookup",
     lambda args, result: bool(result[1])),
    ("repro.serving.cache", "CalibrationCache", "key_for", "cache.key", None),
    ("repro.serving.engine", "PrivacyEngine", "release_batch", "engine.release_batch", None),
    ("repro.serving.stream", "ReleaseSession", "take", "stream.take", None),
    ("repro.core.laplace", "Mechanism", "standard_noise", "engine.noise",
     lambda args, result: int(result.size)),
    ("repro.core.accounting", "BaseAccountant", "record", "accountant.record", None),
    ("repro.core.accounting", "BaseAccountant", "record_many", "accountant.record_many", None),
    ("repro.service.ledger", "ReservationAccountant", "record_many", "accountant.record_many", None),
    ("repro.core.markov_quilt", "MarkovQuiltMechanism", "__init__", "quilts.enumerate", None),
    ("repro.core.markov_quilt", "MarkovQuiltMechanism", "sigma_for_node", "markov_quilt.search", None),
    ("repro.core.markov_quilt", None, "max_influence", "markov_quilt.max_influence", None),
    ("repro.distributions.bayesnet", "DiscreteBayesianNetwork", "is_d_separated", "quilts.dsep", None),
    ("repro.distributions.bayesnet", "DiscreteBayesianNetwork", "quilt_from_set", "quilts.certify",
     lambda args, result: result is not None),
    ("repro.inference.engine", "InferenceEngine", "__init__", "inference.build", None),
    ("repro.inference.engine", "InferenceEngine", "conditional_tables", "inference.conditional_tables", None),
    ("repro.inference.engine", None, "contract", "inference.contract", None),
    ("repro.distributions.temporal", "TemporalNetwork", "calibrated_mechanism", "temporal.recalibrate",
     lambda args, result: None if result[1].cold else result[1].reuse_fraction),
)

# Span-name prefix -> layer, for the per-layer self-time breakdown.
LAYERS = (
    ("app.", "app"),
    ("service.", "service"),
    ("ledger.", "ledger"),
    ("stores.", "stores"),
    ("cache.", "cache"),
    ("engine.", "engine"),
    ("accountant.", "engine"),
    ("stream.", "stream"),
    ("markov_quilt.", "quilt_search"),
    ("quilts.", "quilt_enum"),
    ("inference.", "inference"),
    ("temporal.", "temporal"),
    ("op.", "bench"),
)
LAYER_NAMES = tuple(dict.fromkeys(layer for _, layer in LAYERS))


class Tracer:
    """Records spans around wrapped layer functions (see module docstring)."""

    points = LAYER_POINTS

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._op_id = 0
        self.op_kinds: dict[int, str] = {}
        self._patches: list = []
        self.absent: list[str] = []

    # -- spans --------------------------------------------------------------
    def begin(self, name: str) -> "int | None":
        if not self._stack:
            return None  # outside any operation: set-up work, not measured
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter_ns(), 0, self._stack[-1], self._op_id, None]
        )
        self._stack.append(index)
        return index

    def end(self, index: "int | None", note=None) -> None:
        if index is None:
            return
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[5] = note
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, kind: str):
        """One benchmark operation: the root span its layer spans hang off."""
        self._op_id += 1
        self.op_kinds[self._op_id] = kind
        index = len(self.spans)
        self.spans.append(
            ["op." + kind, time.perf_counter_ns(), 0, -1, self._op_id, None]
        )
        self._stack.append(index)
        try:
            yield self.spans[index]  # callers may store a note, e.g. a status
        finally:
            self.spans[index][2] = time.perf_counter_ns()
            self._stack.pop()

    # -- wrapping -------------------------------------------------------------
    def _wrapper(self, original, name: str, note):
        tracer = self
        if inspect.iscoroutinefunction(original):

            async def traced_async(*args, **kwargs):
                index = tracer.begin(name)
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.end(index)

            return traced_async

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.end(index, _note(note, args, result))

        return traced

    def install(self) -> None:
        """Wrap every layer point that exists; record the ones that do not."""
        for module_name, owner_name, attr, name, note in self.points:
            label = f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(label)
                continue
            owner = module if owner_name is None else getattr(module, owner_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None or not callable(original):
                self.absent.append(label)
                continue
            setattr(owner, attr, self._wrapper(original, name, note))
            self._patches.append((owner, attr, original))
        self._install_codec()

    def _install_codec(self) -> None:
        """Time the JSON encode/decode calls the ledger-store module makes."""
        try:
            stores = importlib.import_module("repro.service.stores")
        except ImportError:
            self.absent.append("repro.service.stores.json")
            return
        real = vars(stores).get("json")
        if real is None:
            self.absent.append("repro.service.stores.json")
            return
        setattr(stores, "json", _TimedJson(self, real))
        self._patches.append((stores, "json", real))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _note(note, args, result):
    """The span's note, or None: a layer function whose result changed shape
    loses its note; it does not fail the program."""
    if note is None or result is None:
        return None
    try:
        return note(args, result)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


class NullTracer:
    """The untraced run: operations cost one shared no-op context."""

    _null = contextlib.nullcontext()

    def op(self, kind: str):
        return self._null


class _TimedJson:
    """Stand-in for the ``json`` module inside ``repro.service.stores``."""

    def __init__(self, tracer: Tracer, real) -> None:
        self._tracer = tracer
        self._real = real

    def dumps(self, *args, **kwargs):
        index = self._tracer.begin("stores.codec_encode")
        text = ""
        try:
            text = self._real.dumps(*args, **kwargs)
            return text
        finally:
            self._tracer.end(index, len(text))

    def loads(self, *args, **kwargs):
        index = self._tracer.begin("stores.codec_decode")
        try:
            return self._real.loads(*args, **kwargs)
        finally:
            self._tracer.end(index)

    def __getattr__(self, name):
        return getattr(self._real, name)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------
def _layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "bench"


def summarize(tracer: Tracer) -> dict:
    """Per span name: count, total and self milliseconds, durations, notes.

    A span's self time is its duration minus the durations of its direct
    children; children run strictly inside their parent on the one stack.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    by_name: dict = defaultdict(
        lambda: {"count": 0, "total_ms": 0.0, "self_ms": 0.0, "durations": [], "notes": []}
    )
    for index, (name, start, end, _, _, note) in enumerate(spans):
        entry = by_name[name]
        duration = end - start
        entry["count"] += 1
        entry["total_ms"] += duration / 1e6
        entry["self_ms"] += (duration - child_ns[index]) / 1e6
        entry["durations"].append(duration / 1e6)
        if note is not None:
            entry["notes"].append(note)
    return by_name


def span_table(summary: dict) -> dict:
    """The written-out form of the spans: one row per span name."""
    return {
        name: {
            "layer": _layer_of(name),
            "count": entry["count"],
            "total_ms": round(entry["total_ms"], 4),
            "self_ms": round(entry["self_ms"], 4),
        }
        for name, entry in sorted(summary.items())
    }


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(tracer: Tracer, releases: int) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced phase.

    ``releases`` is the number of private values the traced operations
    released.  Metrics of a layer the workload never enters read 0.
    """
    spans = tracer.spans
    summary = summarize(tracer)
    n_ops = len(tracer.op_kinds)

    def count(name):
        return summary[name]["count"] if name in summary else 0

    def mean_ms(name):
        entry = summary.get(name)
        return _mean(entry["total_ms"], entry["count"]) if entry else 0.0

    def self_per_call(name):
        entry = summary.get(name)
        return _mean(entry["self_ms"], entry["count"]) if entry else 0.0

    def per_op(value):
        return _mean(value, n_ops)

    names = [span[0] for span in spans]
    singles = [i for i, kind in tracer.op_kinds.items() if kind == "single"]
    single_ids = set(singles)

    def count_in_singles(predicate):
        return _mean(
            sum(1 for span in spans if span[4] in single_ids and predicate(span[0])),
            len(singles),
        )

    ledger_calls = (
        "ledger.reserve", "ledger.consume", "ledger.release_unused",
        "ledger.snapshot", "ledger.consume_idempotent", "ledger.idempotent_response",
    )
    metrics: dict = {}
    # service.app
    metrics["app.self_ms"] = self_per_call("app.call")
    metrics["app.requests"] = count("app.call")
    metrics["app.non_2xx"] = sum(
        1
        for span in spans
        if span[3] < 0 and span[5] is not None and not 200 <= span[5] < 300
    )
    # service.ledger
    for name in ("reserve", "consume", "release_unused", "snapshot", "consume_idempotent"):
        metrics[f"ledger.{name}_ms"] = mean_ms(f"ledger.{name}")
        metrics[f"ledger.{name}_calls"] = per_op(count(f"ledger.{name}"))
    metrics["ledger.calls_per_single"] = count_in_singles(lambda n: n in ledger_calls)
    metrics["ledger.rehydrate_ms"] = mean_ms("ledger.rehydrate")
    metrics["ledger.idempotency_records"] = 0.0  # read by the service workload
    # service.stores
    txn_ms = summary["stores.txn"]["durations"] if "stores.txn" in summary else []
    n_txn = len(txn_ms)
    metrics["stores.txn_per_single"] = count_in_singles(lambda n: n == "stores.txn")
    metrics["stores.txn_mean_ms"] = _mean(sum(txn_ms), n_txn)
    metrics["stores.txn_p50_ms"] = statistics.median(txn_ms) if txn_ms else 0.0
    codec_ms = sum(
        summary[n]["total_ms"] for n in ("stores.codec_encode", "stores.codec_decode") if n in summary
    )
    metrics["stores.codec_ms"] = _mean(codec_ms, n_txn)
    encoded = summary["stores.codec_encode"]["notes"] if "stores.codec_encode" in summary else []
    metrics["stores.bytes_per_txn"] = _mean(sum(encoded), n_txn)
    metrics["stores.peek_ms"] = mean_ms("stores.peek")
    metrics["stores.peek_per_request"] = _mean(count("stores.peek"), count("app.call"))
    # Each extra inner transaction under one retrying call is a re-run.
    inner_runs = sum(
        1
        for span in spans
        if span[0] == "stores.txn" and span[3] >= 0 and names[span[3]] == "stores.retrying_run"
    )
    metrics["stores.retries"] = max(0, inner_runs - count("stores.retrying_run"))
    # serving.cache
    lookups = summary["cache.lookup"]["notes"] if "cache.lookup" in summary else []
    metrics["cache.lookup_ms"] = mean_ms("cache.lookup")
    metrics["cache.key_ms"] = mean_ms("cache.key")
    metrics["cache.lookups_per_release"] = _mean(count("cache.lookup"), releases)
    metrics["cache.hit_rate"] = _mean(sum(lookups), len(lookups))
    # serving.engine / serving.stream: accountant calls as the engine makes them
    engine_parents = {"engine.release_batch", "stream.take"}
    engine_debits = [
        span
        for span in spans
        if span[0].startswith("accountant.")
        and span[3] >= 0
        and names[span[3]] in engine_parents
    ]
    noise_sizes = summary["engine.noise"]["notes"] if "engine.noise" in summary else []
    metrics["engine.noise_ms"] = mean_ms("engine.noise")
    metrics["engine.noise_values_per_call"] = _mean(sum(noise_sizes), len(noise_sizes))
    metrics["engine.accountant_ms"] = _mean(
        sum(span[2] - span[1] for span in engine_debits) / 1e6, len(engine_debits)
    )
    metrics["engine.release_batch_self_ms"] = self_per_call("engine.release_batch")
    metrics["stream.take_ms"] = mean_ms("stream.take")
    metrics["stream.debits_per_chunk"] = _mean(
        sum(1 for span in engine_debits if names[span[3]] == "stream.take"),
        count("stream.take"),
    )
    # core.markov_quilt
    metrics["markov_quilt.max_influence_ms"] = mean_ms("markov_quilt.max_influence")
    metrics["markov_quilt.max_influence_calls"] = per_op(count("markov_quilt.max_influence"))
    metrics["markov_quilt.search_self_ms"] = per_op(
        summary["markov_quilt.search"]["self_ms"] if "markov_quilt.search" in summary else 0.0
    )
    # distributions.bayesnet / structured
    certified = summary["quilts.certify"]["notes"] if "quilts.certify" in summary else []
    metrics["quilts.enumerate_ms"] = per_op(
        summary["quilts.enumerate"]["total_ms"] if "quilts.enumerate" in summary else 0.0
    )
    metrics["quilts.dsep_ms"] = mean_ms("quilts.dsep")
    metrics["quilts.dsep_calls"] = per_op(count("quilts.dsep"))
    metrics["quilts.certified_ratio"] = _mean(sum(certified), count("quilts.certify"))
    # inference.engine
    metrics["inference.conditional_tables_ms"] = mean_ms("inference.conditional_tables")
    metrics["inference.conditional_tables_calls"] = per_op(count("inference.conditional_tables"))
    metrics["inference.contract_ms"] = mean_ms("inference.contract")
    metrics["inference.contract_calls"] = per_op(count("inference.contract"))
    metrics["inference.engines_built"] = per_op(count("inference.build"))
    # distributions.temporal
    reuse = summary["temporal.recalibrate"]["notes"] if "temporal.recalibrate" in summary else []
    metrics["temporal.reused_ratio"] = _mean(sum(reuse), len(reuse))
    recal = [
        span[2] - span[1]
        for span in spans
        if span[0] == "temporal.recalibrate" and span[5] is not None
    ]
    metrics["temporal.recalibrate_ms"] = _mean(sum(recal) / 1e6, len(recal))
    # Where an operation's time goes: self time per layer, per operation.
    layer_self = dict.fromkeys(LAYER_NAMES, 0.0)
    for name, entry in summary.items():
        layer_self[_layer_of(name)] += entry["self_ms"]
    for layer in LAYER_NAMES:
        metrics[f"self.{layer}_ms"] = per_op(layer_self[layer])
    metrics["trace.spans_per_op"] = per_op(len(spans))
    return metrics

