"""The benchmark's three workloads.

Each workload is one client in a closed loop, in one process: it sends
its next operation only after the previous one has returned.  The runner
(``run.py``) drives every workload through the same steps:

``setup()``
    builds the warm state timing starts from; the runner times it several
    times and reports the median as ``setup_s``.
``measure(seconds, tracer, phase, checks)``
    runs rounds of a fixed operation interleave until ``seconds`` have
    passed, timing every operation.  Alike rounds do alike work, so a
    run's figures do not depend on how many rounds fit in it.
``check(checks)``
    the untimed correctness phase.

All inputs derive from the seed.  Nothing here writes outside the working
directory the runner hands in.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import yardstick

EPSILON = 0.5


class Phase:
    """What one timed phase measured, operation by operation.

    Each operation's time is scaled to a reference host speed by the
    sampler that runs while the phase does (see ``yardstick.py``), so a
    slow spell of a shared host barely moves it.  The figures are medians
    over all scaled samples of a run; the run record also gives raw ones.
    """

    def __init__(self, sampler) -> None:
        self.sampler = sampler
        self.ops: list[tuple] = []  # (kind, start, end) in perf_counter seconds
        self.releases = 0  # private values released by timed operations
        self._times: list[tuple] = []  # (kind, raw ms, scaled ms), once known

    def add(self, kind: str, start: float) -> None:
        """Record an operation of ``kind`` that began at ``start`` and ends now."""
        self.ops.append((kind, start, time.perf_counter()))

    def times(self) -> list[tuple]:
        """(kind, raw ms, scaled ms) per operation; read after the phase."""
        if len(self._times) != len(self.ops):
            self._times = [
                (kind, *(1e3 * t for t in self.sampler.timed(start, end)))
                for kind, start, end in self.ops
            ]
        return self._times

    def samples(self, kind: str, raw: bool = False) -> list[float]:
        """Every time of ``kind`` in ms, scaled unless ``raw``."""
        return [r if raw else s for k, r, s in self.times() if k == kind]

    def typical(self, kind: str) -> float:
        """The median of all scaled times of ``kind``."""
        return _median(self.samples(kind))

    def kinds(self) -> list[str]:
        return sorted({kind for kind, _, _ in self.ops})

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    def rate(self) -> float:
        """Operations per second of scaled time spent in operations."""
        return self.n_ops / (sum(s for _, _, s in self.times()) / 1e3)


class Checks:
    """Counts correctness checks; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def load_reference(name: str) -> dict:
    """Committed ``sigma_max`` values (``float.hex``) per network spec."""
    path = Path(__file__).resolve().parent / "reference.json"
    return json.loads(path.read_text())[name]


def _blocks(n_blocks: int, block_size: int) -> tuple:
    from repro.distributions.structured import block_node

    return tuple(
        tuple(block_node(i, j) for j in range(block_size)) for i in range(n_blocks)
    )


def _spokes(n_spokes: int, length: int) -> tuple:
    from repro.distributions.structured import spoke_node

    return tuple(
        tuple(spoke_node(i, j) for j in range(1, length + 1)) for i in range(n_spokes)
    )


def build_network(spec: tuple):
    """``(family, a, b)`` -> (network, its structured quilt generator)."""
    from repro.distributions import structured as s

    family, a, b = spec
    if family == "grid":
        return s.grid_network(a, b), s.GridQuiltGenerator(a, b)
    if family == "hub":
        return s.hub_and_spoke_network(a, b), s.HubQuiltGenerator(_spokes(a, b))
    if family == "blocks":
        return s.household_blocks_network(a, b), s.BlockQuiltGenerator(_blocks(a, b))
    raise ValueError(f"unknown network family {family!r}")


def spec_key(spec: tuple) -> str:
    return "{}_{}x{}".format(*spec)


def _finite(values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------
async def _asgi(app, method: str, path: str, body=None) -> tuple[int, bytes]:
    """One in-process ASGI request; returns (status, response body)."""
    raw = b"" if body is None else json.dumps(body).encode()
    sent: list = []

    async def receive():
        return {"type": "http.request", "body": raw, "more_body": False}

    async def send(message):
        sent.append(message)

    scope = {"type": "http", "method": method, "path": path, "headers": [], "query_string": b""}
    await app(scope, receive, send)
    return sent[0]["status"], sent[1]["body"]


class ServiceMixed:
    """Mixed traffic on the HTTP app over a SQLite ledger with served history.

    Every round copies a store in which each tenant has already served
    ``preserved`` releases, opens one long-lived stream per tenant, and then
    sends ``passes`` rotations of ``PATTERN`` through every tenant.
    """

    name = "service-mixed"
    dominant = "single"  # behind op_p50_ms / op_tail_ms
    # The app runs each request on a worker thread.  On one CPU, that
    # thread and the speed samples share the processor whose speed is
    # sampled, and a hop between threads does not wait for another CPU to
    # wake, so the scaled times follow the program more closely.
    one_cpu = True
    # A fixed level, held with ten samples beyond it even by a slow run,
    # keeps runs comparable.
    tail_level = 95.0
    PATTERN = (
        "single", "single", "stream_chunk", "single", "batch",
        "single", "keyed", "single", "read", "stream_chunk",
    )
    BATCH = 50
    CHUNK = 4

    def __init__(self, seed: int, workdir: Path, *, tenants: int = 4,
                 preserved: int = 200, passes: int = 2) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tenants = [f"tenant-{i}" for i in range(tenants)]
        self.preserved = preserved
        self.passes = passes
        self.loop = asyncio.new_event_loop()
        self.seed_store = workdir / "seed.sqlite"
        self.rounds = 0
        self.app = None
        self.last_keyed: "tuple | None" = None
        self.state_bytes: list[float] = []
        self.idempotency_records: list[float] = []

    def _remove_store(self, path: Path) -> None:
        for suffix in ("", "-wal", "-shm"):
            Path(str(path) + suffix).unlink(missing_ok=True)

    def _close_app(self) -> None:
        if self.app is not None:
            self.app.close()
            self.app.service.close()
            self.app = None

    def setup(self) -> None:
        from repro.service import create_app

        self._remove_store(self.seed_store)
        app = create_app(str(self.seed_store))
        try:
            self.loop.run_until_complete(self._preserve(app))
        finally:
            app.close()
            app.service.close()

    async def _preserve(self, app) -> None:
        for index, tenant in enumerate(self.tenants):
            status, _ = await _asgi(
                app, "POST", f"/tenants/{tenant}", {"budget": 1e9, "audit_trail": False}
            )
            _require(status == 200, f"create {tenant}: {status}")
            # Served history: each streamed value is its own debit, so the
            # ledger holds what a tenant accumulates by serving releases.
            status, raw = await _asgi(
                app, "POST", f"/tenants/{tenant}/stream",
                {"workload": "hub-laplace", "n_reserved": self.preserved,
                 "seed": self.seed * 1000 + index},
            )
            _require(status == 200, f"open pre-serve stream: {status}")
            session = json.loads(raw)["session_id"]
            status, raw = await _asgi(
                app, "POST", f"/sessions/{session}/next", {"n": self.preserved}
            )
            _require(status == 200 and json.loads(raw)["n"] == self.preserved, "pre-serve")
            status, _ = await _asgi(app, "DELETE", f"/sessions/{session}")
            _require(status == 200, "close pre-serve stream")

    def measure(self, seconds: float, tracer, phase: Phase, checks: Checks) -> None:
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            self._round(tracer, phase, checks)

    def _round(self, tracer, phase: Phase, checks: Checks) -> None:
        from repro.service import create_app

        self._close_app()
        self.rounds += 1
        path = self.workdir / f"round-{self.rounds}.sqlite"
        previous = self.workdir / f"round-{self.rounds - 1}.sqlite"
        self._remove_store(previous)
        shutil.copyfile(self.seed_store, path)
        self.app = create_app(str(path))
        self.loop.run_until_complete(self._drive(self.app, tracer, phase, checks))

    async def _drive(self, app, tracer, phase: Phase, checks: Checks) -> None:
        rng = random.Random(self.seed)
        served = {t: self.preserved for t in self.tenants}
        # Untimed: warm both workloads' calibration, open the streams.
        for workload in ("hub-laplace", "hub-gaussian"):
            status, _ = await _asgi(
                app, "POST", f"/tenants/{self.tenants[0]}/calibrate", {"workload": workload}
            )
            checks.expect(status == 200, f"calibrate {workload}: {status}")
        sessions = {}
        reserved = self.passes * self.PATTERN.count("stream_chunk") * self.CHUNK
        for tenant in self.tenants:
            status, raw = await _asgi(
                app, "POST", f"/tenants/{tenant}/stream",
                {"workload": "hub-laplace", "n_reserved": reserved,
                 "seed": rng.randrange(2**31)},
            )
            checks.expect(status == 200, f"open stream: {status}")
            sessions[tenant] = json.loads(raw)["session_id"]

        responses = []
        for _ in range(self.passes):
            for tenant in self.tenants:
                for kind in self.PATTERN:
                    method, path, body = self._request(kind, tenant, sessions, rng)
                    start = time.perf_counter()
                    with tracer.op(kind) as span:
                        status, raw = await _asgi(app, method, path, body)
                        if span is not None:
                            span[5] = status
                    phase.add(kind, start)
                    responses.append((kind, tenant, body, status, raw))

        # Untimed: validate every response, then the ledgers.
        for kind, tenant, body, status, raw in responses:
            if not checks.expect(status == 200, f"{kind} on {tenant}: HTTP {status}"):
                continue
            payload = json.loads(raw)
            if kind == "read":
                checks.expect(payload["tenant"] == tenant, "read returned another tenant")
                continue
            want = {"single": 1, "keyed": 1, "batch": self.BATCH, "stream_chunk": self.CHUNK}[kind]
            values = payload["values"]
            checks.expect(
                payload["n"] == want and len(values) == want and _finite(values),
                f"{kind}: {payload['n']} values, finite={_finite(values)}",
            )
            served[tenant] += want
            phase.releases += want
            if kind == "keyed":
                self.last_keyed = (tenant, body, payload)
        for tenant, session in sessions.items():
            status, _ = await _asgi(app, "DELETE", f"/sessions/{session}")
            checks.expect(status == 200, f"close stream: {status}")
        for tenant in self.tenants:
            status, raw = await _asgi(app, "GET", f"/tenants/{tenant}")
            snapshot = json.loads(raw)
            checks.expect(
                status == 200
                and snapshot["n_releases"] == served[tenant]
                and snapshot["spent_epsilon"] == served[tenant] * EPSILON,
                f"{tenant}: ledger shows {snapshot.get('n_releases')} releases / "
                f"{snapshot.get('spent_epsilon')} epsilon, served {served[tenant]}",
            )
            self.idempotency_records.append(snapshot["idempotency_records"])
            state = app.service.store.peek(tenant)
            self.state_bytes.append(len(json.dumps(state).encode()))

    def _request(self, kind: str, tenant: str, sessions: dict, rng: random.Random):
        seed = rng.randrange(2**31)
        if kind == "single":
            return "POST", f"/tenants/{tenant}/release", {"workload": "hub-laplace", "seed": seed}
        if kind == "batch":
            return "POST", f"/tenants/{tenant}/release", {
                "workload": "hub-gaussian", "n": self.BATCH, "seed": seed}
        if kind == "keyed":
            return "POST", f"/tenants/{tenant}/release", {
                "workload": "hub-laplace", "seed": seed,
                "idempotency_key": f"key-{self.seed}-{self.rounds}-{seed}"}
        if kind == "read":
            return "GET", f"/tenants/{tenant}", None
        if kind == "stream_chunk":
            return "POST", f"/sessions/{sessions[tenant]}/next", {"n": self.CHUNK}
        raise ValueError(kind)

    def check(self, checks: Checks) -> None:
        self.loop.run_until_complete(self._final_checks(checks))

    async def _final_checks(self, checks: Checks) -> None:
        app = self.app
        # An idempotent replay returns the same response and debits nothing.
        if checks.expect(self.last_keyed is not None, "no keyed release was served"):
            tenant, body, original = self.last_keyed
            _, before = await _asgi(app, "GET", f"/tenants/{tenant}")
            status, raw = await _asgi(app, "POST", f"/tenants/{tenant}/release", body)
            _, after = await _asgi(app, "GET", f"/tenants/{tenant}")
            replay = json.loads(raw) if status == 200 else {}

            def stable(payload):
                return json.dumps(
                    {k: v for k, v in payload.items() if k not in ("ledger", "replayed")},
                    sort_keys=True,
                )

            checks.expect(
                status == 200 and replay.get("replayed") is True
                and stable(replay) == stable(original),
                "idempotent replay differs from the original response",
            )
            checks.expect(
                json.loads(before)["n_releases"] == json.loads(after)["n_releases"]
                and json.loads(before)["spent_epsilon"] == json.loads(after)["spent_epsilon"],
                "idempotent replay was debited again",
            )
        # A budget-limited tenant serves exactly floor(budget / eps), then 429.
        rng = random.Random(self.seed + 1)
        allowed = rng.randint(3, 9)
        budget = allowed * EPSILON + EPSILON * rng.uniform(0.05, 0.95)
        status, _ = await _asgi(app, "POST", "/tenants/limited", {"budget": budget})
        checks.expect(status == 200, f"create limited tenant: {status}")
        statuses = []
        for _ in range(allowed + 1):
            status, _ = await _asgi(
                app, "POST", "/tenants/limited/release",
                {"workload": "hub-laplace", "seed": rng.randrange(2**31)},
            )
            statuses.append(status)
        checks.expect(
            statuses == [200] * allowed + [429],
            f"budget {budget:.3f} at eps {EPSILON}: statuses {statuses}",
        )

    def heavy_ms(self, phase: Phase) -> float:
        return phase.typical("batch")

    def run_record(self, phase: Phase) -> dict:
        return {
            "tenants": len(self.tenants),
            "preserved_per_tenant": self.preserved,
            "ledger_bytes_per_tenant": _median(self.state_bytes),
            "idempotency_records_per_tenant": _median(self.idempotency_records),
        }

    def layer_extras(self) -> dict:
        return {"ledger.idempotency_records": _median(self.idempotency_records)}

    def close(self) -> None:
        self._close_app()
        self.loop.close()


# ---------------------------------------------------------------------------
# engine-warm
# ---------------------------------------------------------------------------
class EngineWarm:
    """An in-process engine on a warm 200-node calibration; no store."""

    name = "engine-warm"
    dominant = "single"
    one_cpu = False
    tail_level = 95.0
    PATTERN = ("single", "single", "batch", "single", "stream_chunk", "single")
    ROUND_PASSES = 2
    BATCH = 50
    CHUNK = 50

    def __init__(self, seed: int, workdir: Path, *, network=("blocks", 20, 10)) -> None:
        self.seed = seed
        self.spec = network
        self.engine = None

    def setup(self) -> None:
        from repro.core import MarkovQuiltMechanism
        from repro.core.composition import CompositionAccountant
        from repro.core.queries import CountQuery
        from repro.inference import clear_engine_registry
        from repro.serving import PrivacyEngine

        clear_engine_registry()
        network, generator = build_network(self.spec)
        rng = np.random.default_rng(self.seed)
        self.data = rng.integers(0, 2, size=len(network.nodes)).astype(float)
        self.query = CountQuery()
        self.generator = generator
        mechanism = MarkovQuiltMechanism([network], EPSILON, quilt_generator=generator)
        self.engine = PrivacyEngine(
            mechanism,
            accountant=CompositionAccountant(audit_trail=False),
            rng=self.seed,
        )
        self.scale = self.engine.calibrate(self.query, self.data).scale
        self.stream = self.engine.stream(self.data, self.query, rng=self.seed + 1)

    def measure(self, seconds: float, tracer, phase: Phase, checks: Checks) -> None:
        engine, data, query = self.engine, self.data, self.query
        want = {"single": 1, "batch": self.BATCH, "stream_chunk": self.CHUNK}
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            for kind in self.PATTERN * self.ROUND_PASSES:
                start = time.perf_counter()
                with tracer.op(kind):
                    if kind == "single":
                        out = [engine.release(data, query)]
                    elif kind == "batch":
                        out = engine.release_repeated(data, query, self.BATCH)
                    else:
                        out = self.stream.take(self.CHUNK)
                phase.add(kind, start)
                phase.releases += len(out)
                # Checked between operations, untimed; outputs are not kept,
                # so the benchmark's own heap does not grow with the run.
                checks.expect(
                    len(out) == want[kind]
                    and _finite([r.value for r in out])
                    and all(r.noise_scale == self.scale for r in out),
                    f"{kind}: wrong count, value or noise scale",
                )

    def check(self, checks: Checks) -> None:
        from repro.core.composition import CompositionAccountant

        checks.expect(
            self.engine.mechanism.sigma_max().hex() == load_reference("sigma_max")[spec_key(self.spec)],
            "warm sigma_max differs from the committed reference",
        )
        # Stream chunks equal the release_batch prefix under one seed.
        seed = self.seed + 2
        n = 3 * self.CHUNK
        batch = self.engine.with_accountant(CompositionAccountant(audit_trail=False)).release_batch(
            [(self.data, self.query)] * n, rng=seed
        )
        session = self.engine.with_accountant(CompositionAccountant(audit_trail=False)).stream(
            self.data, self.query, rng=seed
        )
        streamed = []
        while len(streamed) < n:
            streamed.extend(session.take(min(7, n - len(streamed))))
        checks.expect(
            [r.value for r in streamed] == [r.value for r in batch],
            "stream chunks differ from the release_batch prefix",
        )

    def heavy_ms(self, phase: Phase) -> float:
        return phase.typical("batch")

    def run_record(self, phase: Phase) -> dict:
        return {"network": spec_key(self.spec), "noise_scale": self.scale}

    def layer_extras(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# calibrate-cold
# ---------------------------------------------------------------------------
class CalibrateCold:
    """Cold calibrations of three networks, then incremental recalibrations.

    A cycle clears the inference-engine registry, cold-calibrates the grid
    and hub networks with fresh mechanisms and the blocks network through
    ``TemporalNetwork.calibrated_mechanism``, then applies the seeded
    single-CPD edits to the blocks network, recalibrating after each.
    Every cycle repeats the same edits, so cycles are alike.
    """

    name = "calibrate-cold"
    dominant = "recalibrate"
    one_cpu = False
    tail_level = 66.0  # a 20 s run holds 30-45 edits

    def __init__(self, seed: int, workdir: Path, *, grid=("grid", 6, 6),
                 hub=("hub", 8, 6), blocks=("blocks", 20, 10), edits: int = 15) -> None:
        self.seed = seed
        self.specs = {"grid": grid, "hub": hub, "blocks": blocks}
        self.n_edits = edits
        self.sigmas: dict[str, list[str]] = defaultdict(list)
        self.last = None

    def setup(self) -> None:
        from repro.core import MarkovQuiltMechanism
        from repro.distributions import TemporalNetwork
        from repro.distributions.structured import block_node
        from repro.inference import clear_engine_registry

        clear_engine_registry()
        # Pay first-call costs (imports, numpy paths) on small networks.
        for spec in (("grid", 4, 4), ("hub", 4, 3)):
            network, generator = build_network(spec)
            MarkovQuiltMechanism([network], EPSILON, quilt_generator=generator).sigma_max()
        network, generator = build_network(("blocks", 4, 5))
        TemporalNetwork(network).calibrated_mechanism(EPSILON, quilt_generator=generator)
        clear_engine_registry()
        # The edit plan: three alike groups, each editing every other
        # member position once, in a seeded block with a seeded CPD.  Every
        # group and every seed edits the same positions, so recalibration
        # work does not depend on either.
        _, n_blocks, block_size = self.specs["blocks"]
        positions = range(0, block_size, 2)
        template, _ = build_network(self.specs["blocks"])
        rng = np.random.default_rng(self.seed)
        self.plan = []
        for i in range(self.n_edits):
            node = block_node(int(rng.integers(n_blocks)), positions[i % len(positions)])
            shape = template.cpd(node).shape
            cpd = rng.uniform(0.05, 0.95, size=shape)
            self.plan.append((node, cpd / cpd.sum(axis=-1, keepdims=True)))

    def measure(self, seconds: float, tracer, phase: Phase, checks: Checks) -> None:
        from repro.core import MarkovQuiltMechanism
        from repro.distributions import TemporalNetwork
        from repro.inference import clear_engine_registry

        started = time.perf_counter()
        cycle = ("blocks", "grid", "hub")
        share = -(-len(self.plan) // len(cycle))
        part = 0
        # The edits are spread over the cycle, a third after each network's
        # cold calibration.  Only whole cycles run, so every run has the
        # same mix of operations.
        while part % len(cycle) or part == 0 or time.perf_counter() - started < seconds:
            family = cycle[part % len(cycle)]
            if family == "blocks":
                clear_engine_registry()
            network, generator = build_network(self.specs[family])
            start = time.perf_counter()
            with tracer.op("cold_" + family):
                if family == "blocks":
                    temporal = TemporalNetwork(network)
                    mechanism, _ = temporal.calibrated_mechanism(
                        EPSILON, quilt_generator=generator
                    )
                    edit_generator = generator
                    sigma = mechanism.sigma_max()
                else:
                    sigma = MarkovQuiltMechanism(
                        [network], EPSILON, quilt_generator=generator
                    ).sigma_max()
            phase.add("cold_" + family, start)
            self.sigmas[family].append(sigma.hex())
            first = part % len(cycle) * share
            for node, cpd in self.plan[first : first + share]:
                start = time.perf_counter()
                with tracer.op("recalibrate"):
                    temporal.update_cpd(node, cpd)
                    mechanism, report = temporal.calibrated_mechanism(
                        EPSILON, quilt_generator=edit_generator
                    )
                phase.add("recalibrate", start)
                checks.expect(
                    not report.cold
                    and report.reused_nodes + report.recomputed_nodes == report.total_nodes,
                    f"recalibration report {report}",
                )
            self.last = (temporal, mechanism, edit_generator)
            part += 1

    def heavy_ms(self, phase: Phase) -> float:
        """One cycle's cold calibrations: the per-network figures summed."""
        return sum(phase.typical("cold_" + f) for f in self.specs)

    def check(self, checks: Checks) -> None:
        from repro.core import MarkovQuiltMechanism
        from repro.inference import clear_engine_registry

        reference = load_reference("sigma_max")
        for family, spec in self.specs.items():
            want = reference.get(spec_key(spec))
            for got in self.sigmas[family]:
                checks.expect(
                    got == want, f"{spec_key(spec)} sigma_max {got} != reference {want}"
                )
        # The incremental mechanism equals a from-scratch calibration of the
        # edited network, node by node.
        temporal, incremental, generator = self.last
        clear_engine_registry()
        fresh = MarkovQuiltMechanism([temporal.network], EPSILON, quilt_generator=generator)
        for node in temporal.nodes:
            checks.expect(
                fresh.sigma_for_node(node) == incremental.sigma_for_node(node),
                f"incremental sigma of {node} differs from a from-scratch calibration",
            )

    def run_record(self, phase: Phase) -> dict:
        return {
            "cycles": len(phase.samples("cold_blocks")),
            "edits_per_cycle": self.n_edits,
            "calibrate.grid_s": _median(phase.samples("cold_grid")) / 1e3,
            "calibrate.hub_s": _median(phase.samples("cold_hub")) / 1e3,
            "calibrate.blocks_s": _median(phase.samples("cold_blocks")) / 1e3,
        }

    def layer_extras(self) -> dict:
        return {}

    def close(self) -> None:
        pass


def _median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise RuntimeError(f"set-up failed: {message}")


WORKLOADS = {cls.name: cls for cls in (ServiceMixed, EngineWarm, CalibrateCold)}
