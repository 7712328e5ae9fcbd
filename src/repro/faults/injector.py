"""The fault injector: seeded, named-point, deterministic.

The model has three pieces:

* **Fault points** are string names compiled into production code —
  ``"ledger.sqlite.commit"``, ``"tenant.consume"``,
  ``"app.request"`` — each a call to :func:`fire` with keyword context
  (tenant, path, ...).  The full catalogue lives in ``docs/api.md``.
* **Rules** (:class:`FaultRule`) match points by ``fnmatch`` pattern and
  describe one fault: raise a transient error (``io`` / ``lock_timeout``
  / ``sqlite_busy``), sleep (``latency``), simulate a crash in-process
  (``crash`` — raises :class:`SimulatedCrashError`, which crash-path
  cleanup handlers deliberately do *not* tidy up after, so partial state
  is left behind exactly as a power loss would), or kill the process for
  real (``exit`` — ``os._exit``, for subprocess tests).  Rules can skip
  the first ``after`` matches, fire at most ``times`` times, and fire
  probabilistically.
* The **injector** (:class:`FaultInjector`) owns the rules, a seeded RNG
  for the probabilistic decisions, and thread-safe counters — the same
  seed and workload replays the same fault schedule.

Installation is process-global (:func:`install` / the :func:`injected`
context manager) because the instrumented code spans layers that share no
constructor path; with nothing installed :func:`fire` is a no-op.  Worker
processes inherit injection through the ``REPRO_FAULTS`` environment
variable (a JSON spec, read once at import), so multi-process chaos tests
can arm children they are about to SIGKILL.
"""

from __future__ import annotations

import errno
import fnmatch
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

import contextlib

from repro.exceptions import ValidationError
from repro.utils.filelock import LockTimeoutError


class SimulatedCrashError(BaseException):
    """An in-process stand-in for SIGKILL / power loss at a fault point.

    Derives from :class:`BaseException` (not :class:`Exception`) so it
    sails through ``except Exception`` recovery paths the way a real
    crash would, and carries ``simulates_crash = True`` so the few
    crash-path cleanup handlers that catch ``BaseException`` (the
    temp-file unlinks in the stores) know to leave partial state on disk
    — cleaning up would defeat the point of simulating a crash.
    """

    simulates_crash = True


def _make_io_error(message: str) -> BaseException:
    return OSError(errno.EIO, message)


def _make_lock_timeout(message: str) -> BaseException:
    return LockTimeoutError(message)


def _make_sqlite_busy(message: str) -> BaseException:
    return sqlite3.OperationalError(f"database is locked ({message})")


#: Named transient-error families an ``error`` rule can raise.
ERROR_KINDS: "dict[str, Callable[[str], BaseException]]" = {
    "io": _make_io_error,
    "lock_timeout": _make_lock_timeout,
    "sqlite_busy": _make_sqlite_busy,
}

_ACTIONS = ("error", "latency", "crash", "exit")

#: Exit status used by ``exit`` rules — distinctive enough that a test
#: harness can tell an injected death from an ordinary failure.
EXIT_STATUS = 17


@dataclass
class FaultRule:
    """One fault: where it fires, what it does, and on what schedule.

    Parameters
    ----------
    point:
        ``fnmatch`` pattern over fault-point names (``"ledger.sqlite.*"``).
    action:
        ``"error"`` (raise ``ERROR_KINDS[error]``), ``"latency"`` (sleep
        ``delay`` seconds), ``"crash"`` (raise
        :class:`SimulatedCrashError`), or ``"exit"`` (``os._exit`` — only
        meaningful in sacrificial subprocesses).
    error:
        Error family for ``action="error"``; one of :data:`ERROR_KINDS`.
    after:
        Skip the first ``after`` matching hits before arming (fire "on
        the third commit", not the first).
    times:
        Fire at most this many times; ``None`` fires on every armed match.
    probability:
        Chance an armed match actually fires, decided by the injector's
        seeded RNG — the knob for randomized-but-reproducible schedules.
    delay:
        Sleep length for ``action="latency"``.
    message:
        Carried into the injected exception for log forensics.
    """

    point: str
    action: str = "error"
    error: str = "io"
    after: int = 0
    times: "int | None" = 1
    probability: float = 1.0
    delay: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValidationError(
                f"rule action must be one of {_ACTIONS}, got {self.action!r}"
            )
        if self.action == "error" and self.error not in ERROR_KINDS:
            raise ValidationError(
                f"rule error must be one of {sorted(ERROR_KINDS)}, "
                f"got {self.error!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError(
                f"rule probability must be in [0, 1], got {self.probability}"
            )
        if self.after < 0 or self.delay < 0:
            raise ValidationError("rule after/delay must be non-negative")
        if self.times is not None and self.times < 1:
            raise ValidationError(
                f"rule times must be >= 1 or None, got {self.times}"
            )


@dataclass
class _RuleState:
    rule: FaultRule
    hits: int = 0  # matches seen (armed or not)
    fired: int = 0  # faults actually raised/slept


class FaultInjector:
    """Fires configured :class:`FaultRule` s at named fault points.

    Deterministic: the same seed, rules, and sequence of :meth:`fire`
    calls produces the same fault schedule (probabilistic decisions come
    from one seeded ``random.Random``; counters are per rule).  Thread
    safe: counters and the RNG sit behind one lock, so concurrent
    sessions draw from one global schedule.

    ``history`` keeps the last :attr:`max_history` fired events for
    forensics (``max_history=0`` disables it); :meth:`stats` and
    :meth:`fired` count from durable per-point counters that never trim,
    so they stay exact however long a chaos run fires.
    """

    def __init__(
        self,
        rules: "Sequence[FaultRule | Mapping[str, Any]]" = (),
        *,
        seed: int = 0,
        max_history: int = 1000,
        validate_points: bool = False,
    ) -> None:
        import random

        self._states = [
            _RuleState(r if isinstance(r, FaultRule) else FaultRule(**r))
            for r in rules
        ]
        if validate_points:
            from repro.faults import points as _points

            _points.validate_patterns([s.rule.point for s in self._states])
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.max_history = int(max_history)
        if self.max_history < 0:
            raise ValidationError(
                f"max_history must be >= 0, got {max_history}"
            )
        self.history: list[dict[str, Any]] = []
        self._fired_per_point: dict[str, int] = {}

    @property
    def rules(self) -> list[FaultRule]:
        return [s.rule for s in self._states]

    def fire(self, point: str, **context: Any) -> None:
        """Evaluate every rule against ``point``; raise/sleep as configured.

        At most one rule acts per call (the first that decides to fire,
        in rule order) — a point that matches an ``error`` rule and a
        ``latency`` rule does not sleep on the way to raising.
        """
        action: "tuple[FaultRule, dict[str, Any]] | None" = None
        with self._lock:
            for state in self._states:
                rule = state.rule
                if not fnmatch.fnmatchcase(point, rule.point):
                    continue
                state.hits += 1
                if state.hits <= rule.after:
                    continue
                if rule.times is not None and state.fired >= rule.times:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                state.fired += 1
                self._fired_per_point[point] = (
                    self._fired_per_point.get(point, 0) + 1
                )
                event = {
                    "point": point,
                    "action": rule.action,
                    "rule": rule.point,
                    "context": context,
                }
                if self.max_history > 0:
                    self.history.append(event)
                    if len(self.history) > self.max_history:
                        del self.history[: -self.max_history]
                action = (rule, event)
                break
        if action is None:
            return
        rule, _ = action
        if rule.action == "latency":
            time.sleep(rule.delay)
        elif rule.action == "error":
            raise ERROR_KINDS[rule.error](
                f"{rule.message} [injected at {point}]"
            )
        elif rule.action == "crash":
            raise SimulatedCrashError(
                f"{rule.message} [simulated crash at {point}]"
            )
        else:  # "exit": a real, uncleanable process death.
            os._exit(EXIT_STATUS)

    def stats(self) -> dict[str, Any]:
        """Counts per rule pattern: hits seen, faults fired."""
        with self._lock:
            return {
                "rules": [
                    {
                        "point": s.rule.point,
                        "action": s.rule.action,
                        "hits": s.hits,
                        "fired": s.fired,
                    }
                    for s in self._states
                ],
                "total_fired": sum(s.fired for s in self._states),
            }

    def unmatched_rules(self) -> "tuple[str, ...]":
        """Armed rule patterns matching no point in the canonical registry.

        The lenient companion to ``validate_points=True`` — a pattern
        listed here will never fire at any declared production point
        (synthetic unit-test points aside), which usually means a typo
        in a chaos plan.
        """
        from repro.faults import points as _points

        return _points.unmatched_patterns(s.rule.point for s in self._states)

    def fired_per_point(self) -> "dict[str, int]":
        """Snapshot of the durable per-point fired counters."""
        with self._lock:
            return dict(self._fired_per_point)

    def fired(self, pattern: str = "*") -> int:
        """Total faults fired at points matching ``pattern``.

        Counted from durable per-point counters, not the bounded
        ``history`` buffer — exact even when a long chaos run fires more
        than :attr:`max_history` faults (or history is disabled).
        """
        with self._lock:
            return sum(
                count
                for point, count in self._fired_per_point.items()
                if fnmatch.fnmatchcase(point, pattern)
            )


# -- process-global installation -------------------------------------------
#
# The instrumented code spans layers (stores, cache, ledger, app) that share
# no constructor, so the injector is a process global.  `fire` is the only
# thing hot paths touch: one global load and a None check when idle.

_current: "FaultInjector | None" = None


def install(injector: FaultInjector) -> FaultInjector:
    """Make ``injector`` the process's active injector (returns it)."""
    global _current
    _current = injector
    return injector


def uninstall() -> None:
    """Deactivate fault injection (idempotent)."""
    global _current
    _current = None


def current() -> "FaultInjector | None":
    """The active injector, or ``None``."""
    return _current


def fire(point: str, **context: Any) -> None:
    """Hit one fault point — the call compiled into production code.

    No-op (one global read) unless an injector is installed.
    """
    injector = _current
    if injector is not None:
        injector.fire(point, **context)


@contextlib.contextmanager
def injected(
    injector: "FaultInjector | Sequence[FaultRule | Mapping[str, Any]]",
    *,
    seed: int = 0,
) -> Iterator[FaultInjector]:
    """Install an injector (or build one from rules) for a ``with`` block,
    restoring whatever was installed before on exit."""
    global _current
    if not isinstance(injector, FaultInjector):
        injector = FaultInjector(injector, seed=seed)
    previous = _current
    install(injector)
    try:
        yield injector
    finally:
        _current = previous


# -- environment activation (worker processes) ------------------------------

ENV_VAR = "REPRO_FAULTS"


def injector_from_spec(spec: "str | Mapping[str, Any]") -> FaultInjector:
    """Build an injector from a JSON spec: ``{"seed": 0, "rules": [...]}``.

    Each rule entry is a :class:`FaultRule` field mapping.  This is the
    wire format of the ``REPRO_FAULTS`` environment variable.  Spec rules
    are validated against the canonical registry
    (:mod:`repro.faults.points`) by default — an env-armed chaos plan
    whose pattern matches no declared point would silently prove nothing.
    Set ``"validate": false`` in the spec to arm arbitrary patterns.
    """
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as error:
            raise ValidationError(f"fault spec is not valid JSON: {error}") from error
    if not isinstance(spec, Mapping):
        raise ValidationError(
            f"fault spec must be a JSON object, got {type(spec).__name__}"
        )
    rules = spec.get("rules", [])
    if not isinstance(rules, Sequence) or isinstance(rules, (str, bytes)):
        raise ValidationError("fault spec 'rules' must be a list")
    return FaultInjector(
        rules,
        seed=int(spec.get("seed", 0)),
        validate_points=bool(spec.get("validate", True)),
    )


def install_from_env(environ: "Mapping[str, str] | None" = None) -> "FaultInjector | None":
    """Install an injector from ``REPRO_FAULTS`` if set (else no-op).

    Called once at import so spawned worker processes inherit the parent's
    fault plan through the environment; harmless to call again.
    """
    environ = os.environ if environ is None else environ
    spec = environ.get(ENV_VAR)
    if not spec:
        return None
    return install(injector_from_spec(spec))


install_from_env()
