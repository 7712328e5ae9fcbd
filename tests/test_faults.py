"""The fault-injection subsystem, exercised point by point.

Covers the injector itself (rule matching, scheduling, determinism, the
``REPRO_FAULTS`` wire format), the retrying store wrapper (what retries,
what must not, backoff/deadline bounds), the fault points compiled into
the ledger store (at ``:memory:`` and at a file), and a crash before the
calibration cache's SQLite commit: committed entries survive, the crashed
put lands nothing, and the next put lands.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.exceptions import (
    BudgetExhaustedError,
    LockTimeoutError,
    ReproError,
    UnknownReservationError,
    ValidationError,
)
from repro.faults import (
    ERROR_KINDS,
    EXIT_STATUS,
    FaultInjector,
    FaultRule,
    SimulatedCrashError,
    current,
    fire,
    injected,
    injector_from_spec,
    install,
    uninstall,
)
from repro.service.ledger import TenantLedger
from repro.service.retry import (
    RetryingLedgerStore,
    RetryPolicy,
    is_transient_store_error,
    with_retries,
)
from repro.service.stores import SQLiteLedgerStore


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    uninstall()
    yield
    uninstall()


# -- the injector ----------------------------------------------------------
def test_fire_is_noop_without_injector():
    assert current() is None
    fire("anything.at.all")  # must not raise


def test_error_rule_raises_each_kind():
    for kind, factory in ERROR_KINDS.items():
        injector = FaultInjector([FaultRule("p", action="error", error=kind)])
        expected = type(factory("x"))
        with pytest.raises(expected):
            injector.fire("p")


def test_fnmatch_patterns_and_context_history():
    injector = FaultInjector(
        [FaultRule("ledger.sqlite.*", action="error", error="io", times=2)]
    )
    injector.fire("cache.sqlite.commit")  # no match
    with pytest.raises(OSError):
        injector.fire("ledger.sqlite.commit", tenant="t")
    with pytest.raises(OSError):
        injector.fire("ledger.sqlite.begin")
    injector.fire("ledger.sqlite.commit")  # times exhausted
    assert injector.fired("ledger.sqlite.*") == 2
    assert injector.fired("cache.sqlite.*") == 0
    assert injector.history[0]["context"] == {"tenant": "t"}
    stats = injector.stats()
    assert stats["total_fired"] == 2
    assert stats["rules"][0]["hits"] == 3


def test_fired_counts_stay_exact_past_history_bound():
    # fired() must come from durable counters, not the trimmed history —
    # a long chaos run that overflows max_history still counts exactly.
    injector = FaultInjector(
        [FaultRule("p", action="latency", delay=0.0, times=None)],
        max_history=5,
    )
    for _ in range(20):
        injector.fire("p")
    assert len(injector.history) == 5
    assert injector.fired("p") == 20
    assert injector.fired() == 20
    assert injector.stats()["total_fired"] == 20


def test_zero_max_history_disables_history_not_counts():
    injector = FaultInjector(
        [FaultRule("p", action="latency", delay=0.0, times=None)],
        max_history=0,
    )
    for _ in range(3):
        injector.fire("p")
    assert injector.history == []
    assert injector.fired("p") == 3


def test_negative_max_history_is_rejected():
    with pytest.raises(ValidationError):
        FaultInjector([], max_history=-1)


def test_after_skips_initial_hits():
    injector = FaultInjector([FaultRule("p", after=2)])
    injector.fire("p")
    injector.fire("p")
    with pytest.raises(OSError):
        injector.fire("p")


def test_probabilistic_schedule_is_seed_deterministic():
    def schedule(seed):
        injector = FaultInjector(
            [FaultRule("p", probability=0.5, times=None)], seed=seed
        )
        fired = []
        for i in range(40):
            try:
                injector.fire("p")
                fired.append(False)
            except OSError:
                fired.append(True)
        return fired

    assert schedule(7) == schedule(7)
    assert schedule(7) != schedule(8)
    assert any(schedule(7)) and not all(schedule(7))


def test_at_most_one_rule_acts_per_call():
    injector = FaultInjector(
        [
            FaultRule("p", action="error", error="io"),
            FaultRule("p", action="error", error="lock_timeout", times=None),
        ]
    )
    with pytest.raises(OSError):
        injector.fire("p")
    # First rule exhausted; second now gets its turn — and its own counter.
    with pytest.raises(LockTimeoutError):
        injector.fire("p")


def test_crash_rule_is_base_exception():
    injector = FaultInjector([FaultRule("p", action="crash")])
    with pytest.raises(SimulatedCrashError) as info:
        injector.fire("p")
    assert not isinstance(info.value, Exception)
    assert info.value.simulates_crash is True


def test_rule_validation():
    with pytest.raises(ValidationError):
        FaultRule("p", action="explode")
    with pytest.raises(ValidationError):
        FaultRule("p", error="nope")
    with pytest.raises(ValidationError):
        FaultRule("p", probability=1.5)
    with pytest.raises(ValidationError):
        FaultRule("p", times=0)


def test_injected_context_manager_restores_previous():
    outer = install(FaultInjector())
    with injected([FaultRule("p")]) as inner:
        assert current() is inner
        with pytest.raises(OSError):
            fire("p")
    assert current() is outer


def test_injector_from_spec_round_trip():
    spec = {
        "seed": 3,
        "rules": [{"point": "ledger.*", "action": "latency", "delay": 0.0}],
    }
    injector = injector_from_spec(spec)
    assert injector.rules[0].point == "ledger.*"
    import json

    assert injector_from_spec(json.dumps(spec)).rules[0].action == "latency"
    with pytest.raises(ValidationError):
        injector_from_spec("not json")
    with pytest.raises(ValidationError):
        injector_from_spec('["a list"]')
    with pytest.raises(ValidationError):
        injector_from_spec('{"rules": "nope"}')
    assert EXIT_STATUS == 17  # the wire contract kill-recovery tests rely on


# -- the retrying store wrapper --------------------------------------------
def test_transient_classification():
    assert is_transient_store_error(LockTimeoutError("t"))
    assert is_transient_store_error(OSError(5, "eio"))
    assert is_transient_store_error(sqlite3.OperationalError("database is locked"))
    assert not is_transient_store_error(sqlite3.OperationalError("syntax error"))
    assert not is_transient_store_error(ValidationError("v"))
    assert not is_transient_store_error(
        BudgetExhaustedError("b", budget=1, spent=1, remaining=0, requested=1)
    )
    assert not is_transient_store_error(RuntimeError("r"))


def _ledger(store, **kwargs):
    ledger = TenantLedger(store, "acme", **kwargs)
    ledger.create(budget=10.0)
    return ledger


def test_retry_absorbs_transient_enter_faults():
    sleeps = []
    store = RetryingLedgerStore(
        SQLiteLedgerStore(":memory:"),
        RetryPolicy(max_attempts=5, base_delay=0.01),
        sleep=sleeps.append,
    )
    ledger = _ledger(store)
    with injected([FaultRule("ledger.sqlite.begin", error="io", times=3)]):
        reservation = ledger.reserve(2, 1.0)
    assert reservation.n_reserved == 2
    assert len(sleeps) == 3
    assert store.retries == 3
    # Bounded full jitter: sleep k is within [0, base * 2**(k-1)].
    for k, delay in enumerate(sleeps, start=1):
        assert 0.0 <= delay <= 0.01 * 2 ** (k - 1)


def test_retry_gives_up_after_max_attempts():
    sleeps = []
    store = RetryingLedgerStore(
        SQLiteLedgerStore(":memory:"),
        RetryPolicy(max_attempts=3),
        sleep=sleeps.append,
    )
    ledger = _ledger(store)
    with injected([FaultRule("ledger.sqlite.begin", error="io", times=None)]):
        with pytest.raises(OSError):
            ledger.reserve(1, 1.0)
    assert len(sleeps) == 2  # attempts - 1 sleeps


def test_retry_never_retries_domain_refusals():
    calls = []
    store = RetryingLedgerStore(
        SQLiteLedgerStore(":memory:"), RetryPolicy(), sleep=calls.append
    )
    ledger = _ledger(store)
    with pytest.raises(BudgetExhaustedError):
        ledger.reserve(100, 1.0)  # 100 * 1.0 > 10.0: deterministic refusal
    assert calls == []


def test_retry_respects_deadline():
    store = RetryingLedgerStore(
        SQLiteLedgerStore(":memory:"),
        # Any backoff sleep would cross a zero-width deadline budget left
        # after the first attempt, so exactly one attempt's error escapes.
        RetryPolicy(max_attempts=50, base_delay=0.2, max_delay=0.2, deadline=0.05),
        sleep=lambda _s: None,
    )
    ledger = _ledger(store)
    with injected([FaultRule("ledger.sqlite.begin", error="io", times=None)]) as inj:
        with pytest.raises(OSError):
            ledger.reserve(1, 1.0)
    assert inj.fired() < 50


def test_retry_run_replays_whole_cycle_after_commit_fault():
    # An error *after* the commit landed: run() re-runs the closure, which
    # must observe the committed state and stay exactly-once by idempotency.
    store = RetryingLedgerStore(
        SQLiteLedgerStore(":memory:"), RetryPolicy(max_attempts=4), sleep=lambda _s: None
    )
    ledger = _ledger(store)
    reservation = ledger.reserve(3, 1.0)
    with injected(
        [FaultRule("ledger.sqlite.commit.after", error="io", times=1)]
    ):
        response, replayed = ledger.consume_idempotent(
            reservation.reservation_id,
            3,
            epsilon=1.0,
            idempotency_key="req-1",
            response={"values": [1, 2, 3]},
        )
    # The first cycle committed, errored after, and the re-run replayed it.
    assert response == {"values": [1, 2, 3]}
    assert replayed is True
    assert ledger.snapshot()["spent_epsilon"] == pytest.approx(3.0)


def test_retry_run_replays_keyless_consume_after_commit_fault():
    # A transient error *after* the commit landed must not double-debit a
    # keyless consume: the private call id stamped on the reservation turns
    # the wrapper's whole-cycle re-run into a replay of the committed result.
    store = RetryingLedgerStore(
        SQLiteLedgerStore(":memory:"), RetryPolicy(max_attempts=4), sleep=lambda _s: None
    )
    ledger = _ledger(store)
    reservation = ledger.reserve(4, 1.0)
    with injected(
        [FaultRule("ledger.sqlite.commit.after", error="io", times=1)]
    ):
        after = ledger.consume(reservation.reservation_id, 2, epsilon=1.0)
    assert (after.n_consumed, after.n_remaining) == (2, 2)
    assert ledger.snapshot()["spent_epsilon"] == pytest.approx(2.0)

    # Draining flavor: without the call id, the re-run would find 0 releases
    # left and raise ReservationError while the budget was already spent.
    with injected(
        [FaultRule("ledger.sqlite.commit.after", error="io", times=1)]
    ):
        final = ledger.consume(reservation.reservation_id, 2, epsilon=1.0)
    assert (final.n_consumed, final.n_remaining) == (4, 0)
    assert ledger.snapshot()["spent_epsilon"] == pytest.approx(4.0)


def test_keyless_rerun_after_reservation_vanished_keeps_the_debit():
    # The re-run finds its reservation gone (released between the commit
    # and the retry): it cannot replay, so it refuses — and the committed
    # debit stands, so spend is never under-counted.
    inner = SQLiteLedgerStore(":memory:")
    reservation = None

    def release_then_sleep(_seconds: float) -> None:
        TenantLedger(inner, "acme").release_unused(reservation.reservation_id)

    store = RetryingLedgerStore(
        inner, RetryPolicy(max_attempts=4), sleep=release_then_sleep
    )
    ledger = _ledger(store)
    reservation = ledger.reserve(4, 1.0)
    with injected(
        [FaultRule("ledger.sqlite.commit.after", error="io", times=1)]
    ):
        with pytest.raises(UnknownReservationError):
            ledger.consume(reservation.reservation_id, 2, epsilon=1.0)
    snapshot = ledger.snapshot()
    assert snapshot["spent_epsilon"] == pytest.approx(2.0)
    assert snapshot["n_releases"] == 2
    assert snapshot["n_reservations"] == 0


def test_with_retries_is_idempotent():
    store = SQLiteLedgerStore(":memory:")
    wrapped = with_retries(store)
    assert isinstance(wrapped, RetryingLedgerStore)
    assert with_retries(wrapped) is wrapped
    assert wrapped.inner is store


def test_retry_policy_validation():
    with pytest.raises(ValidationError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValidationError):
        RetryPolicy(base_delay=0.5, max_delay=0.1)
    with pytest.raises(ValidationError):
        RetryPolicy(deadline=0)


# -- store fault points, per backend ---------------------------------------
@pytest.fixture(params=["memory", "sqlite"])
def store_and_kind(request, tmp_path):
    if request.param == "memory":
        store = SQLiteLedgerStore(":memory:")
    else:
        store = SQLiteLedgerStore(tmp_path / "ledgers.sqlite")
    yield store, request.param
    store.close()


def test_commit_fault_persists_nothing(store_and_kind):
    store, _kind = store_and_kind
    ledger = _ledger(store)
    before = ledger.snapshot()
    reservation = ledger.reserve(2, 1.0)
    with injected([FaultRule("ledger.sqlite.commit", error="io")]):
        with pytest.raises(OSError):
            ledger.consume(reservation.reservation_id, 2, epsilon=1.0)
    after = ledger.snapshot()
    assert after["spent_epsilon"] == before["spent_epsilon"] == 0.0
    # The reservation survives untouched and is still consumable.
    consumed = ledger.consume(reservation.reservation_id, 2, epsilon=1.0)
    assert consumed.n_consumed == 2


def test_cache_crash_before_sqlite_commit(tmp_path):
    from repro.serving.cache import SQLiteCache

    cache = SQLiteCache(tmp_path / "cal.sqlite")
    cache.put("k0", {"scale": 1.0})
    with injected([FaultRule("cache.sqlite.commit", action="crash")]):
        with pytest.raises(SimulatedCrashError):
            cache.put("k1", {"scale": 2.0})
    # The store holds only the pre-crash committed entry.
    fresh = SQLiteCache(tmp_path / "cal.sqlite")
    assert fresh.get("k0") == {"scale": 1.0}
    assert fresh.get("k1") is None
    # The next put lands.
    cache.put("k1", {"scale": 2.0})
    assert SQLiteCache(tmp_path / "cal.sqlite").get("k1") == {"scale": 2.0}


def test_latency_rule_sleeps_not_raises(store_and_kind):
    store, kind = store_and_kind
    ledger = _ledger(store)
    with injected(
        [FaultRule("tenant.reserve", action="latency", delay=0.0, times=None)]
    ) as injector:
        ledger.reserve(1, 1.0)
    assert injector.fired("tenant.reserve") == 1


def test_tenant_fire_points_observe_lifecycle(store_and_kind):
    store, _kind = store_and_kind
    ledger = _ledger(store)
    with injected([]) as injector:  # passive observer: no rules, no faults
        reservation = ledger.reserve(2, 1.0)
        ledger.consume(reservation.reservation_id, 1, epsilon=1.0)
        ledger.release_unused(reservation.reservation_id)
        ledger.sweep()
    assert injector.fired() == 0  # nothing *fired* ...
    # ... but a rule-bearing injector sees each point by name.
    with injected(
        [FaultRule("tenant.*", action="latency", delay=0.0, times=None)]
    ) as injector:
        reservation = ledger.reserve(1, 1.0)
        ledger.release_unused(reservation.reservation_id)
        ledger.sweep()
    assert injector.fired("tenant.reserve") == 1
    assert injector.fired("tenant.release_unused") == 1
    assert injector.fired("tenant.sweep") == 1


# -- the canonical fault-point registry ------------------------------------
def test_registry_covers_every_compiled_fire_site():
    """Every fire("<name>") literal in src/ is declared, and every declared
    point is actually compiled into some source file (no zombie entries).
    The AST-exact version of this check is staticcheck rule R5."""
    import re
    from pathlib import Path

    from repro.faults import FAULT_POINTS

    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    compiled = set()
    for path in src.rglob("*.py"):
        if path.name in ("injector.py", "points.py"):
            continue
        text = path.read_text()
        compiled.update(re.findall(r'fire\(\s*"([^"]+)"', text))
    assert compiled == set(FAULT_POINTS)
    assert all(desc.strip() for desc in FAULT_POINTS.values())


def test_pattern_matching_helpers():
    from repro.faults import matching_points, unmatched_patterns

    assert "tenant.reserve" in matching_points("tenant.*")
    assert matching_points("zz.nothing") == ()
    assert unmatched_patterns(["tenant.*", "zz.nothing", "zz.nothing"]) == (
        "zz.nothing",
    )


def test_injector_validates_points_on_request():
    with pytest.raises(ValidationError, match="no declared fault point"):
        FaultInjector(
            [FaultRule("zz.nothing")],  # repro-lint: disable=R5 -- deliberately unknown: exercises registry validation
            validate_points=True,
        )
    injector = FaultInjector(
        [FaultRule("ledger.*")], validate_points=True
    )
    assert injector.rules[0].point == "ledger.*"
    # The default stays lenient: unit tests arm synthetic points freely.
    lenient = FaultInjector([FaultRule("p")])
    assert lenient.unmatched_rules() == ("p",)


def test_spec_validation_default_and_opt_out():
    with pytest.raises(ValidationError, match="no declared fault point"):
        injector_from_spec(
            {"rules": [{"point": "zz.nothing"}]}  # repro-lint: disable=R5 -- deliberately unknown: exercises spec validation
        )
    injector = injector_from_spec(
        {
            "rules": [{"point": "zz.nothing"}],  # repro-lint: disable=R5 -- deliberately unknown: exercises the validate opt-out
            "validate": False,
        }
    )
    assert injector.rules[0].point == "zz.nothing"


def test_never_fired_coverage_accounting():
    from repro.faults import FAULT_POINTS, never_fired

    with injected(
        [FaultRule("tenant.reserve", action="latency", delay=0.0)]
    ) as injector:
        injector.fire("tenant.reserve")
        remaining = never_fired(injector.fired_per_point())
    assert "tenant.reserve" not in remaining
    assert set(remaining) == set(FAULT_POINTS) - {"tenant.reserve"}
