"""The canonical fault-point registry.

Every ``fire("<name>")`` call compiled into production code must be
declared here — this module is the single source of truth the rest of
the system checks against:

* :class:`~repro.faults.injector.FaultInjector` can validate that armed
  rule patterns actually match a declared point (``validate_points=True``
  or :func:`unmatched_patterns` for the lenient form), so a typo'd
  chaos-test pattern fails loudly instead of silently never firing.
* ``GET /admin/faults`` reports declared-but-never-fired points, making
  chaos *coverage* gaps visible at runtime, not just rule typos.
* The ``R5`` rule in :mod:`repro.staticcheck` cross-checks every
  ``fire(...)`` call site in the tree and every fnmatch pattern used by
  tests/benchmarks against this catalogue at lint time.

Keep descriptions to one line: they double as the ``/admin/faults``
legend and the ``docs/api.md`` catalogue.  Pure stdlib — the linter
imports this in containers without numpy.
"""

from __future__ import annotations

import fnmatch
from typing import Iterable, Sequence

#: name -> one-line description of where the point sits and what a fault
#: there simulates.  Sorted by name; keep it that way.
FAULT_POINTS: "dict[str, str]" = {
    "app.request": (
        "ASGI dispatch, after routing but before the handler runs — "
        "faults the request path itself"
    ),
    "cache.sqlite.commit": (
        "SQLiteCache put, before the upsert runs — a calibration-cache "
        "write that never lands"
    ),
    "ledger.sqlite.begin": (
        "SQLite store BEGIN IMMEDIATE — lock acquisition and "
        "busy-timeout territory"
    ),
    "ledger.sqlite.commit": (
        "SQLite store commit, before the UPSERT and COMMIT run"
    ),
    "ledger.sqlite.commit.after": (
        "SQLite store commit, after COMMIT returned — durable but "
        "unacknowledged"
    ),
    "store.retry": (
        "RetryingLedgerStore, just before a backoff sleep — observes "
        "(or perturbs) the retry schedule itself"
    ),
    "tenant.advance_window": (
        "TenantLedger.advance_window entry, before the windowed "
        "reclamation transaction opens"
    ),
    "tenant.charge": (
        "TenantLedger.charge entry, before the one admit-and-debit "
        "transaction of a release, keyless or keyed, opens"
    ),
    "tenant.consume": (
        "TenantLedger.consume entry, before a stream chunk's debit "
        "transaction opens"
    ),
    "tenant.release_unused": (
        "TenantLedger.release_unused entry, before the refund "
        "transaction opens"
    ),
    "tenant.reserve": (
        "TenantLedger.reserve entry, before the admission transaction "
        "opens"
    ),
    "tenant.sweep": (
        "TenantLedger.sweep entry, before expired reservations are "
        "reclaimed"
    ),
}


def matching_points(pattern: str) -> "tuple[str, ...]":
    """Declared points an ``fnmatch`` pattern matches (sorted)."""
    return tuple(
        name
        for name in sorted(FAULT_POINTS)
        if fnmatch.fnmatchcase(name, pattern)
    )


def unmatched_patterns(patterns: "Iterable[str]") -> "tuple[str, ...]":
    """The subset of ``patterns`` matching zero declared points.

    Order-preserving and deduplicating; the lenient companion to
    :func:`validate_patterns` for callers that want to warn or report
    instead of raise.
    """
    seen: "set[str]" = set()
    missed: "list[str]" = []
    for pattern in patterns:
        if pattern in seen:
            continue
        seen.add(pattern)
        if not matching_points(pattern):
            missed.append(pattern)
    return tuple(missed)


def validate_patterns(patterns: "Sequence[str]") -> None:
    """Raise ``ValidationError`` if any pattern matches no declared point.

    Used by :class:`~repro.faults.injector.FaultInjector` when built with
    ``validate_points=True``: a chaos plan naming a point that does not
    exist would otherwise arm, never fire, and silently prove nothing.
    """
    missed = unmatched_patterns(patterns)
    if missed:
        from repro.exceptions import ValidationError

        raise ValidationError(
            "fault rule pattern(s) match no declared fault point: "
            + ", ".join(repr(p) for p in missed)
            + " (see repro.faults.points.FAULT_POINTS)"
        )


def never_fired(fired_counts: "dict[str, int]") -> "tuple[str, ...]":
    """Declared points absent from (or zero in) a fired-count mapping.

    ``fired_counts`` is the shape of ``FaultInjector._fired_per_point`` /
    the per-point totals behind :meth:`FaultInjector.fired` — the
    ``/admin/faults`` handler uses this to surface chaos coverage gaps.
    """
    return tuple(
        name
        for name in sorted(FAULT_POINTS)
        if fired_counts.get(name, 0) == 0
    )
