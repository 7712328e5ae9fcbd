"""The invariant-lint rule battery.

Each rule is a small class: an id (``R1``…), a slug, the fnmatch
patterns naming the files it applies to (relative to the lint root;
overridable per instance so fixture tests can point a rule at a scratch
tree), and a ``check(unit, linter)`` generator yielding
:class:`~repro.staticcheck.engine.Finding` s.

Catalogue
---------
* **R1** ``lock-discipline`` — ``*_locked`` members and docstring-declared
  guarded attributes only under their lock (:mod:`.locks`).
* **R2** ``check-then-act`` — budget check and debit in one atomic
  region; debit-before-yield in session generators (:mod:`.locks`).
* **R3** ``crash-safety`` — broad exception handlers must re-raise so
  ``SimulatedCrashError`` survives; no silent swallows around fault
  points (:mod:`.crash`).
* **R4** ``determinism`` — no wall clocks, global RNGs, ``hash()``, or
  set iteration in fingerprint-feeding modules (:mod:`.determinism`).
* **R5** ``fault-points`` — every ``fire()`` site declared in
  :mod:`repro.faults.points`; every test/bench pattern matches a
  declared point (:mod:`.faultpoints`).
* **R6** ``transaction-discipline`` — ledger debits and idempotency
  writes inside the same synced ``store.run`` closure
  (:mod:`.transactions`).
"""

from __future__ import annotations

import ast
import fnmatch
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.staticcheck.engine import FileUnit, Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.engine import Linter


class Rule:
    """Base class: targeting plus the finding constructor."""

    rule_id: str = "R0"
    name: str = "rule"
    title: str = ""
    default_targets: "tuple[str, ...]" = ()
    default_excludes: "tuple[str, ...]" = ()

    def __init__(
        self,
        targets: "Sequence[str] | None" = None,
        excludes: "Sequence[str] | None" = None,
    ) -> None:
        self.targets = tuple(
            self.default_targets if targets is None else targets
        )
        self.excludes = tuple(
            self.default_excludes if excludes is None else excludes
        )

    def targets_file(self, rel: str) -> bool:
        if any(fnmatch.fnmatchcase(rel, pat) for pat in self.excludes):
            return False
        return any(fnmatch.fnmatchcase(rel, pat) for pat in self.targets)

    def finding(
        self, unit: FileUnit, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            name=self.name,
            path=unit.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )

    def check(
        self, unit: FileUnit, linter: "Linter"
    ) -> "Iterator[Finding]":  # pragma: no cover - interface
        raise NotImplementedError


from repro.staticcheck.rules.crash import CrashSafetyRule
from repro.staticcheck.rules.determinism import DeterminismRule
from repro.staticcheck.rules.faultpoints import FaultPointRule
from repro.staticcheck.rules.locks import CheckThenActRule, LockDisciplineRule
from repro.staticcheck.rules.transactions import TransactionDisciplineRule

#: Fresh default-configured instances of the full battery, in id order.
def all_rules() -> "list[Rule]":
    return [
        LockDisciplineRule(),
        CheckThenActRule(),
        CrashSafetyRule(),
        DeterminismRule(),
        FaultPointRule(),
        TransactionDisciplineRule(),
    ]


ALL_RULES: "list[Rule]" = all_rules()

__all__ = [
    "ALL_RULES",
    "CheckThenActRule",
    "CrashSafetyRule",
    "DeterminismRule",
    "FaultPointRule",
    "LockDisciplineRule",
    "Rule",
    "TransactionDisciplineRule",
    "all_rules",
]
