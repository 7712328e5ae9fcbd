"""R1 lock discipline and R2 check-then-act atomicity.

The repo's threading story is conventions, not types: a method named
``*_locked`` documents "caller holds my lock", a budget check is only
meaningful if the matching debit happens before the lock drops, and a
streaming session must debit *before* a noise value escapes through
``yield``.  These rules make the conventions structural.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.staticcheck.astutil import (
    call_name,
    class_docstring_guarded_attrs,
    enclosing_functions,
    guard_region,
    receiver_of,
    walk_excluding_nested_defs,
)
from repro.staticcheck.engine import FileUnit, Finding
from repro.staticcheck.rules import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.engine import Linter

_CONCURRENT_MODULES = (
    "src/repro/serving/stream.py",
    "src/repro/serving/engine.py",
    "src/repro/serving/cache.py",
    "src/repro/service/stores.py",
    "src/repro/service/ledger.py",
    "src/repro/service/app.py",
    "src/repro/core/accounting.py",
)

#: Constructors run before the object is shared; guarded attributes may
#: be initialised there without the lock.
_CONSTRUCTION_METHODS = frozenset(
    {"__init__", "__new__", "__post_init__", "_init_runtime"}
)


class LockDisciplineRule(Rule):
    """R1: ``*_locked`` members only touched under an owning lock.

    A reference to ``<obj>.<something>_locked`` must sit inside a
    ``with <...lock/mutex>:`` block, inside another ``*_locked``
    function (the guard transfers to *its* callers), or inside a nested
    closure (deferred execution — transaction handlers, which R6
    polices separately).  Additionally, attributes a class docstring
    declares via ``:guarded: a, b`` may only be touched under a guard
    (constructors exempt).
    """

    rule_id = "R1"
    name = "lock-discipline"
    title = "*_locked members only under their lock"
    default_targets = _CONCURRENT_MODULES

    def check(self, unit: FileUnit, linter: "Linter") -> "Iterator[Finding]":
        parents = unit.parents
        for node in ast.walk(unit.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.endswith("_locked")
                and guard_region(node, parents) is None
            ):
                yield self.finding(
                    unit,
                    node,
                    f"'{node.attr}' requires its lock: call it inside "
                    "'with <lock>:', from another *_locked method, or "
                    "from a deferred transaction closure",
                )
        for cls in (
            n for n in ast.walk(unit.tree) if isinstance(n, ast.ClassDef)
        ):
            guarded = class_docstring_guarded_attrs(cls)
            if not guarded:
                continue
            for node in ast.walk(cls):
                if not (
                    isinstance(node, ast.Attribute)
                    and node.attr in guarded
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    continue
                functions = enclosing_functions(node, parents)
                if any(
                    f.name in _CONSTRUCTION_METHODS for f in functions
                ):
                    continue
                if guard_region(node, parents) is None:
                    yield self.finding(
                        unit,
                        node,
                        f"attribute 'self.{node.attr}' is declared "
                        ":guarded: in the class docstring; touch it "
                        "only under the class lock",
                    )


#: Method names that *observe* remaining budget.
CHECK_METHODS = frozenset({"preview", "remaining"})
#: Method names that *spend* budget, and so the calls that debit ahead of
#: a streamed release (``record_each`` is a stream chunk's admission cycle).
ACT_METHODS = frozenset(
    {"record", "record_many", "record_each", "consume", "charge"}
)


def _outermost_function(
    node: ast.AST, parents: "dict[ast.AST, ast.AST]"
) -> "ast.AST | None":
    functions = enclosing_functions(node, parents)
    return functions[-1] if functions else None


class CheckThenActRule(Rule):
    """R2: a budget check and its debit share one atomic region.

    Reading remaining budget under the lock and debiting after it drops
    (or in a different transaction) is the classic lost-update: two
    sessions both observe "1 release left" and both debit.  Within one
    method, a ``preview``/``remaining`` call and a ``record``/
    ``record_many``/``record_each``/``consume``/``charge`` call *on the
    same receiver* must resolve to the same guard region (the same
    ``with <lock>:`` block or the same deferred closure).

    Separately: in session/stream generators, a ``yield`` must be
    preceded by a debit call — budget is spent before a noisy value can
    escape to the caller.
    """

    rule_id = "R2"
    name = "check-then-act"
    title = "budget check and debit in one atomic region"
    default_targets = _CONCURRENT_MODULES

    def check(self, unit: FileUnit, linter: "Linter") -> "Iterator[Finding]":
        parents = unit.parents
        yield from self._check_pairing(unit, parents)
        yield from self._check_yield_domination(unit, parents)

    # -- (a) check/act pairing --------------------------------------------
    def _check_pairing(self, unit, parents):
        groups: "dict[tuple[int, str], dict[str, list[ast.Call]]]" = {}
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node)
            receiver = receiver_of(node)
            if callee is None or receiver is None:
                continue
            kind = (
                "check"
                if callee in CHECK_METHODS
                else "act"
                if callee in ACT_METHODS
                else None
            )
            if kind is None:
                continue
            outer = _outermost_function(node, parents)
            if outer is None:
                continue
            bucket = groups.setdefault(
                (id(outer), receiver), {"check": [], "act": []}
            )
            bucket[kind].append(node)
        for bucket in groups.values():
            if not bucket["check"] or not bucket["act"]:
                continue
            check_regions = {
                guard_region(c, parents) for c in bucket["check"]
            }
            for act in bucket["act"]:
                act_region = guard_region(act, parents)
                if act_region is None or act_region not in check_regions:
                    yield self.finding(
                        unit,
                        act,
                        f"debit '{call_name(act)}' does not share an "
                        "atomic region with the budget check on "
                        f"'{receiver_of(act)}' — the check can go stale "
                        "before the debit lands",
                    )

    # -- (b) debit-before-yield -------------------------------------------
    def _check_yield_domination(self, unit, parents):
        for func in ast.walk(unit.tree):
            if not isinstance(
                func, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            owner = parents.get(func)
            session_like = (
                "session" in func.name.lower()
                or "stream" in func.name.lower()
                or (
                    isinstance(owner, ast.ClassDef)
                    and "session" in owner.name.lower()
                )
            )
            if not session_like:
                continue
            body = [
                n
                for stmt in func.body
                for n in (stmt, *walk_excluding_nested_defs(stmt))
            ]
            yields = [
                n for n in body if isinstance(n, (ast.Yield, ast.YieldFrom))
            ]
            if not yields:
                continue
            debit_lines = [
                n.lineno
                for n in body
                if isinstance(n, ast.Call) and call_name(n) in ACT_METHODS
            ]
            for node in yields:
                if not any(line <= node.lineno for line in debit_lines):
                    yield self.finding(
                        unit,
                        node,
                        "yield in a session generator is not dominated "
                        "by a debit call — a release would escape "
                        "before budget is spent",
                    )
