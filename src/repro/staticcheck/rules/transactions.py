"""R6 transaction discipline in the tenant ledger.

The ledger's exactly-once story is: a debit
(``_consume_in_state(...)``) and the replay record that makes its retry
replayable (a client idempotency record, or the call id a keyless consume
stamps on its reservation's ``"last_consume"`` slot) are written by the
**same** transaction closure — the ``handler`` passed to
``store.run(tenant, handler)``.  Split them across closures (or write
either after the transaction returns) and a crash between the two yields
a double-debit or a paid-for refusal on retry.

The rule checks, per method that opens transactions (calls ``*.run(...)``
or uses ``with *.transact(...)``):

* every debit call and every replay-record write (``records[k] = ...``,
  ``...["idempotency"][k] = ...`` or ``...["last_consume"] = ...``) sits
  inside a transactional region — a closure passed to ``*.run(...)`` or
  a ``with *.transact(...)`` body;
* that region is synced: a ``sync=False`` commit may be undone by a power
  loss after the value it paid for was released;
* when a method has both kinds, they share one region.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.staticcheck.astutil import (
    ancestors,
    call_name,
    terminal_attr,
)
from repro.staticcheck.engine import FileUnit, Finding
from repro.staticcheck.rules import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.engine import Linter

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Calls that debit the in-transaction ledger state.
_DEBIT_CALLS = frozenset({"_consume_in_state"})


def _is_transact_with(node: ast.AST) -> bool:
    if not isinstance(node, (ast.With, ast.AsyncWith)):
        return False
    return any(
        terminal_attr(item.context_expr) == "transact"
        for item in node.items
    )


def _unsynced(call: ast.AST) -> bool:
    """Whether a ``run``/``transact`` call passes ``sync=False``."""
    return isinstance(call, ast.Call) and any(
        kw.arg == "sync"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is False
        for kw in call.keywords
    )


def _is_key(node: ast.AST, key: str) -> bool:
    """Whether ``node`` is a ``<x>["<key>"]`` subscript."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == key
    )


def _replay_write_target(node: ast.AST) -> bool:
    """Whether an assignment target writes a replay record:
    ``records[k] = ...``, ``<x>["idempotency"][k] = ...`` or
    ``<x>["last_consume"] = ...``."""
    if not isinstance(node, ast.Subscript):
        return False
    base = node.value
    return (
        (isinstance(base, ast.Name) and base.id == "records")
        or _is_key(base, "idempotency")
        or _is_key(node, "last_consume")
    )


class TransactionDisciplineRule(Rule):
    """R6: debit and replay-record write inside one transaction closure."""

    rule_id = "R6"
    name = "transaction-discipline"
    title = "ledger debits and replay-record writes share a transaction"
    default_targets = ("src/repro/service/ledger.py",)

    def check(self, unit: FileUnit, linter: "Linter") -> "Iterator[Finding]":
        parents = unit.parents
        for func in ast.walk(unit.tree):
            if not isinstance(func, _FUNCTION_NODES):
                continue
            if any(
                isinstance(a, _FUNCTION_NODES)
                for a in ancestors(func, parents)
            ):
                continue  # nested defs are analysed with their method
            yield from self._check_method(unit, func, parents)

    def _check_method(self, unit, func, parents):
        run_closure_names: "set[str]" = set()
        unsynced_closure_names: "set[str]" = set()
        opens_transactions = False
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and call_name(node) == "run":
                opens_transactions = True
                names = {arg.id for arg in node.args if isinstance(arg, ast.Name)}
                run_closure_names.update(names)
                if _unsynced(node):
                    unsynced_closure_names.update(names)
            elif _is_transact_with(node):
                opens_transactions = True
        if not opens_transactions:
            return

        def region_of(node: ast.AST) -> "ast.AST | None":
            for anc in ancestors(node, parents):
                if anc is func:
                    return None
                if (
                    isinstance(anc, _FUNCTION_NODES)
                    and anc.name in run_closure_names
                ):
                    return anc
                if _is_transact_with(anc):
                    return anc
            return None

        debits: "list[tuple[ast.AST, ast.AST | None]]" = []
        writes: "list[tuple[ast.AST, ast.AST | None]]" = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and call_name(node) in _DEBIT_CALLS:
                debits.append((node, region_of(node)))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if _replay_write_target(target):
                        writes.append((target, region_of(node)))

        for node, region in debits + writes:
            if region is None:
                yield self.finding(
                    unit,
                    node,
                    "ledger debit / replay-record write outside any "
                    "transaction closure — move it into the handler "
                    "passed to store.run (or a 'with store.transact' "
                    "body) so commit covers it",
                )
            elif getattr(region, "name", None) in unsynced_closure_names or any(
                _unsynced(item.context_expr) for item in getattr(region, "items", ())
            ):
                yield self.finding(
                    unit,
                    node,
                    "ledger debit / replay-record write in a sync=False "
                    "transaction — a power loss could undo it after the "
                    "release it pays for left the service; commit it synced",
                )
        regions = {
            region
            for _, region in debits + writes
            if region is not None
        }
        if debits and writes and len(regions) > 1:
            anchor = writes[-1][0]
            yield self.finding(
                unit,
                anchor,
                "debit and replay-record write live in different "
                "transaction closures — a crash between the two "
                "commits one without the other (double-debit or "
                "paid-for refusal on retry)",
            )
