"""Shared AST helpers for the invariant-lint rules.

Everything here is pure-syntactic: no type inference, no imports of the
linted code.  The helpers encode the repo's *lexical* conventions — a
lock guard is a ``with`` on an attribute whose name ends in ``lock`` or
``mutex``, a deferred closure is a nested ``def`` — which is exactly the
level the conventions themselves are written at.
"""

from __future__ import annotations

import ast
from typing import Iterator

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_LOCKISH_SUFFIXES = ("lock", "mutex")


def build_parents(tree: ast.AST) -> "dict[ast.AST, ast.AST]":
    """Child -> parent map for every node in ``tree``."""
    parents: "dict[ast.AST, ast.AST]" = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def ancestors(
    node: ast.AST, parents: "dict[ast.AST, ast.AST]"
) -> "Iterator[ast.AST]":
    """The parent chain of ``node``, innermost first, root last."""
    current = parents.get(node)
    while current is not None:
        yield current
        current = parents.get(current)


def dotted_name(node: ast.AST) -> "str | None":
    """``self._ledger.consume`` for a Name/Attribute chain, else None.

    A trailing call in the chain keeps its name (``self._file_lock()``
    reports ``self._file_lock``); anything non-name-like (subscripts,
    literals) yields None.
    """
    if isinstance(node, ast.Call):
        return dotted_name(node.func)
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_attr(node: ast.AST) -> "str | None":
    """The last segment of a Name/Attribute/Call chain, else None."""
    name = dotted_name(node)
    if name is None:
        return None
    return name.rsplit(".", 1)[-1]


def is_lockish(expr: ast.AST) -> bool:
    """Whether a ``with``-item context expression looks like a lock.

    Matches ``self._lock``, ``self._mutex``, ``self._thread_lock``,
    ``self._streams_lock``, ``self._count_lock``, ``self._file_lock()``
    — any attribute (or zero-ambiguity call) whose terminal name ends in
    ``lock`` or ``mutex``.
    """
    name = terminal_attr(expr)
    if name is None:
        return False
    lowered = name.lower()
    return lowered.endswith(_LOCKISH_SUFFIXES)


def is_lock_with(node: ast.AST) -> bool:
    """Whether ``node`` is a ``with`` statement holding a lock."""
    if not isinstance(node, (ast.With, ast.AsyncWith)):
        return False
    return any(is_lockish(item.context_expr) for item in node.items)


def enclosing_functions(
    node: ast.AST, parents: "dict[ast.AST, ast.AST]"
) -> "list[ast.FunctionDef | ast.AsyncFunctionDef]":
    """Function-definition ancestors of ``node``, innermost first."""
    return [
        anc
        for anc in ancestors(node, parents)
        if isinstance(anc, _FUNCTION_NODES)
    ]


def guard_region(
    node: ast.AST, parents: "dict[ast.AST, ast.AST]"
) -> "ast.AST | None":
    """The innermost guard establishing lock discipline over ``node``.

    Walking outward, the guard is the first of:

    * a ``with`` statement on a lock-like attribute (the caller holds
      the lock across the whole block);
    * a function whose name ends in ``_locked`` (the convention: the
      guard is the *caller's* responsibility, transitively checked at
      that caller's call site);
    * a *nested* function definition (a deferred closure — e.g. a
      ``store.run`` transaction handler — which executes under whatever
      discipline its runner establishes; R6 polices those runners).

    Returns the guard node, or ``None`` if an ordinary (top-level or
    method) function is reached first — i.e. the access is unguarded.
    """
    chain = list(ancestors(node, parents))
    for index, anc in enumerate(chain):
        if is_lock_with(anc):
            return anc
        if isinstance(anc, _FUNCTION_NODES):
            if anc.name.endswith("_locked"):
                return anc
            if any(
                isinstance(outer, _FUNCTION_NODES)
                for outer in chain[index + 1 :]
            ):
                return anc  # nested def: a deferred closure
            return None
    return None


def call_name(node: ast.Call) -> "str | None":
    """The called name: ``fire`` for both ``fire(..)`` and ``x.fire(..)``."""
    return terminal_attr(node.func)


def receiver_of(node: ast.Call) -> "str | None":
    """The dotted receiver of a method call: ``self._ledger`` for
    ``self._ledger.consume(...)``; None for bare-name calls."""
    if not isinstance(node.func, ast.Attribute):
        return None
    return dotted_name(node.func.value)


def literal_str_arg(node: ast.Call, position: int = 0) -> "str | None":
    """The ``position``-th positional argument if it is a string literal."""
    if len(node.args) > position:
        arg = node.args[position]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def keyword_str(node: ast.Call, name: str) -> "str | None":
    """The value of keyword ``name`` if it is a string literal."""
    for keyword in node.keywords:
        if keyword.arg == name:
            value = keyword.value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                return value.value
    return None


def walk_excluding_nested_defs(root: ast.AST) -> "Iterator[ast.AST]":
    """Walk ``root``'s body without descending into nested functions,
    lambdas, or class definitions — "directly executes here" semantics."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (*_FUNCTION_NODES, ast.Lambda, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def class_docstring_guarded_attrs(node: ast.ClassDef) -> "set[str]":
    """Attributes a class docstring declares lock-guarded.

    Convention: one or more docstring lines of the form ::

        :guarded: hits, misses, _handed

    declare that those instance attributes may only be touched under the
    class's lock (R1 enforces it).
    """
    doc = ast.get_docstring(node)
    attrs: "set[str]" = set()
    if not doc:
        return attrs
    for line in doc.splitlines():
        stripped = line.strip()
        if stripped.startswith(":guarded:"):
            names = stripped[len(":guarded:") :]
            attrs.update(
                token.strip() for token in names.split(",") if token.strip()
            )
    return attrs
