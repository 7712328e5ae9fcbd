"""Shared utilities: input validation and random-generator handling.

Names resolve lazily (PEP 562), so importing this package does not drag
in the numpy-backed ``rngtools``/``validation`` modules.
"""

from __future__ import annotations

import importlib
from typing import Any

_LAZY_EXPORTS: "dict[str, str]" = {
    "as_probability_vector": "repro.utils.validation",
    "as_state_sequence": "repro.utils.validation",
    "as_transition_matrix": "repro.utils.validation",
    "check_positive": "repro.utils.validation",
    "check_unit_interval": "repro.utils.validation",
    "resolve_rng": "repro.utils.rngtools",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        value = getattr(importlib.import_module(module_name), name)
        globals()[name] = value
        return value
    if name in ("rngtools", "validation"):
        module = importlib.import_module(f"repro.utils.{name}")
        globals()[name] = module
        return module
    raise AttributeError(f"module 'repro.utils' has no attribute {name!r}")


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(__all__))
