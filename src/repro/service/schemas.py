"""Tiny request-body validation for the service endpoints.

The service speaks plain JSON over a hand-rolled ASGI stack (the
environment ships no web framework), so validation is a handful of
explicit extractors rather than a schema library.  Every failure raises
:class:`~repro.exceptions.ValidationError` — mapped to HTTP 400 by the
app — with a message naming the offending field, which keeps handler
bodies free of defensive plumbing.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from repro.exceptions import ValidationError


def require_object(body: Any) -> Mapping[str, Any]:
    """The request body must be a JSON object (possibly empty)."""
    if body is None:
        return {}
    if not isinstance(body, Mapping):
        raise ValidationError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    return body


def get_str(
    body: Mapping[str, Any],
    name: str,
    *,
    default: "str | None" = None,
    required: bool = False,
    choices: "tuple[str, ...] | None" = None,
) -> "str | None":
    value = body.get(name, default)
    if value is None:
        if required:
            raise ValidationError(f"missing required field {name!r}")
        return None
    if not isinstance(value, str):
        raise ValidationError(
            f"field {name!r} must be a string, got {type(value).__name__}"
        )
    if choices is not None and value not in choices:
        raise ValidationError(
            f"field {name!r} must be one of {sorted(choices)}, got {value!r}"
        )
    return value


def get_int(
    body: Mapping[str, Any],
    name: str,
    *,
    default: "int | None" = None,
    required: bool = False,
    minimum: "int | None" = None,
    maximum: "int | None" = None,
) -> "int | None":
    value = body.get(name, default)
    if value is None:
        if required:
            raise ValidationError(f"missing required field {name!r}")
        return None
    # bool is an int subclass; reject it explicitly (true is not a count).
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"field {name!r} must be an integer, got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise ValidationError(f"field {name!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"field {name!r} must be <= {maximum}, got {value}")
    return value


def get_float(
    body: Mapping[str, Any],
    name: str,
    *,
    default: "float | None" = None,
    required: bool = False,
    positive: bool = False,
) -> "float | None":
    value = body.get(name, default)
    if value is None:
        if required:
            raise ValidationError(f"missing required field {name!r}")
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(
            f"field {name!r} must be a number, got {value!r}"
        )
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    # Python's json parses NaN, Infinity and 1e309; none is a usable
    # parameter, and a NaN budget compares false against every total.
    if not math.isfinite(value):
        raise ValidationError(f"field {name!r} must be finite, got {value}")
    if positive and value <= 0:
        raise ValidationError(f"field {name!r} must be positive, got {value}")
    return value
