"""Factors over named discrete axes, contracted with ``np.einsum``.

A :class:`Factor` is an ndarray whose axes are labelled by variable names —
the representation the variable-elimination engine
(:mod:`repro.inference.engine`) manipulates.  A Bayesian-network CPD
``P(X | parents)`` is the factor ``Factor(parents + (X,), cpd_table)``; the
joint distribution is the (implicit, never materialized) product of all of
them.

The two primitives here are:

* :meth:`Factor.restrict` — condition on evidence by slicing one axis, and
* :func:`contract` — multiply a list of factors and sum out every variable
  not requested, in one ``np.einsum`` call (with a greedy contraction path,
  planned once per shape of contraction), which is where the per-shard
  Python loops of the enumeration era became vectorized kernels.

``np.einsum``'s integer-subscript interface only admits labels in
``range(0, 52)``, so :func:`contract` maps the variables of each call to
dense local ids.  A single contraction therefore supports at most 52
*distinct* variables — far beyond any elimination bucket a sane network
produces; :func:`contract` raises :class:`~repro.exceptions.EnumerationError`
instead of failing cryptically if a caller exceeds it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import EnumerationError, ValidationError

#: ``np.einsum`` integer subscripts must lie in ``range(0, 52)``.
MAX_EINSUM_LABELS = 52

#: Maximum operands per einsum call (numpy's NPY_MAXARGS is 32 on older
#: releases; stay safely below and fold longer products pairwise).
MAX_EINSUM_OPERANDS = 24

#: Greedy contraction paths kept per process (LRU), one per distinct
#: ``(operand shapes, operand labels, output labels)`` of three or more
#: operands.  Cold calibrations of a 6x6 grid, an 8x6 hub and 20x10 blocks
#: plan 900 such contractions over 261 distinct keys, and the 22 golden
#: Algorithm 2 configurations 3,740 over 341.
MAX_EINSUM_PATHS = 1024


@dataclass(frozen=True)
class Factor:
    """An ndarray over named axes: ``table[i_1, ..., i_m]`` is the factor
    value at ``variables[0] = i_1, ..., variables[m-1] = i_m``.

    A factor with no variables is a scalar (0-d table).
    """

    variables: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float)
        if table.ndim != len(self.variables):
            raise ValidationError(
                f"factor over {self.variables!r} needs a {len(self.variables)}-d "
                f"table, got shape {table.shape}"
            )
        if len(set(self.variables)) != len(self.variables):
            raise ValidationError(f"factor variables must be distinct, got {self.variables!r}")
        object.__setattr__(self, "table", table)

    @property
    def is_scalar(self) -> bool:
        """True when the factor carries no axes (a plain number)."""
        return not self.variables

    def scalar(self) -> float:
        """The value of a 0-d factor."""
        if self.variables:
            raise ValidationError(f"factor over {self.variables!r} is not a scalar")
        return float(self.table)

    def restrict(self, var: str, value: int) -> "Factor":
        """Condition on ``var = value``: slice that axis away.

        The caller is responsible for ``value`` being a valid state index —
        the engine validates evidence against node cardinalities before any
        factor is touched.
        """
        axis = self.variables.index(var)
        remaining = self.variables[:axis] + self.variables[axis + 1 :]
        return Factor(remaining, np.take(self.table, int(value), axis=axis))


def contract(factors: Sequence[Factor], keep: Sequence[str]) -> Factor:
    """Multiply ``factors`` and sum out every variable not in ``keep``.

    Returns a factor whose axes are exactly ``keep`` in the given order
    (variables in ``keep`` that appear in no input factor are disallowed —
    the engine guarantees every kept variable owns at least its own CPD
    factor).  The product-and-sum runs as one ``np.einsum`` with a greedy
    contraction path; calls with more than :data:`MAX_EINSUM_OPERANDS`
    operands are folded in chunks (each chunk keeps the variables any later
    factor or the output still needs, so no sum is taken too early).
    """
    keep = tuple(keep)
    factors = [f for f in factors if not f.is_scalar]
    scalar = 1.0
    if not factors:
        if keep:
            raise ValidationError(f"no factor mentions kept variables {keep!r}")
        return Factor((), np.asarray(scalar))
    present = set()
    for factor in factors:
        present.update(factor.variables)
    missing = [v for v in keep if v not in present]
    if missing:
        raise ValidationError(f"kept variables {missing!r} appear in no factor")
    while len(factors) > MAX_EINSUM_OPERANDS:
        chunk, rest = factors[:MAX_EINSUM_OPERANDS], factors[MAX_EINSUM_OPERANDS:]
        needed = set(keep)
        for factor in rest:
            needed.update(factor.variables)
        chunk_vars = set()
        for factor in chunk:
            chunk_vars.update(factor.variables)
        partial = _einsum(chunk, tuple(v for v in sorted(chunk_vars & needed)))
        factors = [partial] + rest
    return _einsum(factors, keep)


def _einsum(factors: Sequence[Factor], keep: tuple[str, ...]) -> Factor:
    """One einsum call: product of ``factors`` summed down to ``keep``.

    Numpy's greedy planner picks a path only for three or more operands,
    and reads only their shapes and labels, so that path is planned once
    per distinct contraction (:func:`_greedy_path`) and passed in: numpy
    then makes the very calls ``optimize="greedy"`` would.  For one operand
    the planner only hands the subscripts on to ``c_einsum``, which the
    unplanned call does directly.
    """
    labels: dict[str, int] = {}
    for factor in factors:
        for var in factor.variables:
            if var not in labels:
                labels[var] = len(labels)
    if len(labels) > MAX_EINSUM_LABELS:
        raise EnumerationError(
            f"contraction involves {len(labels)} distinct variables "
            f"(> {MAX_EINSUM_LABELS}, the np.einsum subscript limit); "
            "the elimination bucket is too wide for this engine"
        )
    subscripts = tuple(tuple(labels[v] for v in factor.variables) for factor in factors)
    output = tuple(labels[v] for v in keep)
    if len(factors) == 1:
        table = np.einsum(factors[0].table, subscripts[0], output)
    else:
        path = "greedy"  # two operands have one path, which numpy takes unplanned
        if len(factors) > 2:
            shapes = tuple(factor.table.shape for factor in factors)
            path = _greedy_path(shapes, subscripts, output)
        operands: list = []
        for factor, subscript in zip(factors, subscripts):
            operands += (factor.table, subscript)
        table = np.einsum(*operands, output, optimize=path)
    return Factor(keep, np.asarray(table, dtype=float))


@functools.lru_cache(maxsize=MAX_EINSUM_PATHS)
def _greedy_path(
    shapes: tuple[tuple[int, ...], ...],
    subscripts: tuple[tuple[int, ...], ...],
    output: tuple[int, ...],
) -> tuple:
    """The path ``np.einsum(..., optimize="greedy")`` plans for operands of
    ``shapes`` under integer ``subscripts`` summed down to ``output``, as
    an explicit ``einsum_path``.

    The planner reads shapes only, so zero-stride stand-ins of the right
    shapes take the arrays' place.  The path is a tuple, so every caller
    shares it read-only.
    """
    operands: list = []
    for shape, subscript in zip(shapes, subscripts):
        operands += (np.broadcast_to(0.0, shape), subscript)
    path, _ = np.einsum_path(*operands, output, optimize="greedy")
    return tuple(path)
