"""The Wasserstein Mechanism (Algorithm 1) — the paper's first contribution.

For every admissible secret pair ``(s_i, s_j)`` and every ``theta`` in
``Theta`` the mechanism computes the conditional query-output distributions
``mu_{i,theta} = P(F(X) | s_i, theta)`` and ``mu_{j,theta}``, takes the
supremum ``W`` of their infinity-Wasserstein distances, and releases
``F(D) + Lap(W / epsilon)``.

Theorem 3.2 shows this is epsilon-Pufferfish private; Theorem 3.3 shows ``W``
never exceeds the global sensitivity of the corresponding group-DP framework
(we expose :func:`group_sensitivity` so tests can verify the inequality).

The computation enumerates model supports — the cost the paper attributes to
the mechanism — but does so *tensorized*: each model's support is
materialized once into flat arrays, the query is evaluated over all
realizations in one batched pass (:meth:`repro.core.queries.Query.
evaluate_batch`), and every conditional output distribution is a boolean
mask plus a ``bincount`` over the pooled sorted output support
(:class:`ModelOutputTable`).  W-infinity between two conditionals is then a
pure CDF computation on that shared support
(:func:`repro.distributions.metrics.w_infinity_pooled`).  Realistic chains
should still use :mod:`repro.core.mqm_chain`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.framework import PufferfishInstantiation, Secret, SecretPair
from repro.core.laplace import Mechanism
from repro.core.models import DataModel
from repro.core.queries import Query, signature_is_process_local
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.metrics import w_infinity_pooled
from repro.exceptions import EnumerationError, ValidationError


class ModelOutputTable:
    """The vectorized substrate of Algorithm 1 for one ``(model, query)``.

    Materializes the model's support as a record matrix and probability
    vector, evaluates the scalar query over every realization in one
    batched pass, and pools the outputs into a sorted unique support.  A
    conditional output distribution ``P(F(X) | X_i = a, theta)`` is then a
    boolean mask over rows and a ``bincount`` onto the pooled atoms — no
    re-enumeration per secret, which is where the seed spent its time
    (one full generator walk per secret per model).
    """

    def __init__(self, model: DataModel, query: Query) -> None:
        if query.output_dim != 1:
            raise ValidationError("ModelOutputTable is defined for scalar queries")
        rows: list = []
        probs: list = []
        for row, prob in model.support():
            rows.append(row)
            probs.append(prob)
        if not rows:
            raise ValidationError("model support is empty")
        self.rows = np.asarray(rows, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=float)
        outputs = np.asarray(query.evaluate_batch(self.rows), dtype=float)
        #: Sorted unique query outputs — the pooled support every
        #: conditional distribution lives on.
        self.atoms, self._inverse = np.unique(outputs, return_inverse=True)

    def conditional_weights(self, secret: Secret) -> np.ndarray:
        """``P(F(X) = atoms | secret, theta)`` as a vector on the pooled
        support (zero entries where the conditional puts no mass).

        Raises :class:`ValidationError` when the secret has zero
        probability, exactly as the enumeration path did.
        """
        mask = self.rows[:, secret.index] == secret.value
        total = float(self.probs[mask].sum())
        if total <= 0:
            raise ValidationError(
                f"secret {secret.describe()} has zero probability under theta"
            )
        return (
            np.bincount(
                self._inverse[mask],
                weights=self.probs[mask],
                minlength=self.atoms.size,
            )
            / total
        )

    def conditional_distribution(self, secret: Secret) -> DiscreteDistribution:
        """:meth:`conditional_weights` packaged as a
        :class:`~repro.distributions.discrete.DiscreteDistribution`."""
        weights = self.conditional_weights(secret)
        keep = weights > 0
        return DiscreteDistribution(self.atoms[keep], weights[keep] / weights[keep].sum())


def conditional_output_distribution(
    model: DataModel, query: Query, secret: Secret, *, table: ModelOutputTable | None = None
) -> DiscreteDistribution:
    """``P(F(X) = . | secret, theta)`` over the model's support.

    Pass a prebuilt :class:`ModelOutputTable` to share the support
    materialization across secrets (as :func:`wasserstein_bound` does); a
    bare call builds one table for this evaluation.
    """
    if table is None:
        table = ModelOutputTable(model, query)
    return table.conditional_distribution(secret)


@dataclass(frozen=True)
class WassersteinDetail:
    """One (pair, theta) evaluation inside the Wasserstein supremum."""

    pair: SecretPair
    theta_index: int
    distance: float


def model_supremum(
    instantiation: PufferfishInstantiation,
    query: Query,
    theta_index: int,
    details: list[WassersteinDetail] | None = None,
) -> float:
    """The per-theta supremum of Algorithm 1's loop, tensorized.

    One :class:`ModelOutputTable` per model; each admissible pair costs two
    (cached) conditional weight vectors and one
    :func:`~repro.distributions.metrics.w_infinity_pooled` CDF pass.
    """
    model = instantiation.models[theta_index]
    table = ModelOutputTable(model, query)
    cache: dict[Secret, np.ndarray] = {}

    def conditional(secret: Secret) -> np.ndarray:
        if secret not in cache:
            cache[secret] = table.conditional_weights(secret)
        return cache[secret]

    supremum = 0.0
    for pair in instantiation.admissible_pairs(model):
        distance = w_infinity_pooled(
            table.atoms, conditional(pair.left), conditional(pair.right)
        )
        supremum = max(supremum, distance)
        if details is not None:
            details.append(WassersteinDetail(pair, theta_index, distance))
    return float(supremum)


def wasserstein_bound(
    instantiation: PufferfishInstantiation,
    query: Query,
    *,
    return_details: bool = False,
) -> float | tuple[float, list[WassersteinDetail]]:
    """The supremum ``W`` of Algorithm 1 for a scalar query.

    Iterates all admissible secret pairs and all models, exactly as the
    algorithm's loop does — each model through :func:`model_supremum`.
    """
    if query.output_dim != 1:
        raise ValidationError("the Wasserstein Mechanism is defined for scalar queries")
    details: list[WassersteinDetail] | None = [] if return_details else None
    supremum = 0.0
    for theta_index in range(len(instantiation.models)):
        supremum = max(supremum, model_supremum(instantiation, query, theta_index, details))
    if return_details:
        return supremum, details
    return supremum


class WassersteinMechanism(Mechanism):
    """Algorithm 1: release ``F(D) + Lap(W / epsilon)``.

    Parameters
    ----------
    instantiation:
        The Pufferfish framework ``(S, Q, Theta)`` with enumerable models.
    epsilon:
        Privacy parameter.
    """

    name = "Wasserstein"

    def __init__(self, instantiation: PufferfishInstantiation, epsilon: float) -> None:
        super().__init__(epsilon)
        self.instantiation = instantiation

    def calibration_fingerprint(self) -> tuple:
        """``W`` depends on the full framework ``(S, Q, Theta)`` and nothing
        else besides the query, so the instantiation's content hash plus
        epsilon identifies every calibration."""
        return ("Wasserstein", self.epsilon, self.instantiation.fingerprint())

    def wasserstein_distance_bound(self, query: Query) -> float:
        """The supremum ``W`` for ``query`` (memoized by the ``repr`` of the
        query signature, so equal queries share the enumeration even across
        query objects, and a snapshot restores it).

        A process-local signature (an anonymous callable's) is memoized by
        the signature itself, which no snapshot names: its token is only
        meaningful inside this process, so persisting it could alias a
        *different* lambda in another process to this process's bound."""
        signature = query.signature()
        key = signature if signature_is_process_local(signature) else repr(signature)
        bounds = self.calibration_state_holder()
        if key not in bounds:
            bounds[key] = float(wasserstein_bound(self.instantiation, query))
        return bounds[key]

    def export_calibration_state(self) -> dict:
        """JSON-safe snapshot of the ``W`` bounds of every signature that is
        not process-local (see
        :meth:`repro.core.mqm_chain.MQMExact.export_calibration_state`)."""
        return {
            "bounds": sorted(
                (key, value)
                for key, value in self.calibration_state_holder().items()
                if isinstance(key, str)
            )
        }

    def warm_start(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_calibration_state`.
        Only valid under an identical :meth:`calibration_fingerprint`."""
        bounds = self.calibration_state_holder()
        for key_repr, value in state.get("bounds", []):
            bounds[str(key_repr)] = float(value)

    def noise_scale(self, query: Query, data: np.ndarray) -> float:
        return self.wasserstein_distance_bound(query) / self.epsilon

    def scale_details(self, query: Query, data: np.ndarray) -> dict:
        return {"wasserstein_bound": self.wasserstein_distance_bound(query)}


def mixed_radix_assignments(n_values: int, n_records: int) -> np.ndarray:
    """All of ``{0..n_values-1}^n_records`` as an ``(n_values^n_records,
    n_records)`` integer matrix, in lexicographic (``itertools.product``)
    order — the vectorized replacement for per-assignment tuple loops."""
    total = n_values**n_records
    radix = n_values ** np.arange(n_records - 1, -1, -1, dtype=np.int64)
    codes = np.arange(total, dtype=np.int64)
    return (codes[:, None] // radix[None, :]) % n_values


def group_sensitivity(
    query: Query,
    n_values: int,
    n_records: int,
    groups: Sequence[Sequence[int]],
    *,
    max_enumeration: int = 2_000_000,
) -> float:
    """Exact global sensitivity of ``query`` in a group-DP framework.

    Definition B.1: ``Delta_G F = max_k max |F(x) - F(y)|`` over database
    pairs ``(x, y)`` that differ only in the records of group ``G_k``.
    Computed over the full discrete domain ``{0..n_values-1}^n_records``,
    vectorized: one mixed-radix assignment matrix, one batched query
    evaluation (shared by *all* groups — the seed re-evaluated the query
    for every group), and per group a mixed-radix class key over the
    complement records with ``np.ufunc.reduceat`` grouped min/max.
    """
    if n_values**n_records > max_enumeration:
        raise EnumerationError(
            f"group sensitivity enumeration of {n_values}**{n_records} databases "
            f"exceeds the cap of {max_enumeration}"
        )
    assignments = mixed_radix_assignments(n_values, n_records)
    values = np.asarray(query.evaluate_batch(assignments), dtype=float)
    indices = list(range(n_records))
    sensitivity = 0.0
    for group in groups:
        group = sorted(set(group))
        complement = [i for i in indices if i not in group]
        if not complement:
            # The group covers every record: one class, full query range.
            sensitivity = max(sensitivity, float(values.max() - values.min()))
            continue
        radix = n_values ** np.arange(len(complement) - 1, -1, -1, dtype=np.int64)
        keys = assignments[:, complement] @ radix
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_values = values[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        )
        highs = np.maximum.reduceat(sorted_values, starts)
        lows = np.minimum.reduceat(sorted_values, starts)
        sensitivity = max(sensitivity, float((highs - lows).max()))
    return sensitivity


def independence_groups(models: Sequence[DataModel], *, tol: float = 1e-12) -> list[list[int]]:
    """Partition record indices into groups that are mutually independent
    under every model in ``Theta`` (the construction of Appendix B.1).

    Two records are joined when their joint distribution deviates from the
    product of marginals under any model; groups are the connected
    components of that relation.
    """
    if not models:
        raise ValidationError("need at least one model")
    n = models[0].n_records
    adjacency = np.zeros((n, n), dtype=bool)
    for model in models:
        rows = []
        probs = []
        for row, prob in model.support():
            rows.append(row)
            probs.append(prob)
        arr = np.asarray(rows)
        weights = np.asarray(probs)
        for i in range(n):
            for j in range(i + 1, n):
                if adjacency[i, j]:
                    continue
                if _dependent(arr[:, i], arr[:, j], weights, tol):
                    adjacency[i, j] = adjacency[j, i] = True
    groups: list[list[int]] = []
    seen: set[int] = set()
    for start in range(n):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in np.flatnonzero(adjacency[node]):
                if nxt not in component:
                    component.add(int(nxt))
                    frontier.append(int(nxt))
        seen |= component
        groups.append(sorted(component))
    return groups


def _dependent(col_i: np.ndarray, col_j: np.ndarray, weights: np.ndarray, tol: float) -> bool:
    values_i = np.unique(col_i)
    values_j = np.unique(col_j)
    for a in values_i:
        for b in values_j:
            joint = float(weights[(col_i == a) & (col_j == b)].sum())
            product = float(weights[col_i == a].sum()) * float(weights[col_j == b].sum())
            if abs(joint - product) > tol:
                return True
    return False
