"""Weighted collections of per-instance value tables.

A sample space holds one value table per instance plus a probability
weight, modelling importance that varies across a population. The
global view is the weighted mean table. Two consistency notions
connect the levels:

* value consistency: a claimed global table matches the weighted mean;
* importance consistency: scoring the global table matches the
  weighted mean of per-instance scores.

Linear scoring rules satisfy the second automatically; max-based rules
need not, and the checker returns the worst coordinate with a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .axioms import AxiomReport, _largest_gap, audit_table
from .errors import DegenerateInputError, TableError
from .importance import ScoreMethod, _stack_scores, score_vector
from .subset_algebra import (
    DEFAULT_TOL,
    Tolerance,
    ValueTable,
    check_feature_count,
    json_reals,
    table_from_dict,
)

_WEIGHT_SUM_SLACK = 1e-12
# Entries per stack of instance tables scored together (8 MB of float64).
_GROUP_ENTRIES = 1 << 20


@dataclass(frozen=True, eq=False)
class SampleSpace:
    """Instances of (weight, value table), weights normalized to sum 1."""

    n: int
    instances: tuple[tuple[float, ValueTable], ...]

    def __post_init__(self) -> None:
        if len(self.instances) < 1:
            raise TableError("a sample space needs at least one instance")
        weights = []
        for i, (w, t) in enumerate(self.instances):
            if not isinstance(t, ValueTable):
                raise TableError(f"instance {i} is not a value table")
            if t.n != self.n:
                raise TableError(
                    f"instance {i} has {t.n} features, expected {self.n}"
                )
            w = float(w)
            if not np.isfinite(w) or w < 0:
                raise TableError(f"instance {i} has invalid weight {w!r}")
            weights.append(w)
        total = sum(weights)
        if not math.isfinite(total):
            # Weights near the float maximum: a power-of-two rescale brings the
            # largest into [0.5, 1), so their sum is finite. It is left to this
            # case because it rounds weights it pushes below the normal range.
            shift = math.frexp(max(weights))[1]
            weights = [math.ldexp(w, -shift) for w in weights]
            total = sum(weights)
        if total <= 0:
            raise DegenerateInputError("instance weights must not all be zero")
        normalized = tuple(
            (w / total, t) for w, (_, t) in zip(weights, self.instances)
        )
        assert abs(sum(w for w, _ in normalized) - 1.0) <= _WEIGHT_SUM_SLACK
        object.__setattr__(self, "instances", normalized)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.instances], dtype=np.float64)

    @property
    def tables(self) -> tuple[ValueTable, ...]:
        return tuple(t for _, t in self.instances)


def new_sample_space(pairs: Iterable[tuple[float, ValueTable]]) -> SampleSpace:
    """Validating constructor; infers the feature count from the tables."""
    pairs = tuple(pairs)
    if not pairs:
        raise TableError("a sample space needs at least one instance")
    return SampleSpace(pairs[0][1].n, pairs)


def global_table(space: SampleSpace) -> ValueTable:
    """Weighted mean of the instance tables, entry by entry."""
    acc = np.zeros(1 << space.n, dtype=np.float64)
    for w, t in space.instances:
        acc += w * t.values
    return ValueTable(space.n, acc)


def check_value_consistency(
    space: SampleSpace, global_claim: ValueTable, tol: Tolerance = DEFAULT_TOL
) -> AxiomReport:
    """Does a claimed global table equal the weighted instance mean?"""
    if global_claim.n != space.n:
        raise TableError(
            f"claimed table over {global_claim.n} features does not match space over {space.n}"
        )
    mean = global_table(space).values
    return _largest_gap("value_consistency", global_claim.values, mean, tol, key="subset")


def _mean_scores(
    space: SampleSpace, methods: tuple[ScoreMethod, ...]
) -> dict[ScoreMethod, np.ndarray]:
    """Weighted mean of the instance scores under each rule.

    Instances are stacked in groups of at most ``_GROUP_ENTRIES`` table
    entries, and each group is scored in one walk over the features. The
    weighted scores are added in instance order."""
    means = {m: np.zeros(space.n, dtype=np.float64) for m in methods}
    size = max(1, _GROUP_ENTRIES >> space.n)
    for start in range(0, len(space.instances), size):
        group = space.instances[start : start + size]
        columns = _stack_scores(methods, np.stack([t.values for _, t in group]), space.n)
        for m in methods:
            for (w, _), scores in zip(group, columns[m][0]):
                means[m] += w * scores
    return means


def check_importance_consistency(
    space: SampleSpace, method: ScoreMethod, tol: Tolerance = DEFAULT_TOL
) -> AxiomReport:
    """Does scoring the mean table equal the mean of instance scores?"""
    lhs = score_vector(method, global_table(space)).scores
    rhs = _mean_scores(space, (method,))[method]
    return _largest_gap("importance_consistency", lhs, rhs, tol)


def audit_space(
    space: SampleSpace, methods: tuple[ScoreMethod, ...], tol: Tolerance = DEFAULT_TOL
) -> list[tuple[str, AxiomReport]]:
    """Value consistency, importance consistency per rule and :func:`audit_table`
    of the global table, as labeled rows. The global table is built once,
    and the instances are scored under every rule in one walk per group
    (see :func:`_mean_scores`)."""
    methods = tuple(methods)
    mean = global_table(space)
    means = _mean_scores(space, methods)
    table_rows, vectors = audit_table(mean, "global", methods, tol)
    consistency = _largest_gap("value_consistency", mean.values, mean.values, tol, key="subset")
    rows = [("value_consistency[global]", consistency)]
    for m in methods:
        gap = _largest_gap("importance_consistency", vectors[m].scores, means[m], tol)
        rows.append((f"importance_consistency[{m.value}]", gap))
    return rows + table_rows


def space_to_dict(space: SampleSpace) -> dict:
    """JSON-ready form mirroring the on-disk sample-space format."""
    return {
        "n": space.n,
        "instances": [
            {"weight": w, "values": [float(x) for x in t.values]}
            for w, t in space.instances
        ],
    }


def space_from_dict(payload: dict) -> SampleSpace:
    """Parse the dict form of :func:`space_to_dict`; each instance obeys the feature cap."""
    if not isinstance(payload, dict) or "n" not in payload or "instances" not in payload:
        raise TableError('a sample space needs keys "n" and "instances"')
    n = payload["n"]
    check_feature_count(n)
    rows: Sequence = payload["instances"]
    if not isinstance(rows, list) or not rows:
        raise TableError('"instances" must be a nonempty list')
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or "weight" not in row or "values" not in row:
            raise TableError(f'instance {i} needs keys "weight" and "values"')
    weights = json_reals([row["weight"] for row in rows], "weight")
    tables = []
    for i, row in enumerate(rows):
        try:
            table = table_from_dict({"n": n, "values": row["values"]})
        except TableError as exc:
            raise TableError(f"instance {i}: {exc}") from None
        tables.append(table)
    return SampleSpace(n, tuple(zip(weights, tables)))
