"""Weighted collections of per-instance value tables.

A sample space holds a probability weight and a value table per
instance, stacked as the rows of one array, modelling importance that
varies across a population. The global view is the weighted mean
table. Two consistency notions connect the levels:

* value consistency: a claimed global table matches the weighted mean;
* importance consistency: scoring the global table matches the
  weighted mean of per-instance scores.

Linear scoring rules satisfy the second automatically; max-based rules
need not, and the checker returns the worst coordinate with a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .axioms import AxiomReport, _largest_gap, audit_table
from .errors import DegenerateInputError, TableError
from .importance import ScoreMethod, _stack_scores, score_vector
from .subset_algebra import _NOT_FINITE, DEFAULT_TOL, Tolerance, ValueTable, check_feature_count

# Entries per group of rows of the stack scored together (8 MB of float64).
_GROUP_ENTRIES = 1 << 20


@dataclass(frozen=True, eq=False)
class SampleSpace:
    """Read-only float64 ``weights``, shape (k,), normalized to sum 1, and ``values``,
    shape (k, 2^n), one instance's table per row; a float64 ``values`` is kept, not copied."""

    n: int
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        check_feature_count(self.n)
        weights = np.asarray(self.weights, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if not weights.size or weights.shape + (1 << self.n,) != values.shape:
            shapes = f"{weights.shape} and {values.shape}"
            raise TableError(f"expected k >= 1 weights and (k, {1 << self.n}) values, got {shapes}")
        _check_finite(values)
        invalid = ~(np.isfinite(weights) & (weights >= 0))
        if invalid.any():
            i = int(np.argmax(invalid))
            raise TableError(f"instance {i} has invalid weight {weights[i].item()!r}")
        if not math.isfinite(total := sum(weights.tolist())):
            # Weights near the float maximum: a power-of-two rescale makes their sum
            # finite. Only this case takes it, as it rounds weights pushed below normal.
            weights = np.ldexp(weights, -math.frexp(weights.max())[1])
            total = sum(weights.tolist())
        if total <= 0:
            raise DegenerateInputError("instance weights must not all be zero")
        weights = weights / total
        assert abs(sum(weights.tolist()) - 1.0) <= len(weights) * 2.0**-52  # 2k roundings of 2^-53
        for name, array in (("weights", weights), ("values", values)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)


def _check_finite(values: np.ndarray) -> None:
    """Raise naming the first row of ``values`` that is not finite."""
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise TableError(f"instance {int(np.argmin(finite))}: {_NOT_FINITE}")


def new_sample_space(pairs: Iterable[tuple[float, ValueTable]]) -> SampleSpace:
    """Validating constructor from (weight, table) pairs; infers the feature
    count from the tables and stacks them once."""
    pairs = tuple(pairs)
    if not pairs:
        raise TableError("a sample space needs at least one instance")
    weights, tables = zip(*pairs)
    for i, t in enumerate(tables):
        if not isinstance(t, ValueTable):
            raise TableError(f"instance {i} is not a value table")
        if t.n != tables[0].n:
            raise TableError(f"instance {i} has {t.n} features, expected {tables[0].n}")
    return SampleSpace(tables[0].n, weights, np.stack([t.values for t in tables]))


def global_table(space: SampleSpace) -> ValueTable:
    """Weighted mean of the instance tables, entry by entry, added in
    instance order a group of at most ``_GROUP_ENTRIES`` entries at a time."""
    acc = np.zeros(1 << space.n, dtype=np.float64)
    size = max(1, _GROUP_ENTRIES >> space.n)
    for start in range(0, len(space.weights), size):
        group = slice(start, start + size)
        rows = space.weights[group, None] * space.values[group]
        rows[0] += acc
        # Across the rows of a C-ordered array numpy adds one row at a time,
        # without pairwise sums, as a loop over the instances does.
        acc = np.add.reduce(rows, axis=0) if len(rows) > 1 else rows[0]
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
    """Weighted mean of the instance scores under each rule, added in
    instance order. Each group of rows, a view of at most ``_GROUP_ENTRIES``
    entries, is scored in one walk over the features."""
    means = {m: np.zeros(space.n, dtype=np.float64) for m in methods}
    size = max(1, _GROUP_ENTRIES >> space.n)
    for start in range(0, len(space.weights), size):
        group = slice(start, start + size)
        columns = _stack_scores(methods, space.values[group], space.n)
        weights = space.weights[group, None]
        for m in methods:
            # One row at a time down the column, as a loop over the instances adds them.
            means[m] = np.cumsum(np.vstack((means[m], weights * columns[m][0])), axis=0)[-1]
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
    of the global table, as labeled rows. The global table is built once, and
    the instances are scored under every rule as in :func:`_mean_scores`."""
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
