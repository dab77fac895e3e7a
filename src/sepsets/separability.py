"""Separable subsets of a value table and the maximal partition.

A feature subset S is separable when the table splits additively
across it: ``value(T) = value(T & S) + value(T - S)`` for every T.
Separable sets are exactly the sets no nonzero interaction dividend
straddles (given a zero empty-set value), which yields a fast route
to the coarsest-grained fully separable partition: connect two
features whenever some dividend above tolerance covers both, and
take connected components.

A literal oracle (intersect all separable supersets of each feature,
found by exhaustive enumeration) is kept alongside the fast algorithm
and must agree with it; tests hold both routes to that contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceededError,
    DegenerateInputError,
    NotSeparableError,
    PartitionError,
    TableError,
)
from .subset_algebra import (
    DEFAULT_TOL,
    Tolerance,
    ValueTable,
    _pinned,
    indices_of,
    mask_of,
    mobius_transform,
)

# Exhaustive enumeration is 4^n work; past this it stops being a sane oracle.
ORACLE_MAX_FEATURES = 12


@dataclass(frozen=True)
class SeparabilityReport:
    """Worst-case additivity residual of one subset.

    ``worst_T`` is the context attaining the largest residual
    ``|value(T) - value(T & S) - value(T - S)|`` (lowest mask on ties).
    """

    subset: int
    separable: bool
    worst_T: int
    worst_residual: float


@dataclass(frozen=True)
class Partition:
    """Disjoint, covering, nonempty feature blocks, stored as bitmasks.

    Blocks are kept in canonical order: ascending lowest member. The
    constructor rejects overlaps, gaps, and empty blocks.
    """

    n: int
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise PartitionError(f"partition needs at least one feature, got n={self.n}")
        full = (1 << self.n) - 1
        blocks = tuple(int(b) for b in self.blocks)
        seen = 0
        for b in blocks:
            if b == 0:
                raise PartitionError("empty blocks are not allowed")
            if b & ~full:
                raise PartitionError(f"block mask {b} exceeds the feature range for n={self.n}")
            if b & seen:
                raise PartitionError(f"block mask {b} overlaps an earlier block")
            seen |= b
        if seen != full:
            missing = indices_of(full ^ seen)
            raise PartitionError(f"partition does not cover features {missing}")
        # Lowest members are distinct across disjoint blocks, so this order is total.
        object.__setattr__(self, "blocks", tuple(sorted(blocks, key=lambda b: indices_of(b)[0])))

    @classmethod
    def from_indices(cls, n: int, blocks: list[list[int]] | tuple) -> "Partition":
        return cls(n, tuple(mask_of(block, n) for block in blocks))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(n, tuple(1 << i for i in range(n)))

    def block_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(indices_of(b) for b in self.blocks)


def is_separable(
    table: ValueTable, subset: int, tol: Tolerance = DEFAULT_TOL
) -> SeparabilityReport:
    """Test the additive split of ``table`` across ``subset``."""
    if not 0 <= subset <= table.full_mask:
        raise TableError(f"subset mask {subset} out of range for n={table.n}")
    n = table.n
    view = table.values.reshape((2,) * n)
    inside = view[_pinned(n, table.full_mask ^ subset)]  # v(T & S) for every T
    outside = view[_pinned(n, subset)]  # v(T - S) for every T
    residuals = view - inside
    residuals -= outside  # in place, in the order of view - inside - outside
    residuals = np.abs(residuals, out=residuals).reshape(-1)
    worst = int(np.argmax(residuals))
    worst_residual = float(residuals[worst])
    return SeparabilityReport(
        subset=subset,
        separable=tol.within(worst_residual),
        worst_T=worst,
        worst_residual=worst_residual,
    )


def validate_partition(
    table: ValueTable, partition: Partition, tol: Tolerance = DEFAULT_TOL
) -> tuple[SeparabilityReport, ...]:
    """Per-block separability reports, aligned with ``partition.blocks``."""
    if partition.n != table.n:
        raise PartitionError(
            f"partition over {partition.n} features does not match table over {table.n}"
        )
    return tuple(is_separable(table, block, tol) for block in partition.blocks)


def maximal_partition(table: ValueTable, tol: Tolerance = DEFAULT_TOL) -> Partition:
    """Coarsest-grained partition into separable blocks (see :func:`maximal_partition_reports`)."""
    return maximal_partition_reports(table, tol)[0]


def maximal_partition_reports(
    table: ValueTable, tol: Tolerance = DEFAULT_TOL
) -> tuple[Partition, tuple[SeparabilityReport, ...]]:
    """Coarsest-grained partition into separable blocks, and their reports at ``tol``.

    Two features land in the same block iff some interaction dividend
    with magnitude above ``tol`` covers both; blocks are the connected
    components of that relation. Each such dividend ties its features
    to its lowest feature f; the dividends whose lowest feature is f
    are one strided slice of the table, so f's reach is the OR of that
    slice's hits, and the reaches are merged wherever they overlap. As
    a safety net the blocks' residuals, which do not depend on the
    tolerance, are judged again at a tolerance scaled by the summation
    depth (2^n, offset by any residual empty-set value), which the
    dividend bound guarantees.

    Note that when ``value({}) `` itself exceeds ``tol`` no subset is
    separable in the strict sense; the reports say so honestly, while
    the partition still gives the interaction structure.
    """
    n = table.n
    above = np.abs(mobius_transform(table).dividends) > tol.absolute
    blocks: list[int] = []
    for f in range(n):
        # Entry k is the mask k << (f + 1) | 1 << f: these are the masks whose lowest feature is f.
        higher = np.bitwise_or.reduce(np.flatnonzero(above[1 << f :: 2 << f]))
        merged = int(higher) << (f + 1) | 1 << f
        for b in blocks:
            if b & merged:
                merged |= b
        blocks = [b for b in blocks if not b & merged] + [merged]
    result = Partition(n, tuple(blocks))
    reports = validate_partition(table, result, tol)
    guard = Tolerance((1 << n) * tol.absolute + abs(float(table.values[0])) + tol.absolute)
    for report in reports:
        if not guard.within(report.worst_residual):  # pragma: no cover - breaks the dividend bound
            raise RuntimeError(
                f"internal inconsistency: block {report.subset} failed re-validation "
                f"with residual {report.worst_residual}"
            )
    return result, reports


def enumerate_separable_sets(
    table: ValueTable, tol: Tolerance = DEFAULT_TOL
) -> tuple[int, ...]:
    """Every separable subset mask, by exhaustive testing. 4^n work."""
    if table.n > ORACLE_MAX_FEATURES:
        raise CapExceededError(
            f"exhaustive enumeration is capped at {ORACLE_MAX_FEATURES} features, got n={table.n}"
        )
    return tuple(
        s for s in range(1 << table.n) if is_separable(table, s, tol).separable
    )


def maximal_partition_oracle(table: ValueTable, tol: Tolerance = DEFAULT_TOL) -> Partition:
    """Reference construction of the maximal partition.

    Enumerates every separable set, then sends each feature to the
    intersection of all separable sets containing it. Slow by design;
    exists to hold :func:`maximal_partition` to its contract.
    """
    separable = maximal_partition_oracle_sets(table, tol)
    blocks = sorted(set(separable.values()))
    return Partition(table.n, tuple(blocks))


def maximal_partition_oracle_sets(
    table: ValueTable, tol: Tolerance = DEFAULT_TOL
) -> dict[int, int]:
    """Feature -> intersection of all separable sets containing it."""
    seps = enumerate_separable_sets(table, tol)
    full = table.full_mask
    if full not in seps:
        raise DegenerateInputError(
            "the full feature set is not separable (nonzero empty-set value?); "
            "no separable partition exists"
        )
    out: dict[int, int] = {}
    for f in range(table.n):
        acc = full
        for s in seps:
            if (s >> f) & 1:
                acc &= s
        out[f] = acc
    return out


def block_unions(partition: Partition) -> np.ndarray:
    """Entry h is the union of the blocks whose indices are the bits of h."""
    unions = np.zeros(1, dtype=np.int64)
    for block in partition.blocks:
        unions = np.concatenate((unions, unions | block))
    return unions


def induced_meta_table(
    table: ValueTable, partition: Partition, tol: Tolerance = DEFAULT_TOL
) -> ValueTable:
    """Collapse a separable partition's blocks into meta-features.

    The value of a set of blocks is the sum of the blocks' own values;
    separability makes that agree with the value of the union of their
    members, and the agreement is asserted here (within ``tol`` scaled
    by the block count) before the table is returned.
    """
    reports = validate_partition(table, partition, tol)
    bad = [r for r in reports if not r.separable]
    if bad:
        raise NotSeparableError(
            f"partition block {bad[0].subset} is not separable "
            f"(worst residual {bad[0].worst_residual} at context {bad[0].worst_T})"
        )
    k = len(partition.blocks)
    unions = block_unions(partition)
    meta = np.zeros(1 << k, dtype=np.float64)
    for block in partition.blocks:
        meta[(unions & block) != 0] += table.values[block]
    slack = tol.absolute * (k + 1)
    drift = float(np.max(np.abs(meta - table.values[unions])))
    if drift > slack:  # pragma: no cover - excluded by the per-block validation
        raise RuntimeError(
            f"internal inconsistency: block-sum table drifts {drift} from union values"
        )
    return ValueTable(k, meta)
