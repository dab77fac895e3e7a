"""Feature-importance scores computed from a value table.

Four scoring rules, all exact functions of the table:

* bivariate: the value of the feature's singleton subset.
* ablation: the drop in the grand-coalition value when the feature
  is removed from the full set.
* shapley: the factorially weighted average of the feature's marginal
  contributions over all contexts.
* mci: the maximum marginal contribution over all contexts, together
  with a witness context attaining it.

Scores come back per feature or as a whole vector; vectors share the
popcount and weight precomputation, which is what keeps the Shapley
path usable at the 20-feature cap.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import factorial

import numpy as np

from .errors import TableError
from .separability import Partition, block_unions
from .subset_algebra import (
    ValueTable,
    _context_mask,
    _halves,
    _marginals,
    _subset_transform,
    mobius_transform,
    popcount_table,
)


class ScoreMethod(enum.Enum):
    BIVARIATE = "bivariate"
    ABLATION = "ablation"
    SHAPLEY = "shapley"
    MCI = "mci"

    @classmethod
    def parse(cls, name: str) -> "ScoreMethod":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise TableError(f"unknown score method {name!r}; expected one of: {valid}") from None


ALL_METHODS = tuple(ScoreMethod)


def shapley_weights(n: int) -> np.ndarray:
    """Per-cardinality Shapley context weights for an n-feature game.

    Entry k is ``k! * (n-1-k)! / n!`` evaluated as an exact rational and
    rounded once to float64, so no intermediate overflows or drifts even
    at the feature cap. Over all contexts of one feature the weights sum
    to exactly 1.
    """
    if n < 1:
        raise TableError(f"need at least one feature, got n={n}")
    base = factorial(n)
    return np.array(
        [float(Fraction(factorial(k) * factorial(n - 1 - k), base)) for k in range(n)],
        dtype=np.float64,
    )


@dataclass(frozen=True, eq=False)
class ImportanceVector:
    """Scores for every feature of one table under one method.

    ``witnesses`` is only populated for MCI: entry f is the context mask
    (excluding f) whose marginal contribution attains the score, the
    lowest such mask when several tie.
    """

    method: ScoreMethod
    scores: np.ndarray
    witnesses: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise TableError(f"scores must be a 1-d vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise TableError("scores must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)
        if (self.method is ScoreMethod.MCI) != (self.witnesses is not None):
            raise TableError("witness contexts are recorded exactly for MCI")
        if self.witnesses is not None:
            if len(self.witnesses) != arr.shape[0]:
                raise TableError("need one witness context per feature")
            for f, w in enumerate(self.witnesses):
                if (w >> f) & 1:
                    raise TableError(f"witness context {w} for feature {f} must exclude it")

    @property
    def n(self) -> int:
        return int(self.scores.shape[0])


# Rules that read a feature's marginals; the other two read single entries.
_MARGINAL_RULES = (ScoreMethod.SHAPLEY, ScoreMethod.MCI)

# OpenBLAS splits a dot product over more than 10000 entries across its
# threads, which moves the last bits of the sum; runs of this length
# stay on one thread, so scores do not depend on the thread count.
_DOT_RUN = 1 << 13


def _score_one(
    method: ScoreMethod, table: ValueTable, f: int,
    diffs: np.ndarray | None, weights: np.ndarray | None,
) -> tuple[float, int | None]:
    """Feature f's score and MCI witness, given its marginals when the rule reads them."""
    v = table.values
    bit = 1 << f
    if method is ScoreMethod.BIVARIATE:
        return float(v[bit]), None
    if method is ScoreMethod.ABLATION:
        return float(v[table.full_mask] - v[table.full_mask ^ bit]), None
    if method is ScoreMethod.SHAPLEY:
        assert weights is not None and diffs is not None
        runs = range(0, diffs.size, _DOT_RUN)
        dots = (weights[i : i + _DOT_RUN] @ diffs[i : i + _DOT_RUN] for i in runs)
        return float(reduce(operator.add, dots)), None
    if method is ScoreMethod.MCI:
        # argmax picks the first maximizer; contexts run in ascending
        # mask order, so that is the lowest-bitmask witness.
        best = int(np.argmax(diffs))
        return float(diffs[best]), _context_mask(best, f)
    raise TableError(f"unhandled method {method!r}")


def _shapley_context_weights(n: int) -> np.ndarray:
    """Shapley weight of each context of a feature, in :func:`_marginals` order."""
    return shapley_weights(n)[popcount_table(n - 1)]


def _vectors_from_features(
    methods: tuple[ScoreMethod, ...], per_feature: list[list[tuple[float, int | None]]]
) -> dict[ScoreMethod, ImportanceVector]:
    """Score vectors from each feature's ``_score_one`` results, one per method."""
    vectors = {}
    for m, column in zip(methods, zip(*per_feature)):
        scores, witnesses = zip(*column)
        witnesses = witnesses if m is ScoreMethod.MCI else None
        vectors[m] = ImportanceVector(m, np.array(scores), witnesses)
    return vectors


def _walk(
    table: ValueTable, rules: tuple[ScoreMethod, ...], subgames: tuple[ScoreMethod, ...] = ()
):
    """Walk the features in ascending order, yielding each one's marginals
    (None unless a rule or a subgame reads them), its ``_score_one`` result
    under each of ``rules`` and its ``_subgame_scores`` under each of ``subgames``."""
    weights = _shapley_context_weights(table.n) if ScoreMethod.SHAPLEY in rules else None
    shares = _shapley_shares(table) if ScoreMethod.SHAPLEY in subgames else None
    # Ablation and MCI subgames read the marginals, Shapley ones the shares.
    reads = {*rules} & {*_MARGINAL_RULES} or {*subgames} & {ScoreMethod.ABLATION, ScoreMethod.MCI}
    for f in range(table.n):
        diffs = _marginals(table.values, table.n, f) if reads else None
        yield (
            diffs,
            [_score_one(m, table, f, diffs, weights) for m in rules],
            [_subgame_scores(m, table, f, diffs, shares) for m in subgames],
        )


def score_vectors(
    methods: tuple[ScoreMethod, ...], table: ValueTable
) -> dict[ScoreMethod, ImportanceVector]:
    """Score vectors under several rules from one walk over the features;
    a feature's marginals are computed once, when some rule reads them."""
    methods = tuple(methods)
    return _vectors_from_features(methods, [scores for _, scores, _ in _walk(table, methods)])


def _shapley_shares(table: ValueTable) -> np.ndarray:
    """Each dividend split evenly over its features: ``d(W) / |W|``.

    Entry 0 holds ``d({}) / 1 = v({})``; no subgame reads it."""
    return mobius_transform(table).dividends / np.maximum(popcount_table(table.n), 1)


def _subgame_scores(
    method: ScoreMethod, table: ValueTable, f: int,
    diffs: np.ndarray | None, shares: np.ndarray | None,
) -> np.ndarray | None:
    """Feature f's score in every subgame containing it, in O(n * 2^n) at most.

    Entry c scores f in the subgame on ``_context_mask(c, f) | 1 << f``,
    so the last entry is the full game. A subgame keeps f's marginals
    ``diffs`` over its contexts and the dividends of its subsets: ablation
    reads the marginals, MCI takes their subset maxima, Shapley sums
    ``shares`` (see :func:`_shapley_shares`) over the W containing f, and
    bivariate, constant at v({f}), gives None.
    """
    if method is ScoreMethod.ABLATION:
        return diffs
    if method is ScoreMethod.MCI:
        return _subset_transform(diffs.copy(), table.n - 1, np.maximum)
    if method is ScoreMethod.SHAPLEY:
        _, with_f = _halves(shares, table.n, f)
        return _subset_transform(with_f.flatten(), table.n - 1, np.add)
    return None


def score(method: ScoreMethod, table: ValueTable, f: int) -> float:
    """Importance of feature ``f`` under ``method``."""
    if not 0 <= f < table.n:
        raise TableError(f"feature index {f} out of range for n={table.n}")
    diffs = _marginals(table.values, table.n, f) if method in _MARGINAL_RULES else None
    weights = _shapley_context_weights(table.n) if method is ScoreMethod.SHAPLEY else None
    return _score_one(method, table, f, diffs, weights)[0]


def score_vector(method: ScoreMethod, table: ValueTable) -> ImportanceVector:
    """Scores of every feature, with MCI witness contexts when applicable."""
    return score_vectors((method,), table)[method]


def grouped_score_vector(
    method: ScoreMethod, table: ValueTable, partition: Partition
) -> np.ndarray:
    """Block-level scores: each block is treated as one meta-feature.

    The meta table assigns a set of blocks the value of the union of
    their members. The partition need not be separable; for separable
    partitions all four methods collapse to the block's own value.
    Output order follows ``partition.blocks``.
    """
    if partition.n != table.n:
        raise TableError(
            f"partition over {partition.n} features cannot group a table over {table.n}"
        )
    meta = ValueTable(len(partition.blocks), table.values[block_unions(partition)])
    return score_vector(method, meta).scores.copy()
