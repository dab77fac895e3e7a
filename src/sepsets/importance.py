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
path usable at the 20-feature cap. One walk over the features scores a
stack of tables, one table per row, filling each rule's score columns in
place; a single table is a stack of one.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import TableError
from .separability import Partition, block_unions
from .subset_algebra import ValueTable, _context_mask, _marginals


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


@functools.cache
def shapley_weights(n: int) -> np.ndarray:
    """Per-cardinality Shapley context weights for an n-feature game.

    Entry k is ``k! * (n-1-k)! / n!`` evaluated as an exact rational and
    rounded once to float64, so no intermediate overflows or drifts even
    at the feature cap. Over all contexts of one feature the weights sum
    to exactly 1. They are computed once per n, and every caller shares
    one read-only array.
    """
    if n < 1:
        raise TableError(f"need at least one feature, got n={n}")
    base = factorial(n)
    weights = np.array(
        [float(Fraction(factorial(k) * factorial(n - 1 - k), base)) for k in range(n)],
        dtype=np.float64,
    )
    weights.setflags(write=False)
    return weights


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
# Each rule's scores over a stack of tables, shape (k, n), and MCI's
# witness contexts, else None: what one walk over the features fills.
_Columns = dict[ScoreMethod, tuple[np.ndarray, np.ndarray | None]]

# Entries per run of the Shapley reduction. numpy sums each run pairwise
# and the run sums are added in order, so a row's bits do not depend on
# the other rows of its stack.
_SUM_RUN = 1 << 13
# Runs per multiply into the one scratch buffer.
_SCRATCH_RUNS = 8


def _weighted_row_sums(diffs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``(diffs * weights).sum(axis=1)`` for a (k, m) stack, in runs of
    ``_SUM_RUN``: each run summed pairwise, and a row's run sums added
    left to right from 0.0."""
    k, m = diffs.shape
    width = min(m, _SUM_RUN)
    runs = m // width
    # Each multiply takes up to _SCRATCH_RUNS runs of one row, or whole
    # rows of fewer runs.
    cols = min(runs, _SCRATCH_RUNS)
    rows = max(1, _SCRATCH_RUNS * _SUM_RUN // (cols * width))
    parts, scratch = np.zeros((k, runs + 1)), np.empty(rows * cols * width)
    stack, spread = diffs.reshape(k, runs, width), weights.reshape(runs, width)
    for r in range(0, k, rows):
        for c in range(0, runs, cols):
            run = stack[r : r + rows, c : c + cols]
            product = scratch[: run.size].reshape(run.shape)
            np.multiply(run, spread[c : c + cols], out=product)
            parts[r : r + rows, 1 + c : 1 + c + cols] = product.sum(axis=-1)
    return np.cumsum(parts, axis=1)[:, -1]


def _score_rows(
    method: ScoreMethod, values: np.ndarray, n: int, f: int, diffs: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Feature f's score in each row of ``values``, a stack of tables of
    2^n entries each, and under MCI the index of each row's witness in its
    marginals; ``diffs`` holds the rows' marginals when the rule reads them."""
    bit, full = 1 << f, values.shape[1] - 1
    if method is ScoreMethod.BIVARIATE:
        return values[:, bit], None
    if method is ScoreMethod.ABLATION:
        return values[:, full] - values[:, full ^ bit], None
    if method is ScoreMethod.SHAPLEY:
        return _weighted_row_sums(diffs, _shapley_context_weights(n)), None
    if method is ScoreMethod.MCI:
        # argmax picks each row's first maximizer; contexts run in ascending
        # mask order, so that is the lowest-bitmask witness. The score is
        # read at it, so a signed zero keeps its sign.
        best = np.argmax(diffs, axis=1)
        return diffs[np.arange(best.size), best], best
    raise TableError(f"unhandled method {method!r}")


@functools.cache
def _shapley_context_weights(n: int) -> np.ndarray:
    """Shapley weight of each context of a feature, in :func:`_marginals` order;
    built once per n, one read-only array for every caller."""
    weights = shapley_weights(n)[np.bitwise_count(np.arange(1 << (n - 1)))]
    weights.setflags(write=False)
    return weights


def _walk(values: np.ndarray, n: int, rules: tuple[ScoreMethod, ...], columns: _Columns):
    """Walk the features in ascending order over ``values``, a stack of
    tables of shape (k, 2^n), filling ``columns[m]`` with rule m's scores,
    shape (k, n), and MCI's witness contexts, else None. Once column f is
    filled, yield feature f's marginals, shape (k, 2^(n-1)), or None
    unless a rule reads them."""
    reads = not {*rules}.isdisjoint(_MARGINAL_RULES)
    shape = (values.shape[0], n)
    for m in rules:
        columns[m] = np.empty(shape), np.empty(shape, np.int64) if m is ScoreMethod.MCI else None
    for f in range(n):
        diffs = _marginals(values, n, f) if reads else None
        for m in rules:
            scores, witnesses = columns[m]
            scores[:, f], best = _score_rows(m, values, n, f, diffs)
            if witnesses is not None:
                witnesses[:, f] = _context_mask(best, f)
        yield diffs


def _stack_scores(methods: tuple[ScoreMethod, ...], values: np.ndarray, n: int) -> _Columns:
    """The columns of one :func:`_walk` over a stack of tables, run to the end."""
    columns: _Columns = {}
    for _ in _walk(values, n, methods, columns):
        pass
    return columns


def _first_vectors(columns: _Columns) -> dict[ScoreMethod, ImportanceVector]:
    """Score vectors of the first table of a stack, from :func:`_walk`'s columns."""
    vectors = {}
    for m, (scores, witnesses) in columns.items():
        contexts = None if witnesses is None else tuple(witnesses[0].tolist())
        vectors[m] = ImportanceVector(m, scores[0], contexts)
    return vectors


def score_vectors(
    methods: tuple[ScoreMethod, ...], table: ValueTable
) -> dict[ScoreMethod, ImportanceVector]:
    """Score vectors under several rules from one walk over the features;
    a feature's marginals are computed once, when some rule reads them."""
    return _first_vectors(_stack_scores(tuple(methods), table.values[None], table.n))


def score(method: ScoreMethod, table: ValueTable, f: int) -> float:
    """Importance of feature ``f`` under ``method``."""
    if not 0 <= f < table.n:
        raise TableError(f"feature index {f} out of range for n={table.n}")
    values = table.values[None]
    diffs = _marginals(values, table.n, f) if method in _MARGINAL_RULES else None
    return float(_score_rows(method, values, table.n, f, diffs)[0][0])


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
