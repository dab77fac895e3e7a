"""Building value tables from weighted datasets.

The built-in metric scores a feature subset by the fit quality of a
weighted, intercept-free least-squares model restricted to those
columns:

    value(S) = 1 - sum_i w_i * (pred_i - y_i)^2 / sum_i w_i * y_i^2

A fit is the target's projection onto the span of the subset's
columns; the empty subset predicts zero, giving value 0 exactly.

All 2^n fits share one Householder QR factorisation of the weighted
data, which reduces them to the n + 1 columns of R without squaring
the condition number. One modified Gram-Schmidt walk over the features
(Furnival and Wilson's "leaps and bounds" recursion, 1974; backward
stable for least squares, Bjorck 1967) then projects each feature out
of every subset's residuals in turn, doubling the subsets per step. A
column whose residual is within ``_SVD_RCOND`` of its own norm is
dependent and projects out nothing, so a duplicate never changes a fit
and a column's units move no value.

Full product grids with per-point model outputs are also supported,
both as a dataset source and as the domain over which a feature can
be declared functionally irrelevant to a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateInputError, TableError
from .subset_algebra import ValueTable, check_feature_count

# A column is dependent when its residual is at most this fraction of its norm.
_SVD_RCOND = 1e-10

# Features walked inside one block of the table, so the walk's state is
# at most 2^12 vectors of n + 1 floats (under 1 MB at n = 24). Features
# above these are walked first; each of their subsets fills one block.
_BLOCK_FEATURES = 12


@dataclass(frozen=True, eq=False)
class Dataset:
    """Weighted regression dataset: rows of features, a target, weights.

    Weights are nonnegative and normalized to sum to 1 at construction.
    The weighted second moment of the target must be positive, since it
    is the denominator of the built-in metric.
    """

    X: np.ndarray
    y: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        w = np.asarray(self.w, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise TableError(f"feature matrix must be 2-d and nonempty, got shape {X.shape}")
        m = X.shape[0]
        if y.shape != (m,):
            raise TableError(f"target must have shape ({m},), got {y.shape}")
        if w.shape != (m,):
            raise TableError(f"weights must have shape ({m},), got {w.shape}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
            raise TableError("dataset entries must be finite")
        if np.any(w < 0):
            raise TableError("weights must be nonnegative")
        with np.errstate(over="ignore"):
            total = float(w.sum())
        if not np.isfinite(total):
            # Weights near the float maximum: a power-of-two rescale brings the
            # largest into [0.5, 1), so their sum is finite. It is left to this
            # case because it rounds weights it pushes below the normal range.
            w = np.ldexp(w, -np.frexp(w.max())[1])
            total = float(w.sum())
        if total <= 0:
            raise DegenerateInputError("weights must not all be zero")
        w = w / total
        if not np.any(np.sqrt(w) * y):
            raise DegenerateInputError(
                "target has zero weighted norm; the fit-quality denominator vanishes"
            )
        for name, arr in (("X", X), ("y", y), ("w", w)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return int(self.X.shape[0])

    @property
    def n(self) -> int:
        return int(self.X.shape[1])


def new_dataset(
    X: np.ndarray | Iterable,
    y: np.ndarray | Iterable,
    w: np.ndarray | Iterable | None = None,
) -> Dataset:
    """Validating constructor; omitted weights default to uniform."""
    X = np.asarray(X, dtype=np.float64)
    if w is None:
        if X.ndim != 2 or X.shape[0] < 1:
            raise TableError(f"feature matrix must be 2-d and nonempty, got shape {X.shape}")
        w = np.full(X.shape[0], 1.0 / X.shape[0])
    return Dataset(X, np.asarray(y, dtype=np.float64), np.asarray(w, dtype=np.float64))


def r2_value_table(data: Dataset) -> ValueTable:
    """Value table of the built-in fit-quality metric, one entry per subset.

    Built by the walk described in the module docstring.
    """
    n = data.n
    check_feature_count(n)
    # Scaling a column by a power of two is exact and moves no value; it
    # keeps the squares of columns in huge or tiny units in float range.
    A = np.column_stack([data.X, data.y]) * np.sqrt(data.w)[:, None]
    np.ldexp(A, -np.frexp(np.abs(A).max(axis=0))[1], out=A)
    R = np.linalg.qr(A, mode="r")
    del A  # the data rows are not needed past the factor
    norms = np.linalg.norm(R, axis=0)
    low = min(n, _BLOCK_FEATURES)
    # One state per subset of the walked features, indexed by its mask;
    # it holds the residuals of the unwalked columns, then of r_y.
    top = R.T[[*range(low, n), *range(low), n]][None]
    for f in range(low, n):
        top = _walk_step(top, norms[f])
    values = np.empty(1 << n)
    for block, state in zip(values.reshape(-1, 1 << low), top):
        state = state[None]
        for f in range(low):
            state = _walk_step(state, norms[f])
        np.square(state[:, 0]).sum(axis=1, out=block)
    # values[0] is ||r_y||^2, summed as every residual energy is, so a
    # fit that explains nothing gets value 0 exactly.
    values = 1.0 - values / values[0]
    return ValueTable(n, values)


def _walk_step(state: np.ndarray, norm: float) -> np.ndarray:
    """Add the first column of ``state`` to every subset: ``[without, with]``.

    Its residual v is projected out of each later residual r as
    ``r - (r.v / v.v) v``, unless v is within ``_SVD_RCOND * norm`` of
    zero. Writing the halves in place holds peak memory to input + output.
    """
    v, rest = state[:, 0], state[:, 1:]
    energy = np.einsum("br,br->b", v, v)[:, None]
    independent = energy > (_SVD_RCOND * norm) ** 2
    coef = np.einsum("bkr,br->bk", rest, v)
    coef = np.divide(coef, energy, out=np.zeros_like(coef), where=independent)
    out = np.empty((2 * len(rest),) + rest.shape[1:])
    out[: len(rest)] = rest
    with_ = np.multiply(coef[:, :, None], v[:, None], out=out[len(rest) :])
    np.subtract(rest, with_, out=with_)
    return out


def model_value_table(data: Dataset, model_outputs: np.ndarray | Iterable) -> ValueTable:
    """Value table with a model's predictions standing in for the target.

    Rejects output vectors of the wrong length and models whose outputs
    have zero weighted norm (the metric denominator would vanish).
    """
    outputs = np.asarray(model_outputs, dtype=np.float64)
    if outputs.shape != (data.m,):
        raise TableError(
            f"model outputs must have shape ({data.m},), got {outputs.shape}"
        )
    return r2_value_table(Dataset(data.X, outputs, data.w))


@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """A model's output on every point of a full product grid.

    ``domains`` lists each feature's possible values; ``outputs`` is
    flat in row-major feature order (the first feature varies slowest).
    """

    domains: tuple[tuple[float, ...], ...]
    outputs: np.ndarray

    def __post_init__(self) -> None:
        domains = tuple(tuple(float(v) for v in d) for d in self.domains)
        if len(domains) < 1:
            raise TableError("a grid needs at least one feature domain")
        for i, d in enumerate(domains):
            if len(d) < 1:
                raise TableError(f"domain of feature {i} is empty")
            if len(set(d)) != len(d):
                raise TableError(f"domain of feature {i} has repeated values")
        object.__setattr__(self, "domains", domains)
        size = int(np.prod([len(d) for d in domains]))
        outputs = np.asarray(self.outputs, dtype=np.float64)
        if outputs.shape != (size,):
            raise TableError(f"need {size} outputs for this grid, got shape {outputs.shape}")
        if not np.all(np.isfinite(outputs)):
            raise TableError("grid outputs must be finite")
        outputs = outputs.copy()
        outputs.setflags(write=False)
        object.__setattr__(self, "outputs", outputs)

    @property
    def n(self) -> int:
        return len(self.domains)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.domains)

    def grid_points(self) -> np.ndarray:
        """All grid coordinates as an (m, n) array, row-major order."""
        axes = [np.asarray(d, dtype=np.float64) for d in self.domains]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


def null_feature_residual(grid: OutcomeTable, f: int) -> float:
    """Largest output change over grid pairs differing only at feature f.

    Zero means the model is functionally independent of the feature.
    """
    if not 0 <= f < grid.n:
        raise TableError(f"feature index {f} out of range for n={grid.n}")
    arr = grid.outputs.reshape(grid.shape)
    spread = arr.max(axis=f) - arr.min(axis=f)
    return float(np.max(spread))


def grid_to_dataset(grid: OutcomeTable, weights: np.ndarray | Iterable) -> Dataset:
    """Dataset whose rows are the grid points with the given probabilities.

    Weights must be nonnegative and sum to 1 (within 1e-12); zero-weight
    points are retained and simply contribute nothing to weighted sums.
    """
    w = np.asarray(weights, dtype=np.float64)
    size = grid.outputs.shape[0]
    if w.shape != (size,):
        raise TableError(f"need {size} grid weights, got shape {w.shape}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise TableError("grid weights must be finite and nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise TableError(f"grid weights must sum to 1, got {float(w.sum())!r}")
    return Dataset(grid.grid_points(), grid.outputs, w)
