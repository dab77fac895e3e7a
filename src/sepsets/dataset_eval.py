"""Building value tables from weighted datasets.

The built-in metric scores a feature subset by the fit quality of a
weighted, intercept-free least-squares model restricted to those
columns:

    value(S) = 1 - sum_i w_i * (pred_i - y_i)^2 / sum_i w_i * y_i^2

Fits use the minimum-norm solution with a relative singular-value
cutoff, so duplicated or collinear columns are handled exactly:
adding a copy of a column never changes the fitted values. The empty
subset predicts identically zero, giving value 0 exactly.

All 2^n fits share one Householder QR factorisation of the weighted
data. It reduces every subset's fit to a problem on at most n + 1 rows
with the same singular values (and, unlike the normal equations,
without squaring the condition number), so the number of data rows
enters only once. Subsets of equal size are then solved together by
stacked SVDs.

Full product grids with per-point model outputs are also supported,
both as a dataset source and as the domain over which a feature can
be declared functionally irrelevant to a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import CapExceededError, DegenerateInputError, TableError
from .subset_algebra import ValueTable, new_value_table, popcount_table

# Every subset still gets its own small SVD (under 2 s for the 65535
# subsets at n = 16 on one Xeon core, 41 s at n = 20), so datasets get a
# stricter cap than hand-built tables.
DATASET_MAX_FEATURES = 16

# Relative singular-value cutoff for the minimum-norm fit.
_SVD_RCOND = 1e-10

# Subsets per stacked SVD. Bounds the gathered (chunk, n + 1, k) blocks
# and their factors to about 1 MB at n = 16.
_CHUNK_SUBSETS = 256


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
        total = float(w.sum())
        if total <= 0:
            raise DegenerateInputError("weights must not all be zero")
        w = w / total
        if float(w @ (y * y)) <= 0.0:
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


def r2_value_table(
    data: Dataset, *, max_features: int = DATASET_MAX_FEATURES
) -> ValueTable:
    """Value table of the built-in fit-quality metric, one entry per subset.

    ``A = [sqrt(w) X | sqrt(w) y]`` is factored once as ``A = Q R``.
    Since ``A_S = Q R[:, S]`` for every column subset S, each subset's
    fit is the same problem on the small matrix ``R[:, S]`` against the
    target column ``r_y``, with the same singular values. Subsets of one
    size are solved in chunks through one stacked SVD each.
    """
    n = data.n
    if n > max_features:
        raise CapExceededError(
            f"dataset has {n} features; table construction is capped at {max_features}"
        )
    sw = np.sqrt(data.w)
    R = np.linalg.qr(np.column_stack([data.X * sw[:, None], data.y * sw]), mode="r")
    r_y = R[:, n]
    # Summed exactly as the residuals are, so that a fit that explains
    # nothing (residual equal to -r_y) gets value 0 exactly.
    tss = float(np.square(r_y).sum())
    sizes = popcount_table(n)
    bits = np.arange(n, dtype=np.int64)
    values = np.zeros(1 << n, dtype=np.float64)
    for k in range(1, n + 1):
        sized = np.flatnonzero(sizes == k)
        for lo in range(0, sized.size, _CHUNK_SUBSETS):
            chunk = sized[lo : lo + _CHUNK_SUBSETS]
            cols = np.nonzero((chunk[:, None] >> bits) & 1)[1].reshape(chunk.size, k)
            values[chunk] = 1.0 - _residual_energy(R, r_y, cols) / tss
    return new_value_table(n, values, max_features=max_features)


def _residual_energy(R: np.ndarray, r_y: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``||R[:, S] b - r_y||^2`` at the minimum-norm least-squares ``b``, per row S of ``cols``.

    The residual is formed from the coefficients, as ``lstsq`` does, not
    as the projection ``U U^T r_y``: when a column is tiny, U's direction
    for it carries rounding error relative to that column's size, while
    the product ``R[:, S] b`` stays accurate.
    """
    design = np.moveaxis(R[:, cols], 0, 1)  # (subsets, rows, k)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    keep = s > _SVD_RCOND * s[:, :1]
    proj = np.einsum("cij,i->cj", u, r_y)
    proj = np.divide(proj, s, out=np.zeros_like(proj), where=keep)
    coef = np.einsum("cjk,cj->ck", vt, proj)
    resid = np.einsum("cik,ck->ci", design, coef) - r_y
    return np.square(resid).sum(axis=1)


def model_value_table(
    data: Dataset,
    model_outputs: np.ndarray | Iterable,
    *,
    max_features: int = DATASET_MAX_FEATURES,
) -> ValueTable:
    """Value table with a model's predictions standing in for the target.

    Rejects output vectors of the wrong length and models whose outputs
    have zero weighted norm (the metric denominator would vanish).
    """
    outputs = np.asarray(model_outputs, dtype=np.float64)
    if outputs.shape != (data.m,):
        raise TableError(
            f"model outputs must have shape ({data.m},), got {outputs.shape}"
        )
    return r2_value_table(Dataset(data.X, outputs, data.w), max_features=max_features)


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
