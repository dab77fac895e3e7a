"""Dense subset-indexed value tables and their transforms.

A value function on n features assigns a real to every feature subset.
Subsets are encoded as bitmasks: bit i set means feature i is in the
subset, and the table stores the value of mask ``m`` at index ``m``.
All 2^n entries are held in one float64 array, which keeps every
downstream computation a vectorized gather instead of a dict walk.

The Moebius transform rewrites a table into interaction dividends:
``dividend(W) = sum over V subset of W of (-1)^|W minus V| * value(V)``.
The zeta transform is its inverse (plain subset sums). Both run in
O(n * 2^n) by the standard one-bit-at-a-time in-place pass, and the
same pass with a maximum in place of the sum gives subset maxima.
"""

from __future__ import annotations

import numbers
import reprlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import CapExceededError, TableError

# Every table holds 2^n float64 values; past this cap memory and time
# grow beyond what a dense table is for.
MAX_FEATURES = 20


@dataclass(frozen=True)
class Tolerance:
    """Absolute comparison threshold threaded through the whole API.

    A single number so that reports, checkers, and the CLI all agree on
    what "equal" means for a given run.
    """

    absolute: float = 1e-9

    def __post_init__(self) -> None:
        if not (self.absolute > 0.0 and np.isfinite(self.absolute)):
            raise TableError(f"tolerance must be positive and finite, got {self.absolute!r}")

    def within(self, residual: float) -> bool:
        """True when an absolute residual counts as zero."""
        return abs(residual) <= self.absolute


DEFAULT_TOL = Tolerance()


def _as_table_array(values: Iterable[float] | np.ndarray, n: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != (1 << n):
        raise TableError(f"expected {1 << n} values for n={n}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise TableError("value tables must be finite (no NaN or infinity)")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def check_feature_count(n: int) -> None:
    """Raise unless n is an integer from 1 to the cap; callers that
    build 2^n entries check before they build."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TableError(f"feature count must be an integer, got {n!r}")
    if n < 1:
        raise TableError(f"feature count must be at least 1, got {n}")
    if n > MAX_FEATURES:
        raise CapExceededError(f"n={n} exceeds the cap of {MAX_FEATURES} features")


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Immutable value function over all subsets of n features."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        check_feature_count(self.n)
        object.__setattr__(self, "values", _as_table_array(self.values, self.n))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


@dataclass(frozen=True, eq=False)
class MobiusTable:
    """Interaction dividends of a value table, indexed like the table itself."""

    n: int
    dividends: np.ndarray

    def __post_init__(self) -> None:
        check_feature_count(self.n)
        object.__setattr__(self, "dividends", _as_table_array(self.dividends, self.n))


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(indices: Iterable[int], n: int) -> int:
    """Bitmask for a collection of feature indices, validated against n."""
    mask = 0
    for i in indices:
        if not 0 <= i < n:
            raise TableError(f"feature index {i} out of range for n={n}")
        mask |= 1 << i
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    """Feature indices of a bitmask, ascending."""
    return tuple(i for i in range(int(mask).bit_length()) if mask >> i & 1)


def popcount_table(n: int) -> np.ndarray:
    """Bit counts of every mask below 2^n as an int64 array."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.int64)).astype(np.int64)


def _subset_transform(values: np.ndarray, n: int, combine: np.ufunc) -> np.ndarray:
    """One in-place pass per bit: ``v[T | bit] = combine(v[T | bit], v[T])``.

    ``np.add`` gives subset sums (zeta), ``np.subtract`` the Moebius
    inverse, ``np.maximum`` subset maxima. ``values`` must be a
    C-contiguous float64 array of 2^n entries; it is overwritten and
    returned. The result does not depend on the bit order, but its
    rounding does, so the order is fixed: highest bit first.

    The halves of bit f are runs of 2^f entries. numpy walks runs of 2
    or 4 entries one tiny inner loop at a time, 5 to 15 times slower
    than a pass over long runs, so below a 64-byte run the pass walks
    the transposed halves in C order: each inner loop then strides over
    all 2^(n-1-f) runs. Every entry gets the same operation either way,
    so the bytes do not depend on the walk.
    """
    for f in reversed(range(n)):
        runs = values.reshape(-1, 2, 1 << f)
        lo, hi = runs[:, 0], runs[:, 1]
        if f < 3:
            lo, hi = lo.T, hi.T
        combine(hi, lo, out=hi, order="C")
    return values


def _halves(values: np.ndarray, n: int, f: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the entries without and with feature ``f``.

    Feature f is axis ``n - 1 - f`` of the ``(2,)*n`` view, so each half
    has shape ``(2,)*(n-1)`` and, flattened, is indexed by the context
    with bit f removed (see :func:`_context_mask`).
    """
    view = values.reshape((2,) * n)
    # The trailing Ellipsis keeps each half an array view even when no
    # axes remain (n=1), where a bare integer index would copy.
    head = (slice(None),) * (n - 1 - f)
    return view[head + (0, Ellipsis)], view[head + (1, Ellipsis)]


def _pinned(n: int, mask: int) -> tuple[slice, ...]:
    """Index of the ``(2,)*n`` view fixing the features of ``mask`` absent.

    Fixed axes keep length 1, so the selection broadcasts over the view
    (entry T reads ``v[T & ~mask]``) and flattens in ascending mask order.
    """
    return tuple(slice(0, 1) if mask >> f & 1 else slice(None) for f in reversed(range(n)))


def _marginals(values: np.ndarray, n: int, f: int) -> np.ndarray:
    """``v[T | f] - v[T]`` for every context T excluding f, flat.

    Entry c belongs to the context ``_context_mask(c, f)``, so the
    contexts run in ascending mask order.
    """
    lo, hi = _halves(values, n, f)
    return (hi - lo).reshape(-1)


def _context_mask(index: int, f: int) -> int:
    """The mask whose bits outside f spell ``index`` and whose bit f is clear."""
    low = index & ((1 << f) - 1)
    return ((index ^ low) << 1) | low


def mobius_transform(table: ValueTable) -> MobiusTable:
    """Interaction dividends of ``table``.

    Round-tripping through :func:`zeta_transform` reproduces the input
    to within ``1e-12 * max(1, max abs value)``.
    """
    dividends = _subset_transform(table.values.copy(), table.n, np.subtract)
    if not np.all(np.isfinite(dividends)):
        raise TableError("interaction dividends overflow the float range")
    return MobiusTable(table.n, dividends)


def zeta_transform(dividends: MobiusTable) -> ValueTable:
    """Rebuild a value table from dividends by subset summation."""
    return ValueTable(
        dividends.n, _subset_transform(dividends.dividends.copy(), dividends.n, np.add)
    )


def eliminate(table: ValueTable, drop: int) -> tuple[ValueTable, tuple[int, ...]]:
    """Restrict a table to the features outside ``drop``.

    Returns the restricted table together with the index remapping:
    element ``j`` of the remapping is the original index of the
    restricted table's feature ``j``. Values are copied verbatim, so
    equality with the source entries is exact. Dropping every feature
    is an error; dropping none returns an identical table.
    """
    if not 0 <= drop <= table.full_mask:
        raise TableError(f"drop mask {drop} out of range for n={table.n}")
    if drop == table.full_mask:
        raise TableError("cannot eliminate every feature; at least one must survive")
    kept = tuple(i for i in range(table.n) if not (drop >> i) & 1)
    view = table.values.reshape((2,) * table.n)
    return ValueTable(len(kept), view[_pinned(table.n, drop)].reshape(-1)), kept


def mix(first: ValueTable, second: ValueTable, alpha: float) -> ValueTable:
    """Convex combination ``alpha * first + (1 - alpha) * second``."""
    if first.n != second.n:
        raise TableError(f"cannot mix tables over {first.n} and {second.n} features")
    if not (0.0 <= alpha <= 1.0):
        raise TableError(f"mixture weight must lie in [0, 1], got {alpha!r}")
    return ValueTable(first.n, alpha * first.values + (1.0 - alpha) * second.values)


def tables_close(first: ValueTable, second: ValueTable, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Entrywise comparison at an absolute tolerance."""
    if first.n != second.n:
        return False
    return bool(np.max(np.abs(first.values - second.values), initial=0.0) <= tol.absolute)


def table_to_dict(table: ValueTable) -> dict:
    """JSON-ready form: ``{"n": ..., "values": [...]}`` in mask order."""
    return {"n": table.n, "values": [float(v) for v in table.values]}


def json_reals(items: list, what: str) -> np.ndarray:
    """JSON numbers as float64; a string, object, array, null or boolean is an error."""

    def real(kind: type) -> bool:
        return issubclass(kind, numbers.Real) and not issubclass(kind, bool)

    # One check per distinct element type keeps this cheap on 2^20 values.
    if not all(map(real, set(map(type, items)))):
        at = next(i for i, x in enumerate(items) if not real(type(x)))
        raise TableError(f"{what} at index {at} must be a number, got {reprlib.repr(items[at])}")
    try:
        return np.asarray(items, dtype=np.float64)
    except OverflowError:
        raise TableError(f"every {what} must lie within the float range") from None


def table_from_dict(payload: dict) -> ValueTable:
    """Parse the dict form produced by :func:`table_to_dict`."""
    if not isinstance(payload, dict) or "n" not in payload or "values" not in payload:
        raise TableError('a value table needs keys "n" and "values"')
    n = payload["n"]
    check_feature_count(n)
    values = payload["values"]
    if not isinstance(values, (list, tuple)):
        raise TableError('"values" must be a list of reals in mask order')
    return ValueTable(n, json_reals(values, "value"))
