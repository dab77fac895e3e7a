"""Shared fixtures and seeded table generators."""

import numpy as np
import pytest

from sepsets import MobiusTable, Tolerance, ValueTable, indices_of, is_separable, zeta_transform


def random_table(rng, n, *, zero_empty=True, scale=1.0):
    """Dense table with independent normal values."""
    values = rng.normal(0.0, scale, 1 << n)
    if zero_empty:
        values[0] = 0.0
    return ValueTable(n, values)


def seeded_table(n, seed, integers):
    """Normal table, or integers in [-3, 3] whose marginals and their ties are exact."""
    rng = np.random.default_rng(seed)
    if not integers:
        return random_table(rng, n)
    values = rng.integers(-3, 4, 1 << n).astype(np.float64)
    values[0] = 0.0
    return ValueTable(n, values)


def random_blocks(rng, n):
    """A random set partition of range(n), as a tuple of bitmasks."""
    k = int(rng.integers(1, n + 1))
    labels = rng.integers(0, k, size=n)
    groups = {}
    for f, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(f)
    return tuple(sum(1 << f for f in fs) for fs in groups.values())


def block_additive_table(rng, n, blocks, *, lo=0.5, hi=1.5):
    """Table that splits across exactly the given blocks.

    Every nonempty interaction dividend inside a block gets magnitude
    at least ``lo``, so the full-block dividend welds the block into one
    component; no dividend crosses block lines, so blocks never merge.
    """
    dividends = np.zeros(1 << n)
    for block in blocks:
        pos = indices_of(block)
        local = np.arange(1 << len(pos), dtype=np.int64)
        expand = np.zeros_like(local)
        for j, p in enumerate(pos):
            expand |= ((local >> j) & 1) << p
        sub = rng.uniform(lo, hi, local.size) * np.where(
            rng.random(local.size) < 0.5, -1.0, 1.0
        )
        sub[0] = 0.0
        dividends[expand] += sub
    return zeta_transform(MobiusTable(n, dividends))


def closure_holds(table, first, second, tol=Tolerance(1e-9)):
    """The closure lemma: two separable sets, their complements, their
    union and their intersection are all separable."""
    full = table.full_mask
    sets = (first, second, full ^ first, full ^ second, first | second, first & second)
    return all(is_separable(table, s, tol).separable for s in sets)


def sparse_mobius_table(rng, n, density):
    """Table whose dividends are nonzero with the given probability.

    Magnitudes stay in [0.5, 1.5], far from the default tolerance, so
    partition outcomes are never decided by rounding.
    """
    dividends = np.zeros(1 << n)
    hot = rng.random(1 << n) < density
    hot[0] = False
    count = int(hot.sum())
    dividends[hot] = rng.uniform(0.5, 1.5, count) * np.where(
        rng.random(count) < 0.5, -1.0, 1.0
    )
    return zeta_transform(MobiusTable(n, dividends))


TOY_VALUES = [0.0, 0.5, 0.5, 0.5, 1 / 3, 5 / 6, 5 / 6, 5 / 6]


@pytest.fixture
def toy_table():
    """Three features: 0 and 1 are duplicates, 2 is independent of them."""
    return ValueTable(3, TOY_VALUES)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
