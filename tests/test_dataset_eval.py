"""Weighted goodness-of-fit tables from raw datasets."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepsets import (
    CapExceededError,
    DegenerateInputError,
    OutcomeTable,
    TableError,
    grid_to_dataset,
    indices_of,
    model_value_table,
    new_dataset,
    null_feature_residual,
    r2_value_table,
)
from sepsets import dataset_eval

from conftest import TOY_VALUES


def toy_dataset():
    root6 = float(np.sqrt(1.0 / 6.0))
    root23 = float(np.sqrt(2.0 / 3.0))
    X = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    y = X[:, 0] + X[:, 2] + np.array([root6, -root23, root6])
    return new_dataset(X, y)


def test_toy_dataset_reproduces_expected_table():
    table = r2_value_table(toy_dataset())
    assert np.max(np.abs(table.values - np.array(TOY_VALUES))) <= 1e-9


def test_empty_set_value_is_exactly_zero(rng):
    X = rng.normal(size=(20, 4))
    y = rng.normal(size=20)
    table = r2_value_table(new_dataset(X, y))
    assert float(table.values[0]) == 0.0


def test_values_are_bounded_and_nested_monotone(rng):
    for _ in range(5):
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        w = rng.uniform(0.1, 1.0, size=30)
        table = r2_value_table(new_dataset(X, y, w))
        assert np.all(table.values >= -1e-12)
        assert np.all(table.values <= 1.0 + 1e-12)
        for s in range(16):
            for f in range(4):
                if (s >> f) & 1:
                    assert table.values[s] >= table.values[s ^ (1 << f)] - 1e-9


def test_duplicate_columns_score_like_the_original(rng):
    X = rng.normal(size=(25, 3))
    X = np.column_stack([X, X[:, 0]])  # feature 3 duplicates feature 0
    y = rng.normal(size=25)
    table = r2_value_table(new_dataset(X, y))
    for s in range(16):
        with_dup = s | 0b1000
        with_orig = s | 0b0001
        both = s | 0b1001
        assert table.values[with_dup] == pytest.approx(
            table.values[with_orig], abs=1e-10
        )
        assert table.values[both] == pytest.approx(table.values[with_orig], abs=1e-10)


def test_zero_weight_rows_change_nothing(rng):
    X = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    base = r2_value_table(new_dataset(X, y))
    X2 = np.vstack([X, rng.normal(size=(2, 3))])
    y2 = np.concatenate([y, [5.0, -5.0]])
    w2 = np.concatenate([np.full(10, 0.1), [0.0, 0.0]])
    padded = r2_value_table(new_dataset(X2, y2, w2))
    assert np.allclose(base.values, padded.values, atol=1e-12)


def test_weight_validation():
    X = np.ones((2, 1))
    y = np.array([1.0, 2.0])
    with pytest.raises(DegenerateInputError):
        new_dataset(X, y, np.zeros(2))
    with pytest.raises(TableError):
        new_dataset(X, y, np.array([0.5, -0.5]))
    with pytest.raises(TableError):
        new_dataset(X, y, np.array([0.5]))


def test_zero_target_energy_is_degenerate():
    X = np.ones((3, 1))
    with pytest.raises(DegenerateInputError):
        new_dataset(X, np.zeros(3))


def test_shape_validation():
    with pytest.raises(TableError):
        new_dataset(np.ones(3), np.ones(3))
    with pytest.raises(TableError):
        new_dataset(np.ones((3, 2)), np.ones(4))


def test_feature_cap():
    # Datasets obey the one table cap of 20 features.
    y = np.array([1.0, 2.0])
    for n in (21, 25):
        with pytest.raises(CapExceededError, match=f"^n={n} exceeds the cap of 20 features$"):
            r2_value_table(new_dataset(np.ones((2, n)), y))
    assert r2_value_table(new_dataset(np.eye(2, 20), y)).n == 20


def test_perfect_model_table_matches_data_table():
    data = toy_dataset()
    table = model_value_table(data, data.y)
    assert np.allclose(table.values, r2_value_table(data).values, atol=1e-12)


def test_model_output_shape_checked():
    data = toy_dataset()
    with pytest.raises(TableError):
        model_value_table(data, np.ones(4))


def test_grid_points_order_first_feature_slowest():
    grid = OutcomeTable(((0.0, 1.0), (5.0, 6.0, 7.0)), np.arange(6.0))
    points = grid.grid_points()
    assert points.shape == (6, 2)
    assert np.array_equal(points[:, 0], [0, 0, 0, 1, 1, 1])
    assert np.array_equal(points[:, 1], [5, 6, 7, 5, 6, 7])


def test_grid_validation():
    with pytest.raises(TableError):
        OutcomeTable(((0.0, 0.0),), np.zeros(2))  # repeated domain value
    with pytest.raises(TableError):
        OutcomeTable(((0.0, 1.0),), np.zeros(3))  # wrong output count
    with pytest.raises(TableError):
        OutcomeTable((), np.zeros(1))


def test_null_feature_residual():
    flat = OutcomeTable(((0.0, 1.0), (0.0, 1.0)), np.array([3.0, 7.0, 3.0, 7.0]))
    assert null_feature_residual(flat, 0) == 0.0
    assert null_feature_residual(flat, 1) == 4.0
    with pytest.raises(TableError):
        null_feature_residual(flat, 2)


def test_grid_to_dataset_weight_contract():
    grid = OutcomeTable(((0.0, 1.0),), np.array([0.0, 1.0]))
    data = grid_to_dataset(grid, [0.0, 1.0])
    assert data.m == 2  # zero-weight point retained
    assert np.allclose(data.w, [0.0, 1.0])
    with pytest.raises(TableError):
        grid_to_dataset(grid, [0.5, 0.6])
    with pytest.raises(TableError):
        grid_to_dataset(grid, [0.5, -0.5])


def test_constant_column_explains_weighted_mean(rng):
    # An all-ones feature acts as an intercept: its solo value is the
    # share of target energy carried by the weighted mean.
    y = np.array([1.0, 2.0, 3.0])
    w = np.array([0.2, 0.3, 0.5])
    data = new_dataset(np.ones((3, 1)), y, w)
    table = r2_value_table(data)
    mean = float(w @ y)
    tss = float(w @ (y * y))
    explained = 1.0 - float(w @ ((y - mean) ** 2)) / tss
    assert table.values[1] == pytest.approx(explained, abs=1e-12)


def r2_by_lstsq(data, mask):
    """One subset's value by a minimum-norm lstsq fit of the full
    weighted design, with a 1e-10 relative singular-value cutoff."""
    sw = np.sqrt(data.w)
    target = data.y * sw
    design = data.X[:, list(indices_of(mask))] * sw[:, None]
    coef, *_ = np.linalg.lstsq(design, target, rcond=1e-10)
    resid = design @ coef - target
    return 1.0 - float(resid @ resid) / float(target @ target)


def r2_table_by_lstsq(data):
    """The per-subset route that r2_value_table replaced, kept as its
    reference: one lstsq fit per subset."""
    values = np.zeros(1 << data.n)
    for mask in range(1, 1 << data.n):
        values[mask] = r2_by_lstsq(data, mask)
    return values


@st.composite
def seeded_datasets(draw):
    """Up to 6 features and 1 to 40 rows, so fewer rows than n + 1 is
    common; some rows carry zero weight and the last column may copy the
    first. Small-integer cells also give exact collinearity and zero columns."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=40))
    zero_rows = draw(st.integers(min_value=0, max_value=m - 1))
    duplicate = draw(st.booleans())
    integers = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X = rng.integers(-2, 3, size=(m, n)).astype(np.float64) if integers else rng.normal(size=(m, n))
    if duplicate:
        X[:, -1] = X[:, 0]
    y = rng.normal(size=m)
    w = rng.uniform(0.1, 1.0, size=m)
    w[rng.permutation(m)[:zero_rows]] = 0.0
    return new_dataset(X, y, w)


@settings(max_examples=200, deadline=None)
@given(seeded_datasets())
def test_table_matches_per_subset_lstsq(data):
    values = r2_value_table(data).values
    assert values[0] == 0.0
    assert np.max(np.abs(values - r2_table_by_lstsq(data))) <= 1e-12


def test_scaling_a_column_moves_no_value(rng):
    # Units must not matter. Solving for the coefficients keeps this
    # within rounding; reading the fit off the SVD's U (U U^T r_y) does
    # not, since U's direction for the tiny column is only accurate
    # relative to that column's size.
    X = rng.normal(size=(500, 8))
    X[:, 7] = X[:, 0]
    y = X @ rng.normal(size=8) + 0.1 * rng.normal(size=500)
    w = rng.uniform(0.1, 1.0, size=500)
    base = r2_value_table(new_dataset(X, y, w)).values
    for f in range(7):
        scaled = X.copy()
        scaled[:, f] *= 1e-6
        data = new_dataset(scaled, y, w)
        values = r2_value_table(data).values
        assert np.max(np.abs(values - base)) <= 1e-12
        assert np.max(np.abs(values - r2_table_by_lstsq(data))) <= 1e-12


def test_column_units_move_no_value(rng):
    # The dependency rule compares a column's residual with that
    # column's own norm, so a column measured in tiny or huge units is
    # neither dropped nor kept differently. A cutoff relative to the
    # largest singular value of the subset's design drops a column
    # scaled by 1e-12 and moves values by about 0.26.
    X = rng.normal(size=(300, 10))
    X[:, 9] = X[:, 2]
    y = X @ rng.normal(size=10) + 0.3 * rng.normal(size=300)
    w = rng.uniform(0.1, 1.0, size=300)
    base = r2_value_table(new_dataset(X, y, w)).values
    for f in range(10):
        for k in (-12, -9, -6, 3, 6):
            scaled = X.copy()
            scaled[:, f] *= 10.0**k
            values = r2_value_table(new_dataset(scaled, y, w)).values
            assert np.max(np.abs(values - base)) <= 1e-12, (f, k)
    # Nor do units whose squares, or weights whose sum, leave the float range.
    for k in (-200, 200):
        values = r2_value_table(new_dataset(X * 10.0**k, y * 10.0**k, w)).values
        assert np.max(np.abs(values - base)) <= 1e-12, k
    values = r2_value_table(new_dataset(X, y, w * 1e307)).values
    assert np.max(np.abs(values - base)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.7976931348623157e308), min_size=1, max_size=5))
@example([1.0, 2.225073858507201e-308])
def test_weights_are_their_share_of_the_sum_bit_for_bit(weights):
    # A power-of-two rescale would round a weight it pushes below the
    # normal range (the example's second share would lose its last bit),
    # so it is kept for sums past the float range.
    w = np.array(weights)
    X, y = np.ones((w.size, 1)), np.ones(w.size)
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if total == 0:
        with pytest.raises(DegenerateInputError):
            new_dataset(X, y, w)
        return
    got = new_dataset(X, y, w).w
    if np.isfinite(total):
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in (w / total).tolist()]
    else:
        assert abs(float(got.sum()) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [15, 16, 17])
def test_split_blocks_stitch_into_one_table(n):
    # Past _BLOCK_FEATURES the top features are walked first and each of
    # their subsets fills its own block, which the hypothesis test at
    # n <= 6 never reaches. The last column duplicates the first, so a
    # dependency spans the split.
    rng = np.random.default_rng(n)
    X = rng.normal(size=(200, n))
    X[:, -1] = X[:, 0]
    y = X @ rng.normal(size=n) + rng.normal(size=200)
    data = new_dataset(X, y, rng.uniform(0.1, 1.0, size=200))
    values = r2_value_table(data).values
    low = dataset_eval._BLOCK_FEATURES
    assert n > low
    edges = np.arange(1 << (n - low)) << low
    masks = {1 << f for f in range(n)} | {(1 << n) - 1}
    masks |= {int(m) for m in edges[1:]} | {int(m) for m in edges[1:] - 1}
    masks |= {int(m) for m in rng.integers(1, 1 << n, size=200)}
    assert values[0] == 0.0
    for mask in sorted(masks):
        assert abs(values[mask] - r2_by_lstsq(data, mask)) <= 1e-12, mask
