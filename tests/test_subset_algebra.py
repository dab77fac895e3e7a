"""Tables, transforms, and mask helpers."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsets import (
    CapExceededError,
    MobiusTable,
    TableError,
    Tolerance,
    ValueTable,
    eliminate,
    indices_of,
    mask_of,
    mix,
    mobius_transform,
    table_from_dict,
    table_to_dict,
    zeta_transform,
)
from sepsets.subset_algebra import _marginals, popcount_table

from conftest import random_table
from exact import mobius_exact, zeta_exact


def mobius_by_inclusion_exclusion(values, n):
    """Signed-sum oracle, quadratic in table size."""
    out = np.zeros(1 << n)
    for s in range(1 << n):
        total = 0.0
        t = s
        while True:
            sign = (-1) ** (bin(s ^ t).count("1"))
            total += sign * values[t]
            if t == 0:
                break
            t = (t - 1) & s
        out[s] = total
    return out


def test_mobius_matches_inclusion_exclusion_oracle(rng):
    for n in range(1, 7):
        table = random_table(rng, n, zero_empty=False)
        expected = mobius_by_inclusion_exclusion(table.values, n)
        got = mobius_transform(table).dividends
        assert np.allclose(got, expected, atol=1e-10)


def test_zeta_is_subset_sum_oracle(rng):
    n = 5
    dividends = rng.normal(0.0, 1.0, 1 << n)
    table = zeta_transform(MobiusTable(n, dividends))
    for s in range(1 << n):
        total = sum(dividends[t] for t in range(1 << n) if t & s == t)
        assert table.values[s] == pytest.approx(total, abs=1e-10)


def test_toy_table_dividends(toy_table):
    got = mobius_transform(toy_table).dividends
    expected = [0.0, 0.5, 0.5, -0.5, 1 / 3, 0.0, 0.0, 0.0]
    assert np.max(np.abs(got - np.array(expected))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_roundtrip_recovers_table(n, seed):
    rng = np.random.default_rng(seed)
    table = random_table(rng, n, zero_empty=False, scale=10.0)
    back = zeta_transform(mobius_transform(table))
    bound = 1e-12 * max(1.0, float(np.max(np.abs(table.values))))
    assert np.max(np.abs(back.values - table.values)) <= bound


def _exact_check_table(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(size=1 << n)
    if kind == "additive":  # singleton dividends only, before rounding
        members = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        return members @ rng.normal(size=n)
    return rng.integers(-3, 4, 1 << n).astype(np.float64)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["random", "additive", "small-integer"]),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=-3, max_value=11),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mobius_within_the_rounding_bound_of_the_exact_dividends(kind, n, k, seed):
    # Each dividend is a signed sum of at most 2^n stored values, formed
    # in n passes, so its rounding error is at most 2·n·u times the
    # subset sum of |v| (Higham, ch. 4), with u = 2^-53.
    values = _exact_check_table(kind, n, seed) * 10.0**k
    got = mobius_transform(ValueTable(n, values)).dividends
    zeta_abs = zeta_transform(MobiusTable(n, np.abs(values))).values
    bound = 2 * n * 2.0**-53 * zeta_abs
    for mask, exact in enumerate(mobius_exact(values)):
        assert abs(Fraction(float(got[mask])) - exact) <= Fraction(float(bound[mask])), mask


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["random", "additive", "small-integer"]),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=-3, max_value=11),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_zeta_within_the_rounding_bound_of_the_exact_subset_sums(kind, n, k, seed):
    # Each subset sum adds at most 2^n stored dividends in n passes, so its
    # rounding error is at most 2·n·u times the subset sum of |d|, as for
    # the Moebius transform, with u = 2^-53.
    dividends = _exact_check_table(kind, n, seed) * 10.0**k
    got = zeta_transform(MobiusTable(n, dividends)).values
    bound = 2 * n * 2.0**-53 * zeta_transform(MobiusTable(n, np.abs(dividends))).values
    for mask, exact in enumerate(zeta_exact(dividends)):
        assert abs(Fraction(float(got[mask])) - exact) <= Fraction(float(bound[mask])), mask


def test_eliminate_toy_middle_feature(toy_table):
    restricted, kept = eliminate(toy_table, 0b010)
    assert kept == (0, 2)
    assert np.allclose(restricted.values, [0.0, 0.5, 1 / 3, 5 / 6])


def test_eliminate_nothing_is_identity(toy_table):
    restricted, kept = eliminate(toy_table, 0)
    assert kept == (0, 1, 2)
    assert np.array_equal(restricted.values, toy_table.values)


def test_eliminate_everything_is_an_error(toy_table):
    with pytest.raises(TableError):
        eliminate(toy_table, toy_table.full_mask)


def test_eliminate_is_value_restriction(rng):
    # The surviving table evaluates survivors-only masks of the original.
    table = random_table(rng, 5)
    restricted, kept = eliminate(table, 0b01010)
    for sub in range(1 << len(kept)):
        original = sum(1 << kept[j] for j in range(len(kept)) if (sub >> j) & 1)
        assert restricted.values[sub] == table.values[original]


def eliminate_by_gather(table, drop):
    """The mask-gather restriction eliminate replaced, kept as its reference."""
    kept = tuple(i for i in range(table.n) if not (drop >> i) & 1)
    sub = np.arange(1 << len(kept), dtype=np.int64)
    orig = np.zeros_like(sub)
    for new_bit, old_bit in enumerate(kept):
        orig |= ((sub >> new_bit) & 1) << old_bit
    return table.values[orig], kept


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**10 - 1),
)
def test_eliminate_matches_gather_exactly(n, seed, drop):
    table = random_table(np.random.default_rng(seed), n, zero_empty=False)
    drop &= table.full_mask
    if drop == table.full_mask:
        drop = 0
    restricted, kept = eliminate(table, drop)
    values, expected_kept = eliminate_by_gather(table, drop)
    assert kept == expected_kept
    assert restricted.values.tobytes() == values.tobytes()


def test_mask_helpers_roundtrip():
    assert mask_of([0, 3], 5) == 0b01001
    assert indices_of(0b01001) == (0, 3)
    assert mask_of([], 3) == 0
    with pytest.raises(TableError):
        mask_of([5], 5)
    with pytest.raises(TableError):
        mask_of([-1], 5)


def test_popcount_table_small_oracle():
    pop = popcount_table(4)
    assert [int(x) for x in pop] == [bin(m).count("1") for m in range(16)]


def test_mix_endpoints_and_midpoint():
    a = ValueTable(2, [0.0, 0.0, 1.0, 2.0])
    b = ValueTable(2, [0.0, 1.0, 1.0, 1.0])
    assert np.array_equal(mix(a, b, 1.0).values, a.values)
    assert np.array_equal(mix(a, b, 0.0).values, b.values)
    assert np.allclose(mix(a, b, 0.5).values, [0.0, 0.5, 1.0, 1.5])


def test_mix_validates_inputs():
    a = ValueTable(2, [0.0, 0.0, 1.0, 2.0])
    b = ValueTable(3, np.zeros(8))
    with pytest.raises(TableError):
        mix(a, b, 0.5)
    with pytest.raises(TableError):
        mix(a, a, 1.5)
    with pytest.raises(TableError):
        mix(a, a, float("nan"))


def test_table_validation_errors():
    with pytest.raises(TableError):
        ValueTable(2, [0.0, 1.0, 2.0])  # wrong length
    with pytest.raises(TableError):
        ValueTable(1, [0.0, float("inf")])
    with pytest.raises(TableError):
        ValueTable(0, [0.0])
    # The cap is checked before the values, so their count does not matter.
    for n, values in [(21, np.zeros(1 << 21)), (25, np.zeros(4))]:
        for kind in (ValueTable, MobiusTable):
            with pytest.raises(CapExceededError, match=f"^n={n} exceeds the cap of 20 features$"):
                kind(n, values)
    assert ValueTable(20, np.zeros(1 << 20)).n == 20


def test_values_are_frozen(toy_table):
    with pytest.raises(ValueError):
        toy_table.values[0] = 1.0


def test_transforms_return_frozen_arrays_and_constructors_copy(rng):
    values = rng.normal(size=8)
    table = ValueTable(3, values)
    dividends = MobiusTable(3, values)
    values[0] = 7.0
    assert table.values[0] != 7.0 and dividends.dividends[0] != 7.0
    for array in (mobius_transform(table).dividends, zeta_transform(dividends).values):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_zeta_overflow_is_a_table_error():
    with np.errstate(over="ignore"):
        with pytest.raises(TableError, match="^value tables must be finite"):
            zeta_transform(MobiusTable(1, [1e308, 1e308]))


def test_mobius_transform_holds_one_copy_of_the_table(rng):
    n = 16
    table = random_table(rng, n, zero_empty=False)
    tracemalloc.start()
    try:
        mobius_transform(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (8 << n)


def test_tolerance_contract():
    tol = Tolerance(1e-6)
    assert tol.within(5e-7)
    assert tol.within(-5e-7)
    assert not tol.within(2e-6)
    with pytest.raises(TableError):
        Tolerance(0.0)
    with pytest.raises(TableError):
        Tolerance(float("nan"))


def test_dict_roundtrip_is_byte_stable(toy_table):
    payload = table_to_dict(toy_table)
    first = json.dumps(payload, sort_keys=True)
    again = table_to_dict(table_from_dict(json.loads(first)))
    assert json.dumps(again, sort_keys=True) == first


def test_table_from_dict_validates():
    with pytest.raises(TableError):
        table_from_dict({"n": 2})
    with pytest.raises(TableError):
        table_from_dict({"n": 2, "values": [0.0, 1.0]})


@pytest.mark.parametrize("n", [*range(1, 13), 16])
def test_marginals_are_the_plain_difference_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for shape in [(1 << n,), (3, 1 << n)]:
        values = rng.normal(size=shape)
        values[..., ::5] = -0.0
        lead = shape[:-1]
        for f in range(n):
            runs = values.reshape(lead + (1 << (n - 1 - f), 2, 1 << f))
            plain = (runs[..., 1, :] - runs[..., 0, :]).reshape(lead + (-1,))
            assert _marginals(values, n, f).tobytes() == plain.tobytes()
