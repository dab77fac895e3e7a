"""Instance-weighted spaces and local-global consistency."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepsets import (
    ALL_METHODS,
    DegenerateInputError,
    SampleSpace,
    ScoreMethod,
    TableError,
    Tolerance,
    ValueTable,
    check_importance_consistency,
    check_value_consistency,
    global_table,
    new_sample_space,
    score_vector,
    score_vectors,
    space_from_dict,
    space_to_dict,
)

from sepsets import inputs, sample_space
from sepsets.cli import main
from sepsets.importance import _stack_scores

from conftest import random_table

TOL = Tolerance(1e-9)


def test_weights_normalize():
    t = ValueTable(1, [0.0, 1.0])
    space = new_sample_space([(2.0, t), (6.0, t)])
    assert np.allclose(space.weights, [0.25, 0.75])
    # Weights whose sum overflows the float range normalize too.
    assert new_sample_space([(1e308, t), (1e308, t)]).weights.tolist() == [0.5, 0.5]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.7976931348623157e308), min_size=1, max_size=5))
def test_weights_are_their_share_of_the_sum_bit_for_bit(weights):
    t = ValueTable(1, [0.0, 1.0])
    total = sum(weights)
    if total == 0:
        with pytest.raises(DegenerateInputError):
            new_sample_space([(w, t) for w in weights])
        return
    got = new_sample_space([(w, t) for w in weights]).weights
    if math.isfinite(total):
        assert [x.hex() for x in got.tolist()] == [(w / total).hex() for w in weights]
    else:
        # A sum past the float range is rescaled, not refused.
        assert abs(float(got.sum()) - 1.0) <= 1e-12


@pytest.mark.parametrize("count", [10**5, 3 * 10**5])
def test_many_equal_weights_normalize(count):
    # The k quotients and the k-term sum drift from 1 by more than 1e-12
    # here, within the k * 2^-52 that their roundings allow.
    space = new_sample_space([(1.0, ValueTable(1, [0.0, 1.0]))] * count)
    assert np.all(space.weights == 1 / count)


def test_audit_of_a_space_with_many_instances(capsys, tmp_path):
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"n": 1, "instances": [{"weight": 1, "values": [0, 1]}] * 10**5}))
    assert main(["audit", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_space_arrays_are_read_only(rng):
    space = new_sample_space([(1.0, random_table(rng, 2)), (3.0, random_table(rng, 2))])
    assert space.weights.shape == (2,) and space.values.shape == (2, 4)
    with pytest.raises(ValueError):
        space.weights[0] = 0.5
    with pytest.raises(ValueError):
        space.values[0, 1] = 1.0


def test_constructor_refuses_bad_shapes_and_values():
    with pytest.raises(TableError, match="expected k >= 1 weights"):
        SampleSpace(2, [1.0], np.zeros((1, 3)))
    with pytest.raises(TableError, match="expected k >= 1 weights"):
        SampleSpace(1, [], np.zeros((0, 2)))
    with pytest.raises(TableError, match=r"^instance 1: value tables must be finite"):
        SampleSpace(1, [1.0, 1.0], [[0.0, 1.0], [0.0, math.inf]])
    with pytest.raises(TableError, match=r"^instance 1 has invalid weight -1\.0$"):
        SampleSpace(1, [1.0, -1.0], np.zeros((2, 2)))


def test_reader_names_an_earlier_instance_that_is_not_finite_first():
    # json reads NaN; the earlier instance is reported, as instances are read in order.
    rows = [{"weight": 1, "values": [0, math.nan]}, {"weight": 1, "values": [0, "x"]}]
    with pytest.raises(TableError, match=r"^instance 0: value tables must be finite"):
        space_from_dict({"n": 1, "instances": rows})


def test_reader_holds_no_rows_past_an_instance_of_the_wrong_length():
    payload = {"n": 20, "instances": [{"weight": 1, "values": [0.0]}] * 200}
    tracemalloc.start()
    try:
        with pytest.raises(TableError) as caught:
            space_from_dict(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == "instance 0: expected 1048576 values for n=20, got shape (1,)"
    assert peak < 1 << 20


@pytest.mark.parametrize(
    ("n", "count", "packs"),
    [
        # Instances of 2 values: one pack per run of 2^14 values.
        (1, 10**4, [2**14, 2 * 10**4 - 2**14]),
        # 2^9 values each: 32 instances to a run, so 3 fill one pack.
        (9, 3, [3 * 2**9]),
        # Instances of 2^14 values and more: one pack per instance.
        (14, 2, [2**14] * 2),
    ],
)
def test_space_reader_packs_instances_in_runs(monkeypatch, n, count, packs):
    sizes = []
    original = inputs._json_reals

    def counted(items, what, out):
        sizes.append(len(items))
        return original(items, what, out)

    monkeypatch.setattr(inputs, "_json_reals", counted)
    values = np.arange(count << n, dtype=np.float64).reshape(count, 1 << n)
    rows = [{"weight": 1, "values": v} for v in values.tolist()]
    space = space_from_dict({"n": n, "instances": rows})
    assert sizes == [count, *packs]  # the weights, then the values
    assert space.values.tobytes() == values.tobytes()


@pytest.mark.parametrize(
    ("cells", "packs", "message"),
    [
        # The run of instances 4-7 fails, and only its instances are packed
        # one at a time, up to the one at fault.
        (
            [0.0] * 5 + ["x"] + [0.0] * 4090,
            [2**14, 2**14, 2**12, 2**12, 2**12],
            "instance 6: value at index 5 must be a number, got 'x'",
        ),
        # The run that holds the instance of the wrong length is not packed whole.
        (
            [0.0] * 4095,
            [2**14, 2**12, 2**12, 4095],
            "instance 6: expected 4096 values for n=12, got shape (4095,)",
        ),
    ],
    ids=["string", "short"],
)
def test_space_reader_walks_only_the_run_at_fault(monkeypatch, cells, packs, message):
    sizes = []
    original = inputs._json_reals

    def counted(items, what, out):
        sizes.append(len(items))
        return original(items, what, out)

    monkeypatch.setattr(inputs, "_json_reals", counted)
    # Instances of 2^12 values: 4 to a run.
    rows = [{"weight": 1, "values": [0.0] * 4096} for _ in range(10)]
    rows[6]["values"] = cells
    with pytest.raises(TableError) as caught:
        space_from_dict({"n": 12, "instances": rows})
    assert (sizes, str(caught.value)) == ([10, *packs], message)


def test_mean_scores_read_the_stack_without_copying_it():
    rng = np.random.default_rng(0)
    space = SampleSpace(16, rng.uniform(0.1, 2.0, 64), rng.normal(size=(64, 1 << 16)))
    tracemalloc.start()
    try:
        sample_space._mean_scores(space, ALL_METHODS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The stack is built before tracing starts. Scoring a group of 16 rows
    # allocates about 8.4 MiB; a copy of the group would add 8 MiB more.
    assert peak < 12 * 2**20


def test_zero_total_weight_is_degenerate():
    t = ValueTable(1, [0.0, 1.0])
    with pytest.raises(DegenerateInputError):
        new_sample_space([(0.0, t), (0.0, t)])


def test_mismatched_widths_rejected():
    with pytest.raises(TableError):
        new_sample_space(
            [(1.0, ValueTable(1, [0.0, 1.0])), (1.0, ValueTable(2, np.zeros(4)))]
        )


def test_global_table_is_weighted_mean(rng):
    tables = [random_table(rng, 3, zero_empty=False) for _ in range(4)]
    weights = [1.0, 2.0, 3.0, 4.0]
    space = new_sample_space(list(zip(weights, tables)))
    mean = global_table(space)
    expected = sum(
        w * t.values for w, t in zip(np.array(weights) / 10.0, tables)
    )
    assert np.allclose(mean.values, expected, atol=1e-12)


def _loop_global_table(space):
    """The weighted mean as a loop over the instances adds it: the reference
    for the bits of ``global_table``."""
    acc = np.zeros(1 << space.n)
    for w, row in zip(space.weights.tolist(), space.values):
        acc += w * row
    return acc


@pytest.mark.parametrize(
    ("k", "n", "group"),
    # group patches _GROUP_ENTRIES: None keeps its 2^20 entries.
    [
        (1, 1, None), (7, 3, 16), (5, 6, 32), (100, 8, None), (1000, 4, 64),
        (300, 12, 1 << 14), (10**5, 1, None),
    ],
)
def test_global_table_adds_the_rows_in_instance_order(monkeypatch, k, n, group):
    if group is not None:
        monkeypatch.setattr(sample_space, "_GROUP_ENTRIES", group)
    rng = np.random.default_rng(k + n)
    values = rng.normal(size=(k, 1 << n)) * 10.0 ** rng.integers(-8, 8, size=(k, 1))
    weights = rng.uniform(0, 1, size=k) * (rng.uniform(size=k) < 0.9)
    space = SampleSpace(n, weights, values)
    assert global_table(space).values.tobytes() == _loop_global_table(space).tobytes()


def test_value_consistency_against_computed_mean(rng):
    space = new_sample_space([(1.0, random_table(rng, 3)), (1.0, random_table(rng, 3))])
    report = check_value_consistency(space, global_table(space), TOL)
    assert report.passed and report.residual <= 1e-15


def test_value_consistency_flags_corrupted_claim(rng):
    space = new_sample_space([(1.0, random_table(rng, 3)), (1.0, random_table(rng, 3))])
    mean = global_table(space)
    claim = ValueTable(3, np.asarray(mean.values) + 0.25)
    report = check_value_consistency(space, claim, TOL)
    assert not report.passed
    assert report.residual == pytest.approx(0.25)
    assert report.witness is not None


def test_linear_rules_are_consistent_everywhere(rng):
    for _ in range(10):
        n = int(rng.integers(1, 6))
        space = new_sample_space(
            [(float(rng.uniform(0.1, 1.0)), random_table(rng, n)) for _ in range(4)]
        )
        for method in (ScoreMethod.BIVARIATE, ScoreMethod.ABLATION, ScoreMethod.SHAPLEY):
            report = check_importance_consistency(space, method, TOL)
            assert report.passed
            assert report.residual <= 1e-12


def test_max_rule_breaks_consistency_on_known_pair():
    first = ValueTable(2, [0.0, 0.0, 1.0, 2.0])
    second = ValueTable(2, [0.0, 1.0, 1.0, 1.0])
    space = new_sample_space([(0.5, first), (0.5, second)])
    report = check_importance_consistency(space, ScoreMethod.MCI, TOL)
    assert not report.passed
    assert report.residual == pytest.approx(0.5)
    assert report.witness.feature == 0
    # Replay the witness: pooled score vs pooled per-instance scores.
    pooled = score_vector(ScoreMethod.MCI, global_table(space)).scores[0]
    per = [score_vector(ScoreMethod.MCI, ValueTable(2, v)).scores[0] for v in space.values]
    assert abs(pooled - 0.5 * sum(per)) == pytest.approx(0.5)


def test_duplicate_space_is_trivially_consistent(rng):
    table = random_table(rng, 4)
    space = new_sample_space([(1.0, table)] * 5)
    assert len(space.weights) == 5
    for method in (ScoreMethod.MCI, ScoreMethod.SHAPLEY):
        assert check_importance_consistency(space, method, TOL).passed


def test_space_dict_roundtrip(rng):
    space = new_sample_space(
        [(0.25, random_table(rng, 2)), (0.75, random_table(rng, 2))]
    )
    payload = space_to_dict(space)
    back = space_from_dict(json.loads(json.dumps(payload)))
    assert np.allclose(back.weights, space.weights)
    for a, b in zip(back.values, space.values):
        assert np.array_equal(a, b)


def _instance_table(rng, n, kind):
    """A random, small-integer, 1e8-scaled or all-zero table; a fifth of its
    entries, or all of them, are zeros of either sign."""
    if kind == "zeros":
        values = np.zeros(1 << n)
    elif kind == "integers":
        values = rng.integers(-3, 4, 1 << n).astype(np.float64)
    else:
        values = rng.normal(size=1 << n) * (1e8 if kind == "scaled" else 1.0)
    values[rng.random(1 << n) < 0.2] = 0.0
    zeros = values == 0
    values[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
    return ValueTable(n, values)


def _hex(values):
    return [float(x).hex() for x in values]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 15),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "integers", "scaled", "zeros", "zero-weights"]),
)
@example(15, 40, 0, "random")
@example(15, 33, 1, "integers")
@example(15, 40, 2, "scaled")
@example(3, 6, 0, "zeros")
@example(3, 7, 0, "zero-weights")
def test_instances_scored_together_match_one_at_a_time(n, count, seed, kind):
    # At n=15 a feature has 2^14 contexts, two Shapley dot runs, and a group
    # holds 32 instances, so 33 to 40 instances make two groups. All-zero
    # tables give score rows of -0.0; "zero-weights" weighs every instance
    # at an odd index 0 and scores random tables.
    rng = np.random.default_rng(seed)
    pairs = [(float(rng.uniform(0.1, 2.0)), _instance_table(rng, n, kind)) for _ in range(count)]
    if kind == "zero-weights":
        pairs = [(w * (i % 2 == 0), t) for i, (w, t) in enumerate(pairs)]
    space = new_sample_space(pairs)
    expected = {m: np.zeros(n) for m in ALL_METHODS}
    tables = [ValueTable(n, v) for v in space.values]
    for w, t in zip(space.weights, tables):
        vectors = score_vectors(ALL_METHODS, t)
        for m in ALL_METHODS:
            expected[m] += w * vectors[m].scores
    got = sample_space._mean_scores(space, ALL_METHODS)
    for m in ALL_METHODS:
        assert _hex(got[m]) == _hex(expected[m])
    # Each instance's own scores and witnesses. In an all-zero table every
    # marginal is a signed zero, and MCI reads the sign of the first.
    columns = _stack_scores(ALL_METHODS, space.values, n)
    for row, t in enumerate(tables):
        for m, vector in score_vectors(ALL_METHODS, t).items():
            scores, witnesses = columns[m]
            assert _hex(scores[row]) == _hex(vector.scores)
            assert witnesses is None or tuple(witnesses[row].tolist()) == vector.witnesses
