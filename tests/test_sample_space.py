"""Instance-weighted spaces and local-global consistency."""

import json

import numpy as np
import pytest

from sepsets import (
    DegenerateInputError,
    ScoreMethod,
    TableError,
    Tolerance,
    ValueTable,
    check_importance_consistency,
    check_value_consistency,
    duplicate_space,
    global_table,
    new_sample_space,
    score_vector,
    space_from_dict,
    space_to_dict,
)

from conftest import random_table

TOL = Tolerance(1e-9)


def test_weights_normalize():
    t = ValueTable(1, [0.0, 1.0])
    space = new_sample_space([(2.0, t), (6.0, t)])
    assert np.allclose(space.weights, [0.25, 0.75])


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
    per = [score_vector(ScoreMethod.MCI, t).scores[0] for t in space.tables]
    assert abs(pooled - 0.5 * sum(per)) == pytest.approx(0.5)


def test_duplicate_space_is_trivially_consistent(rng):
    table = random_table(rng, 4)
    space = duplicate_space(table, 5)
    assert len(space.instances) == 5
    for method in (ScoreMethod.MCI, ScoreMethod.SHAPLEY):
        assert check_importance_consistency(space, method, TOL).passed


def test_space_dict_roundtrip(rng):
    space = new_sample_space(
        [(0.25, random_table(rng, 2)), (0.75, random_table(rng, 2))]
    )
    payload = space_to_dict(space)
    back = space_from_dict(json.loads(json.dumps(payload)))
    assert np.allclose(back.weights, space.weights)
    for a, b in zip(back.tables, space.tables):
        assert np.array_equal(a.values, b.values)
