"""Scoring rules against brute-force oracles."""

import itertools
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsets import (
    ALL_METHODS,
    ImportanceVector,
    Partition,
    ScoreMethod,
    TableError,
    ValueTable,
    check_linearity,
    grouped_score_vector,
    mix,
    restricted_score,
    restricted_vector,
    score,
    score_vector,
    shapley_weights,
)
from sepsets.subset_algebra import popcount_table

from conftest import random_table, seeded_table


def shapley_by_permutations(table, f):
    """Average marginal over every arrival order. Exponential, n <= 6."""
    n = table.n
    total = Fraction(0)
    for order in itertools.permutations(range(n)):
        before = 0
        for g in order:
            if g == f:
                break
            before |= 1 << g
        total += Fraction(table.values[before | (1 << f)] - table.values[before])
    return float(total / factorial(n))


def mci_by_enumeration(table, f):
    """Max marginal and its first attaining context, scanned ascending."""
    best, best_mask = -np.inf, None
    for s in range(1 << table.n):
        if (s >> f) & 1:
            continue
        diff = float(table.values[s | (1 << f)] - table.values[s])
        if diff > best:
            best, best_mask = diff, s
    return best, best_mask


def score_vector_by_gather(method, table):
    """The mask-and-filter route that score_vector replaced, kept as its reference.

    Returns the scores and, for MCI, the witness contexts.
    """
    n, v, full = table.n, table.values, table.full_mask
    masks = np.arange(1 << n, dtype=np.int64)
    pop, weights = popcount_table(n), shapley_weights(n)
    scores, witnesses = np.empty(n), []
    for f in range(n):
        bit = 1 << f
        if method is ScoreMethod.BIVARIATE:
            scores[f] = v[bit]
            continue
        if method is ScoreMethod.ABLATION:
            scores[f] = v[full] - v[full ^ bit]
            continue
        sub = masks[(masks >> f) & 1 == 0]
        diffs = v[sub | bit] - v[sub]
        if method is ScoreMethod.SHAPLEY:
            scores[f] = weights[pop[sub]] @ diffs
        else:
            best = int(np.argmax(diffs))
            scores[f] = diffs[best]
            witnesses.append(int(sub[best]))
    return scores, tuple(witnesses) if method is ScoreMethod.MCI else None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_score_vector_is_byte_identical_to_gather_route(n, seed, integers):
    table = seeded_table(n, seed, integers)
    for method in ALL_METHODS:
        vec = score_vector(method, table)
        scores, witnesses = score_vector_by_gather(method, table)
        assert vec.scores.tobytes() == scores.tobytes()
        assert vec.witnesses == witnesses


def test_shapley_matches_permutation_oracle(rng):
    for n in range(1, 6):
        table = random_table(rng, n, zero_empty=False)
        vec = score_vector(ScoreMethod.SHAPLEY, table).scores
        for f in range(n):
            assert vec[f] == pytest.approx(shapley_by_permutations(table, f), abs=1e-12)


def test_shapley_weights_sum_to_one_exactly():
    for n in range(1, 21):
        total = sum(
            comb(n - 1, k) * Fraction(factorial(k) * factorial(n - 1 - k), factorial(n))
            for k in range(n)
        )
        assert total == 1
        w = shapley_weights(n)
        assert w.shape == (n,)
        assert np.all(w > 0)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_shapley_efficiency(n, seed):
    table = random_table(np.random.default_rng(seed), n, zero_empty=False)
    total = float(np.sum(score_vector(ScoreMethod.SHAPLEY, table).scores))
    spread = float(table.values[-1] - table.values[0])
    assert total == pytest.approx(spread, abs=1e-9)


def test_mci_matches_enumeration_and_witness_rule(rng):
    for n in range(1, 7):
        table = random_table(rng, n)
        vec = score_vector(ScoreMethod.MCI, table)
        for f in range(n):
            best, best_mask = mci_by_enumeration(table, f)
            assert vec.scores[f] == pytest.approx(best, abs=0)
            assert vec.witnesses[f] == best_mask


def test_mci_witness_replays_to_score(rng):
    table = random_table(rng, 6)
    vec = score_vector(ScoreMethod.MCI, table)
    for f, w in enumerate(vec.witnesses):
        assert (w >> f) & 1 == 0
        replay = table.values[w | (1 << f)] - table.values[w]
        assert float(replay) == float(vec.scores[f])


def test_mci_witness_prefers_lowest_mask_on_ties():
    # Every marginal of feature 0 equals 1, so the empty context wins.
    table = ValueTable(2, [0.0, 1.0, 0.5, 1.5])
    vec = score_vector(ScoreMethod.MCI, table)
    assert vec.scores[0] == 1.0
    assert vec.witnesses[0] == 0


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mci_dominates_the_other_rules(n, seed):
    table = random_table(np.random.default_rng(seed), n, zero_empty=False)
    mci = score_vector(ScoreMethod.MCI, table).scores
    for method in (ScoreMethod.BIVARIATE, ScoreMethod.ABLATION, ScoreMethod.SHAPLEY):
        other = score_vector(method, table).scores
        # Bivariate reads v({f}) - 0; with a nonzero empty set it is not
        # a marginal, so anchor the comparison at the true marginals.
        if method is ScoreMethod.BIVARIATE:
            other = other - float(table.values[0])
        assert np.all(mci >= other - 1e-12)


def test_bivariate_and_ablation_read_directly(toy_table):
    assert np.allclose(
        score_vector(ScoreMethod.BIVARIATE, toy_table).scores, [0.5, 0.5, 1 / 3]
    )
    assert np.allclose(
        score_vector(ScoreMethod.ABLATION, toy_table).scores, [0.0, 0.0, 1 / 3]
    )
    assert np.allclose(
        score_vector(ScoreMethod.SHAPLEY, toy_table).scores, [0.25, 0.25, 1 / 3]
    )
    assert np.allclose(score_vector(ScoreMethod.MCI, toy_table).scores, [0.5, 0.5, 1 / 3])


def test_score_agrees_with_score_vector(rng):
    table = random_table(rng, 5)
    for method in ALL_METHODS:
        vec = score_vector(method, table).scores
        for f in range(5):
            assert score(method, table, f) == float(vec[f])


def test_score_validates_feature_index(toy_table):
    with pytest.raises(TableError):
        score(ScoreMethod.MCI, toy_table, 3)


def test_method_parsing():
    assert ScoreMethod.parse("shapley") is ScoreMethod.SHAPLEY
    assert ScoreMethod.parse("MCI") is ScoreMethod.MCI
    with pytest.raises(TableError):
        ScoreMethod.parse("entropy")


def test_importance_vector_witness_contract():
    with pytest.raises(TableError):
        ImportanceVector(ScoreMethod.MCI, np.zeros(2), None)
    with pytest.raises(TableError):
        ImportanceVector(ScoreMethod.SHAPLEY, np.zeros(2), (0, 0))
    with pytest.raises(TableError):
        # Witness context must exclude its own feature.
        ImportanceVector(ScoreMethod.MCI, np.zeros(2), (1, 0))


def test_restricted_vector_on_toy(toy_table):
    pair = restricted_vector(ScoreMethod.BIVARIATE, toy_table, 0b011)
    assert np.allclose(pair, [0.5, 0.5, 0.0])
    solo = restricted_vector(ScoreMethod.MCI, toy_table, 0b100)
    assert np.allclose(solo, [0.0, 0.0, 1 / 3])
    assert np.array_equal(restricted_vector(ScoreMethod.MCI, toy_table, 0), np.zeros(3))
    full = restricted_vector(ScoreMethod.SHAPLEY, toy_table, 0b111)
    assert np.allclose(full, [0.25, 0.25, 1 / 3])


def test_restricted_score_matches_vector(rng, toy_table):
    for method in ALL_METHODS:
        vec = restricted_vector(method, toy_table, 0b101)
        for f in (0, 2):
            assert restricted_score(method, toy_table, 0b101, f) == float(vec[f])
    with pytest.raises(TableError):
        restricted_score(ScoreMethod.MCI, toy_table, 0b101, 1)


def test_grouped_scores_on_toy(toy_table):
    partition = Partition.from_indices(3, [[0, 1], [2]])
    for method in ALL_METHODS:
        grouped = grouped_score_vector(method, toy_table, partition)
        assert np.allclose(grouped, [0.5, 1 / 3], atol=1e-12)


def test_grouped_scores_respect_block_order(toy_table):
    # Output follows the canonical block order (sorted by lowest member).
    partition = Partition.from_indices(3, [[2], [0, 1]])
    grouped = grouped_score_vector(ScoreMethod.BIVARIATE, toy_table, partition)
    assert partition.block_indices() == ((0, 1), (2,))
    assert np.allclose(grouped, [0.5, 1 / 3])


def test_grouped_rejects_mismatched_partition(toy_table):
    with pytest.raises(TableError):
        grouped_score_vector(ScoreMethod.MCI, toy_table, Partition.singletons(2))


def test_linearity_exact_for_weighted_average_rules(rng):
    a = random_table(rng, 4)
    b = random_table(rng, 4)
    for method in (ScoreMethod.BIVARIATE, ScoreMethod.ABLATION, ScoreMethod.SHAPLEY):
        report = check_linearity(method, a, b, 0.3)
        assert not report.violated
        assert report.max_deviation <= 1e-12


def test_linearity_violation_for_max_rule():
    a = ValueTable(2, [0.0, 0.0, 1.0, 2.0])
    b = ValueTable(2, [0.0, 1.0, 1.0, 1.0])
    report = check_linearity(ScoreMethod.MCI, a, b, 0.5)
    assert report.violated
    assert report.max_deviation == pytest.approx(0.5, abs=1e-12)
    mixed = mix(a, b, 0.5)
    assert np.allclose(score_vector(ScoreMethod.MCI, mixed).scores, [0.5, 1.0])
    assert np.allclose(report.rhs, [1.0, 1.5])
