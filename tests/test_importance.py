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
    score,
    score_vector,
    score_vectors,
    shapley_weights,
)
from sepsets import importance
from sepsets.subset_algebra import popcount_table

from conftest import random_table, seeded_table
from exact import linear_scores_exact, mci_exact


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
            scores[f] = np.sum(weights[pop[sub]] * diffs)
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


def test_shapley_weights_are_one_shared_read_only_array():
    weights = shapley_weights(9)
    assert shapley_weights(9) is weights
    assert not weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        weights[0] = 1.0
    assert shapley_weights(9)[0] == float(Fraction(factorial(8), factorial(9)))


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
        assert report.passed
        assert report.residual <= 1e-12


def test_linearity_violation_for_max_rule():
    a = ValueTable(2, [0.0, 0.0, 1.0, 2.0])
    b = ValueTable(2, [0.0, 1.0, 1.0, 1.0])
    report = check_linearity(ScoreMethod.MCI, a, b, 0.5)
    assert not report.passed
    assert report.residual == pytest.approx(0.5, abs=1e-12)
    mixed = mix(a, b, 0.5)
    assert np.allclose(score_vector(ScoreMethod.MCI, mixed).scores, [0.5, 1.0])
    mean_of_scores = (
        0.5 * score_vector(ScoreMethod.MCI, a).scores + 0.5 * score_vector(ScoreMethod.MCI, b).scores
    )
    assert np.allclose(mean_of_scores, [1.0, 1.5])
    assert report.witness.rhs == 1.0


_LINEAR = (ScoreMethod.BIVARIATE, ScoreMethod.ABLATION, ScoreMethod.SHAPLEY)
_U = Fraction(2**-53)
_EXACT_CHECK = st.tuples(
    st.sampled_from(["random", "small-integer"]),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=-3, max_value=11),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def _scaled_table(kind, n, k, seed):
    """A random or small-integer table of 2^n values, times 10^k."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        values = rng.normal(size=1 << n)
    else:
        values = rng.integers(-3, 4, 1 << n).astype(np.float64)
    return values * 10.0**k


@settings(max_examples=60, deadline=None)
@given(_EXACT_CHECK)
def test_bivariate_and_ablation_scores_are_the_exact_ones_rounded_at_most_once(case):
    # Bivariate reads a stored entry, so it is exact. Ablation subtracts two
    # stored entries, one rounding: within u·|exact|, with u = 2^-53.
    values = _scaled_table(*case)
    vectors = score_vectors(_LINEAR, ValueTable(case[1], values))
    exact = linear_scores_exact(values)
    bivariate = vectors[ScoreMethod.BIVARIATE].scores.tolist()
    assert [Fraction(x) for x in bivariate] == exact["bivariate"]
    for got, want in zip(vectors[ScoreMethod.ABLATION].scores.tolist(), exact["ablation"]):
        assert abs(Fraction(got) - want) <= _U * abs(want)


@settings(max_examples=60, deadline=None)
@given(_EXACT_CHECK)
def test_shapley_within_its_rounding_bound_of_the_exact_dividend_shares(case):
    # Shapley sums m = 2^(n-1) terms w_c·(v(c ∪ f) - v(c)) over the contexts
    # c of f. Each weight and each marginal is rounded once, and so is each
    # product: within γ_3 of its exact term. Summing the m terms in any
    # order adds γ_(m-1) of the sum of their magnitudes. So the score lies
    # within γ_(m+2) <= 2·(m + 2)·u of Σ_c w_c·|v(c ∪ f) - v(c)| of the
    # exact score, the sum of d(W)/|W| over the W that contain f.
    n = case[1]
    values = _scaled_table(*case)
    got = score_vectors(_LINEAR, ValueTable(n, values))[ScoreMethod.SHAPLEY].scores.tolist()
    stored = [Fraction(v) for v in values.tolist()]
    weights = [Fraction(factorial(k) * factorial(n - 1 - k), factorial(n)) for k in range(n)]
    m = 1 << (n - 1)
    for f, want in enumerate(linear_scores_exact(values)["shapley"]):
        contexts = [c for c in range(1 << n) if not c >> f & 1]
        spread = sum(
            weights[bin(c).count("1")] * abs(stored[c | 1 << f] - stored[c]) for c in contexts
        )
        assert abs(Fraction(got[f]) - want) <= 2 * (m + 2) * _U * spread, f


def _gamma(k):
    """Higham's γ_k = k·u / (1 - k·u), with u = 2^-53."""
    return k * _U / (1 - k * _U)


@settings(max_examples=60, deadline=None)
@given(_EXACT_CHECK)
def test_shapley_within_the_bound_of_numpys_pairwise_order(case):
    # At n <= 8 a feature has m = 2^(n-1) <= 128 contexts, so each score is
    # one run of the reduction: numpy's pairwise sum of the m products
    # t_c = w_c·(v(c ∪ f) - v(c)), added to 0. Below 8 terms it adds them in
    # a row, so a term meets at most m - 1 additions. From 8 to 128 terms,
    # and m is then a multiple of 8, it keeps 8 running sums of every 8th
    # term, m/8 - 1 additions each, then adds the 8 sums pairwise in 3
    # levels: m/8 + 2 additions. Each term is within γ_3 of its exact value
    # (a rounded weight, marginal and product), and d additions add γ_d of
    # the sum of the terms' magnitudes (Higham, ch. 4). So the score lies
    # within γ_(d+3) of Σ_c w_c·|v(c ∪ f) - v(c)| of the exact one: at
    # m = 128 that is γ_21, where any order allows γ_130.
    n = case[1]
    values = _scaled_table(*case)
    got = score_vectors(_LINEAR, ValueTable(n, values))[ScoreMethod.SHAPLEY].scores.tolist()
    stored = [Fraction(v) for v in values.tolist()]
    weights = [Fraction(factorial(k) * factorial(n - 1 - k), factorial(n)) for k in range(n)]
    m = 1 << (n - 1)
    additions = m - 1 if m < 8 else m // 8 + 2
    for f, want in enumerate(linear_scores_exact(values)["shapley"]):
        contexts = [c for c in range(1 << n) if not c >> f & 1]
        spread = sum(
            weights[bin(c).count("1")] * abs(stored[c | 1 << f] - stored[c]) for c in contexts
        )
        assert abs(Fraction(got[f]) - want) <= _gamma(additions + 3) * spread, f


def _run_by_run_row_sums(diffs, weights):
    """The Shapley reduction one run at a time: each run of 2^13 products
    summed pairwise, and the run sums added to each row from 0.0."""
    width = min(diffs.shape[1], 1 << 13)
    rows = (1 << 13) // width
    sums, scratch = np.zeros(len(diffs)), np.empty((rows, width))
    for r in range(0, len(diffs), rows):
        for c in range(0, diffs.shape[1], width):
            run = diffs[r : r + rows, c : c + width]
            np.multiply(run, weights[c : c + width], out=scratch[: len(run)])
            sums[r : r + rows] += scratch[: len(run)].sum(axis=1)
    return sums


@pytest.mark.parametrize("rows", [1, 3, 16])
@pytest.mark.parametrize("n", [14, 15, 16, 17])
def test_shapley_sums_add_the_runs_in_order(n, rows):
    # From n = 15 a feature's contexts span several runs. No golden file
    # holds a score with more than one run, so the order is pinned here,
    # on magnitudes that make it show, and on negative zeros, whose sum
    # from 0.0 is 0.0.
    rng = np.random.default_rng(n * rows)
    m = 1 << (n - 1)
    weights = importance._shapley_context_weights(n)
    scale = 10.0 ** rng.integers(-300, 300, m)
    for diffs in rng.normal(size=(rows, m)) * scale, -np.zeros((rows, m)):
        want = _run_by_run_row_sums(diffs, weights)
        assert importance._weighted_row_sums(diffs, weights).tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mci_scores_and_witnesses_are_the_exact_ones_on_integer_tables(n, k, seed):
    # Integers in [-3, 3] times 10^k, k >= 0, are integers below 2^53, and
    # so is every marginal: each maximum and the lowest mask among its ties
    # are exact, so the walk's scores and witness columns must be those.
    values = _scaled_table("small-integer", n, k, seed)
    v = score_vector(ScoreMethod.MCI, ValueTable(n, values))
    scores, witnesses = mci_exact(values)
    assert [Fraction(x) for x in v.scores.tolist()] == scores
    assert list(v.witnesses) == witnesses


@settings(max_examples=60, deadline=None)
@given(_EXACT_CHECK)
def test_mci_within_one_rounding_of_the_largest_exact_marginal(case):
    # Each marginal subtracts two stored values, one rounding: within
    # u·|e_T| of its exact value e_T. So the largest computed marginal lies
    # within u·max_T |e_T| of the largest exact one, and the score is the
    # computed marginal at its witness, bit for bit.
    n = case[1]
    values = _scaled_table(*case)
    v = score_vector(ScoreMethod.MCI, ValueTable(n, values))
    stored = [Fraction(x) for x in values.tolist()]
    for f, want in enumerate(mci_exact(values)[0]):
        contexts = [t for t in range(1 << n) if not t >> f & 1]
        spread = max(abs(stored[t | 1 << f] - stored[t]) for t in contexts)
        assert abs(Fraction(float(v.scores[f])) - want) <= _U * spread, f
        w = v.witnesses[f]
        assert v.scores[f] == values[w | 1 << f] - values[w], f
