"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; every criterion is a
single test whose verbose line is the pass/fail verdict. Criterion 8 is
parametrized per scoring rule, and its context-free rule is expected to
stay red: a score that never looks past a single feature cannot react
to information that only appears in combination, so the stated bound is
unattainable for it. That failure is left honest rather than patched.
"""

import csv
import time

import numpy as np
import pytest

from sepsets import (
    ALL_METHODS,
    AxiomReport,
    ImportanceVector,
    OutcomeTable,
    Partition,
    ScoreMethod,
    Tolerance,
    ValueTable,
    Witness,
    check_data_model_equivalence,
    check_elimination,
    check_empty_set,
    check_importance_consistency,
    check_linearity,
    check_marginal_contribution,
    check_minimalism,
    check_monotonicity,
    check_null_feature,
    check_symmetry,
    check_triviality,
    check_value_consistency,
    eliminate,
    enumerate_separable_sets,
    global_table,
    grouped_score_vector,
    induced_meta_table,
    is_separable,
    maximal_partition,
    maximal_partition_oracle,
    mix,
    mobius_transform,
    new_dataset,
    new_sample_space,
    r2_value_table,
    score,
    score_vector,
    zeta_transform,
)
from sepsets.scenarios import ColliderParams, demo_collider, demo_twin_features

from conftest import (
    TOY_VALUES,
    block_additive_table,
    closure_holds,
    random_blocks,
    random_table,
    sparse_mobius_table,
)

TOL = Tolerance(1e-9)
TOY_CSV = "data/toy.csv"


def _load_toy_csv():
    with open(TOY_CSV, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    return new_dataset(data[:, :3], data[:, 3])


def test_criterion_01_toy_dataset_end_to_end():
    """CSV -> table -> scores -> partition -> grouped, all at 1e-9, <1s."""
    start = time.perf_counter()
    table = r2_value_table(_load_toy_csv())
    assert np.max(np.abs(table.values - np.array(TOY_VALUES))) <= 1e-9

    expected_scores = {
        ScoreMethod.BIVARIATE: [0.5, 0.5, 1 / 3],
        ScoreMethod.ABLATION: [0.0, 0.0, 1 / 3],
        ScoreMethod.SHAPLEY: [0.25, 0.25, 1 / 3],
        ScoreMethod.MCI: [0.5, 0.5, 1 / 3],
    }
    for method, expected in expected_scores.items():
        got = score_vector(method, table).scores
        assert np.max(np.abs(got - np.array(expected))) <= 1e-9, method.value
    shap_total = float(np.sum(score_vector(ScoreMethod.SHAPLEY, table).scores))
    assert abs(shap_total - 5 / 6) <= 1e-9  # efficiency: shares sum to the full value

    partition = maximal_partition(table, TOL)
    assert partition.block_indices() == ((0, 1), (2,))

    meta = induced_meta_table(table, partition, TOL)
    assert np.max(np.abs(meta.values - np.array([0.0, 0.5, 1 / 3, 5 / 6]))) <= 1e-9

    block_values = [float(table.values[b]) for b in partition.blocks]
    for method in ALL_METHODS:
        grouped = grouped_score_vector(method, table, partition)
        assert np.max(np.abs(grouped - np.array(block_values))) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"toy pipeline took {elapsed:.3f}s"


def test_criterion_02_max_rule_mixture_gap():
    """Frozen two-feature pair: the max rule misses mixtures by >= 0.5, <0.1s."""
    start = time.perf_counter()
    first = ValueTable(2, [0.0, 0.0, 1.0, 2.0])
    second = ValueTable(2, [0.0, 1.0, 1.0, 1.0])

    assert np.array_equal(score_vector(ScoreMethod.MCI, first).scores, [1.0, 2.0])
    assert np.array_equal(score_vector(ScoreMethod.MCI, second).scores, [1.0, 1.0])
    mixed = mix(first, second, 0.5)
    assert np.array_equal(score_vector(ScoreMethod.MCI, mixed).scores, [0.5, 1.0])
    mean_of_scores = 0.5 * score_vector(ScoreMethod.MCI, first).scores + 0.5 * score_vector(
        ScoreMethod.MCI, second
    ).scores
    assert np.array_equal(mean_of_scores, [1.0, 1.5])

    report = check_linearity(ScoreMethod.MCI, first, second, 0.5, TOL)
    assert not report.passed
    assert report.residual >= 0.5

    for method in (ScoreMethod.BIVARIATE, ScoreMethod.ABLATION, ScoreMethod.SHAPLEY):
        linear = check_linearity(method, first, second, 0.5, TOL)
        assert linear.passed
        assert linear.residual == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"mixture check took {elapsed:.3f}s"


def test_criterion_03_twin_features_break_an_axiom_each():
    """Per rule: a perfect-model axiom fails while triviality holds."""
    report = demo_twin_features(TOL)
    golden = {
        "bivariate": ["null_feature", "data_model_equivalence"],
        "ablation": ["data_model_equivalence"],
        "shapley": ["null_feature", "data_model_equivalence"],
        "mci": ["null_feature", "data_model_equivalence"],
    }
    for method, expected in golden.items():
        breaks = report.claim(f"axiom_breaks[{method}]")
        assert breaks.lhs == expected, f"{method}: {breaks.lhs} != {expected}"
        assert set(breaks.lhs) & {"null_feature", "data_model_equivalence"}
        assert report.claim(f"triviality_holds_on_model_tables[{method}]").holds
    assert report.claim("model_tables_nonzero").holds
    assert all(c.holds for c in report.claims)


def test_criterion_04_partition_matches_oracle_on_200_tables():
    """Fast partition == exhaustive oracle; separable sets are block unions; <60s.

    Generator contract: every nonzero dividend has magnitude >= 0.5, so
    outcomes sit far from the 1e-9 decision threshold.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(40400)
    checked_sets = 0
    for i in range(200):
        n = int(rng.integers(2, 11))
        kind = i % 4
        if kind == 0:
            table = sparse_mobius_table(rng, n, float(rng.uniform(0.7, 1.0)))
        elif kind == 1:
            table = sparse_mobius_table(rng, n, float(rng.uniform(0.05, 0.45)))
        else:
            table = block_additive_table(rng, n, random_blocks(rng, n))
        fast = maximal_partition(table, TOL)
        slow = maximal_partition_oracle(table, TOL)
        assert fast.blocks == slow.blocks, f"table {i}: {fast.blocks} != {slow.blocks}"
        for subset in enumerate_separable_sets(table, TOL):
            checked_sets += 1
            for block in fast.blocks:
                overlap = subset & block
                assert overlap == 0 or overlap == block, (
                    f"table {i}: separable {subset:b} straddles block {block:b}"
                )
    elapsed = time.perf_counter() - start
    assert checked_sets >= 200
    assert elapsed < 60.0, f"200-table sweep took {elapsed:.1f}s"


def _blocks_with_count(rng, n, k):
    """Random partition of range(n) into exactly k nonempty blocks."""
    order = [int(f) for f in rng.permutation(n)]
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=k - 1, replace=False))
    masks, prev = [], 0
    for cut in cuts + [n]:
        masks.append(sum(1 << f for f in order[prev:cut]))
        prev = cut
    return tuple(masks)


def test_criterion_05_grouped_scores_and_grouped_consistency():
    """Block-sum tables (2-4 blocks, n <= 12): every method's block score
    equals the block's own value within 1e-8, and grouping restores
    local-global pooling over shared-structure 5-instance spaces."""
    rng = np.random.default_rng(50500)
    for i in range(200):
        n = int(rng.integers(2, 13))
        k = min(int(rng.integers(2, 5)), n)
        blocks = _blocks_with_count(rng, n, k)
        table = block_additive_table(rng, n, blocks)
        partition = Partition(n, blocks)
        expected = np.array([float(table.values[b]) for b in partition.blocks])
        for method in ALL_METHODS:
            grouped = grouped_score_vector(method, table, partition)
            gap = float(np.max(np.abs(grouped - expected)))
            assert gap <= 1e-8, f"table {i}, {method.value}: gap {gap}"

    for i in range(40):
        n = int(rng.integers(2, 13))
        k = min(int(rng.integers(2, 5)), n)
        blocks = _blocks_with_count(rng, n, k)
        partition = Partition(n, blocks)
        tables = [block_additive_table(rng, n, blocks) for _ in range(5)]
        weights = rng.uniform(0.2, 1.0, 5)
        space = new_sample_space(list(zip(weights, tables)))
        pooled = global_table(space)
        for method in ALL_METHODS:
            direct = grouped_score_vector(method, pooled, partition)
            averaged = sum(
                w * grouped_score_vector(method, ValueTable(n, v), partition)
                for w, v in zip(space.weights, space.values)
            )
            gap = float(np.max(np.abs(direct - averaged)))
            assert gap <= 1e-8, f"space {i}, {method.value}: grouped gap {gap}"


def test_criterion_06_closure_on_500_separable_pairs():
    """Complement, union, and intersection of separable sets stay separable."""
    rng = np.random.default_rng(60600)
    violations = 0
    for _ in range(500):
        n = int(rng.integers(2, 11))
        blocks = random_blocks(rng, n)
        table = block_additive_table(rng, n, blocks)
        k = len(blocks)
        unions = []
        for pick in rng.integers(0, 1 << k, size=2):
            u = 0
            for j in range(k):
                if (int(pick) >> j) & 1:
                    u |= blocks[j]
            unions.append(u)
        if not closure_holds(table, unions[0], unions[1], TOL):
            violations += 1
    assert violations == 0


def test_criterion_07_linearity_of_the_averaged_rules():
    """500 mixtures: three rules commute exactly, the max rule breaks at
    least once (the frozen pair from criterion 2 is triple zero)."""
    rng = np.random.default_rng(70700)
    mci_violations = 0
    for i in range(500):
        if i == 0:
            first = ValueTable(2, [0.0, 0.0, 1.0, 2.0])
            second = ValueTable(2, [0.0, 1.0, 1.0, 1.0])
            alpha = 0.5
        else:
            n = int(rng.integers(2, 9))
            first = random_table(rng, n, zero_empty=False)
            second = random_table(rng, n, zero_empty=False)
            alpha = float(rng.uniform(0.0, 1.0))
        for method in (ScoreMethod.BIVARIATE, ScoreMethod.ABLATION, ScoreMethod.SHAPLEY):
            report = check_linearity(method, first, second, alpha, TOL)
            assert report.passed, (
                f"triple {i}: {method.value} deviated by {report.residual}"
            )
        if not check_linearity(ScoreMethod.MCI, first, second, alpha, TOL).passed:
            mci_violations += 1
    assert mci_violations >= 1
    # The max rule is not accidentally linear: it should break often.
    assert mci_violations > 100


def test_criterion_08_collider_baselines():
    """Earache alone is worthless; gum alone is informative."""
    report = demo_collider(ColliderParams(), TOL)
    worthless = report.claim("earache_worthless_alone")
    assert worthless.holds and abs(worthless.lhs) <= 1e-9
    informative = report.claim("gum_informative_alone")
    assert informative.holds and informative.lhs >= 0.01


@pytest.mark.parametrize("method", ["bivariate", "ablation", "shapley", "mci"])
def test_criterion_08_collider_contextual_score(method):
    """With gum present, earache must score at least 1e-4.

    The context-free rule reads a single subset value that independence
    pins at zero, so it cannot meet the bound; its red line here is the
    honest outcome, not a defect in the checker.
    """
    report = demo_collider(ColliderParams(), TOL)
    claim = report.claim(f"earache_scored_with_gum[{method}]")
    assert claim.holds, f"{method} scored earache {claim.lhs}, needs >= 1e-4"


def test_criterion_09_twenty_feature_performance():
    """n=20: transforms plus partition under 5s, full Shapley under 30s."""
    rng = np.random.default_rng(90900)
    table = random_table(rng, 20)

    start = time.perf_counter()
    dividends = mobius_transform(table)
    rebuilt = zeta_transform(dividends)
    assert np.max(np.abs(rebuilt.values - table.values)) <= 1e-12 * max(
        1.0, float(np.max(np.abs(table.values)))
    )
    partition = maximal_partition(table, TOL)
    transform_elapsed = time.perf_counter() - start
    assert partition.block_indices() == (tuple(range(20)),)
    assert transform_elapsed < 5.0, f"transform+partition took {transform_elapsed:.2f}s"

    start = time.perf_counter()
    shap = score_vector(ScoreMethod.SHAPLEY, table)
    shapley_elapsed = time.perf_counter() - start
    total = float(np.sum(shap.scores))
    spread = float(table.values[-1] - table.values[0])
    assert abs(total - spread) <= 1e-6
    assert shapley_elapsed < 30.0, f"Shapley at n=20 took {shapley_elapsed:.2f}s"


# ---------------------------------------------------------- criterion 10


def _expand_with_duplicate(base):
    """Lift an n-feature table to n+1 features where bits 0 and 1 are twins."""
    n = base.n + 1
    values = np.zeros(1 << n)
    for mask in range(1 << n):
        joined = 1 if mask & 0b11 else 0
        rest = (mask >> 2) << 1
        values[mask] = base.values[joined | rest]
    return ValueTable(n, values)


def _violation_case(seed):
    """One deterministic failing check per seed, plus its replay rule.

    The replay closure recomputes the reported residual from the
    witness coordinates and the raw inputs, through the formula the
    checker enforces, so a rigged or stale witness cannot pass.
    """
    rng = np.random.default_rng(101000 + seed)
    u = float(rng.uniform(0.0, 1.0))
    kind = seed % 13

    if kind == 0:
        values = np.array(random_table(rng, 4, zero_empty=False).values)
        values[0] = 0.25 + u
        table = ValueTable(4, values)
        return check_empty_set(table, TOL), lambda w: abs(float(table.values[w.subset]))

    if kind == 1:
        values = np.array(random_table(rng, 4).values)
        values[-1] = values[-2] - (0.5 + u)
        table = ValueTable(4, values)
        return check_monotonicity(table, TOL), lambda w: float(
            table.values[w.subset] - table.values[w.subset | (1 << w.feature)]
        )

    if kind == 2:
        table = random_table(rng, 5)
        vec = ImportanceVector(
            ScoreMethod.ABLATION,
            score_vector(ScoreMethod.ABLATION, table).scores - (0.3 + u),
        )
        full = table.full_mask

        def replay_marginal(w):
            floor = float(table.values[full] - table.values[full ^ (1 << w.feature)])
            return floor - float(vec.scores[w.feature])

        return check_marginal_contribution(table, vec, TOL), replay_marginal

    if kind == 3:
        table = random_table(rng, 5)
        base = score_vector(ScoreMethod.MCI, table)
        vec = ImportanceVector(ScoreMethod.MCI, base.scores + (0.2 + u), base.witnesses)
        return check_minimalism(table, vec, TOL), lambda w: abs(
            float(vec.scores[w.feature]) - score(ScoreMethod.MCI, table, w.feature)
        )

    if kind == 4:
        values = np.zeros(8)
        values[1] = 1.0 + u
        table = ValueTable(3, values)
        vec = ImportanceVector(ScoreMethod.SHAPLEY, np.zeros(3))
        return check_triviality(table, vec, TOL), lambda w: abs(float(table.values[w.subset]))

    if kind == 5:
        base = random_table(rng, 2, zero_empty=False)
        table = ValueTable(3, np.array([base.values[m >> 1] for m in range(8)]))
        scores = np.zeros(3)
        scores[0] = 0.5 + u
        vec = ImportanceVector(ScoreMethod.SHAPLEY, scores)

        def replay_triviality(w):
            # Witness is either a valued set with silent members or a
            # scored feature that never moves the value.
            if w.feature is not None:
                return abs(float(vec.scores[w.feature]))
            return abs(float(table.values[w.subset]))

        return check_triviality(table, vec, TOL), replay_triviality

    if kind == 6:
        values = np.array(random_table(rng, 3).values)
        values[-1] = values[-2] + 1.0 + u  # strong full-set marginal for base bit 0
        table = _expand_with_duplicate(ValueTable(3, values))

        def replay_elimination(w):
            restricted, kept = eliminate(table, w.subset)
            after = score(ScoreMethod.ABLATION, restricted, kept.index(w.feature))
            before = score(ScoreMethod.ABLATION, table, w.feature)
            return float(after - before)

        return check_elimination(ScoreMethod.ABLATION, table, TOL), replay_elimination

    if kind == 7:
        table = _expand_with_duplicate(random_table(rng, 3))
        scores = score_vector(ScoreMethod.BIVARIATE, table).scores.copy()
        scores[1] += 0.5 + u
        vec = ImportanceVector(ScoreMethod.BIVARIATE, scores)
        return check_symmetry(table, vec, "z_pair", TOL), lambda w: abs(
            float(vec.scores[w.feature] - vec.scores[w.feature_b])
        )

    if kind == 8:
        table = ValueTable(2, [0.0, 1.0, 1.0, 2.3 + u])
        # {0} is not separable: v({0, 1}) = 2.3 + u against v({0}) + v({1}) = 2.
        # The witness is the context of the worst additivity residual.
        sep = is_separable(table, 0b01, TOL)
        witness = Witness(subset=sep.worst_T) if not sep.separable else None
        report = AxiomReport(
            "separability", sep.separable, sep.worst_residual, TOL.absolute, witness=witness
        )
        return report, lambda w: abs(
            float(
                table.values[w.subset]
                - table.values[w.subset & 0b01]
                - table.values[w.subset & 0b10]
            )
        )

    if kind == 9:
        half = rng.normal(size=4)
        grid = OutcomeTable(
            ((0.0, 1.0), (0.0, 1.0), (2.0, 3.0)), np.concatenate([half, half])
        )
        scores = np.zeros(3)
        scores[0] = 0.4 + u
        vec = ImportanceVector(ScoreMethod.SHAPLEY, scores)
        return check_null_feature(grid, vec, 0, TOL), lambda w: abs(
            float(vec.scores[w.feature])
        )

    if kind == 10:
        values = np.array(random_table(rng, 3).values)
        values[1] = 1.0 + u
        data_t = ValueTable(3, values)
        model_t = ValueTable(3, values * 2.0)
        report = check_data_model_equivalence(
            data_t, model_t, ScoreMethod.BIVARIATE, True, TOL
        )
        return report, lambda w: abs(
            score(ScoreMethod.BIVARIATE, model_t, w.feature)
            - score(ScoreMethod.BIVARIATE, data_t, w.feature)
        )

    if kind == 11:
        space = new_sample_space(
            [(1.0, random_table(rng, 3)), (1.0, random_table(rng, 3))]
        )
        claim = ValueTable(3, np.asarray(global_table(space).values) + (0.2 + u))
        return check_value_consistency(space, claim, TOL), lambda w: abs(
            float(claim.values[w.subset] - global_table(space).values[w.subset])
        )

    scale = 1.0 + u
    first = ValueTable(2, np.array([0.0, 0.0, 1.0, 2.0]) * scale)
    second = ValueTable(2, np.array([0.0, 1.0, 1.0, 1.0]) * scale)
    space = new_sample_space([(0.5, first), (0.5, second)])

    def replay_consistency(w):
        pooled = score(ScoreMethod.MCI, global_table(space), w.feature)
        averaged = sum(
            wt * score(ScoreMethod.MCI, ValueTable(2, v), w.feature)
            for wt, v in zip(space.weights, space.values)
        )
        return abs(float(pooled - averaged))

    return check_importance_consistency(space, ScoreMethod.MCI, TOL), replay_consistency


def test_criterion_10_hundred_violations_replay():
    """Every seeded violation fails, its witness replays through the
    defining formula to the reported residual within 1e-12, and a
    rebuild from the same seed reproduces the report exactly."""
    for seed in range(100):
        report, replay = _violation_case(seed)
        again, _ = _violation_case(seed)
        assert not report.passed, f"seed {seed} unexpectedly passed"
        assert not report.vacuous
        assert report.witness is not None, f"seed {seed} lacks a witness"
        replayed = abs(float(replay(report.witness)))
        assert abs(replayed - report.residual) <= 1e-12, (
            f"seed {seed}: witness replays to {replayed}, reported {report.residual}"
        )
        assert report.axiom == again.axiom
        assert abs(report.residual - again.residual) <= 1e-12, f"seed {seed} drifted"
        assert report.witness.to_dict() == again.witness.to_dict(), f"seed {seed}"
