"""Checker behavior: what passes, what fails, and what is vacuous."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsets import (
    ALL_METHODS,
    AxiomReport,
    ImportanceVector,
    OutcomeTable,
    ScoreMethod,
    TableError,
    Tolerance,
    ValueTable,
    check_data_model_equivalence,
    check_elimination,
    check_empty_set,
    check_marginal_contribution,
    check_minimalism,
    check_monotonicity,
    check_null_feature,
    check_separable_importance,
    check_symmetry,
    check_triviality,
    eliminate,
    score,
    score_vector,
)
from sepsets.axioms import Witness, report_rows_markdown

from conftest import random_table, seeded_table

TOL = Tolerance(1e-9)


def additive_table(rng, n):
    singles = rng.uniform(0.5, 2.0, n)
    values = np.zeros(1 << n)
    for s in range(1 << n):
        values[s] = sum(singles[f] for f in range(n) if (s >> f) & 1)
    return ValueTable(n, values)


def test_additive_tables_pass_everything(rng):
    table = additive_table(rng, 5)
    assert check_empty_set(table, TOL).passed
    assert check_monotonicity(table, TOL).passed
    for method in ALL_METHODS:
        v = score_vector(method, table)
        assert check_triviality(table, v, TOL).passed
        assert check_marginal_contribution(table, v, TOL).passed
        assert check_minimalism(table, v, TOL).passed
        assert check_elimination(method, table, TOL).passed
        for variant in ("z_pair", "z_empty"):
            report = check_symmetry(table, v, variant, TOL)
            assert report.passed  # vacuous or genuinely equal scores


def test_empty_set_check(toy_table):
    assert check_empty_set(toy_table, TOL).passed
    bad = ValueTable(2, [0.25, 0.5, 0.5, 1.0])
    report = check_empty_set(bad, TOL)
    assert not report.passed
    assert report.residual == pytest.approx(0.25)


def test_monotonicity_witness():
    table = ValueTable(2, [0.0, 1.0, 0.5, 0.8])
    report = check_monotonicity(table, TOL)
    assert not report.passed
    # Adding feature 1 to {0} drops the value by 0.2, the worst drop.
    assert report.residual == pytest.approx(0.2)
    w = report.witness
    assert w.lhs == pytest.approx(1.0) and w.rhs == pytest.approx(0.8)


def test_marginal_contribution_ablation_is_exact(rng):
    table = random_table(rng, 5)
    v = score_vector(ScoreMethod.ABLATION, table)
    report = check_marginal_contribution(table, v, TOL)
    assert report.passed and report.residual == 0.0


def test_marginal_contribution_fails_for_undercut_scores(rng):
    table = random_table(rng, 4)
    base = score_vector(ScoreMethod.ABLATION, table).scores
    v = ImportanceVector(ScoreMethod.ABLATION, base - 0.5)
    report = check_marginal_contribution(table, v, TOL)
    assert not report.passed
    assert report.residual == pytest.approx(0.5)


def test_mci_passes_marginal_contribution_and_elimination(rng):
    for _ in range(10):
        table = random_table(rng, int(rng.integers(2, 8)))
        v = score_vector(ScoreMethod.MCI, table)
        assert check_marginal_contribution(table, v, TOL).passed
        assert check_elimination(ScoreMethod.MCI, table, TOL).passed


def test_bivariate_passes_elimination(rng):
    # Dropping features never changes a singleton's value.
    for _ in range(5):
        table = random_table(rng, 5)
        assert check_elimination(ScoreMethod.BIVARIATE, table, TOL).passed


def test_ablation_and_shapley_fail_elimination_on_duplicates(toy_table):
    for method in (ScoreMethod.ABLATION, ScoreMethod.SHAPLEY):
        report = check_elimination(method, toy_table, TOL)
        assert not report.passed
        assert report.witness is not None
        assert report.witness.rhs > report.witness.lhs
    # Ablation of a duplicate jumps from 0 to 1/2 once its twin is gone.
    ablation = check_elimination(ScoreMethod.ABLATION, toy_table, TOL)
    assert ablation.residual == pytest.approx(0.5)


def elimination_by_drops(method, table, tol):
    """The per-drop sweep that check_elimination replaced, kept as its
    reference: eliminate every nonempty proper subset, rescore the rest."""
    base = score_vector(method, table).scores
    worst = 0.0
    witness = None
    for drop in range(1, table.full_mask):
        restricted, kept = eliminate(table, drop)
        sub_scores = score_vector(method, restricted).scores
        for new_idx, old_idx in enumerate(kept):
            rise = float(sub_scores[new_idx] - base[old_idx])
            if rise > worst:
                worst = rise
                witness = Witness(
                    subset=drop,
                    feature=old_idx,
                    lhs=float(base[old_idx]),
                    rhs=float(sub_scores[new_idx]),
                )
    if tol.within(worst):
        return AxiomReport("elimination", True, worst, tol.absolute)
    return AxiomReport("elimination", False, worst, tol.absolute, witness=witness)


ORACLE_CASES = (
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(*ORACLE_CASES)
def test_elimination_matches_per_drop_oracle_bit_for_bit(n, seed, integers):
    # Subgame scores of these rules are the oracle's numbers exactly, so
    # residual and witness agree bit for bit, ties included.
    table = seeded_table(n, seed, integers)
    for method in (ScoreMethod.BIVARIATE, ScoreMethod.ABLATION, ScoreMethod.MCI):
        report = check_elimination(method, table, TOL)
        assert repr(report) == repr(elimination_by_drops(method, table, TOL))


@settings(max_examples=40, deadline=None)
@given(*ORACLE_CASES)
def test_shapley_elimination_matches_per_drop_oracle(n, seed, integers):
    # The closed form sums dividends where the oracle weights marginals,
    # so rises tied up to rounding may pick another witness; the witness
    # must still replay to the residual.
    table = seeded_table(n, seed, integers)
    report = check_elimination(ScoreMethod.SHAPLEY, table, TOL)
    oracle = elimination_by_drops(ScoreMethod.SHAPLEY, table, TOL)
    assert abs(report.residual - oracle.residual) <= 1e-12
    assert report.passed == oracle.passed
    if report.witness is not None:
        w = report.witness
        restricted, kept = eliminate(table, w.subset)
        after = score(ScoreMethod.SHAPLEY, restricted, kept.index(w.feature))
        before = score(ScoreMethod.SHAPLEY, table, w.feature)
        assert abs((after - before) - report.residual) <= 1e-12


def test_elimination_runs_past_twelve_features():
    for method in ALL_METHODS:
        report = check_elimination(method, ValueTable(13, np.zeros(1 << 13)), TOL)
        assert report.passed and report.residual == 0.0


def test_minimalism_reference_is_mci(rng, toy_table):
    for _ in range(5):
        table = random_table(rng, int(rng.integers(2, 7)))
        v = score_vector(ScoreMethod.MCI, table)
        report = check_minimalism(table, v, TOL)
        assert report.passed and report.residual == 0.0
    # On the duplicate-pair table the averaged rules land elsewhere
    # (bivariate happens to coincide with the max marginal here).
    for method, expected in [
        (ScoreMethod.BIVARIATE, True),
        (ScoreMethod.ABLATION, False),
        (ScoreMethod.SHAPLEY, False),
        (ScoreMethod.MCI, True),
    ]:
        v = score_vector(method, toy_table)
        assert check_minimalism(toy_table, v, TOL).passed == expected


def test_triviality_item1_fails_for_silent_scores():
    table = ValueTable(2, [0.0, 1.0, 0.0, 1.0])
    v = ImportanceVector(ScoreMethod.BIVARIATE, np.zeros(2))
    report = check_triviality(table, v, TOL)
    assert not report.passed
    assert report.witness.subset == 0b01
    assert report.residual == pytest.approx(1.0)


def test_triviality_item2_fails_for_scored_dummy():
    # Feature 1 never changes the value but carries a score.
    table = ValueTable(2, [0.0, 1.0, 0.0, 1.0])
    v = ImportanceVector(ScoreMethod.SHAPLEY, np.array([1.0, 0.7]))
    report = check_triviality(table, v, TOL)
    assert not report.passed
    assert report.witness.feature == 1
    assert report.residual == pytest.approx(0.7)


def test_triviality_vacuous_on_silence():
    table = ValueTable(2, np.zeros(4))
    v = ImportanceVector(ScoreMethod.MCI, np.zeros(2), (0, 0))
    report = check_triviality(table, v, TOL)
    assert report.passed and report.vacuous


def test_null_feature_applies_only_to_constant_axes():
    grid = OutcomeTable(((0.0, 1.0), (0.0, 1.0)), np.array([0.0, 1.0, 0.0, 1.0]))
    scored = ImportanceVector(ScoreMethod.BIVARIATE, np.array([0.4, 0.9]))
    null_axis = check_null_feature(grid, scored, 0, TOL)
    assert not null_axis.passed
    assert null_axis.residual == pytest.approx(0.4)
    live_axis = check_null_feature(grid, scored, 1, TOL)
    assert live_axis.passed and live_axis.vacuous


def test_data_model_equivalence_vacuous_without_perfection(toy_table):
    other = ValueTable(3, np.zeros(8))
    report = check_data_model_equivalence(toy_table, other, ScoreMethod.MCI, False, TOL)
    assert report.passed and report.vacuous
    strict = check_data_model_equivalence(toy_table, other, ScoreMethod.MCI, True, TOL)
    assert not strict.passed
    assert strict.residual == pytest.approx(0.5)


def test_symmetry_variants_disagree_on_context_scope():
    # The pair scores equally given the other is absent, but feature 1
    # still matters when feature 0 is present, so the wide quantifier
    # finds no interchangeable pair.
    table = ValueTable(2, [0.0, 1.0, 1.0, 2.5])
    v = ImportanceVector(ScoreMethod.BIVARIATE, np.array([1.0, 1.0]))
    narrow = check_symmetry(table, v, "z_pair", TOL)
    assert narrow.passed and not narrow.vacuous
    wide = check_symmetry(table, v, "z_empty", TOL)
    assert wide.passed and wide.vacuous


def test_symmetry_flags_unequal_scores_on_duplicates(toy_table):
    v = ImportanceVector(ScoreMethod.BIVARIATE, np.array([0.5, 0.9, 1 / 3]))
    report = check_symmetry(toy_table, v, "z_pair", TOL)
    assert not report.passed
    assert report.witness.feature == 0 and report.witness.feature_b == 1
    assert report.residual == pytest.approx(0.4)


def test_symmetry_rejects_unknown_variant(toy_table):
    v = score_vector(ScoreMethod.MCI, toy_table)
    with pytest.raises(TableError):
        check_symmetry(toy_table, v, "z_full", TOL)


def test_separable_importance_item1_holds_on_toy(toy_table):
    for method in ALL_METHODS:
        report = check_separable_importance(toy_table, method, 0b011, TOL)
        assert report.item1.passed and not report.item1.vacuous
        assert report.item2.passed and not report.item2.vacuous


def test_separable_importance_item1_vacuous_on_nonseparable(toy_table):
    report = check_separable_importance(toy_table, ScoreMethod.MCI, 0b001, TOL)
    assert report.item1.vacuous
    # MCI scores happen to be additive across {0} anyway, so the
    # converse direction has bite and catches the non-separability.
    assert not report.item2.vacuous
    assert not report.item2.passed
    assert report.item2.residual == pytest.approx(0.5)
    assert report.item2.witness.subset == 0b011
    # Shapley additivity breaks across {0}, so there item 2 is vacuous.
    shap = check_separable_importance(toy_table, ScoreMethod.SHAPLEY, 0b001, TOL)
    assert shap.item1.vacuous and shap.item2.vacuous


@pytest.mark.parametrize("subset", [-1, 0b1000])
def test_separable_importance_rejects_an_out_of_range_subset(toy_table, subset):
    with pytest.raises(TableError, match=rf"^subset mask {subset} out of range for n=3$"):
        check_separable_importance(toy_table, ScoreMethod.MCI, subset, TOL)


def test_separable_importance_item2_violation():
    # Bivariate scores are additive across {0} here, yet the set is not
    # separable: the converse direction fails with a subset witness.
    table = ValueTable(2, [0.0, 1.0, 1.0, 2.3])
    report = check_separable_importance(table, ScoreMethod.BIVARIATE, 0b01, TOL)
    assert report.item1.vacuous
    assert not report.item2.passed
    assert report.item2.witness.subset == 0b11
    assert report.item2.witness.lhs == pytest.approx(2.3)
    assert report.item2.witness.rhs == pytest.approx(2.0)
    assert report.item2.residual == pytest.approx(0.3)


def test_axiom_report_contract():
    with pytest.raises(SepsetsContractError := (TableError, ValueError)):
        AxiomReport("x", True, 1.0, 1e-9)  # passed but residual beyond tol
    with pytest.raises(SepsetsContractError):
        AxiomReport("x", True, 0.0, 1e-9, witness=None, vacuous=False, detail="").__class__(
            "x", False, 1.0, 1e-9, witness=None
        )  # failed reports need a witness


def test_report_markdown_rendering(toy_table):
    rows = [
        ("empty", check_empty_set(toy_table, TOL)),
        ("elim", check_elimination(ScoreMethod.ABLATION, toy_table, TOL)),
    ]
    text = report_rows_markdown(rows)
    assert "| empty |" in text
    assert "FAIL" in text
    assert "pass" in text
