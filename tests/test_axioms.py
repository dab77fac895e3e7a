"""Checker behavior: what passes, what fails, and what is vacuous."""

from fractions import Fraction

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
    check_linearity,
    check_marginal_contribution,
    check_minimalism,
    check_monotonicity,
    check_null_feature,
    check_symmetry,
    check_triviality,
    eliminate,
    is_separable,
    mix,
    score,
    score_vector,
)
from sepsets import axioms
from sepsets.axioms import Witness, report_rows_markdown
from sepsets.scenarios import demo_mci_nonlinearity
from sepsets.subset_algebra import _marginals

from conftest import block_additive_table, random_blocks, random_table, seeded_table
from exact import shapley_subgames_exact, subset_sums_exact, with_f_shares, zeta_exact

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


@settings(max_examples=60, deadline=None)
@given(*ORACLE_CASES, st.integers(min_value=-3, max_value=11))
def test_shapley_subgames_within_their_rounding_bound_of_the_exact_ones(n, seed, integers, k):
    """Each Shapley subgame score lies within (3n + 1)·u·B of the exact one,
    with u = 2^-53. B sums ζ|v|(W)/|W| over the W of the subgame that
    contain f, where ζ|v|(W) is the sum of |v(T)| over the T inside W.

    The score in the subgame on S is Z(S) - Z(S - f), Z the one zeta
    transform of the shares. Each computed dividend is within 2·n·u·ζ|v|(W)
    of d(W), the bound that
    test_mobius_within_the_rounding_bound_of_the_exact_dividends holds, and
    |d(W)| <= ζ|v|(W). Dividing by |W| rounds once more, so each share is
    within (2n + 1)·u·ζ|v|(W)/|W| of d(W)/|W| to first order. A share
    without f enters both entries, so its error cancels; the shares with f
    give (2n + 1)·u·B. In the transform (Higham, ch. 4) each share meets at
    most n additions in Z(S) and n - 1 in Z(S - f). The shares without f
    enter both, and their magnitudes sum to at most 2B, since
    ζ|v|(W) <= ζ|v|(W + f) and |W + f| <= 2|W|. So the transform gives at
    most n·u·B + (2n - 1)·u·2B, and the final subtraction u·B: 7n·u·B in
    all to first order. The (3n + 1)·u·B held here is tighter than that
    derivation, so it is held by measurement only: over 950 random cases
    drawn as these are, the worst error seen was 2.19·u·B.
    """
    table = ValueTable(n, seeded_table(n, seed, integers).values * 10.0**k)
    sums = axioms._shapley_share_sums(table)
    magnitudes = zeta_exact(np.abs(table.values))
    for f in range(n):
        got = _marginals(sums, n, f).tolist()
        want = shapley_subgames_exact(table.values, f)
        spread = subset_sums_exact(with_f_shares(magnitudes, f))
        bound = [(3 * n + 1) * Fraction(2**-53) * b for b in spread]
        for c in range(len(got)):
            assert abs(Fraction(got[c]) - want[c]) <= bound[c], (f, c)


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


def _split_gap(method, table, subset):
    """Largest gap between a feature's score and its score in the subgame
    on its own side of ``subset``; zero when the scores split across it."""
    split = np.zeros(table.n)
    for side in (subset, table.full_mask ^ subset):
        subgame, kept = eliminate(table, table.full_mask ^ side)
        split[list(kept)] = score_vector(method, subgame).scores
    return float(np.max(np.abs(score_vector(method, table).scores - split)))


def test_separable_importance_item1_holds_on_toy(toy_table):
    # Across a separable set, every rule's scores split into subgame scores.
    assert is_separable(toy_table, 0b011, TOL).separable
    for method in ALL_METHODS:
        assert _split_gap(method, toy_table, 0b011) <= TOL.absolute, method


def test_separable_importance_item1_vacuous_on_nonseparable(toy_table):
    sep = is_separable(toy_table, 0b001, TOL)
    assert not sep.separable
    assert sep.worst_residual == pytest.approx(0.5)
    assert sep.worst_T == 0b011
    # MCI scores happen to split across {0} anyway, so split scores do not
    # make a set separable; Shapley scores do not split.
    assert _split_gap(ScoreMethod.MCI, toy_table, 0b001) <= TOL.absolute
    assert _split_gap(ScoreMethod.SHAPLEY, toy_table, 0b001) > TOL.absolute


def test_separable_importance_item2_violation():
    # Bivariate scores split across {0} here, yet the set is not
    # separable: the residual is v({0, 1}) - v({0}) - v({1}).
    table = ValueTable(2, [0.0, 1.0, 1.0, 2.3])
    assert _split_gap(ScoreMethod.BIVARIATE, table, 0b01) <= TOL.absolute
    sep = is_separable(table, 0b01, TOL)
    assert not sep.separable
    assert sep.worst_T == 0b11
    assert sep.worst_residual == pytest.approx(0.3)


def test_scores_split_across_every_separable_set(rng):
    # The theorem on planted block tables: across every separable set,
    # found by testing each mask, every rule's scores split.
    checked = 0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        table = block_additive_table(rng, n, random_blocks(rng, n))
        for s in range(1, table.full_mask):
            if is_separable(table, s, TOL).separable:
                checked += 1
                for method in ALL_METHODS:
                    assert _split_gap(method, table, s) <= TOL.absolute, (s, method)
    assert checked > 0


@settings(max_examples=40, deadline=None)
@given(
    *ORACLE_CASES,
    st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([TOL, Tolerance(1e-300)]),
)
def test_linearity_witness_replays_to_the_largest_gap(n, seed, integers, alpha, tol):
    # The tiny tolerance makes the averaging rules fail on rounding gaps,
    # so their witnesses are replayed too.
    first, second = seeded_table(n, seed, integers), seeded_table(n, seed + 1, integers)
    mixed = mix(first, second, alpha)
    for method in ALL_METHODS:
        report = check_linearity(method, first, second, alpha, tol)
        lhs = [score(method, mixed, f) for f in range(n)]
        rhs = [
            alpha * score(method, first, f) + (1.0 - alpha) * score(method, second, f)
            for f in range(n)
        ]
        gaps = [abs(a - b) for a, b in zip(lhs, rhs)]
        assert report.axiom == "score_linearity"
        assert report.residual == max(gaps)
        assert report.passed == (max(gaps) <= tol.absolute)
        if not report.passed:
            f = report.witness.feature
            assert f == gaps.index(max(gaps))
            assert (report.witness.lhs, report.witness.rhs) == (lhs[f], rhs[f])


def test_linearity_matches_the_mci_nonlinearity_rows():
    demo = demo_mci_nonlinearity(TOL)
    rows = dict(demo.axiom_rows)
    first, second = (ValueTable(2, demo.tables[name]) for name in ("first", "second"))
    for method in ALL_METHODS:
        report = check_linearity(method, first, second, demo.inputs["alpha"], TOL)
        assert repr(report) == repr(rows[f"linearity[{method.value}]"])
    assert not rows["linearity[mci]"].passed


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
