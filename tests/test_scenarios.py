"""Built-in demonstration scenarios and their frozen outcomes."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sepsets import ScoreMethod, Tolerance, importance
from sepsets.cli import main
from sepsets.scenarios import (
    ColliderParams,
    demo_collider,
    demo_mci_nonlinearity,
    demo_toy_separable,
    demo_twin_features,
    render_scenario_markdown,
)

TOL = Tolerance(1e-9)
METHODS = ("bivariate", "ablation", "shapley", "mci")
GOLDEN = Path(__file__).parent / "golden"
DEMO_NAMES = ("mci-nonlinearity", "twin-features", "collider", "toy-separable")
DEMO_GOLDEN = {
    **{f"demo-{name}.{output}": ["demo", name, "--output", output]
       for name in DEMO_NAMES for output in ("json", "markdown")},
    "demo-collider-flags.json": ["demo", "collider", "--p-cancer-0", "0.1", "--p-gum-10", "0.7"],
}


def claims_by_name(report):
    return {c.name: c for c in report.claims}


def test_mci_nonlinearity_frozen_numbers():
    report = demo_mci_nonlinearity(TOL)
    claims = claims_by_name(report)
    assert all(c.holds for c in report.claims)
    assert claims["mci_of_first"].lhs == [1.0, 2.0]
    assert claims["mci_of_second"].lhs == [1.0, 1.0]
    assert claims["mci_of_mixture"].lhs == [0.5, 1.0]
    assert claims["mean_of_mci_scores"].lhs == [1.0, 1.5]
    assert claims["mci_mixture_gap_at_least_half"].lhs >= 0.5
    assert claims["linear_rules_commute_with_mixture"].lhs == ["mci"]


def test_twin_features_golden_breakage():
    report = demo_twin_features(TOL)
    claims = claims_by_name(report)
    assert all(c.holds for c in report.claims)
    golden = {
        "bivariate": ["null_feature", "data_model_equivalence"],
        "ablation": ["data_model_equivalence"],
        "shapley": ["null_feature", "data_model_equivalence"],
        "mci": ["null_feature", "data_model_equivalence"],
    }
    for method, expected in golden.items():
        assert claims[f"axiom_breaks[{method}]"].lhs == expected
        assert claims[f"triviality_holds_on_model_tables[{method}]"].holds
        assert claims[f"perfect_models_disagree[{method}]"].holds
    assert claims["model0_perfect_on_support"].lhs == 0.0
    assert claims["duplicate_null_for_model0"].lhs == 0.0
    assert claims["duplicate_null_for_model1"].lhs == 0.0


def test_twin_features_axiom_rows_carry_witnesses():
    report = demo_twin_features(TOL)
    failed = [rep for _, rep in report.axiom_rows if not rep.passed]
    assert failed
    for rep in failed:
        assert rep.witness is not None
        assert rep.residual > rep.tol


def test_collider_default_parameters():
    report = demo_collider(ColliderParams(), TOL)
    claims = claims_by_name(report)
    assert claims["earache_worthless_alone"].holds
    assert abs(claims["earache_worthless_alone"].lhs) <= 1e-9
    assert claims["gum_informative_alone"].holds
    assert claims["gum_informative_alone"].lhs >= 0.01
    for method in ("ablation", "shapley", "mci"):
        claim = claims[f"earache_scored_with_gum[{method}]"]
        assert claim.holds
        assert claim.lhs >= 1e-4
    # A context-free score cannot react to the explaining-away pattern:
    # the solo value is pinned at zero by independence, in every setting.
    biv = claims["earache_scored_with_gum[bivariate]"]
    assert not biv.holds
    assert biv.lhs == 0.0


def test_collider_sweep_holds_off_default_parameters():
    sweeps = [
        ColliderParams(p_smoke=0.4, p_cancer=(0.1, 0.6)),
        ColliderParams(p_earache=0.35),
        ColliderParams(p_gum=((0.2, 0.8), (0.85, 0.95))),
        ColliderParams(p_smoke=0.25, p_earache=0.15, p_cancer=(0.02, 0.4)),
    ]
    for params in sweeps:
        report = demo_collider(params, TOL)
        claims = claims_by_name(report)
        assert abs(claims["earache_worthless_alone"].lhs) <= 1e-9
        assert claims["earache_scored_with_gum[bivariate]"].lhs == 0.0
        for method in ("ablation", "shapley", "mci"):
            assert claims[f"earache_scored_with_gum[{method}]"].lhs > 1e-6


def test_collider_parameter_validation():
    with pytest.raises(Exception):
        ColliderParams(p_smoke=1.5)


def test_toy_separable_pipeline_claims():
    report = demo_toy_separable(TOL)
    claims = claims_by_name(report)
    assert all(c.holds for c in report.claims)
    assert claims["duplicates_share_a_block"].lhs == [[0, 1], [2]]
    assert np.allclose(
        claims["meta_table"].lhs, [0.0, 0.5, 1 / 3, 5 / 6], atol=1e-12
    )
    assert claims["ablation_leaks_on_elimination"].lhs == pytest.approx(0.5)
    assert claims["block_shares_sum_to_full_value"].lhs == pytest.approx(5 / 6)


def test_reports_serialize_deterministically():
    for build in (
        demo_mci_nonlinearity,
        demo_twin_features,
        demo_toy_separable,
        lambda tol: demo_collider(ColliderParams(), tol),
    ):
        first = json.dumps(build(TOL).to_dict(), sort_keys=True, indent=2)
        second = json.dumps(build(TOL).to_dict(), sort_keys=True, indent=2)
        assert first == second
        # Round-trip through the parser is also byte-stable.
        assert json.dumps(json.loads(first), sort_keys=True, indent=2) == first


@pytest.mark.parametrize("stem", DEMO_GOLDEN)
def test_demo_stdout_matches_golden_file(capsys, stem):
    # Written by the demos as they stood before they scored each table
    # once and took the linearity rows from the axiom module. Shapley
    # figures come from a BLAS dot product, whose last bits may differ
    # under another BLAS kernel.
    assert main(DEMO_GOLDEN[stem]) == 0
    expected = (GOLDEN / f"{stem}.stdout").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def _count_calls(monkeypatch, name):
    """Count calls of ``importance.name`` through every sepsets module that binds it."""
    calls = []
    original = getattr(importance, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key.partition(".")[0] == "sepsets" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(("build", "tables"), [(demo_twin_features, 5), (demo_mci_nonlinearity, 3)])
def test_demo_scores_each_table_once(monkeypatch, build, tables):
    vectors = _count_calls(monkeypatch, "score_vectors")
    singles = _count_calls(monkeypatch, "score_vector")
    build(TOL)
    assert (len(vectors), len(singles)) == (tables, 0)


def test_markdown_rendering_mentions_claims():
    report = demo_toy_separable(TOL)
    text = render_scenario_markdown(report)
    for claim in report.claims:
        assert claim.name in text
    assert "toy" in report.name or report.name


def test_scenario_claim_lookup():
    report = demo_mci_nonlinearity(TOL)
    assert report.claim("mci_of_first").holds
    with pytest.raises(KeyError):
        report.claim("missing_claim")


def test_twin_features_uses_methods_consistently():
    report = demo_twin_features(TOL)
    labels = [label for label, _ in report.axiom_rows]
    for method in METHODS:
        assert any(f"null_feature[{method}" in lab for lab in labels)
        assert any(f"data_model_equivalence[{method}" in lab for lab in labels)
        assert any(f"triviality[{method}" in lab for lab in labels)
    # Every method's failing axiom set is nonempty: no rule survives.
    for method in METHODS:
        breaks = report.claim(f"axiom_breaks[{method}]").lhs
        assert ScoreMethod.parse(method) and breaks
