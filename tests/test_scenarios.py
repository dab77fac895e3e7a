"""Built-in demonstration scenarios and their frozen outcomes."""

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
    # The six collider flags the entry above leaves at their defaults.
    "demo-collider-six-flags.json": [
        "demo", "collider", "--p-smoke", "0.4", "--p-earache", "0.35", "--p-gum-00", "0.2",
        "--p-gum-01", "0.8", "--p-gum-11", "0.95", "--p-cancer-1", "0.6",
    ],
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
    # figures come from numpy's pairwise sum, whose last bits may differ
    # under a numpy with another summation order.
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


@pytest.mark.parametrize(
    ("build", "tables"),
    [
        (demo_twin_features, 5),
        (demo_mci_nonlinearity, 3),
        # Of its three tables the collider scores one; toy-separable scores
        # its dataset table and the induced meta table.
        (lambda tol: demo_collider(ColliderParams(), tol), 1),
        (demo_toy_separable, 2),
    ],
)
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


@pytest.mark.parametrize("tol", ["0.5", "1", "100", "1e300"])
@pytest.mark.parametrize("output", ["json", "markdown"])
def test_toy_separable_at_a_tolerance_that_splits_the_duplicates(capsys, tol, output):
    # Such a tol splits the pair into singletons, whose meta table has
    # 8 entries, not 4: the claim does not hold, and shows what it got.
    assert main(["demo", "toy-separable", "--tol", tol, "--output", output]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if output == "json":
        claims = {c["name"]: c for c in json.loads(out)["report"]["claims"]}
        meta = claims["meta_table"]
        assert meta["holds"] is False
        assert len(meta["lhs"]) == 8 and meta["rhs"] == [0.0, 0.5, 1 / 3, 5 / 6]
        assert claims["duplicates_share_a_block"]["lhs"] == [[0], [1], [2]]
    else:
        assert "\n| meta_table | NO | [0, 0.5, 0.5, 1, " in out
        assert "\n| duplicates_share_a_block | NO | [[0], [1], [2]] |" in out


_COLLIDER_FLAGS = (
    "--p-smoke", "--p-earache", "--p-gum-00", "--p-gum-01",
    "--p-gum-10", "--p-gum-11", "--p-cancer-0", "--p-cancer-1",
)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    name=st.sampled_from(DEMO_NAMES),
    output=st.sampled_from(["json", "markdown"]),
    # Log-uniform in [1e-15, 1e300].
    tol=st.floats(-15, 300).map(lambda e: 10.0**e),
    flags=st.dictionaries(st.sampled_from(_COLLIDER_FLAGS), st.floats(0, 1)),
)
# This tol once ended toy-separable in a traceback.
@example(name="toy-separable", output="json", tol=0.5, flags={})
def test_demos_exit_zero_or_one_with_one_report_or_one_error_line(
    capsys, name, output, tol, flags
):
    argv = ["demo", name, "--output", output, "--tol", repr(tol)]
    argv += [arg for flag, p in flags.items() for arg in (flag, repr(p))]
    with warnings.catch_warnings():
        # A numpy warning would print lines of its own next to the report.
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1)
    if code == 1:
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        return
    assert err == ""
    if output == "json":
        assert json.loads(out)["command"] == f"demo {name}"
    else:
        assert out.startswith(f"# sepsets demo {name}\n") and out.count("# sepsets ") == 1
