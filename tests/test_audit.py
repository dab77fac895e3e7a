"""The one-walk audit against golden files, the per-check oracle and its call counts."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepsets
from sepsets import ALL_METHODS, ScoreMethod, Tolerance, audit_space, audit_table, new_sample_space
from sepsets import axioms, importance, sample_space, subset_algebra
from sepsets.cli import main
from sepsets.subset_algebra import _subset_transform

import audit_oracle
from conftest import seeded_table

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_INPUTS = ("toy", "table-n6", "table-n8-twin", "table-n10", "space-n8")
METHOD_SETS = {"all": [], "mci-ablation": ["--method", "mci", "--method", "ablation"]}


@pytest.mark.parametrize("methods", METHOD_SETS)
@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_audit_stdout_matches_golden_file(capsys, name, methods):
    # The inputs: the toy table written by eval-dataset from data/toy.csv,
    # seeded tables at n = 6 (integers, so marginals tie), 8 (a twin pair,
    # features 1 and 4) and 10, and a 4-instance space at n = 8. The
    # outputs were written by the per-check audit this one replaced.
    # Shapley figures come from a BLAS dot product, whose last bits may
    # differ under another BLAS kernel.
    assert main(["audit", str(GOLDEN / f"{name}.json"), *METHOD_SETS[methods]]) == 0
    expected = (GOLDEN / f"{name}.{methods}.stdout").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


_METHOD_ORDERS = st.lists(st.sampled_from(ALL_METHODS), min_size=1, max_size=4, unique=True)
_TOLS = st.sampled_from([1e-9, 0.5, 2.0])
_PUBLIC_CHECKS = {name: getattr(sepsets, name) for name in sepsets.__all__ if "check_" in name}


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 10), st.integers(0, 2**32 - 1), st.booleans(), _METHOD_ORDERS, _TOLS
)
def test_table_audit_matches_the_per_check_oracle(n, seed, integers, methods, tol):
    # Integer tables make marginals, rises and score gaps tie exactly, so
    # witness order is exercised; a wide tolerance turns failures into passes.
    table, tol = seeded_table(n, seed, integers), Tolerance(tol)
    rows, vectors = audit_table(table, "table", tuple(methods), tol)
    expected = audit_oracle.audit_rows(table, "table", methods, tol)
    assert repr(rows) == repr(expected)
    # The public checkers are entries into the same reductions.
    public = audit_oracle.audit_rows(table, "table", methods, tol, _PUBLIC_CHECKS)
    assert repr(public) == repr(expected)
    for m in methods:
        assert vectors[m].scores.tobytes() == sepsets.score_vector(m, table).scores.tobytes()


@pytest.mark.parametrize(
    "methods",
    [c for k in range(1, 5) for c in itertools.combinations(ALL_METHODS, k)],
    ids=lambda c: "+".join(m.value for m in c),
)
def test_every_rule_subset_matches_the_per_check_oracle(methods):
    tol = Tolerance(1e-9)
    for n, seed, integers in ((7, 11, True), (7, 12, False)):
        table = seeded_table(n, seed, integers)
        rows, _ = audit_table(table, "table", methods, tol)
        assert repr(rows) == repr(audit_oracle.audit_rows(table, "table", methods, tol))
        space = new_sample_space([(1.0, table), (3.0, seeded_table(n, seed + 1, integers))])
        rows = audit_space(space, methods, tol)
        assert repr(rows) == repr(audit_oracle.space_rows(space, methods, tol))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 10),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    _METHOD_ORDERS,
    _TOLS,
)
def test_space_audit_matches_the_per_check_oracle(n, count, seed, integers, methods, tol):
    rng = np.random.default_rng(seed)
    space = new_sample_space(
        (float(rng.uniform(0.5, 1.5)), seeded_table(n, seed + i, integers)) for i in range(count)
    )
    tol = Tolerance(tol)
    rows = audit_space(space, tuple(methods), tol)
    assert repr(rows) == repr(audit_oracle.space_rows(space, methods, tol))
    for m in methods:
        public = sepsets.check_importance_consistency(space, m, tol)
        assert repr(public) == repr(audit_oracle.check_importance_consistency(space, m, tol))


def _count_calls(monkeypatch, modules, name):
    """Count calls of ``modules[0].name`` made through any of ``modules``."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_audit_computes_each_features_marginals_once_per_table(capsys, tmp_path, monkeypatch):
    n = 10
    rng = np.random.default_rng(7)
    table = tmp_path / "table.json"
    table.write_bytes(sepsets.cli._table_json(seeded_table(n, 7, False)))
    marginals = _count_calls(monkeypatch, (subset_algebra, axioms, importance), "_marginals")
    assert main(["audit", str(table)]) == 0
    assert len(marginals) <= n

    space = tmp_path / "space.json"
    weights = rng.uniform(0.5, 1.5, 3).tolist()
    instances = [
        {"weight": w, "values": seeded_table(n, s, False).values.tolist()}
        for s, w in enumerate(weights)
    ]
    space.write_text(json.dumps({"n": n, "instances": instances}))
    marginals.clear()
    builds = _count_calls(monkeypatch, (sample_space,), "global_table")
    assert main(["audit", str(space)]) == 0
    assert len(builds) == 1
    # Three instances and the global table.
    assert len(marginals) <= n * 4


def test_shapley_elimination_computes_no_marginals(monkeypatch):
    # Shapley subgames read the dividends; ablation reads each feature's marginals.
    table = seeded_table(8, 3, False)
    marginals = _count_calls(monkeypatch, (subset_algebra, axioms, importance), "_marginals")
    axioms.check_elimination(ScoreMethod.SHAPLEY, table)
    assert marginals == []
    axioms.check_elimination(ScoreMethod.ABLATION, table)
    assert len(marginals) == 8


_COMBINES = (np.add, np.subtract, np.maximum)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(0, 2**32 - 1), st.sampled_from(_COMBINES), st.booleans())
def test_subset_transform_matches_the_per_bit_pass(n, seed, combine, integers):
    rng = np.random.default_rng(seed)
    values = rng.integers(-3, 4, 1 << n).astype(float) if integers else rng.normal(size=1 << n)
    expected = audit_oracle.subset_transform_per_bit(values.copy(), n, combine)
    assert _subset_transform(values.copy(), n, combine).tobytes() == expected.tobytes()


@pytest.mark.parametrize(("n", "combine"), itertools.product((16, 20), _COMBINES))
def test_subset_transform_matches_the_per_bit_pass_at_large_n(n, combine):
    values = np.random.default_rng(n).normal(size=1 << n)
    expected = audit_oracle.subset_transform_per_bit(values.copy(), n, combine)
    assert _subset_transform(values.copy(), n, combine).tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.booleans(), _METHOD_ORDERS)
def test_score_vectors_match_one_rule_at_a_time(n, seed, integers, methods):
    table = seeded_table(n, seed, integers)
    vectors = sepsets.score_vectors(tuple(methods), table)
    assert list(vectors) == methods
    for m in methods:
        alone = sepsets.score_vector(m, table)
        assert vectors[m].scores.tobytes() == alone.scores.tobytes()
        assert vectors[m].witnesses == alone.witnesses
    assert ScoreMethod.MCI not in methods or vectors[ScoreMethod.MCI].witnesses is not None
