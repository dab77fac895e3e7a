"""Self-contained demonstration scenarios with checkable claims.

Each demo builds its inputs exactly (no sampling, no RNG), computes
tables and scores through the public API, runs the relevant axiom
checkers, and returns a :class:`ScenarioReport` whose claims each name
a verifiable statement together with the numbers backing it. Reports
serialize to JSON byte-identically across runs.

The four scenarios:

* ``mci_nonlinearity``: a two-instance mixture where max-based scoring
  of the mean disagrees with the mean of the scores.
* ``twin_features``: a duplicated feature with two perfect single-
  feature models; whichever way the model tables are built, some
  axiom has to give.
* ``collider``: a four-variable chain where conditioning on a common
  effect manufactures importance for an independent feature.
* ``toy_separable``: a three-feature dataset with one duplicated pair,
  walking the full pipeline from rows to grouped scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import (
    AxiomReport,
    _largest_gap,
    check_elimination,
    check_null_feature,
    check_symmetry,
    check_triviality,
    report_rows_markdown,
)
from .dataset_eval import (
    Dataset,
    OutcomeTable,
    grid_to_dataset,
    model_value_table,
    null_feature_residual,
    r2_value_table,
)
from .errors import TableError
from .importance import (
    ALL_METHODS,
    ImportanceVector,
    ScoreMethod,
    grouped_score_vector,
    score_vectors,
)
from .separability import induced_meta_table, maximal_partition
from .subset_algebra import DEFAULT_TOL, Tolerance, ValueTable, mix

JsonValue = float | int | str | bool | None | list


@dataclass(frozen=True)
class Claim:
    """One named, numbers-backed statement of a scenario report."""

    name: str
    holds: bool
    lhs: JsonValue = None
    rhs: JsonValue = None
    note: str = ""

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "holds": self.holds}
        if self.lhs is not None:
            out["lhs"] = self.lhs
        if self.rhs is not None:
            out["rhs"] = self.rhs
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    """Everything a scenario computed, in JSON-ready shape."""

    name: str
    inputs: dict
    tables: dict
    scores: dict
    axiom_rows: tuple[tuple[str, AxiomReport], ...]
    claims: tuple[Claim, ...]

    def to_dict(self) -> dict:
        return {
            "scenario": self.name,
            "inputs": self.inputs,
            "tables": self.tables,
            "scores": self.scores,
            "axioms": [
                {"check": label, **report.to_dict()} for label, report in self.axiom_rows
            ],
            "claims": [c.to_dict() for c in self.claims],
        }

    def claim(self, name: str) -> Claim:
        for c in self.claims:
            if c.name == name:
                return c
        raise KeyError(f"no claim named {name!r}")


def _listify(arr: np.ndarray) -> list[float]:
    return [float(x) for x in arr]


def _listed(vectors: dict[ScoreMethod, ImportanceVector]) -> dict[str, list[float]]:
    return {m.value: _listify(v.scores) for m, v in vectors.items()}


def demo_mci_nonlinearity(tol: Tolerance = DEFAULT_TOL) -> ScenarioReport:
    """Max-based scores are not linear in the table.

    Two tiny two-feature tables are mixed half and half. The linear
    rules commute with the mixture; the max-marginal rule does not,
    and the gap is macroscopic (0.5 in both coordinates).
    """
    first = ValueTable(2, [0.0, 0.0, 1.0, 2.0])
    second = ValueTable(2, [0.0, 1.0, 1.0, 1.0])
    alpha = 0.5
    mixed = mix(first, second, alpha)

    s1, s2, s12 = (score_vectors(ALL_METHODS, t) for t in (first, second, mixed))
    mean = {m: alpha * s1[m].scores + (1.0 - alpha) * s2[m].scores for m in ALL_METHODS}
    linearity = {
        m: _largest_gap("score_linearity", s12[m].scores, mean[m], tol) for m in ALL_METHODS
    }
    mci = ScoreMethod.MCI
    mci_first, mci_second, mci_mixed = s1[mci].scores, s2[mci].scores, s12[mci].scores
    mean_of_scores = mean[mci]
    margin = float(np.min(np.abs(mci_mixed - mean_of_scores)))
    # The mixture is the global table of the space weighting the two tables alpha, 1 - alpha.
    consistency = _largest_gap("importance_consistency", mci_mixed, mean_of_scores, tol)

    claims = (
        Claim("mci_of_first", bool(np.array_equal(mci_first, [1.0, 2.0])),
              _listify(mci_first), [1.0, 2.0]),
        Claim("mci_of_second", bool(np.array_equal(mci_second, [1.0, 1.0])),
              _listify(mci_second), [1.0, 1.0]),
        Claim("mci_of_mixture", bool(np.array_equal(mci_mixed, [0.5, 1.0])),
              _listify(mci_mixed), [0.5, 1.0]),
        Claim("mean_of_mci_scores", bool(np.array_equal(mean_of_scores, [1.0, 1.5])),
              _listify(mean_of_scores), [1.0, 1.5]),
        Claim(
            "mci_mixture_gap_at_least_half",
            margin >= 0.5,
            margin,
            0.5,
            note="smallest coordinate gap between score-of-mixture and mixture-of-scores",
        ),
        Claim(
            "linear_rules_commute_with_mixture",
            all(
                linearity[m].passed
                for m in (ScoreMethod.BIVARIATE, ScoreMethod.ABLATION, ScoreMethod.SHAPLEY)
            ),
            [m.value for m in ALL_METHODS if not linearity[m].passed],
            ["mci"],
        ),
    )
    return ScenarioReport(
        name="mci_nonlinearity",
        inputs={"alpha": alpha},
        tables={
            "first": _listify(first.values),
            "second": _listify(second.values),
            "mixture": _listify(mixed.values),
        },
        scores={"first": _listed(s1), "second": _listed(s2), "mixture": _listed(s12)},
        axiom_rows=(
            ("importance_consistency[mci]", consistency),
            *((f"linearity[{m.value}]", linearity[m]) for m in ALL_METHODS),
        ),
        claims=claims,
    )


def demo_twin_features(tol: Tolerance = DEFAULT_TOL) -> ScenarioReport:
    """Duplicated feature, two perfect models, incompatible axioms.

    The data carries one binary signal duplicated into two columns;
    model 0 reads column 0 and model 1 reads column 1, both perfectly.
    A model's value table can be built two ways, and each way breaks a
    different axiom:

    * under the data distribution (duplicates always equal), the two
      model tables coincide, so score equivalence holds trivially, but
      each model's functionally irrelevant duplicate earns a nonzero
      score under every rule except ablation;
    * on the full product grid (off-support cells weighted equally),
      each model's table reflects only its own column, so the two
      perfect models' scores disagree under every rule.

    Either way, at least one of the two axioms fails for every method.
    """
    lo, hi = -1.0, 1.0
    support = Dataset(
        np.array([[lo, lo], [hi, hi]]), np.array([lo, hi]), np.array([0.5, 0.5])
    )
    m0_support = support.X[:, 0]
    m1_support = support.X[:, 1]
    miss0 = float(np.max(np.abs(m0_support - support.y)))
    miss1 = float(np.max(np.abs(m1_support - support.y)))

    grid0 = OutcomeTable(((lo, hi), (lo, hi)), np.array([lo, lo, hi, hi]))
    grid1 = OutcomeTable(((lo, hi), (lo, hi)), np.array([lo, hi, lo, hi]))
    uniform = np.full(4, 0.25)
    tables = {
        "data": r2_value_table(support),
        "model0_data_weighted": model_value_table(support, m0_support),
        "model1_data_weighted": model_value_table(support, m1_support),
        "model0_grid": r2_value_table(grid_to_dataset(grid0, uniform)),
        "model1_grid": r2_value_table(grid_to_dataset(grid1, uniform)),
    }
    nu_m0_grid, nu_m1_grid = tables["model0_grid"], tables["model1_grid"]
    vectors = {label: score_vectors(ALL_METHODS, t) for label, t in tables.items()}

    spread0 = null_feature_residual(grid0, 1)
    spread1 = null_feature_residual(grid1, 0)
    axiom_rows: list[tuple[str, AxiomReport]] = []
    claims: list[Claim] = [
        Claim("model0_perfect_on_support", miss0 == 0.0, miss0, 0.0),
        Claim("model1_perfect_on_support", miss1 == 0.0, miss1, 0.0),
        Claim(
            "duplicate_null_for_model0",
            spread0 == 0.0,
            spread0,
            0.0,
            note="model 0 output never depends on feature 1 anywhere on the grid",
        ),
        Claim(
            "duplicate_null_for_model1",
            spread1 == 0.0,
            spread1,
            0.0,
            note="model 1 output never depends on feature 0 anywhere on the grid",
        ),
    ]

    for m in ALL_METHODS:
        g0, g1 = vectors["model0_grid"][m], vectors["model1_grid"][m]
        nf0 = check_null_feature(grid0, vectors["model0_data_weighted"][m], 1, tol)
        nf1 = check_null_feature(grid1, vectors["model1_data_weighted"][m], 0, tol)
        axiom_rows.append((f"null_feature[{m.value},model0,data-weighted]", nf0))
        axiom_rows.append((f"null_feature[{m.value},model1,data-weighted]", nf1))

        # Both models are perfect on the data, so equivalence applies to each.
        data = vectors["data"][m].scores
        dme0 = _largest_gap("data_model_equivalence", g0.scores, data, tol)
        dme1 = _largest_gap("data_model_equivalence", g1.scores, data, tol)
        axiom_rows.append((f"data_model_equivalence[{m.value},model0,grid]", dme0))
        axiom_rows.append((f"data_model_equivalence[{m.value},model1,grid]", dme1))

        weighted = vectors["model0_data_weighted"][m].scores
        dme_data = _largest_gap("data_model_equivalence", weighted, data, tol)
        axiom_rows.append((f"data_model_equivalence[{m.value},model0,data-weighted]", dme_data))

        nf_grid = check_null_feature(grid0, g0, 1, tol)
        axiom_rows.append((f"null_feature[{m.value},model0,grid]", nf_grid))

        triv0 = check_triviality(nu_m0_grid, g0, tol)
        triv1 = check_triviality(nu_m1_grid, g1, tol)
        axiom_rows.append((f"triviality[{m.value},model0,grid]", triv0))
        axiom_rows.append((f"triviality[{m.value},model1,grid]", triv1))

        broken = []
        if not nf0.passed or not nf1.passed:
            broken.append("null_feature")
        if not dme0.passed or not dme1.passed:
            broken.append("data_model_equivalence")
        claims.append(
            Claim(
                f"axiom_breaks[{m.value}]",
                bool(broken),
                broken,
                note="axioms failing under at least one table construction",
            )
        )
        claims.append(
            Claim(
                f"triviality_holds_on_model_tables[{m.value}]",
                triv0.passed and not triv0.vacuous and triv1.passed and not triv1.vacuous,
            )
        )
        claims.append(
            Claim(
                f"perfect_models_disagree[{m.value}]",
                bool(np.max(np.abs(g0.scores - g1.scores)) > tol.absolute),
                _listify(g0.scores),
                _listify(g1.scores),
                note="scores of the two perfect models, grid construction",
            )
        )

    claims.append(
        Claim(
            "model_tables_nonzero",
            bool(
                np.max(np.abs(nu_m0_grid.values)) > tol.absolute
                and np.max(np.abs(nu_m1_grid.values)) > tol.absolute
            ),
        )
    )

    return ScenarioReport(
        name="twin_features",
        inputs={"signal_domain": [lo, hi], "grid_weights": "uniform"},
        tables={label: _listify(t.values) for label, t in tables.items()},
        scores={
            "data": _listed(vectors["data"]),
            "model0_grid": _listed(vectors["model0_grid"]),
            "model1_grid": _listed(vectors["model1_grid"]),
            "model0_data_weighted": _listed(vectors["model0_data_weighted"]),
            "model1_data_weighted": _listed(vectors["model1_data_weighted"]),
        },
        axiom_rows=tuple(axiom_rows),
        claims=tuple(claims),
    )


@dataclass(frozen=True)
class ColliderParams:
    """Conditional probabilities of the four-variable collider model.

    ``p_gum[s][e]`` is the chance of gum disease given smoking status s
    and earache status e; ``p_cancer[s]`` the chance of cancer given s.
    Smoking is never observed.
    """

    p_smoke: float = 0.3
    p_earache: float = 0.2
    p_gum: tuple[tuple[float, float], tuple[float, float]] = ((0.1, 0.9), (0.9, 0.9))
    p_cancer: tuple[float, float] = (0.05, 0.5)

    def __post_init__(self) -> None:
        flat = [self.p_smoke, self.p_earache, *self.p_gum[0], *self.p_gum[1], *self.p_cancer]
        for p in flat:
            if not (0.0 <= p <= 1.0):
                raise TableError(f"probability {p!r} outside [0, 1]")


def _collider_joint(params: ColliderParams) -> list[tuple[int, int, int, int, float]]:
    cells = []
    for s in (0, 1):
        ps = params.p_smoke if s else 1.0 - params.p_smoke
        for e in (0, 1):
            pe = params.p_earache if e else 1.0 - params.p_earache
            for g in (0, 1):
                pg1 = params.p_gum[s][e]
                pg = pg1 if g else 1.0 - pg1
                for c in (0, 1):
                    pc1 = params.p_cancer[s]
                    pc = pc1 if c else 1.0 - pc1
                    cells.append((s, e, g, c, ps * pe * pg * pc))
    return cells


def _collider_dataset(
    params: ColliderParams, features: tuple[str, ...]
) -> Dataset:
    """Observed-variable dataset with smoking marginalized out.

    Feature columns are centred at their weighted means, so a feature
    statistically independent of the target earns exactly zero fit
    gain on its own. The 0/1 target is left as is.
    """
    index = {"earache": 1, "gum": 2}
    rows: dict[tuple[int, ...], float] = {}
    for s, e, g, c, p in _collider_joint(params):
        cell = (s, e, g, c)
        key = tuple(cell[index[f]] for f in features) + (c,)
        rows[key] = rows.get(key, 0.0) + p
    keys = sorted(rows)
    X = np.array([k[:-1] for k in keys], dtype=np.float64)
    y = np.array([k[-1] for k in keys], dtype=np.float64)
    w = np.array([rows[k] for k in keys], dtype=np.float64)
    w = w / w.sum()
    X = X - (w @ X)
    return Dataset(X, y, w)


def demo_collider(
    params: ColliderParams | None = None, tol: Tolerance = DEFAULT_TOL
) -> ScenarioReport:
    """Importance manufactured by conditioning on a common effect.

    Smoking causes cancer and gum disease; earache also causes gum
    disease but has nothing to do with cancer. Three observation
    settings (exact enumeration throughout):

    1. earache alone: independent of cancer, zero value;
    2. gum alone: informative about cancer through smoking;
    3. earache and gum together: given gum, earache becomes informative
       (it explains gum away), so every context-sensitive rule now
       scores it positive. The bivariate score ignores context and
       stays exactly zero; that honest exception is recorded as such.
    """
    params = params or ColliderParams()
    d1 = _collider_dataset(params, ("earache",))
    d2 = _collider_dataset(params, ("gum",))
    d3 = _collider_dataset(params, ("earache", "gum"))
    t1 = r2_value_table(d1)
    t2 = r2_value_table(d2)
    t3 = r2_value_table(d3)

    earache_alone = float(t1.values[1])
    gum_alone = float(t2.values[1])
    setting3 = score_vectors(ALL_METHODS, t3)

    claims = [
        Claim(
            "earache_worthless_alone",
            abs(earache_alone) <= 1e-9,
            earache_alone,
            0.0,
            note="earache and cancer are independent; setting one",
        ),
        Claim(
            "gum_informative_alone",
            gum_alone >= 0.01,
            gum_alone,
            0.01,
            note="gum disease proxies smoking; setting two",
        ),
    ]
    for m in ALL_METHODS:
        value = float(setting3[m].scores[0])
        claims.append(
            Claim(
                f"earache_scored_with_gum[{m.value}]",
                value >= 1e-4,
                value,
                1e-4,
                note="earache importance in setting three"
                + (
                    "; context-free by definition, stays zero"
                    if m is ScoreMethod.BIVARIATE
                    else ""
                ),
            )
        )

    return ScenarioReport(
        name="collider",
        inputs={
            "p_smoke": params.p_smoke,
            "p_earache": params.p_earache,
            "p_gum": [list(row) for row in params.p_gum],
            "p_cancer": list(params.p_cancer),
        },
        tables={
            "earache_only": _listify(t1.values),
            "gum_only": _listify(t2.values),
            "earache_and_gum": _listify(t3.values),
        },
        scores={"earache_and_gum": _listed(setting3)},
        axiom_rows=(),
        claims=tuple(claims),
    )


def demo_toy_separable(tol: Tolerance = DEFAULT_TOL) -> ScenarioReport:
    """Full pipeline on a three-feature dataset with a duplicated pair.

    Features 0 and 1 are identical columns; feature 2 is orthogonal to
    them, and the target mixes both signals plus an orthogonal residual
    no feature explains. The value table lands on simple fractions, the
    maximal partition pairs the duplicates, and grouped scores agree
    across all four rules.
    """
    root6 = float(np.sqrt(1.0 / 6.0))
    root23 = float(np.sqrt(2.0 / 3.0))
    X = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    noise = np.array([root6, -root23, root6])
    y = X[:, 0] + X[:, 2] + noise
    data = Dataset(X, y, np.full(3, 1.0 / 3.0))
    table = r2_value_table(data)

    expected = [0.0, 0.5, 0.5, 0.5, 1 / 3, 5 / 6, 5 / 6, 5 / 6]
    table_gap = float(np.max(np.abs(table.values - np.array(expected))))

    partition = maximal_partition(table, tol)
    meta = induced_meta_table(table, partition, tol)
    grouped = {
        m.value: _listify(grouped_score_vector(m, table, partition)) for m in ALL_METHODS
    }
    block_values = [float(table.values[b]) for b in partition.blocks]
    grouped_ok = all(
        max(abs(g - b) for g, b in zip(grouped[m.value], block_values)) <= tol.absolute
        for m in ALL_METHODS
    )
    share_sum = sum(block_values)

    vectors = score_vectors(ALL_METHODS, table)
    elimination = check_elimination(ScoreMethod.ABLATION, table, tol)
    symmetry = {m.value: check_symmetry(table, v, "z_pair", tol) for m, v in vectors.items()}

    claims = (
        Claim("table_matches_expected", table_gap <= 1e-9, _listify(table.values), expected),
        Claim(
            "duplicates_share_a_block",
            partition.block_indices() == ((0, 1), (2,)),
            [list(b) for b in partition.block_indices()],
            [[0, 1], [2]],
        ),
        Claim(
            "meta_table",
            bool(np.max(np.abs(meta.values - np.array([0.0, 0.5, 1 / 3, 5 / 6]))) <= 1e-9),
            _listify(meta.values),
            [0.0, 0.5, 1 / 3, 5 / 6],
        ),
        Claim(
            "grouped_scores_equal_block_values",
            grouped_ok,
            grouped["shapley"],
            block_values,
            note="all four rules coincide on separable blocks",
        ),
        Claim(
            "block_shares_sum_to_full_value",
            abs(share_sum - float(table.values[table.full_mask])) <= 1e-9,
            share_sum,
            float(table.values[table.full_mask]),
        ),
        Claim(
            "ablation_leaks_on_elimination",
            not elimination.passed,
            elimination.residual,
            note="dropping one duplicate restores the other's ablation score",
        ),
        Claim(
            "duplicates_score_identically",
            all(r.passed and not r.vacuous for r in symmetry.values()),
        ),
    )

    return ScenarioReport(
        name="toy_separable",
        inputs={"rows": [[float(v) for v in row] for row in X], "target": _listify(y)},
        tables={"dataset": _listify(table.values), "meta": _listify(meta.values)},
        scores={"dataset": _listed(vectors), "grouped": grouped},
        axiom_rows=(
            ("elimination[ablation]", elimination),
            *((f"symmetry[{k}]", v) for k, v in symmetry.items()),
        ),
        claims=claims,
    )


def render_scenario_markdown(report: ScenarioReport) -> str:
    """Human-oriented rendering; values at 12 significant digits."""
    lines = [f"# scenario: {report.name}", ""]
    if report.inputs:
        lines.append("## inputs")
        for key in report.inputs:
            lines.append(f"- {key}: {_fmt(report.inputs[key])}")
        lines.append("")
    if report.tables:
        lines.append("## value tables (mask order)")
        for label, values in report.tables.items():
            lines.append(f"- {label}: {_fmt(values)}")
        lines.append("")
    if report.scores:
        lines.append("## scores")
        for label, by_method in report.scores.items():
            for method, vec in by_method.items():
                lines.append(f"- {label} / {method}: {_fmt(vec)}")
        lines.append("")
    if report.axiom_rows:
        lines.append("## axiom checks")
        lines.append(report_rows_markdown(list(report.axiom_rows)))
    lines.append("## claims")
    lines.append("| claim | holds | lhs | rhs |")
    lines.append("| --- | --- | --- | --- |")
    for c in report.claims:
        lines.append(
            f"| {c.name} | {'yes' if c.holds else 'NO'} | {_fmt(c.lhs)} | {_fmt(c.rhs)} |"
        )
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if value is None:
        return ""
    return str(value)
