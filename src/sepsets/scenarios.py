"""Self-contained demonstration scenarios with checkable claims.

Each demo builds its inputs exactly (no sampling, no RNG), keeps its
value tables in one dict, scores each table it scores with one
``score_vectors`` call, runs the relevant axiom checkers, and returns a
:class:`ScenarioReport` whose claims each name a verifiable statement
together with the numbers backing it. Reports serialize to JSON
byte-identically across runs.

The four scenarios:

* ``mci_nonlinearity``: a two-instance mixture where max-based scoring
  of the mean disagrees with the mean of the scores.
* ``twin_features``: a duplicated feature with two perfect single-
  feature models; whichever way the model tables are built, some
  axiom has to give.
* ``collider``: a four-variable chain where conditioning on a common
  effect manufactures importance for an independent feature.
* ``toy_separable``: a three-feature dataset with one duplicated pair,
  walking the full pipeline from rows to grouped scores, which are the
  scores of the induced meta table.
"""

from __future__ import annotations

import itertools
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


def _listed(vectors: dict[ScoreMethod, ImportanceVector]) -> dict[str, list[float]]:
    return {m.value: v.scores.tolist() for m, v in vectors.items()}


def demo_mci_nonlinearity(tol: Tolerance = DEFAULT_TOL) -> ScenarioReport:
    """Max-based scores are not linear in the table.

    Two tiny two-feature tables are mixed half and half. The linear
    rules commute with the mixture; the max-marginal rule does not,
    and the gap is macroscopic (0.5 in both coordinates).
    """
    first = ValueTable(2, [0.0, 0.0, 1.0, 2.0])
    second = ValueTable(2, [0.0, 1.0, 1.0, 1.0])
    alpha = 0.5
    tables = {"first": first, "second": second, "mixture": mix(first, second, alpha)}
    vectors = {label: score_vectors(ALL_METHODS, t) for label, t in tables.items()}

    s1, s2, s12 = vectors.values()
    mean = {m: alpha * s1[m].scores + (1.0 - alpha) * s2[m].scores for m in ALL_METHODS}
    linearity = {
        m: _largest_gap("score_linearity", s12[m].scores, mean[m], tol) for m in ALL_METHODS
    }
    mci = ScoreMethod.MCI
    margin = float(np.min(np.abs(s12[mci].scores - mean[mci])))
    # The mixture is the global table of the space weighting the two tables alpha, 1 - alpha.
    consistency = _largest_gap("importance_consistency", s12[mci].scores, mean[mci], tol)

    exact = (
        ("mci_of_first", s1[mci].scores, [1.0, 2.0]),
        ("mci_of_second", s2[mci].scores, [1.0, 1.0]),
        ("mci_of_mixture", s12[mci].scores, [0.5, 1.0]),
        ("mean_of_mci_scores", mean[mci], [1.0, 1.5]),
    )
    claims = (
        *(
            Claim(name, bool(np.array_equal(got, want)), got.tolist(), want)
            for name, got, want in exact
        ),
        Claim(
            "mci_mixture_gap_at_least_half",
            margin >= 0.5,
            margin,
            0.5,
            note="smallest coordinate gap between score-of-mixture and mixture-of-scores",
        ),
        Claim(
            "linear_rules_commute_with_mixture",
            all(linearity[m].passed for m in ALL_METHODS if m is not mci),
            [m.value for m in ALL_METHODS if not linearity[m].passed],
            ["mci"],
        ),
    )
    return ScenarioReport(
        name="mci_nonlinearity",
        inputs={"alpha": alpha},
        tables={label: t.values.tolist() for label, t in tables.items()},
        scores={label: _listed(v) for label, v in vectors.items()},
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
    # Model k reads column k, and column 1 - k is its duplicate. On the grid,
    # whose first feature varies slowest, model k outputs grid column k.
    models = (0, 1)
    grids = [
        OutcomeTable(((lo, hi), (lo, hi)), np.array(outputs))
        for outputs in ([lo, lo, hi, hi], [lo, hi, lo, hi])
    ]
    uniform = np.full(4, 0.25)
    weighted = [f"model{k}_data_weighted" for k in models]
    gridded = [f"model{k}_grid" for k in models]
    tables = {
        "data": r2_value_table(support),
        **{weighted[k]: model_value_table(support, support.X[:, k]) for k in models},
        **{gridded[k]: r2_value_table(grid_to_dataset(grids[k], uniform)) for k in models},
    }
    labels = ("data", *gridded, *weighted)
    vectors = {label: score_vectors(ALL_METHODS, tables[label]) for label in labels}

    misses = [float(np.max(np.abs(support.X[:, k] - support.y))) for k in models]
    spreads = [null_feature_residual(grids[k], 1 - k) for k in models]
    axiom_rows: list[tuple[str, AxiomReport]] = []
    claims = [
        Claim(f"model{k}_perfect_on_support", misses[k] == 0.0, misses[k], 0.0) for k in models
    ]
    claims += [
        Claim(
            f"duplicate_null_for_model{k}",
            spreads[k] == 0.0,
            spreads[k],
            0.0,
            note=f"model {k} output never depends on feature {1 - k} anywhere on the grid",
        )
        for k in models
    ]

    for m in ALL_METHODS:
        data = vectors["data"][m].scores
        grid = [vectors[label][m] for label in gridded]
        nf, dme, triv = [], [], []
        for k in models:
            nf.append(check_null_feature(grids[k], vectors[weighted[k]][m], 1 - k, tol))
            # Both models are perfect on the data, so equivalence applies to each.
            dme.append(_largest_gap("data_model_equivalence", grid[k].scores, data, tol))
            triv.append(check_triviality(tables[gridded[k]], grid[k], tol))
        axiom_rows += [(f"null_feature[{m.value},model{k},data-weighted]", nf[k]) for k in models]
        axiom_rows += [(f"data_model_equivalence[{m.value},model{k},grid]", dme[k]) for k in models]
        weighted_scores = vectors[weighted[0]][m].scores
        dme_data = _largest_gap("data_model_equivalence", weighted_scores, data, tol)
        axiom_rows.append((f"data_model_equivalence[{m.value},model0,data-weighted]", dme_data))
        nf_grid = check_null_feature(grids[0], grid[0], 1, tol)
        axiom_rows.append((f"null_feature[{m.value},model0,grid]", nf_grid))
        axiom_rows += [(f"triviality[{m.value},model{k},grid]", triv[k]) for k in models]

        broken = []
        if not all(r.passed for r in nf):
            broken.append("null_feature")
        if not all(r.passed for r in dme):
            broken.append("data_model_equivalence")
        claims += [
            Claim(
                f"axiom_breaks[{m.value}]",
                bool(broken),
                broken,
                note="axioms failing under at least one table construction",
            ),
            Claim(
                f"triviality_holds_on_model_tables[{m.value}]",
                all(r.passed and not r.vacuous for r in triv),
            ),
            Claim(
                f"perfect_models_disagree[{m.value}]",
                bool(np.max(np.abs(grid[0].scores - grid[1].scores)) > tol.absolute),
                grid[0].scores.tolist(),
                grid[1].scores.tolist(),
                note="scores of the two perfect models, grid construction",
            ),
        ]

    claims.append(
        Claim(
            "model_tables_nonzero",
            all(np.max(np.abs(tables[label].values)) > tol.absolute for label in gridded),
        )
    )

    return ScenarioReport(
        name="twin_features",
        inputs={"signal_domain": [lo, hi], "grid_weights": "uniform"},
        tables={label: t.values.tolist() for label, t in tables.items()},
        scores={label: _listed(v) for label, v in vectors.items()},
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


def _collider_dataset(params: ColliderParams, features: tuple[str, ...]) -> Dataset:
    """Observed-variable dataset with smoking marginalized out.

    Feature columns are centred at their weighted means, so a feature
    statistically independent of the target earns exactly zero fit
    gain on its own. The 0/1 target is left as is.
    """
    rows: dict[tuple[int, ...], float] = {}
    for s, e, g, c in itertools.product((0, 1), repeat=4):
        # 1.0 * x is exact, so the weight is ((smoke * earache) * gum) * cancer.
        chances = (params.p_smoke, params.p_earache, params.p_gum[s][e], params.p_cancer[s])
        p = 1.0
        for chance, bit in zip(chances, (s, e, g, c)):
            p *= chance if bit else 1.0 - chance
        key = tuple({"earache": e, "gum": g}[f] for f in features) + (c,)
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
    settings = {
        "earache_only": ("earache",),
        "gum_only": ("gum",),
        "earache_and_gum": ("earache", "gum"),
    }
    tables = {
        label: r2_value_table(_collider_dataset(params, features))
        for label, features in settings.items()
    }
    vectors = {"earache_and_gum": score_vectors(ALL_METHODS, tables["earache_and_gum"])}

    earache_alone = float(tables["earache_only"].values[1])
    gum_alone = float(tables["gum_only"].values[1])
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
    for m, v in vectors["earache_and_gum"].items():
        value = float(v.scores[0])
        note = "earache importance in setting three"
        if m is ScoreMethod.BIVARIATE:
            note += "; context-free by definition, stays zero"
        name = f"earache_scored_with_gum[{m.value}]"
        claims.append(Claim(name, value >= 1e-4, value, 1e-4, note=note))

    return ScenarioReport(
        name="collider",
        inputs={
            "p_smoke": params.p_smoke,
            "p_earache": params.p_earache,
            "p_gum": [list(row) for row in params.p_gum],
            "p_cancer": list(params.p_cancer),
        },
        tables={label: t.values.tolist() for label, t in tables.items()},
        scores={label: _listed(v) for label, v in vectors.items()},
        axiom_rows=(),
        claims=tuple(claims),
    )


def demo_toy_separable(tol: Tolerance = DEFAULT_TOL) -> ScenarioReport:
    """Full pipeline on a three-feature dataset with a duplicated pair.

    Features 0 and 1 are identical columns; feature 2 is orthogonal to
    them, and the target mixes both signals plus an orthogonal residual
    no feature explains. The value table lands on simple fractions, the
    maximal partition pairs the duplicates, and grouped scores agree
    across all four rules. Grouped scores are those of the induced meta
    table, whose feature k is block k, scored once like the dataset's.
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
    expected_meta = np.array([0.0, 0.5, 1 / 3, 5 / 6])
    tables = {"dataset": table, "meta": meta}
    vectors = {
        "dataset": score_vectors(ALL_METHODS, table),
        "grouped": score_vectors(ALL_METHODS, meta),
    }
    grouped = _listed(vectors["grouped"])
    block_values = [float(table.values[b]) for b in partition.blocks]
    grouped_ok = all(
        max(abs(g - b) for g, b in zip(grouped[m.value], block_values)) <= tol.absolute
        for m in ALL_METHODS
    )
    share_sum = sum(block_values)

    elimination = check_elimination(ScoreMethod.ABLATION, table, tol)
    symmetry = {
        m.value: check_symmetry(table, v, "z_pair", tol) for m, v in vectors["dataset"].items()
    }

    claims = (
        Claim("table_matches_expected", table_gap <= 1e-9, table.values.tolist(), expected),
        Claim(
            "duplicates_share_a_block",
            partition.block_indices() == ((0, 1), (2,)),
            [list(b) for b in partition.block_indices()],
            [[0, 1], [2]],
        ),
        Claim(
            "meta_table",
            # Another partition, as a large tol gives, induces a table of another size.
            meta.values.shape == (4,) and bool(np.max(np.abs(meta.values - expected_meta)) <= 1e-9),
            meta.values.tolist(),
            expected_meta.tolist(),
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
        inputs={"rows": X.tolist(), "target": y.tolist()},
        tables={label: t.values.tolist() for label, t in tables.items()},
        scores={label: _listed(v) for label, v in vectors.items()},
        axiom_rows=(
            ("elimination[ablation]", elimination),
            *((f"symmetry[{k}]", v) for k, v in symmetry.items()),
        ),
        claims=claims,
    )


def render_scenario_markdown(report: ScenarioReport) -> str:
    """Human-oriented rendering; values at 12 significant digits."""
    lines = [f"# scenario: {report.name}", ""]
    sections = (("inputs", report.inputs), ("value tables (mask order)", report.tables))
    for heading, section in sections:
        if section:
            lines.append(f"## {heading}")
            lines += [f"- {key}: {_fmt(value)}" for key, value in section.items()]
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
