"""Axiom checkers for importance scores over value tables.

Each checker probes one property a scoring rule might be expected to
satisfy and returns an :class:`AxiomReport`: pass or fail, the worst
residual found, and on failure a witness precise enough to replay the
defining inequality by hand. Properties with a hypothesis (null
feature, symmetry, a perfect model) report a vacuous pass when the
hypothesis never applies; a vacuous pass is flagged so it is never
mistaken for evidence.

Conventions shared by all checkers:

* comparisons use the absolute tolerance passed in;
* ``passed`` is equivalent to ``residual <= tol``;
* a witness is present exactly when the check failed;
* scanning is deterministic (ascending masks, then features), and ties
  keep the first maximum, so reports are reproducible bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .dataset_eval import OutcomeTable, null_feature_residual
from .errors import TableError
from .importance import (
    ImportanceVector,
    ScoreMethod,
    _vectors_from_features,
    _walk,
    restricted_vector,
    score_vector,
)
from .separability import is_separable
from .subset_algebra import (
    DEFAULT_TOL,
    Tolerance,
    ValueTable,
    _context_mask,
    _halves,
    _marginals,
    indices_of,
)

SYMMETRY_VARIANTS = ("z_empty", "z_pair")


@dataclass(frozen=True)
class Witness:
    """Location of a violation: the subset/feature/instance involved,
    plus the two sides of the defining comparison."""

    subset: int | None = None
    feature: int | None = None
    feature_b: int | None = None
    instance: int | None = None
    lhs: float | None = None
    rhs: float | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check at one tolerance."""

    axiom: str
    passed: bool
    residual: float
    tol: float
    vacuous: bool = False
    witness: Witness | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if not np.isfinite(self.residual):
            raise TableError(f"{self.axiom} residual overflows the float range")
        if self.passed != (self.residual <= self.tol):
            raise TableError(
                f"inconsistent report for {self.axiom}: passed={self.passed} "
                f"but residual={self.residual} at tol={self.tol}"
            )
        if (self.witness is not None) != (not self.passed):
            raise TableError(f"witness must be present exactly on failure ({self.axiom})")
        if self.vacuous and not self.passed:
            raise TableError(f"a vacuous check cannot fail ({self.axiom})")

    def to_dict(self) -> dict:
        out = {
            "axiom": self.axiom,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "residual": self.residual,
            "tol": self.tol,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class SeparableImportanceReport:
    """Both directions of the separability/additivity correspondence."""

    item1: AxiomReport
    item2: AxiomReport


def _passed(axiom: str, tol: Tolerance, residual: float = 0.0, detail: str = "") -> AxiomReport:
    return AxiomReport(axiom, True, residual, tol.absolute, detail=detail)


def _vacuous(axiom: str, tol: Tolerance, detail: str) -> AxiomReport:
    return AxiomReport(axiom, True, 0.0, tol.absolute, vacuous=True, detail=detail)


def _report(
    axiom: str, tol: Tolerance, worst: float, witness: Witness | None, detail: str = ""
) -> AxiomReport:
    """Pass when ``worst`` is within ``tol``, else fail with ``witness``."""
    if tol.within(worst):
        return _passed(axiom, tol, worst, detail)
    return AxiomReport(axiom, False, worst, tol.absolute, witness=witness, detail=detail)


def _largest_gap(
    axiom: str, lhs: np.ndarray, rhs: np.ndarray, tol: Tolerance, key: str = "feature"
) -> AxiomReport:
    """Judge the largest ``|lhs - rhs|``; the witness names its first index as ``key``."""
    gaps = np.abs(lhs - rhs)
    at = int(np.argmax(gaps))
    witness = Witness(**{key: at}, lhs=float(lhs[at]), rhs=float(rhs[at]))
    return _report(axiom, tol, float(gaps[at]), witness)


def _first_worst(candidates) -> tuple[float, Witness | None]:
    """The first largest positive residual of (residual, witness) pairs, and its witness."""
    worst, witness = 0.0, None
    for residual, w in candidates:
        if residual > worst:
            worst, witness = residual, w
    return worst, witness


def _check_scores(table: ValueTable, v: ImportanceVector) -> None:
    if v.n != table.n:
        raise TableError(f"scores over {v.n} features do not match table over {table.n}")


def check_empty_set(table: ValueTable, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """The empty subset should carry no value."""
    witness = Witness(subset=0, lhs=float(table.values[0]), rhs=0.0)
    return _report("empty_set_value", tol, abs(float(table.values[0])), witness)


def _descent(values: np.ndarray, f: int, gains: np.ndarray) -> tuple[float, Witness]:
    """Feature f's largest value drop over its marginals ``gains``, lowest context first."""
    at = int(np.argmin(gains))
    sub = _context_mask(at, f)
    return -float(gains[at]), Witness(
        subset=sub, feature=f, lhs=float(values[sub]), rhs=float(values[sub | (1 << f)])
    )


def check_monotonicity(table: ValueTable, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Adding a feature should never lower the value.

    Single-feature extensions cover all nested pairs, so the scan is
    O(n * 2^n). Meaningful for a table in the global role; the checker
    itself is agnostic.
    """
    v = table.values
    descents = (_descent(v, f, _marginals(v, table.n, f)) for f in range(table.n))
    return _report("monotonicity", tol, *_first_worst(descents))


def check_marginal_contribution(
    table: ValueTable, v: ImportanceVector, tol: Tolerance = DEFAULT_TOL
) -> AxiomReport:
    """Scores should not undercut the final-context marginal.

    For every feature, the score must be at least the value drop from
    removing the feature from the full set.
    """
    _check_scores(table, v)
    full = table.full_mask
    floors = table.values[full] - table.values[full ^ (1 << np.arange(table.n))]
    gaps = floors - v.scores
    at = int(np.argmax(gaps))
    worst = float(gaps[at]) if gaps[at] > 0 else 0.0
    witness = Witness(feature=at, lhs=float(v.scores[at]), rhs=float(floors[at]))
    return _report("marginal_contribution", tol, worst, witness)


def _rise(f: int, in_subgames: np.ndarray) -> tuple[float, Witness]:
    """Feature f's largest score rise over its subgames, lowest drop mask first."""
    # Reversed, entry c is what is left after dropping _context_mask(c, f).
    by_drop = in_subgames[::-1]
    rises = by_drop[1:] - by_drop[0]
    at = int(np.argmax(rises))
    drop = _context_mask(at + 1, f)
    witness = Witness(subset=drop, feature=f, lhs=float(by_drop[0]), rhs=float(by_drop[at + 1]))
    return float(rises[at]), witness


def _elimination_report(rises, tol: Tolerance) -> AxiomReport:
    """Fold the features' rises; equal rises go to the lowest drop mask.

    ``rises`` come in ascending feature order, which the stable sort keeps
    within each drop mask."""
    by_drop = sorted(rises, key=lambda pair: pair[1].subset)
    return _report("elimination", tol, *_first_worst(by_drop))


def check_elimination(
    method: ScoreMethod, table: ValueTable, tol: Tolerance = DEFAULT_TOL
) -> AxiomReport:
    """Dropping other features should never raise a survivor's score.

    Every nonempty proper feature subset is eliminated in turn and each
    surviving feature rescored (the empty elimination changes nothing).
    The subgame scores come in closed form, O(n * 2^n) per rule and
    O(2^n) memory. The witness is the largest rise, ties going to the
    lowest drop mask and then the lowest feature; its features are in
    the original indexing.
    """
    rises = []
    if table.n > 1 and method is not ScoreMethod.BIVARIATE:
        for f, (_, _, (in_subgames,)) in enumerate(_walk(table, (), (method,))):
            rises.append(_rise(f, in_subgames))
    return _elimination_report(rises, tol)


def check_minimalism(
    table: ValueTable, v: ImportanceVector, tol: Tolerance = DEFAULT_TOL
) -> AxiomReport:
    """Scores should coincide with the maximum marginal contribution.

    This is the checkable fixpoint of preferring smaller sufficient
    contexts: the max-marginal rule is the unique score with that
    property, so the check compares coordinatewise against it.
    """
    _check_scores(table, v)
    reference = score_vector(ScoreMethod.MCI, table).scores
    return _largest_gap("minimalism", v.scores, reference, tol)


def _triviality_report(
    table: ValueTable, scores: np.ndarray, top: Callable[[int], float], tol: Tolerance
) -> AxiomReport:
    """Triviality of ``scores``; ``top(f)`` is the largest |marginal| of
    feature f, asked only for features scored beyond tolerance."""
    n, values = table.n, table.values
    magnitude = np.abs(values)
    active = np.abs(scores) > tol.absolute
    active_mask = sum(1 << f for f in range(n) if active[f])
    candidates = []
    # Item 1: valued subsets without an active member; the first maximum wins.
    silent = (magnitude > tol.absolute) & (np.arange(1 << n) & active_mask == 0)
    s = int(np.argmax(np.where(silent, magnitude, 0.0)))
    if silent[s]:
        peak = max((abs(float(scores[f])) for f in indices_of(s)), default=0.0)
        candidates.append((float(magnitude[s]), Witness(subset=s, lhs=float(values[s]), rhs=peak)))
    # Item 2, ascending feature scan.
    for f in range(n):
        if not active[f]:
            continue
        highest = top(f)
        if highest <= tol.absolute:
            witness = Witness(feature=f, lhs=float(scores[f]), rhs=highest)
            candidates.append((abs(float(scores[f])), witness))
    worst, witness = _first_worst(candidates)
    if witness is not None:
        return AxiomReport("triviality", False, worst, tol.absolute, witness=witness)
    if not np.any(magnitude > tol.absolute) and not np.any(active):
        return _vacuous("triviality", tol, "all values and all scores are zero")
    return _passed("triviality", tol)


def check_triviality(
    table: ValueTable, v: ImportanceVector, tol: Tolerance = DEFAULT_TOL
) -> AxiomReport:
    """Nonzero values need nonzero scores, and vice versa.

    Item 1: every subset with value beyond tolerance must contain a
    feature scored beyond tolerance. Item 2: every feature scored
    beyond tolerance must change the value somewhere. The worst
    violation across both items is reported; with an all-zero table
    and all-zero scores there is nothing to check and the pass is
    flagged vacuous.
    """
    _check_scores(table, v)

    def top(f: int) -> float:
        return float(np.max(np.abs(_marginals(table.values, table.n, f))))

    return _triviality_report(table, v.scores, top, tol)


def check_null_feature(
    grid: OutcomeTable,
    v: ImportanceVector,
    f: int,
    tol: Tolerance = DEFAULT_TOL,
) -> AxiomReport:
    """A feature the model never reacts to should score zero.

    Nullity is decided on the declared product grid: the feature is
    null when no two grid points differing only in it give different
    outputs. Perfectly correlated data cannot hide a dependence this
    way, because off-support grid points still count. If the feature
    is not null the axiom does not apply and the pass is vacuous.
    """
    if v.n != grid.n:
        raise TableError(f"scores over {v.n} features do not match grid over {grid.n}")
    spread = null_feature_residual(grid, f)
    if spread > tol.absolute:
        return _vacuous(
            "null_feature", tol, f"feature {f} is not null (output spread {spread:.6g})"
        )
    witness = Witness(feature=f, lhs=float(v.scores[f]), rhs=0.0)
    return _report("null_feature", tol, abs(float(v.scores[f])), witness)


def check_data_model_equivalence(
    data_table: ValueTable,
    model_table: ValueTable,
    method: ScoreMethod,
    perfect: bool,
    tol: Tolerance = DEFAULT_TOL,
) -> AxiomReport:
    """A perfect model's scores should match the data's scores.

    ``perfect`` is the caller's assertion that the model reproduces the
    target on the data; when it is False the axiom has no bite and the
    pass is vacuous.
    """
    if data_table.n != model_table.n:
        raise TableError(
            f"data table over {data_table.n} features does not match model table "
            f"over {model_table.n}"
        )
    if not perfect:
        return _vacuous("data_model_equivalence", tol, "model is not declared perfect")
    data_scores = score_vector(method, data_table).scores
    model_scores = score_vector(method, model_table).scores
    return _largest_gap("data_model_equivalence", model_scores, data_scores, tol)


def _spread(gap: np.ndarray) -> float:
    return float(np.max(np.abs(gap)))


def _interchangeable(table: ValueTable, tol: Tolerance) -> dict[str, list[tuple[int, int]]]:
    """Interchangeable pairs (f1 < f2, ascending) under each symmetry variant:
    z_empty adds two comparisons to those of z_pair."""
    values, n = table.values, table.n
    pairs: dict[str, list[tuple[int, int]]] = {variant: [] for variant in SYMMETRY_VARIANTS}
    for f1 in range(n):
        for f2 in range(f1 + 1, n):
            # The empty context belongs to both variants, so a gap between
            # the singletons already rules the pair out.
            if abs(float(values[1 << f1] - values[1 << f2])) > tol.absolute:
                continue
            without_f2, with_f2 = _halves(values, n, f2)
            _, only_f1 = _halves(without_f2, n - 1, f1)
            only_f2, both = _halves(with_f2, n - 1, f1)
            if _spread(only_f1 - only_f2) > tol.absolute:
                continue
            pairs["z_pair"].append((f1, f2))
            if max(_spread(only_f1 - both), _spread(both - only_f2)) <= tol.absolute:
                pairs["z_empty"].append((f1, f2))
    return pairs


def _symmetry_report(
    pairs: list[tuple[int, int]], scores: np.ndarray, variant: str, tol: Tolerance
) -> AxiomReport:
    if not pairs:
        return _vacuous("symmetry", tol, f"no interchangeable pair under {variant}")
    gaps = (
        (
            abs(float(scores[f1] - scores[f2])),
            Witness(feature=f1, feature_b=f2, lhs=float(scores[f1]), rhs=float(scores[f2])),
        )
        for f1, f2 in pairs
    )
    return _report("symmetry", tol, *_first_worst(gaps), detail=f"variant {variant}")


def check_symmetry(
    table: ValueTable,
    v: ImportanceVector,
    variant: str = "z_pair",
    tol: Tolerance = DEFAULT_TOL,
) -> AxiomReport:
    """Interchangeable features should score identically.

    Two features are interchangeable when swapping them never changes
    the value; the quantifier runs over contexts excluding a pivot set,
    either nothing (``z_empty``) or the pair itself (``z_pair``). With
    no interchangeable pair the pass is vacuous.
    """
    _check_scores(table, v)
    if variant not in SYMMETRY_VARIANTS:
        raise TableError(f"unknown symmetry variant {variant!r}; expected {SYMMETRY_VARIANTS}")
    return _symmetry_report(_interchangeable(table, tol)[variant], v.scores, variant, tol)


def audit_table(
    table: ValueTable, label: str, methods: tuple[ScoreMethod, ...], tol: Tolerance = DEFAULT_TOL
) -> tuple[list[tuple[str, AxiomReport]], dict[ScoreMethod, ImportanceVector]]:
    """Every table check under every rule in ``methods``, from one walk over the features.

    Returns the labeled rows, each equal to its ``check_*`` report, and
    the score vectors, MCI among them. Feature f's marginals are computed
    once and feed monotonicity, every rule's score, triviality item 2 and
    the ablation and MCI subgames; one feature's arrays live at a time.
    """
    methods = tuple(methods)
    rules = methods + (() if ScoreMethod.MCI in methods else (ScoreMethod.MCI,))
    subgames = methods if table.n > 1 else ()
    descents, tops, per_feature = [], [], []
    rises: dict[ScoreMethod, list] = {m: [] for m in methods}
    for f, (diffs, scores, in_subgames) in enumerate(_walk(table, rules, subgames)):
        per_feature.append(scores)
        descents.append(_descent(table.values, f, diffs))
        active = any(abs(s) > tol.absolute for s, _ in scores[: len(methods)])
        tops.append(float(np.max(np.abs(diffs))) if active else None)
        for m, scored in zip(subgames, in_subgames):
            if scored is not None:
                rises[m].append(_rise(f, scored))
    vectors = _vectors_from_features(rules, per_feature)
    reference = vectors[ScoreMethod.MCI].scores
    pairs = _interchangeable(table, tol)
    rows = [
        (f"empty_set_value[{label}]", check_empty_set(table, tol)),
        (f"monotonicity[{label}]", _report("monotonicity", tol, *_first_worst(descents))),
    ]
    for m in methods:
        v, tag = vectors[m], f"{label},{m.value}"
        rows += [
            (f"triviality[{tag}]", _triviality_report(table, v.scores, tops.__getitem__, tol)),
            (f"marginal_contribution[{tag}]", check_marginal_contribution(table, v, tol)),
            (f"minimalism[{tag}]", _largest_gap("minimalism", v.scores, reference, tol)),
            *(
                (f"symmetry[{tag},{z}]", _symmetry_report(pairs[z], v.scores, z, tol))
                for z in ("z_pair", "z_empty")
            ),
            (f"elimination[{tag}]", _elimination_report(rises[m], tol)),
        ]
    return rows, vectors


def check_separable_importance(
    table: ValueTable,
    method: ScoreMethod,
    subset: int,
    tol: Tolerance = DEFAULT_TOL,
) -> SeparableImportanceReport:
    """Separability of a set versus additivity of scores across it.

    Item 1: if the subset is separable, every feature's score must be
    the sum of its scores in the two subgames (a feature outside a
    subgame contributes zero there). Item 2: if that additivity holds
    for every feature, the subset must be separable. Each direction is
    vacuous when its hypothesis fails.
    """
    sep = is_separable(table, subset, tol)
    full_scores = score_vector(method, table).scores
    combined = restricted_vector(method, table, subset) + restricted_vector(
        method, table, table.full_mask ^ subset
    )
    additivity = _largest_gap("separable_importance_item1", full_scores, combined, tol)
    if sep.separable:
        item1 = additivity
    else:
        item1 = _vacuous("separable_importance_item1", tol, f"subset {subset} is not separable")
    if not additivity.passed:
        item2 = _vacuous(
            "separable_importance_item2", tol, f"scores are not additive across subset {subset}"
        )
    else:
        worst_T = sep.worst_T
        split = float(
            table.values[worst_T & subset] + table.values[worst_T & (table.full_mask ^ subset)]
        )
        witness = Witness(subset=worst_T, lhs=float(table.values[worst_T]), rhs=split)
        item2 = _report("separable_importance_item2", tol, sep.worst_residual, witness)
    return SeparableImportanceReport(item1=item1, item2=item2)


def report_rows_markdown(rows: list[tuple[str, AxiomReport]]) -> str:
    """Labeled reports as a Markdown table."""
    lines = [
        "| check | axiom | status | residual | witness |",
        "| --- | --- | --- | --- | --- |",
    ]
    for label, report in rows:
        status = "pass (vacuous)" if report.vacuous else "pass" if report.passed else "FAIL"
        wit = "" if report.witness is None else _witness_markdown(report.witness)
        lines.append(
            f"| {label} | {report.axiom} | {status} | {report.residual:.12g} | {wit} |"
        )
    return "\n".join(lines) + "\n"


def _witness_markdown(witness: Witness) -> str:
    return ", ".join(
        f"{key}={value:.12g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in witness.to_dict().items()
    )
