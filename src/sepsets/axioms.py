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

from dataclasses import dataclass

import numpy as np

from .dataset_eval import OutcomeTable, null_feature_residual
from .errors import TableError
from .importance import (
    ImportanceVector,
    ScoreMethod,
    _subgame_scores,
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


def _check_scores(table: ValueTable, v: ImportanceVector) -> None:
    if v.n != table.n:
        raise TableError(f"scores over {v.n} features do not match table over {table.n}")


def check_empty_set(table: ValueTable, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """The empty subset should carry no value."""
    residual = abs(float(table.values[0]))
    if tol.within(residual):
        return _passed("empty_set_value", tol, residual)
    return AxiomReport(
        "empty_set_value",
        False,
        residual,
        tol.absolute,
        witness=Witness(subset=0, lhs=float(table.values[0]), rhs=0.0),
    )


def check_monotonicity(table: ValueTable, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Adding a feature should never lower the value.

    Single-feature extensions cover all nested pairs, so the scan is
    O(n * 2^n). Meaningful for a table in the global role; the checker
    itself is agnostic.
    """
    v = table.values
    worst = 0.0
    witness = None
    for f in range(table.n):
        gains = _marginals(v, table.n, f)
        at = int(np.argmin(gains))
        if -float(gains[at]) > worst:
            worst = -float(gains[at])
            sub = _context_mask(at, f)
            witness = Witness(
                subset=sub,
                feature=f,
                lhs=float(v[sub]),
                rhs=float(v[sub | (1 << f)]),
            )
    if tol.within(worst):
        return _passed("monotonicity", tol, worst)
    return AxiomReport("monotonicity", False, worst, tol.absolute, witness=witness)


def check_marginal_contribution(
    table: ValueTable, v: ImportanceVector, tol: Tolerance = DEFAULT_TOL
) -> AxiomReport:
    """Scores should not undercut the final-context marginal.

    For every feature, the score must be at least the value drop from
    removing the feature from the full set.
    """
    _check_scores(table, v)
    full = table.full_mask
    worst = 0.0
    witness = None
    for f in range(table.n):
        floor = float(table.values[full] - table.values[full ^ (1 << f)])
        gap = floor - float(v.scores[f])
        if gap > worst:
            worst = gap
            witness = Witness(feature=f, lhs=float(v.scores[f]), rhs=floor)
    if tol.within(worst):
        return _passed("marginal_contribution", tol, worst)
    return AxiomReport("marginal_contribution", False, worst, tol.absolute, witness=witness)


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
    worst = 0.0
    witness = None
    if table.n > 1:
        for f, in_subgames in enumerate(_subgame_scores(method, table)):
            # Reversed, entry c is what is left after dropping _context_mask(c, f).
            by_drop = in_subgames[::-1]
            rises = by_drop[1:] - by_drop[0]
            at = int(np.argmax(rises))
            rise = float(rises[at])
            drop = _context_mask(at + 1, f)
            if rise > worst or (rise == worst and witness is not None and drop < witness.subset):
                worst = rise
                witness = Witness(
                    subset=drop,
                    feature=f,
                    lhs=float(by_drop[0]),
                    rhs=float(by_drop[at + 1]),
                )
    if tol.within(worst):
        return _passed("elimination", tol, worst)
    return AxiomReport("elimination", False, worst, tol.absolute, witness=witness)


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
    gaps = np.abs(v.scores - reference)
    at = int(np.argmax(gaps))
    worst = float(gaps[at])
    if tol.within(worst):
        return _passed("minimalism", tol, worst)
    return AxiomReport(
        "minimalism",
        False,
        worst,
        tol.absolute,
        witness=Witness(feature=at, lhs=float(v.scores[at]), rhs=float(reference[at])),
    )


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
    n = table.n
    values = table.values
    scores = v.scores
    magnitude = np.abs(values)
    active = np.abs(scores) > tol.absolute
    active_mask = sum(1 << f for f in range(n) if active[f])

    worst = 0.0
    witness = None
    # Item 1: valued subsets without an active member; the first maximum wins.
    silent = (magnitude > tol.absolute) & (np.arange(1 << n) & active_mask == 0)
    s = int(np.argmax(np.where(silent, magnitude, 0.0)))
    if silent[s]:
        worst = float(magnitude[s])
        peak = max((abs(float(scores[f])) for f in indices_of(s)), default=0.0)
        witness = Witness(subset=s, lhs=float(values[s]), rhs=peak)
    # Item 2, ascending feature scan.
    for f in range(n):
        if not active[f]:
            continue
        top = float(np.max(np.abs(_marginals(values, n, f))))
        if top > tol.absolute:
            continue
        residual = abs(float(scores[f]))
        if residual > worst:
            worst = residual
            witness = Witness(feature=f, lhs=float(scores[f]), rhs=top)
    if witness is not None:
        return AxiomReport("triviality", False, worst, tol.absolute, witness=witness)
    if not np.any(magnitude > tol.absolute) and not np.any(active):
        return _vacuous("triviality", tol, "all values and all scores are zero")
    return _passed("triviality", tol)


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
    residual = abs(float(v.scores[f]))
    if tol.within(residual):
        return _passed("null_feature", tol, residual)
    return AxiomReport(
        "null_feature",
        False,
        residual,
        tol.absolute,
        witness=Witness(feature=f, lhs=float(v.scores[f]), rhs=0.0),
    )


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
    gaps = np.abs(model_scores - data_scores)
    at = int(np.argmax(gaps))
    worst = float(gaps[at])
    if tol.within(worst):
        return _passed("data_model_equivalence", tol, worst)
    return AxiomReport(
        "data_model_equivalence",
        False,
        worst,
        tol.absolute,
        witness=Witness(feature=at, lhs=float(model_scores[at]), rhs=float(data_scores[at])),
    )


def _swap_spread(values: np.ndarray, n: int, f1: int, f2: int, variant: str) -> float:
    """Largest value change from putting f2 in place of f1 (f1 < f2) in
    a context: contexts excluding both (z_pair) or all contexts (z_empty)."""
    without_f2, with_f2 = _halves(values, n, f2)
    _, only_f1 = _halves(without_f2, n - 1, f1)
    only_f2, both = _halves(with_f2, n - 1, f1)
    gaps = [only_f1 - only_f2]
    if variant == "z_empty":
        gaps += [only_f1 - both, both - only_f2]
    return max(float(np.max(np.abs(gap))) for gap in gaps)


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
    values = table.values
    worst = 0.0
    witness = None
    any_pair = False
    for f1 in range(table.n):
        for f2 in range(f1 + 1, table.n):
            # The empty context belongs to both variants, so a gap between
            # the singletons already rules the pair out.
            if abs(float(values[1 << f1] - values[1 << f2])) > tol.absolute:
                continue
            if _swap_spread(values, table.n, f1, f2, variant) > tol.absolute:
                continue
            any_pair = True
            gap = abs(float(v.scores[f1] - v.scores[f2]))
            if gap > worst:
                worst = gap
                witness = Witness(
                    feature=f1,
                    feature_b=f2,
                    lhs=float(v.scores[f1]),
                    rhs=float(v.scores[f2]),
                )
    if not any_pair:
        return _vacuous("symmetry", tol, f"no interchangeable pair under {variant}")
    if tol.within(worst):
        return _passed("symmetry", tol, worst, detail=f"variant {variant}")
    return AxiomReport(
        "symmetry", False, worst, tol.absolute, witness=witness, detail=f"variant {variant}"
    )


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
    if not 0 <= subset <= table.full_mask:
        raise TableError(f"subset mask {subset} out of range for n={table.n}")
    sep = is_separable(table, subset, tol)
    full_scores = score_vector(method, table).scores
    combined = restricted_vector(method, table, subset) + restricted_vector(
        method, table, table.full_mask ^ subset
    )
    gaps = np.abs(full_scores - combined)
    at = int(np.argmax(gaps))
    additivity_residual = float(gaps[at])
    additive = tol.within(additivity_residual)

    if not sep.separable:
        item1 = _vacuous(
            "separable_importance_item1", tol, f"subset {subset} is not separable"
        )
    elif additive:
        item1 = _passed("separable_importance_item1", tol, additivity_residual)
    else:
        item1 = AxiomReport(
            "separable_importance_item1",
            False,
            additivity_residual,
            tol.absolute,
            witness=Witness(
                feature=at, lhs=float(full_scores[at]), rhs=float(combined[at])
            ),
        )

    if not additive:
        item2 = _vacuous(
            "separable_importance_item2",
            tol,
            f"scores are not additive across subset {subset}",
        )
    elif sep.separable:
        item2 = _passed("separable_importance_item2", tol, sep.worst_residual)
    else:
        worst_T = sep.worst_T
        split = float(
            table.values[worst_T & subset]
            + table.values[worst_T & (table.full_mask ^ subset)]
        )
        item2 = AxiomReport(
            "separable_importance_item2",
            False,
            sep.worst_residual,
            tol.absolute,
            witness=Witness(subset=worst_T, lhs=float(table.values[worst_T]), rhs=split),
        )
    return SeparableImportanceReport(item1=item1, item2=item2)


def report_rows_markdown(rows: list[tuple[str, AxiomReport]]) -> str:
    """Labeled reports as a Markdown table."""
    lines = [
        "| check | axiom | status | residual | witness |",
        "| --- | --- | --- | --- | --- |",
    ]
    for label, report in rows:
        if report.vacuous:
            status = "pass (vacuous)"
        else:
            status = "pass" if report.passed else "FAIL"
        wit = "" if report.witness is None else _witness_markdown(report.witness)
        lines.append(
            f"| {label} | {report.axiom} | {status} | {report.residual:.12g} | {wit} |"
        )
    return "\n".join(lines) + "\n"


def _witness_markdown(witness: Witness) -> str:
    parts = []
    for key, value in witness.to_dict().items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.12g}")
        else:
            parts.append(f"{key}={value}")
    return ", ".join(parts)
