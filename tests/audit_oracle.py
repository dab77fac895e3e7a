"""The per-check audit that the one-walk audit replaced, kept as its reference.

Each checker here walks the features on its own and recomputes the
marginals it needs, the way the library did before ``audit_table`` fed
every check from one walk. ``audit_rows`` and ``space_rows`` assemble
an audit from these checkers in the CLI's row order. The transform is
the plain per-bit pass that ``_subset_transform`` must match byte for
byte.
"""

import numpy as np

from sepsets import ScoreMethod, ValueTable, global_table, mobius_transform, score_vector
from sepsets.axioms import AxiomReport, Witness
from sepsets.subset_algebra import _context_mask, _halves, _marginals, indices_of, popcount_table


def subset_transform_per_bit(values, n, combine):
    """One in-place pass per bit over the ``(2,)*n`` halves, highest bit first."""
    for f in reversed(range(n)):
        lo, hi = _halves(values, n, f)
        combine(hi, lo, out=hi)
    return values


def _passed(axiom, tol, residual=0.0, detail=""):
    return AxiomReport(axiom, True, residual, tol.absolute, detail=detail)


def _vacuous(axiom, tol, detail):
    return AxiomReport(axiom, True, 0.0, tol.absolute, vacuous=True, detail=detail)


def check_empty_set(table, tol):
    residual = abs(float(table.values[0]))
    if tol.within(residual):
        return _passed("empty_set_value", tol, residual)
    witness = Witness(subset=0, lhs=float(table.values[0]), rhs=0.0)
    return AxiomReport("empty_set_value", False, residual, tol.absolute, witness=witness)


def check_monotonicity(table, tol):
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
                subset=sub, feature=f, lhs=float(v[sub]), rhs=float(v[sub | (1 << f)])
            )
    if tol.within(worst):
        return _passed("monotonicity", tol, worst)
    return AxiomReport("monotonicity", False, worst, tol.absolute, witness=witness)


def check_marginal_contribution(table, v, tol):
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


def _subgame_scores(method, table):
    n = table.n
    if method is ScoreMethod.SHAPLEY:
        # Entry S of the subset sums of the shares d(W)/|W| sums them over
        # the W inside S; feature f's subgame scores are the marginals of f
        # in those sums.
        shares = mobius_transform(table).dividends / np.maximum(popcount_table(n), 1)
        shares[0] = 0.0
        sums = subset_transform_per_bit(shares, n, np.add)
    for f in range(n):
        if method is ScoreMethod.BIVARIATE:
            yield np.full(1 << (n - 1), table.values[1 << f])
        elif method is ScoreMethod.SHAPLEY:
            without_f, with_f = _halves(sums, n, f)
            yield np.reshape(with_f - without_f, -1)
        else:
            scores = _marginals(table.values, n, f)
            if method is ScoreMethod.MCI:
                subset_transform_per_bit(scores, n - 1, np.maximum)
            yield scores


def check_elimination(method, table, tol):
    worst = 0.0
    witness = None
    if table.n > 1:
        for f, in_subgames in enumerate(_subgame_scores(method, table)):
            by_drop = in_subgames[::-1]
            rises = by_drop[1:] - by_drop[0]
            at = int(np.argmax(rises))
            rise = float(rises[at])
            drop = _context_mask(at + 1, f)
            if rise > worst or (rise == worst and witness is not None and drop < witness.subset):
                worst = rise
                witness = Witness(
                    subset=drop, feature=f, lhs=float(by_drop[0]), rhs=float(by_drop[at + 1])
                )
    if tol.within(worst):
        return _passed("elimination", tol, worst)
    return AxiomReport("elimination", False, worst, tol.absolute, witness=witness)


def _gap_report(axiom, lhs, rhs, tol, key="feature"):
    gaps = np.abs(lhs - rhs)
    at = int(np.argmax(gaps))
    worst = float(gaps[at])
    if tol.within(worst):
        return _passed(axiom, tol, worst)
    witness = Witness(**{key: at}, lhs=float(lhs[at]), rhs=float(rhs[at]))
    return AxiomReport(axiom, False, worst, tol.absolute, witness=witness)


def check_minimalism(table, v, tol):
    return _gap_report("minimalism", v.scores, score_vector(ScoreMethod.MCI, table).scores, tol)


def check_triviality(table, v, tol):
    n, values, scores = table.n, table.values, v.scores
    magnitude = np.abs(values)
    active = np.abs(scores) > tol.absolute
    active_mask = sum(1 << f for f in range(n) if active[f])
    worst = 0.0
    witness = None
    silent = (magnitude > tol.absolute) & (np.arange(1 << n) & active_mask == 0)
    s = int(np.argmax(np.where(silent, magnitude, 0.0)))
    if silent[s]:
        worst = float(magnitude[s])
        peak = max((abs(float(scores[f])) for f in indices_of(s)), default=0.0)
        witness = Witness(subset=s, lhs=float(values[s]), rhs=peak)
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


def _swap_spread(values, n, f1, f2, variant):
    without_f2, with_f2 = _halves(values, n, f2)
    _, only_f1 = _halves(without_f2, n - 1, f1)
    only_f2, both = _halves(with_f2, n - 1, f1)
    gaps = [only_f1 - only_f2]
    if variant == "z_empty":
        gaps += [only_f1 - both, both - only_f2]
    return max(float(np.max(np.abs(gap))) for gap in gaps)


def check_symmetry(table, v, variant, tol):
    values = table.values
    worst = 0.0
    witness = None
    any_pair = False
    for f1 in range(table.n):
        for f2 in range(f1 + 1, table.n):
            if abs(float(values[1 << f1] - values[1 << f2])) > tol.absolute:
                continue
            if _swap_spread(values, table.n, f1, f2, variant) > tol.absolute:
                continue
            any_pair = True
            gap = abs(float(v.scores[f1] - v.scores[f2]))
            if gap > worst:
                worst = gap
                witness = Witness(
                    feature=f1, feature_b=f2, lhs=float(v.scores[f1]), rhs=float(v.scores[f2])
                )
    if not any_pair:
        return _vacuous("symmetry", tol, f"no interchangeable pair under {variant}")
    if tol.within(worst):
        return _passed("symmetry", tol, worst, detail=f"variant {variant}")
    return AxiomReport(
        "symmetry", False, worst, tol.absolute, witness=witness, detail=f"variant {variant}"
    )


def check_importance_consistency(space, method, tol):
    lhs = score_vector(method, global_table(space)).scores
    rhs = np.zeros(space.n, dtype=np.float64)
    for w, values in zip(space.weights, space.values):
        rhs += w * score_vector(method, ValueTable(space.n, values)).scores
    return _gap_report("importance_consistency", lhs, rhs, tol)


def audit_rows(table, label, methods, tol, checks=None):
    """The table rows of an audit, one checker call per row.

    ``checks`` supplies the checkers by name (this module's by default),
    so the library's public ``check_*`` functions can be assembled the
    same way.
    """
    c = checks or globals()
    rows = [
        (f"empty_set_value[{label}]", c["check_empty_set"](table, tol)),
        (f"monotonicity[{label}]", c["check_monotonicity"](table, tol)),
    ]
    for m in methods:
        v = score_vector(m, table)
        tag = f"{label},{m.value}"
        rows.append((f"triviality[{tag}]", c["check_triviality"](table, v, tol)))
        rows.append(
            (f"marginal_contribution[{tag}]", c["check_marginal_contribution"](table, v, tol))
        )
        rows.append((f"minimalism[{tag}]", c["check_minimalism"](table, v, tol)))
        for variant in ("z_pair", "z_empty"):
            rows.append((f"symmetry[{tag},{variant}]", c["check_symmetry"](table, v, variant, tol)))
        rows.append((f"elimination[{tag}]", c["check_elimination"](m, table, tol)))
    return rows


def space_rows(space, methods, tol):
    """The rows of a sample-space audit; the global table is rebuilt per check."""
    mean = global_table(space)
    claim = _gap_report(
        "value_consistency", mean.values, global_table(space).values, tol, key="subset"
    )
    rows = [("value_consistency[global]", claim)]
    for m in methods:
        rows.append(
            (f"importance_consistency[{m.value}]", check_importance_consistency(space, m, tol))
        )
    return rows + audit_rows(mean, "global", methods, tol)
