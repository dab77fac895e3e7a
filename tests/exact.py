"""Exact references for the numeric fast paths.

Every float64 is a rational, so ``fractions.Fraction`` arithmetic gives
the true answer for the values as stored, free of rounding. The cost is
Python arithmetic on growing denominators: fine at n <= 8.
"""

from fractions import Fraction


def mobius_exact(values):
    """Interaction dividends of the stored ``values``, exactly.

    Entry W is ``sum over T subset of W of (-1)^|W - T| v(T)``, formed by
    one difference pass per bit.
    """
    dividends = [Fraction(float(v)) for v in values]
    for f in range(len(dividends).bit_length() - 1):
        bit = 1 << f
        for mask in range(len(dividends)):
            if mask & bit:
                dividends[mask] -= dividends[mask ^ bit]
    return dividends


def zeta_exact(dividends):
    """Subset sums of the stored ``dividends``, exactly: entry S is the
    sum of d(W) over the W inside S, formed by one sum pass per bit."""
    values = [Fraction(float(d)) for d in dividends]
    for f in range(len(values).bit_length() - 1):
        bit = 1 << f
        for mask in range(len(values)):
            if mask & bit:
                values[mask] += values[mask ^ bit]
    return values


def linear_scores_exact(values):
    """The three linear rules' scores of the stored ``values``, exactly,
    keyed by rule name: bivariate v({f}), ablation v(N) - v(N - f), and
    Shapley, the sum of d(W)/|W| over the W that contain f."""
    stored = [Fraction(float(v)) for v in values]
    full = len(stored) - 1
    features = range(full.bit_length())
    dividends = mobius_exact(values)
    return {
        "bivariate": [stored[1 << f] for f in features],
        "ablation": [stored[full] - stored[full ^ 1 << f] for f in features],
        "shapley": [
            sum(d / bin(w).count("1") for w, d in enumerate(dividends) if w >> f & 1)
            for f in features
        ],
    }
