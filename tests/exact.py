"""Exact references for the numeric fast paths.

Every float64 is a rational, so ``fractions.Fraction`` arithmetic gives
the true answer for the values as stored, free of rounding. The cost is
Python arithmetic on growing denominators: fine at n <= 8.
"""

from fractions import Fraction
from functools import lru_cache


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


def subset_sums_exact(entries):
    """Subset sums of the rationals ``entries``, in place: entry S becomes
    the sum of the entries inside S, formed by one exact pass per bit."""
    for f in range(len(entries).bit_length() - 1):
        bit = 1 << f
        for mask in range(len(entries)):
            if mask & bit:
                entries[mask] += entries[mask ^ bit]
    return entries


@lru_cache(maxsize=4)
def _dividend_masks(stored):
    """The masks W whose exact dividend of the float tuple ``stored`` is nonzero."""
    return tuple(w for w, d in enumerate(mobius_exact(stored)) if d)


def separable_exact(values, subset):
    """True when no nonzero exact dividend of the stored ``values`` straddles
    the mask ``subset``, that is, meets both it and its complement.

    With v({}) = 0 this is separability, v(T) = v(T & S) + v(T - S) for
    every T: that residual is the sum of d(W) over the straddling W inside
    T. The dividends are computed once per table and kept for the next call.
    """
    stored = tuple(float(v) for v in values)
    return not any(w & subset and w & ~subset for w in _dividend_masks(stored))


def zeta_exact(dividends):
    """Subset sums of the stored ``dividends``, exactly: entry S is the
    sum of d(W) over the W inside S, formed by one sum pass per bit."""
    return subset_sums_exact([Fraction(float(d)) for d in dividends])


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
        "shapley": [sum(with_f_shares(dividends, f)) for f in features],
    }


def with_f_shares(entries, f):
    """Entry W / |W| of the rationals ``entries`` for each W that contains
    feature f, in ascending order of W: entry c belongs to the W whose
    bits outside f spell c."""
    return [e / bin(w).count("1") for w, e in enumerate(entries) if w >> f & 1]


def shapley_subgames_exact(values, f):
    """Feature f's Shapley score in every subgame containing it, exactly,
    for the stored ``values``.

    Entry c scores f in the subgame on the features of the W of entry c
    (see :func:`with_f_shares`): the sum of d(W')/|W'| over the W' inside W
    that contain f. The exact dividends of the with-f half are divided by
    |W| and summed with one exact pass per bit.
    """
    return subset_sums_exact(with_f_shares(mobius_exact(values), f))


def mci_exact(values):
    """Each feature's largest exact marginal v(T | f) - v(T) of the stored
    ``values`` over the contexts T excluding f, and the lowest T attaining it."""
    stored = [Fraction(float(v)) for v in values]
    full = len(stored) - 1
    scores, witnesses = [], []
    for f in range(full.bit_length()):
        marginals = {t: stored[t | 1 << f] - stored[t] for t in range(full + 1) if not t >> f & 1}
        top = max(marginals.values())
        scores.append(top)
        witnesses.append(min(t for t, m in marginals.items() if m == top))
    return scores, witnesses
