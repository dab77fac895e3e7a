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
