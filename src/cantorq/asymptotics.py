"""Limiting behavior of the constrained error sequence.

V_n decreases to 3/16, the squared perpendicular distance from the mean
to the limiting constraint line y = x.  By the foot identity of
`closedform`, the excess V_n - 3/16 is 1/(2n) + 1/(2n**2) + U_n/2, so
n * excess tends to 1/2: the dimension estimate 2 log n / (-log excess)
tends to 2 while the coefficient n**2 * excess grows without bound.

The only module allowed to produce floats: every excess is computed as an
exact rational first and only its logarithm is floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import closedform


def _log(f: Fraction) -> float:
    # math.log on the big-integer parts; float(f) would underflow for
    # excesses around 2**-1100
    return math.log(f.numerator) - math.log(f.denominator)


@dataclass(frozen=True)
class AsymptoticSample:
    n: int
    v_n: Fraction
    excess: Fraction
    dim_estimate: float
    coeff_estimate: float


def sample_at(n: int) -> AsymptoticSample:
    if n < 2:
        raise ValueError("n must be >= 2")
    excess = closedform.excess(n)
    v = excess + closedform.V_INFINITY  # gcds against 16 only
    dim = 2 * math.log(n) / -_log(excess)
    # correctly rounded int / int, so float(n * n * excess) without its gcds
    coeff = n * n * excess.numerator / excess.denominator
    return AsymptoticSample(n, v, excess, dim, coeff)


def dimension_sequence(max_level: int) -> list[AsymptoticSample]:
    """Samples at n = 2**l for l = 1..max_level; dim_estimate approaches 2."""
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    return [sample_at(2 ** l) for l in range(1, max_level + 1)]

