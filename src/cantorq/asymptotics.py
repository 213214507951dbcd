"""Limiting behavior of the constrained error sequence.

V_n decreases to 3/16, the squared perpendicular distance from the mean
to the limiting constraint line y = x.  By the foot identity of
`closedform`, the excess V_n - 3/16 is 1/(2n) + 1/(2n**2) + U_n/2, so
n * excess tends to 1/2: the dimension estimate 2 log n / (-log excess)
tends to 2 while the coefficient n**2 * excess grows without bound.

A sample's `v_n` and `excess` are the reduced integer pairs of
`closedform.error_pairs`; its estimates are floats, as in `cli` and in no
exact module, from the logs of those integers and N / (144 * 18**l).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator, NamedTuple

from . import closedform
from .constraint import check_n


class AsymptoticSample(NamedTuple):
    n: int
    v_n: tuple[int, int]
    excess: tuple[int, int]
    dim_estimate: float
    coeff_estimate: float


def _sample(n: int, pairs: tuple[tuple[int, int], ...]) -> AsymptoticSample:
    v, (p, q), (num, den) = pairs
    dim = 2 * math.log(n) / (math.log(q) - math.log(p))
    return AsymptoticSample(n, v, (p, q), dim, num / den)


def dimension_sequence(max_level: int) -> Iterator[AsymptoticSample]:
    """Samples at n = 2**l for l = 1..max_level; dim_estimate approaches 2.
    The one at max_level is made at the call; the iterator yields the others,
    from one sweep, then it.  If any sample fails, it does: logs of positive
    ints cannot, and the coefficient 2**(l-1) + 1/2 + (4/9)**l / 16 grows with
    l, so its rounded float overflows there first, and "p/q" fits str to 2762."""
    check_n(max_level, "max_level")
    top = _sample(n := 2 ** max_level, closedform.error_pairs(n))
    ns = [2 ** l for l in range(1, max_level)]
    return chain(map(_sample, ns, closedform.error_pairs_sweep(ns)), [top])
