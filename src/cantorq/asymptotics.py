"""Limiting behavior of the constrained error sequence.

V_n decreases to 3/16, the squared perpendicular distance from the mean
to the limiting constraint line y = x.  By the foot identity of
`closedform`, the excess V_n - 3/16 is 1/(2n) + 1/(2n**2) + U_n/2, so
n * excess tends to 1/2: the dimension estimate 2 log n / (-log excess)
tends to 2 while the coefficient n**2 * excess grows without bound.

A sample's `v_n` and `excess` are the reduced integer pairs of
`closedform.error_pairs`; its estimates are floats, as in `cli` and in no
exact module, from the logs of those integers and p n**2 / q, p/q the excess.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from . import closedform
from .constraint import check_n

#: The last level whose coefficient is a float: at n = 2**l it is 2**(l-1) +
#: 1/2 + (4/9)**l / 16, increasing in l, so no sample up to here can fail.
MAX_LEVEL = 1024


class AsymptoticSample(NamedTuple):
    n: int
    v_n: tuple[int, int]
    excess: tuple[int, int]
    dim_estimate: float
    coeff_estimate: float


def _sample(n: int, pairs: tuple[tuple[int, int], tuple[int, int]]) -> AsymptoticSample:
    v, (p, q) = pairs
    dim = 2 * math.log(n) / (math.log(q) - math.log(p))
    return AsymptoticSample(n, v, (p, q), dim, p * n * n / q)


def dimension_sequence(max_level: int) -> Iterator[AsymptoticSample]:
    """Samples at n = 2**l for l = 1..max_level, from one sweep, as they are
    pulled; dim_estimate approaches 2.  Raises ValueError past MAX_LEVEL."""
    check_n(max_level, "max_level")
    if max_level > MAX_LEVEL:
        raise ValueError(f"max_level must be <= {MAX_LEVEL}")
    ns = [2 ** l for l in range(1, max_level + 1)]
    return map(_sample, ns, closedform.error_pairs_sweep(ns))
