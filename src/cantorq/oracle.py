"""Independent verification machinery: exact evaluator, Lloyd step, DP search.

Nothing here trusts the closed forms.  The evaluator and the Lloyd step
integrate the measure over each Voronoi cell of an arbitrary codebook
exactly, as differences of the kernel `measure.partial_moments` at the cell
boundaries; the evaluator sums each cell's distortion from its mass and
first two moments, and the Lloyd step recenters every point at the pullback
of its cell's conditional mean.  The DP searches globally over all
placements whose cell boundaries fall on level-k interval edges.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .constraint import ConstraintPoint, PointSet, bisector_foot, u_inverse
from .measure import VARIANCE, centroid_numerators, partial_moments


class OracleError(Exception):
    pass


class EmptyCellError(OracleError):
    """A Voronoi cell carries zero measure."""


def _prepare(n: int, points, *, collapse: bool) -> tuple[ConstraintPoint, ...]:
    if isinstance(points, PointSet):
        if points.n != n:
            raise ValueError(f"point set is on S_{points.n}, expected S_{n}")
        pts = points.points
    else:
        pts = tuple(points)
    if not pts:
        raise ValueError("need at least one point")
    for p in pts:
        if p.j != n:
            raise ValueError(f"point {p} is not on S_{n}")
    pts = tuple(sorted(pts, key=lambda p: p.x))
    out = [pts[0]]
    for p in pts[1:]:
        if p.x == out[-1].x:
            if not collapse:
                raise ValueError(f"duplicate abscissa {p.x}")
            continue
        out.append(p)
    return tuple(out)


_Moments = tuple[Fraction, Fraction, Fraction]


def _moments(cuts: Sequence[Fraction]) -> list[_Moments]:
    """(mass, first moment, second moment) of the measure between
    consecutive cuts, the first cell starting at 0 and the last ending at 1."""
    vs = [partial_moments(c) for c in (Fraction(0), *cuts, Fraction(1))]
    return [(b[0] - a[0], b[1] - a[1], b[2] - a[2])
            for a, b in zip(vs, vs[1:])]


def _cells(pts: Sequence[ConstraintPoint]) -> list[_Moments]:
    """Moments of each sorted point's Voronoi cell, projected to the line."""
    return _moments([bisector_foot(p, q) for p, q in zip(pts, pts[1:])])


def exact_distortion(n: int, points) -> Fraction:
    """Exact distortion of an arbitrary codebook on S_n.

    Duplicate points collapse to one.  Each cell contributes
    M2 - 2x M1 + (x**2 + y**2) mass for its point (x, y).
    """
    pts = _prepare(n, points, collapse=True)
    return sum(m2 - 2 * p.x * m1 + (p.x * p.x + p.y * p.y) * mass
               for p, (mass, m1, m2) in zip(pts, _cells(pts)))


def cell_measures(n: int, points) -> list[Fraction]:
    """Measure of each point's Voronoi cell, projected to the real line."""
    return [mass for mass, _, _ in _cells(_prepare(n, points, collapse=False))]


def lloyd_step(n: int, points) -> PointSet:
    """One constrained Lloyd iteration: recenter each point at the pullback
    of its Voronoi cell's conditional mean.  Distortion never increases."""
    pts = _prepare(n, points, collapse=False)
    if len(pts) != n:
        raise ValueError(f"need exactly {n} distinct points, got {len(pts)}")
    new_pts = []
    for p, (mass, m1, _) in zip(pts, _cells(pts)):
        if mass == 0:
            raise EmptyCellError(f"cell of point {p} has zero measure")
        new_pts.append(u_inverse(n, m1 / mass))
    return PointSet(n, tuple(new_pts))


def dp_optimal_upto(max_n: int, level: int) -> list[tuple[PointSet, Fraction]]:
    """Globally optimal codebooks over all level-k consecutive groupings,
    for every n = 1..max_n; entry n-1 is the result for n.

    Each group of intervals is served by the pullback of its conditional
    mean; the DP minimizes the exact total distortion over all groupings.
    Minimizing the distortion is equivalent to maximizing the sum of
    (group numerator sum)**2 / (group size) over the sorted centroid
    numerators: the within-group second moments and the cross terms of the
    constraint offset are the same for every partition.  That objective is
    a classic concave (Monge) interval cost, so each DP layer is filled by
    divide-and-conquer over the monotone argmax.

    Layer g (best objective over intervals i..m-1 with g groups) does not
    depend on n, so layers 1..max_n-1 are filled once for every i, and the
    top layer only at i = 0, by one O(m) scan.  Each layer value is an
    unreduced integer pair num/den, den being the product of the group
    sizes; values are compared by cross-multiplication, with no gcd and no
    Fraction in the search.  A greedy left-to-right reconstruction keeps
    the lexicographically smallest boundaries among equal-value groupings.
    The distortion of each group comes from prefix sums of the numerators
    and of their squares.
    """
    if max_n < 1:
        raise ValueError("n must be >= 1")
    m = 2 ** level
    if max_n > m:
        raise ValueError(f"n={max_n} exceeds the {m} level-{level} intervals")
    nums = centroid_numerators(level)
    pref = [0, *accumulate(nums)]
    pref2 = [0, *accumulate(v * v for v in nums)]

    # layers[g] = (numerators, denominators) of the best objective covering
    # intervals i..m-1 with g groups
    layers: list = [None, ([(pref[m] - pref[i]) ** 2 for i in range(m)],
                           [m - i for i in range(m)])]
    for g in range(2, max_n + 1):
        pnum, pden = layers[g - 1]
        # the top layer is needed only at i = 0
        rows = m - g + 1 if g < max_n else 1
        cnum, cden = [0] * rows, [1] * rows

        def solve(ilo: int, ihi: int, jlo: int, jhi: int) -> None:
            if ilo > ihi:
                return
            mid = (ilo + ihi) // 2
            base = pref[mid]
            bn, bd, best_j = -1, 1, -1
            for j in range(max(jlo, mid + 1), jhi + 1):
                d, size, pd = pref[j] - base, j - mid, pden[j]
                num, den = d * d * pd + pnum[j] * size, size * pd
                if num * bd > bn * den:
                    bn, bd, best_j = num, den, j
            cnum[mid], cden[mid] = bn, bd
            solve(ilo, mid - 1, jlo, best_j)
            solve(mid + 1, ihi, best_j, jhi)

        solve(0, rows - 1, 1, m - (g - 1))
        layers.append((cnum, cden))

    den0 = 2 * 3 ** level
    floor = VARIANCE / 9 ** level
    results = []
    for n in range(1, max_n + 1):
        # greedy left-to-right reconstruction keeps boundaries
        # lexicographically smallest among equal-value partitions
        edges = [0]
        i, tn, td = 0, layers[n][0][0], layers[n][1][0]
        for g in range(n, 1, -1):
            pnum, pden = layers[g - 1]
            for j in range(i + 1, m - (g - 1) + 1):
                d, size = pref[j] - pref[i], j - i
                if (d * d * pden[j] + pnum[j] * size) * td == tn * size * pden[j]:
                    edges.append(j)
                    i, tn, td = j, pnum[j], pden[j]
                    break
            else:
                raise OracleError("DP reconstruction failed")
        edges.append(m)

        pts, rho_sum = [], Fraction(0)
        for i, j in zip(edges, edges[1:]):
            s1, s2, size = pref[j] - pref[i], pref2[j] - pref2[i], j - i
            p = u_inverse(n, Fraction(s1, size * den0))
            pts.append(p)
            # sum of rho(t / den0, p) over the group's numerators t
            rho_sum += (Fraction(s2, den0 * den0) - 2 * p.x * Fraction(s1, den0)
                        + size * (p.x * p.x + p.y * p.y))
        results.append((PointSet(n, tuple(pts)), floor + rho_sum / m))
    return results


def dp_optimal(n: int, level: int) -> tuple[PointSet, Fraction]:
    """Globally optimal codebook on S_n over all level-k consecutive
    groupings, and its exact distortion.

    This is the last entry of `dp_optimal_upto(n, level)`: layers 1..n-1
    are filled for every start i, the top layer n only in its row i = 0,
    and every layer value is an unreduced integer pair num/den compared by
    cross-multiplication.  Ties go to the lexicographically smallest
    boundaries."""
    return dp_optimal_upto(n, level)[-1]
