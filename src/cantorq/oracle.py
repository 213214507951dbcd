"""Independent verification machinery: exact evaluator, Lloyd step, DP search.

Nothing here trusts the closed forms.  The evaluator integrates the
distortion of an arbitrary codebook by refining basic intervals until each
lies in a single Voronoi cell; the Lloyd step recenters every point at the
pullback of its cell's conditional mean; the DP searches globally over all
placements whose cell boundaries fall on level-k interval edges.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .constraint import ConstraintPoint, PointSet, bisector_foot, rho, u_inverse
from .measure import VARIANCE, centroid_numerators


class OracleError(Exception):
    pass


class RefinementDepthError(OracleError):
    """Basic-interval refinement hit the depth cap without separating; a
    Voronoi boundary lies inside the Cantor set."""


class EmptyCellError(OracleError):
    """A Voronoi cell carries zero measure."""


DEFAULT_MAX_DEPTH = 40


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


def exact_distortion(n: int, points, max_depth: int = DEFAULT_MAX_DEPTH) -> Fraction:
    """Exact distortion of an arbitrary codebook on S_n.

    Duplicate points collapse to one.  Refines each basic interval until it
    lies on one side of every relevant bisector, then sums the closed-form
    per-interval contribution 2**-k (9**-k V + rho(center, point)).
    """
    pts = _prepare(n, points, collapse=True)
    cuts = [bisector_foot(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]

    def go(left: Fraction, k: int, lo: int, hi: int) -> Fraction:
        width = Fraction(1, 3 ** k)
        right = left + width
        # a point is irrelevant on J once its cell ends at or before J
        while lo < hi and cuts[lo] <= left:
            lo += 1
        while hi > lo and cuts[hi - 1] >= right:
            hi -= 1
        if lo == hi:
            center = left + width / 2
            return (Fraction(1, 9 ** k) * VARIANCE
                    + rho(center, pts[lo])) / 2 ** k
        if k >= max_depth:
            raise RefinementDepthError(
                f"no separation of [{left}, {right}] at depth {max_depth}")
        third = width / 3
        return go(left, k + 1, lo, hi) + go(right - third, k + 1, lo, hi)

    return go(Fraction(0), 0, 0, len(pts) - 1)


def _cell_mass_moment(
    lo_bound: Fraction | None, hi_bound: Fraction | None, max_depth: int,
) -> tuple[Fraction, Fraction]:
    """Mass and first moment of the measure on [lo_bound, hi_bound]."""

    def go(left: Fraction, k: int) -> tuple[Fraction, Fraction]:
        width = Fraction(1, 3 ** k)
        right = left + width
        if (hi_bound is not None and hi_bound <= left) or \
           (lo_bound is not None and right <= lo_bound):
            return Fraction(0), Fraction(0)
        if (lo_bound is None or lo_bound <= left) and \
           (hi_bound is None or right <= hi_bound):
            mass = Fraction(1, 2 ** k)
            return mass, mass * (left + right) / 2
        if k >= max_depth:
            raise RefinementDepthError(
                f"cell boundary not separated from [{left}, {right}] "
                f"at depth {max_depth}")
        third = width / 3
        m1, s1 = go(left, k + 1)
        m2, s2 = go(right - third, k + 1)
        return m1 + m2, s1 + s2

    return go(Fraction(0), 0)


def cell_measures(n: int, points, max_depth: int = DEFAULT_MAX_DEPTH) -> list[Fraction]:
    """Measure of each point's Voronoi cell, projected to the real line."""
    pts = _prepare(n, points, collapse=False)
    cuts = [bisector_foot(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]
    out = []
    for i in range(len(pts)):
        lo = cuts[i - 1] if i > 0 else None
        hi = cuts[i] if i < len(cuts) else None
        out.append(_cell_mass_moment(lo, hi, max_depth)[0])
    return out


def interval_measures(
    boundaries: Sequence[Fraction], max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[Fraction]:
    """Measures of the cells cut out of the line by the given boundaries."""
    bounds = [None, *boundaries, None]
    return [_cell_mass_moment(bounds[i], bounds[i + 1], max_depth)[0]
            for i in range(len(bounds) - 1)]


def lloyd_step(n: int, points, max_depth: int = DEFAULT_MAX_DEPTH) -> PointSet:
    """One constrained Lloyd iteration: recenter each point at the pullback
    of its Voronoi cell's conditional mean.  Distortion never increases."""
    pts = _prepare(n, points, collapse=False)
    if len(pts) != n:
        raise ValueError(f"need exactly {n} distinct points, got {len(pts)}")
    cuts = [bisector_foot(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]
    new_pts = []
    for i in range(len(pts)):
        lo = cuts[i - 1] if i > 0 else None
        hi = cuts[i] if i < len(cuts) else None
        mass, moment = _cell_mass_moment(lo, hi, max_depth)
        if mass == 0:
            raise EmptyCellError(f"cell of point {pts[i]} has zero measure")
        new_pts.append(u_inverse(n, moment / mass))
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
