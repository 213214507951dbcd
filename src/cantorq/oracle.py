"""Independent verification machinery: exact evaluator, Lloyd step, DP search.

Nothing here trusts the closed forms.  The evaluator and the Lloyd step
integrate the measure over each Voronoi cell of an arbitrary codebook in
one exact integer pass: generic 2-D bisector cuts over a common denominator
go unreduced to the kernel `measure.moment_numerators`, and each cell's mass
and first two moments are integer differences at its boundaries.  The Lloyd
step recenters every point at the pullback of its cell's conditional mean.
One slot keyed by (n, prepared points) keeps the last codebook's integer pass.
The DP searches globally over all placements whose cell boundaries fall on
level-k interval edges.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .constraint import PointSet, foot_point
from .measure import VARIANCE, centroid_numerators, moment_numerators


class OracleError(Exception):
    pass


class EmptyCellError(OracleError):
    """A Voronoi cell carries zero measure."""


# (n, pts, pass) of the most recent _voronoi call, read and replaced whole, so
# that no caller pairs one codebook's key with another's pass
_last: tuple = (0, (), None)


def _voronoi(n: int, points):
    """Integer Voronoi cells of a codebook on S_n: (pts, e, a, r, cells, den).

    pts is a PointSet's own tuple, or any other iterable of points on S_n,
    nonempty, sorted by abscissa, none repeated.  Point i is (a_i, c_i)/e over
    e = lcm(n, abscissa denominators), a common denominator of every x and of
    every y = x + 1/n, so the ordinate numerator is c_i = a_i + e/n;
    r_i = a_i**2 + c_i**2.  The cut between neighbours (a, c)/e and (b, d)/e,
    a < b, is the generic 2-D bisector crossing of the real line
    (r_b - r_a) / (2e(b - a)), given to the kernel unreduced.  Every kernel
    value is brought to one denominator den, so each cell's (mass, M1, M2) are
    integer differences.  A call whose n and points equal the last call's (by
    identity, else tuple equality; nothing is hashed) returns the last pass.
    """
    global _last
    if isinstance(points, PointSet):
        if points.n != n:
            raise ValueError(f"point set is on S_{points.n}, expected S_{n}")
        # PointSet guarantees points on S_n with increasing abscissas
        pts = points.points
    else:
        pts = tuple(points)
        if not pts:
            raise ValueError("need at least one point")
        for p in pts:
            if p.j != n:
                raise ValueError(f"point {p} is not on S_{n}")
        pts = tuple(sorted(pts, key=lambda p: p.x))
        for p0, p1 in zip(pts, pts[1:]):
            if p0.x == p1.x:
                raise ValueError(f"duplicate abscissa {p1.x}")
    last_n, last_pts, last = _last
    if n == last_n and (pts is last_pts or pts == last_pts):
        return last
    e = lcm(n, *(p.x.denominator for p in pts))
    a = [p.x.numerator * (e // p.x.denominator) for p in pts]
    r = [u * u + (u + e // n) ** 2 for u in a]
    cuts = [(r1 - r0, 2 * e * (a1 - a0)) for a0, a1, r0, r1 in zip(a, a[1:], r, r[1:])]
    ends = [moment_numerators(p, q) for p, q in [(0, 1), *cuts, (1, 1)]]
    den = lcm(*(d for *_, d in ends))
    vs = [(f * (k := den // d), m1 * k, m2 * k) for f, m1, m2, d in ends]
    cells = [(f1 - f0, g1 - g0, h1 - h0)
             for (f0, g0, h0), (f1, g1, h1) in zip(vs, vs[1:])]
    result = pts, e, a, r, cells, den
    _last = n, pts, result
    return result


def exact_distortion(n: int, points) -> Fraction:
    """Exact distortion of an arbitrary codebook on S_n.

    Duplicate points collapse to one.  Each cell contributes
    M2 - 2x M1 + (x**2 + y**2) mass for its point (x, y).
    """
    if not isinstance(points, PointSet):
        points = dict.fromkeys(points)  # keeps the first of each, in order
    _, e, a, r, cells, den = _voronoi(n, points)
    return Fraction(sum(e * e * m2 - 2 * e * u * m1 + ru * mass
                        for u, ru, (mass, m1, m2) in zip(a, r, cells)), e * e * den)


def cell_measures(n: int, points) -> list[Fraction]:
    """Measure of each point's Voronoi cell, projected to the real line."""
    *_, cells, den = _voronoi(n, points)
    return [Fraction(mass, den) for mass, _, _ in cells]


def lloyd_step(n: int, points) -> PointSet:
    """One constrained Lloyd iteration: recenter each point at the pullback
    of its Voronoi cell's conditional mean.  Distortion never increases."""
    pts, *_, cells, _ = _voronoi(n, points)
    if len(pts) != n:
        raise ValueError(f"need exactly {n} distinct points, got {len(pts)}")
    new_pts = []
    for p, (mass, m1, _) in zip(pts, cells):
        if mass == 0:
            raise EmptyCellError(f"cell of point {p} has zero measure")
        new_pts.append(foot_point(n, m1, mass))
    return PointSet(n, new_pts)


def dp_optimal_upto(max_n: int, level: int) -> list[tuple[PointSet, Fraction]]:
    """Globally optimal codebooks over all level-k consecutive groupings,
    for every n = 1..max_n; entry n-1 is the result for n.

    Each group of intervals is served by the pullback of its conditional
    mean; the DP minimizes the exact total distortion over all groupings.
    Minimizing the distortion is equivalent to maximizing the sum of
    (group numerator sum)**2 / (group size) over the sorted centroid
    numerators: for p on S_n with foot u_p = 2x + 1/n, rho(t, p) =
    (u_p - t)**2 / 2 + (t + 1/n)**2 / 2, whose second term is the same for
    every codebook, so this is 1-D n-means on the feet.  That objective is
    a classic concave (Monge) interval cost, so each DP layer is filled by
    divide-and-conquer over the monotone argmax.

    Layer g (best objective over intervals i..m-1 with g groups) does not
    depend on n, so layers 1..max_n-1 are filled once for every i, and the
    top layer only at i = 0.  Each layer value is an unreduced integer pair
    num/den, den being the product of the group sizes; values are compared
    by cross-multiplication, with no gcd and no Fraction in the search, and
    only two layers are alive at once.  Each row records its argmax, the
    end of its first group, in one array of pointers per layer, and every
    n's boundaries follow the pointers from i = 0.  The strict comparison
    keeps each row's leftmost argmax (leftmost maxima of a totally monotone
    matrix are monotone, so the divide-and-conquer finds them), hence each
    boundary in turn is the smallest one that still allows the optimum:
    ties go to the lexicographically smallest boundaries.
    The distortion of each group comes from prefix sums of the numerators
    and of their squares.
    """
    if max_n < 1:
        raise ValueError("n must be >= 1")
    if level < 1:
        raise ValueError("level must be >= 1")
    m = 2 ** level
    if max_n > m:
        raise ValueError(f"n={max_n} exceeds the {m} level-{level} intervals")
    nums = centroid_numerators(level)
    pref = [0, *accumulate(nums)]
    pref2 = [0, *accumulate(v * v for v in nums)]

    # (pnum, pden): the best objective covering intervals i..m-1 with g - 1
    # groups; arg[g][i] is where the first of g groups from i ends
    pnum = [(pref[m] - pref[i]) ** 2 for i in range(m)]
    pden = [m - i for i in range(m)]
    arg = [None, None]
    for g in range(2, max_n + 1):
        # the top layer is needed only at i = 0
        rows = m - g + 1 if g < max_n else 1
        cnum, cden, carg = [0] * rows, [1] * rows, array("l", [0]) * rows

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
            cnum[mid], cden[mid], carg[mid] = bn, bd, best_j
            solve(ilo, mid - 1, jlo, best_j)
            solve(mid + 1, ihi, best_j, jhi)

        solve(0, rows - 1, 1, m - (g - 1))
        pnum, pden = cnum, cden
        arg.append(carg)

    den0 = 2 * 3 ** level
    floor = VARIANCE / 9 ** level
    results = []
    for n in range(1, max_n + 1):
        edges = [0]
        for g in range(n, 1, -1):
            edges.append(arg[g][edges[-1]])
        edges.append(m)

        pts, rho_sum = [], Fraction(0)
        for i, j in zip(edges, edges[1:]):
            s1, s2, size = pref[j] - pref[i], pref2[j] - pref2[i], j - i
            p = foot_point(n, s1, size * den0)
            pts.append(p)
            # sum of rho(t / den0, p) over the group's numerators t
            rho_sum += (Fraction(s2, den0 * den0) - 2 * p.x * Fraction(s1, den0)
                        + size * (p.x * p.x + p.y * p.y))
        results.append((PointSet(n, pts), floor + rho_sum / m))
    return results
