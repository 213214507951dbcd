"""Independent verification machinery: exact evaluator, Lloyd step, DP search.

Nothing here trusts the closed forms.  The evaluator and the Lloyd step
integrate the measure over each Voronoi cell of an arbitrary codebook in
one exact integer pass: generic 2-D bisector cuts over a common denominator
go unreduced to the kernel `measure.moment_numerators`, and each cell's mass
and first moment are integer differences at its boundaries.  The cells'
second moments always add up to E X**2 = 3/8 (mean 1/2, variance 1/8; Graf
& Luschgy, Math. Nachr. 183 (1997)), whatever the cuts, so a distortion is
3/8 plus the sum of (x**2 + y**2) mass - 2x M1 over the cells.  The Lloyd
step recenters every point at the pullback of its cell's conditional mean.
A PointSet keeps its own integer pass, so the evaluators integrate each
codebook once; a plain sequence of points is integrated on every call.
The DP searches globally over all placements whose cell boundaries fall on
level-k interval edges.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .constraint import ConstraintPoint, PointSet, check_n, feet_of, point_numerators
from .measure import centroid_numerators, moment_numerators


class OracleError(Exception):
    pass


class EmptyCellError(OracleError):
    """A Voronoi cell carries zero measure."""


def _voronoi(n: int, points):
    """Integer Voronoi cells of a codebook on S_n: (e, a, r, cells, den).

    points is a PointSet, or any other iterable of points on S_n, nonempty,
    none repeated, which is sorted by abscissa; either goes to the pass as
    feet.  Point i is (a_i, c_i)/e over one denominator e, from
    constraint.point_numerators, and r_i = a_i**2 + c_i**2.  The cut between
    neighbours (a, c)/e and (b, d)/e, a < b, is the generic 2-D bisector
    crossing of the real line (r_b - r_a) / (2e(b - a)), given to the kernel
    unreduced, as are the ends 0 and 1.  Each cell's (mass, M1) is the
    difference of its ends' kernel values over one denominator den.  A
    frozen PointSet keeps its pass in its instance dict under "_pass", as
    functools.cached_property does, unseen by its equality, hash and repr;
    any other input is integrated on every call.
    """
    if isinstance(points, PointSet):
        check_n(n)  # feet_of checks it for any other input
        if points.n != n:
            raise ValueError(f"point set is on S_{points.n}, expected S_{n}")
        # PointSet guarantees strictly increasing feet
        memo = vars(points)
        if "_pass" in memo:
            return memo["_pass"]
        e, a, c = points.numerators
    else:
        memo, (fden, feet) = {}, feet_of(n, points)
        if not feet:
            raise ValueError("need at least one point")
        feet.sort()
        for t0, t1 in zip(feet, feet[1:]):
            if t0 == t1:
                e, (a,), _ = point_numerators(n, fden, (t1,))
                raise ValueError(f"duplicate abscissa {Fraction(a, e)}")
        e, a, c = point_numerators(n, fden, feet)
    r, e2 = [u * u + v * v for u, v in zip(a, c)], 2 * e
    ends = [moment_numerators(0, 1)]
    for a0, a1, r0, r1 in zip(a, a[1:], r, r[1:]):
        ends.append(moment_numerators(r1 - r0, e2 * (a1 - a0)))
    ends.append(moment_numerators(1, 1))
    den = lcm(*[d for _, _, d in ends])
    cells, f0, g0 = [], 0, 0  # cells[0] is v(0) itself, not a cell
    for f, g, d in ends:
        f, g = f * (k := den // d), g * k
        cells.append((f - f0, g - g0))
        f0, g0 = f, g
    memo["_pass"] = result = e, a, r, cells[1:], den
    return result


def _distortion(e: int, a, r, cells, den: int) -> Fraction:
    """3/8 plus the sum of (x**2 + y**2) mass - 2x M1 over cells (mass, M1)
    / den, each for its point (x, y) = (a_i, c_i) / e, r_i = a_i**2 + c_i**2."""
    ee, e2 = e * e, 2 * e
    total = sum([ru * mass - e2 * u * m1 for u, ru, (mass, m1) in zip(a, r, cells)])
    return Fraction(8 * total + 3 * ee * den, 8 * ee * den)


def exact_distortion(n: int, points) -> Fraction:
    """Exact distortion of an arbitrary codebook on S_n.

    Duplicate points collapse to one.  Each cell contributes
    (x**2 + y**2) mass - 2x M1 for its point (x, y), and the distortion is
    3/8 plus their sum.
    """
    if not isinstance(points, PointSet):
        points = dict.fromkeys(points)  # keeps the first of each, in order
    return _distortion(*_voronoi(n, points))


def cell_measures(n: int, points) -> list[Fraction]:
    """Measure of each point's Voronoi cell, projected to the real line."""
    _, _, _, cells, den = _voronoi(n, points)
    return [Fraction(mass, den) for mass, _ in cells]


def lloyd_step(n: int, points) -> PointSet:
    """One constrained Lloyd iteration: recenter each point at the pullback
    of its Voronoi cell's conditional mean.  Distortion never increases.
    A PointSet that no point leaves is returned itself, with its pass."""
    e, a, _, cells, _ = _voronoi(n, points)
    if len(a) != n:
        raise ValueError(f"need exactly {n} distinct points, got {len(a)}")
    nums, dens = [], []  # each foot m1/mass in lowest terms
    for mass, m1 in cells:
        if mass == 0:
            p = ConstraintPoint(n, Fraction(a[len(nums)], e))  # this cell's point
            raise EmptyCellError(f"cell of point {p} has zero measure")
        nums.append(m1 // (g := gcd(m1, mass)))
        dens.append(mass // g)
    fden = lcm(*dens)
    new = PointSet.from_feet(n, fden, [t * (fden // d) for t, d in zip(nums, dens)])
    return points if new == points else new


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
    a classic concave (Monge) interval cost, so the leftmost argmax arg[g][i],
    the end of the first of g groups covering intervals i..m-1, is monotone
    along a layer (arg[g][i] <= arg[g][i+1]) and across layers (arg[g][i] <=
    arg[g-1][i]: with one group more the first group ends no later).

    Layer g (best objective over intervals i..m-1 with g groups) does not
    depend on n, and is filled only as far as some n's pointer chain reads.
    A request for rows 0..r of layer g first makes layer g-1 hold row r and
    every column that row r can reach, up to arg[g-1][r]; then layer g is
    extended from its last filled row to r by divide-and-conquer over the
    monotone argmax, each row's columns capped at arg[g-1][i].  One request,
    row 0 of layer max_n, worked off on an explicit stack, fills every row
    that any n reads.  Each layer value is an unreduced integer pair
    num/den, den being the product of the group sizes; values are compared
    by cross-multiplication, with no gcd and no Fraction in the search.  A
    layer keeps values only for its live rows, as layer g never reads a row
    of layer g-1 left of arg[g][r] again; the argmax pointers of every
    filled row stay, one array per layer, and every n's boundaries follow
    them from i = 0.  The strict comparison keeps each row's leftmost argmax
    (leftmost maxima of a totally monotone matrix are monotone, so the
    capped search finds them), hence each boundary in turn is the smallest
    one that still allows the optimum: ties go to the lexicographically
    smallest boundaries.  Each group is a cell whose mass and first moment
    come from prefix sums of the numerators; the evaluator adds the 3/8.
    """
    check_n(max_n)
    check_n(level, "level")
    m = 2 ** level
    if max_n > m:
        raise ValueError(f"n={max_n} exceeds the {m} level-{level} intervals")
    pref = [0, *accumulate(centroid_numerators(level))]

    # layer g: the pairs vnum[g][k] / vden[g][k] of its live rows i = off[g] + k
    # and arg[g][i] of each filled row; layer 1 is one group, ending at m
    off = [0] * (max_n + 1)
    vnum, vden, arg = [[] for _ in off], [[] for _ in off], [array("I") for _ in off]
    vnum[1] = [(pref[m] - pref[i]) ** 2 for i in range(m)]
    vden[1], arg[1] = list(range(m, 0, -1)), array("I", [m]) * m
    stack = [(max_n, 0)] if max_n > 1 else []
    while stack:
        g, r = stack[-1]
        parg = arg[g - 1]
        # layer g - 1 must hold row r, then every column row r can reach
        need = min(parg[r], m - g + 1) if r < len(parg) else r
        if need >= len(parg):
            stack.append((g - 1, need))
            continue
        stack.pop()
        pnum, pden, o = vnum[g - 1], vden[g - 1], off[g - 1]
        cnum, cden, carg, co = vnum[g], vden[g], arg[g], off[g]
        f = len(carg)  # the first row to fill; solve sets every row to r
        for rows in (cnum, cden, carg):
            rows.extend([0] * (r + 1 - f))

        def solve(ilo: int, ihi: int, jlo: int, jhi: int) -> None:
            if ilo > ihi:
                return
            mid = (ilo + ihi) // 2
            base, lo, hi = pref[mid], max(jlo, mid + 1), min(jhi, parg[mid]) + 1
            bn, bd, best_j = -1, 1, -1
            for j in range(lo, hi):
                d, size, pd = pref[j] - base, j - mid, pden[j - o]
                num, den = d * d * pd + pnum[j - o] * size, size * pd
                if num * bd > bn * den:
                    bn, bd, best_j = num, den, j
            cnum[mid - co], cden[mid - co], carg[mid] = bn, bd, best_j
            solve(ilo, mid - 1, jlo, best_j)
            solve(mid + 1, ihi, best_j, jhi)

        solve(f, r, carg[f - 1] if f else 1, need)
        # rows of layer g - 1 left of arg[g][r] are dead
        dead = carg[r] - o
        del pnum[:dead], pden[:dead]
        off[g - 1] = o + dead

    den0 = 2 * 3 ** level
    results = []
    for n in range(1, max_n + 1):
        edges = [0]
        for g in range(n, 1, -1):
            edges.append(arg[g][edges[-1]])
        edges.append(m)

        groups = [(pref[j] - pref[i], j - i) for i, j in zip(edges, edges[1:])]
        lcm_size = lcm(*(size for _, size in groups))
        ps = PointSet.from_feet(n, lcm_size * den0,
                                [s1 * (lcm_size // size) for s1, size in groups])
        # each group is a cell: (mass, M1) = (size, s1 / den0) / m
        e, a, c = point_numerators(n, ps.den, ps.feet)
        r = [u * u + v * v for u, v in zip(a, c)]
        cells = [(size * den0, s1) for s1, size in groups]
        results.append((ps, _distortion(e, a, r, cells, den0 * m)))
    return results
