import hashlib
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import accumulate, combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorq import oracle
from cantorq.closedform import build_alpha, level_of, quantization_error
from cantorq.constraint import (
    ConstraintPoint,
    PointSet,
    feasible_window,
    u_inverse,
)
from cantorq.measure import centroid_numerators
from cantorq.oracle import (
    EmptyCellError,
    cell_measures,
    dp_optimal_upto,
    exact_distortion,
    lloyd_step,
)
from reference import VARIANCE, partial_moments, rho

F = Fraction


def test_exact_distortion_one_point():
    assert exact_distortion(1, build_alpha(1)) == F(5, 4)


def test_exact_distortion_matches_closed_form_small():
    assert exact_distortion(2, build_alpha(2)) == F(41, 72)
    assert exact_distortion(3, build_alpha(3)) == F(67, 162)


@pytest.mark.parametrize("n", range(1, 33))
def test_exact_distortion_agrees_with_closed_form(n):
    assert exact_distortion(n, build_alpha(n)) == quantization_error(n)


def test_exact_distortion_collapses_duplicates():
    p = ConstraintPoint(2, F(-1, 6))
    assert exact_distortion(2, [p, p]) == exact_distortion(2, [p])


def test_exact_distortion_rejects_wrong_segment():
    with pytest.raises(ValueError):
        exact_distortion(2, [ConstraintPoint(3, F(0))])
    with pytest.raises(ValueError):
        exact_distortion(2, [])


def test_exact_distortion_when_boundary_is_in_cantor_set():
    # feet 0 and 1/2 put the cut at 1/4 = 0.020202..._3, inside the Cantor
    # set.  F(1/4) = F(3/4)/2 and F(3/4) = 1/2 + F(1/4)/2 give F(1/4) = 1/3;
    # the same two maps give M1(1/4) = 1/30.  On top of the cells' total
    # second moment 3/8, the points (-1/4, 1/4) and (0, 1/2) then contribute
    # (1/60 + 1/24) + 1/6, and 3/8 + 9/40 = 3/5.
    pts = [u_inverse(2, F(0)), u_inverse(2, F(1, 2))]
    assert cell_measures(2, pts) == [F(1, 3), F(2, 3)]
    assert exact_distortion(2, pts) == F(3, 5)


# a start on S_16 whose first Lloyd iterate has the cut 570247/590490,
# whose ternary expansion is periodic with no digit 1
N16_FEET = tuple(F(a, 2 * 3 ** 8) for a in (
    125, 149, 1097, 1129, 1333, 3029, 3041, 3253, 4001, 8801, 9181, 9233,
    9881, 10157, 13001, 13013))


def test_lloyd_descent_through_boundary_in_cantor_set():
    current = [u_inverse(16, t) for t in N16_FEET]
    before = exact_distortion(16, current)
    for _ in range(3):
        current = lloyd_step(16, current)
        assert sum(cell_measures(16, current)) == 1
        after = exact_distortion(16, current)
        assert after <= before
        before = after
    assert after >= quantization_error(16)


def _per_cut(n, feet):
    """The sorted distinct points and their cells' (mass, M1) by the
    per-cut path: each cut from the generic 2-D bisector formula on
    Fractions, each cell a difference of kernel values."""
    pts = sorted({u_inverse(n, t) for t in feet}, key=lambda p: p.x)
    cuts = [((q.x ** 2 + q.y ** 2) - (p.x ** 2 + p.y ** 2)) / (2 * (q.x - p.x))
            for p, q in zip(pts, pts[1:])]
    vs = [partial_moments(c) for c in (F(0), *cuts, F(1))]
    return pts, [tuple(b - a for a, b in zip(u, w)) for u, w in zip(vs, vs[1:])]


def _assert_matches_per_cut(n, feet):
    pts, cells = _per_cut(n, feet)
    assert exact_distortion(n, [u_inverse(n, t) for t in feet]) == F(3, 8) + sum(
        (p.x ** 2 + p.y ** 2) * mass - 2 * p.x * m1 for p, (mass, m1) in zip(pts, cells))
    assert cell_measures(n, pts) == [mass for mass, _ in cells]
    if len(pts) != n:
        with pytest.raises(ValueError, match="need exactly"):
            lloyd_step(n, pts)
    elif any(mass == 0 for mass, _ in cells):
        with pytest.raises(EmptyCellError):
            lloyd_step(n, pts)
    else:
        assert lloyd_step(n, pts).points == tuple(
            u_inverse(n, m1 / mass) for mass, m1 in cells)


foot_st = st.sampled_from((2 * 3 ** 5, 3 ** 6, 2 ** 6, 100, 7 * 11 * 13)).flatmap(
    lambda d: st.integers(0, d).map(lambda a: F(a, d)))


def _descent_feet(k, size):
    """Distinct level-k centroids over 2*3**k, as the descent benchmark draws them."""
    return st.lists(st.sampled_from(centroid_numerators(k)), min_size=size,
                    max_size=size, unique=True).map(
        lambda nums: [F(a, 2 * 3 ** k) for a in sorted(nums)])


@st.composite
def codebook_st(draw):
    # n is drawn apart from the feet, so it shares factors with their
    # denominators in some examples and not in others; a codebook of n feet
    # keeps lloyd_step in play
    n = draw(st.integers(1, 24))
    size = draw(st.one_of(st.just(n), st.integers(1, 24)))
    feet = draw(st.one_of(st.lists(foot_st, min_size=size, max_size=size),
                          st.integers(5, 8).flatmap(lambda k: _descent_feet(k, size))))
    return n, feet


@settings(max_examples=150, deadline=None)
@given(codebook_st(), st.integers(0, 3))
def test_integer_pass_matches_per_cut_path(codebook, repeats):
    n, feet = codebook
    # repeated feet exercise exact_distortion's collapse
    _assert_matches_per_cut(n, feet + feet[:repeats])


def test_integer_pass_matches_per_cut_path_on_former_faults():
    _assert_matches_per_cut(2, [F(0), F(1, 2)])
    feet = N16_FEET
    for _ in range(4):
        _assert_matches_per_cut(16, feet)
        feet = [2 * p.x + F(1, 16)
                for p in lloyd_step(16, [u_inverse(16, t) for t in feet]).points]


def test_one_pass_per_codebook(monkeypatch):
    # an n-point codebook takes n + 1 kernel values (its n - 1 cuts and the
    # two ends); a PointSet keeps them for the three calls on it
    n, kernel, calls = 16, oracle.moment_numerators, []

    def counted(p, q):
        calls.append((p, q))
        return kernel(p, q)

    monkeypatch.setattr(oracle, "moment_numerators", counted)
    ps = PointSet(n, tuple(u_inverse(n, t) for t in N16_FEET))
    exact_distortion(n, ps)
    cell_measures(n, ps)
    lloyd_step(n, ps)
    assert len(calls) == n + 1
    # a Lloyd step that moves no point returns its codebook, pass and all;
    # from a list it still returns a PointSet
    alpha = build_alpha(n)
    exact_distortion(n, alpha)
    del calls[:]
    assert lloyd_step(n, alpha) is alpha
    assert calls == []
    assert lloyd_step(n, list(alpha.points)) == alpha
    # PointSets A, B, A, where B moves one foot: each keeps its own pass, so
    # going back to A integrates nothing
    moved = list(N16_FEET)
    moved[5] = F(3035, 2 * 3 ** 8)
    a, b = (PointSet(n, tuple(u_inverse(n, t) for t in feet)) for feet in (N16_FEET, moved))
    del calls[:]
    for ps in (a, b, a):
        exact_distortion(n, ps)
        cell_measures(n, ps)
    assert len(calls) == 2 * (n + 1)
    # a list is integrated on every call: three calls on each of A, B, A
    del calls[:]
    for feet in (N16_FEET, moved, N16_FEET):
        _assert_matches_per_cut(n, feet)
    assert len(calls) == 9 * (n + 1)


def test_empty_cell_error():
    # middle cell sits entirely inside the gap (1/3, 2/3)
    pts = [u_inverse(3, F(2, 5)), u_inverse(3, F(21, 50)), u_inverse(3, F(22, 50))]
    with pytest.raises(EmptyCellError, match=re.escape(
            f"cell of point {pts[1]} has zero measure")):
        lloyd_step(3, pts)


def test_lloyd_step_rejects_duplicates():
    p = ConstraintPoint(2, F(-1, 6))
    with pytest.raises(ValueError):
        lloyd_step(2, [p, p])


@pytest.mark.parametrize("evaluate", [exact_distortion, cell_measures, lloyd_step])
def test_one_intake_for_the_three_evaluators(evaluate):
    ps = build_alpha(3)
    pts = list(ps.points)
    expected = evaluate(3, ps)
    for good in (pts, pts[::-1], (p for p in pts)):
        assert evaluate(3, good) == expected
    repeated = [pts[0], *pts]
    if evaluate is exact_distortion:
        assert evaluate(3, repeated) == F(67, 162)
    else:
        with pytest.raises(ValueError, match="^duplicate abscissa -5/36$"):
            evaluate(3, repeated)
    for bad, message in (([*pts[:2], ConstraintPoint(4, F(0))], "is not on S_3"),
                         ([], "^need at least one point$"),
                         (build_alpha(4), "^point set is on S_4, expected S_3$")):
        with pytest.raises(ValueError, match=message):
            evaluate(3, bad)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda pts: exact_distortion("2", pts), TypeError,
                 "^n must be an int, got '2'$", id="exact_distortion-str"),
    pytest.param(lambda pts: PointSet("2", pts), TypeError,
                 "^n must be an int, got '2'$", id="PointSet-str"),
    pytest.param(lambda pts: cell_measures(2.0, pts), TypeError,
                 "^n must be an int, got 2.0$", id="cell_measures-float"),
    pytest.param(lambda _: exact_distortion(True, [ConstraintPoint(1, F(0))]),
                 TypeError, "^n must be an int, got True$", id="exact_distortion-bool"),
    pytest.param(lambda _: lloyd_step(True, build_alpha(1)), TypeError,
                 "^n must be an int, got True$", id="lloyd_step-bool"),
    pytest.param(lambda _: dp_optimal_upto(True, 3), TypeError,
                 "^n must be an int, got True$", id="dp_optimal_upto-bool"),
    pytest.param(lambda pts: exact_distortion(0, pts), ValueError,
                 "^n must be >= 1$", id="exact_distortion-zero"),
])
def test_n_is_checked_before_it_is_used(call, error, message):
    # once, at the intake of the oracles and of PointSet(n, points), for
    # points on S_2 that a wrong n would otherwise misread or misreport
    with pytest.raises(error, match=message):
        call(build_alpha(2).points)


@pytest.mark.parametrize("n", range(1, 33))
def test_lloyd_fixed_point_at_optimum(n):
    alpha = build_alpha(n)
    assert lloyd_step(n, alpha) == alpha


def test_lloyd_one_point_converges_in_one_step():
    for t in (F(0), F(1, 3), F(9, 10)):
        start = [u_inverse(1, t)]
        assert tuple(p.x for p in lloyd_step(1, start).points) == (F(-1, 4),)


def test_lloyd_two_point_iteration_reaches_optimum():
    # the start (-1/4, 0) has its cell boundary at 1/4, inside the Cantor set
    for start in (F(-1, 4), F(-9, 40)):
        current = [ConstraintPoint(2, start), ConstraintPoint(2, F(0))]
        for _ in range(50):
            stepped = lloyd_step(2, current)
            if stepped.points == tuple(current):
                break
            current = stepped.points
        assert stepped == build_alpha(2)


def _random_start(rng, n):
    """Random codebook whose feet are distinct multiples of 3**-7 in (0, 1)."""
    feet = rng.sample(range(1, 3 ** 7), n)
    return [u_inverse(n, F(t, 3 ** 7)) for t in sorted(feet)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lloyd_descent_from_random_starts(n):
    rng = random.Random(20240 + n)
    optimum = quantization_error(n)
    for _ in range(25):
        pts = _random_start(rng, n)
        try:
            before = exact_distortion(n, pts)
            after = exact_distortion(n, lloyd_step(n, pts))
        except EmptyCellError:
            continue
        assert after <= before
        assert after >= optimum


def seeded_descent_digest() -> str:
    """SHA-256 of seeded Lloyd descents: two starts of n distinct level-k
    centroids for each n = 2..24, k cycling through 5..8, each taken through
    three Lloyd steps.  Every step adds its points, exact distortion and cell
    masses as p/q text."""
    def text(v):
        return f"{v.numerator}/{v.denominator}"

    digest = hashlib.sha256()
    for n in range(2, 25):
        for j in range(2):
            k = 5 + (n + 2 * j) % 4
            rng = random.Random(f"descent-digest:{k}:{n}:{j}")
            nums = sorted(rng.sample(centroid_numerators(k), n))
            ps = PointSet(n, tuple(u_inverse(n, F(a, 2 * 3 ** k)) for a in nums))
            for step in range(4):
                row = [text(v) for p in ps.points for v in (p.x, p.y)]
                row.append(text(exact_distortion(n, ps)))
                row.extend(map(text, cell_measures(n, ps)))
                digest.update((" ".join(row) + "\n").encode())
                if step < 3:
                    ps = lloyd_step(n, ps)
    return digest.hexdigest()


def test_seeded_descents_are_unchanged():
    assert seeded_descent_digest() == (
        "e355401650d12346888af2ebe5dfe1c45482137c29b1460e858b218e764f3705")


def test_dp_examples():
    _, v1 = dp_optimal_upto(1, 1)[-1]
    assert v1 == F(5, 4)
    ps2, v2 = dp_optimal_upto(2, 5)[-1]
    assert v2 == F(41, 72)
    assert ps2 == build_alpha(2)
    ps3, v3 = dp_optimal_upto(3, 5)[-1]
    assert v3 == F(67, 162)
    assert ps3 == build_alpha(3)


def test_dp_rejects_too_many_points():
    with pytest.raises(ValueError):
        dp_optimal_upto(5, 2)[-1]
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        dp_optimal_upto(0, 3)


@pytest.mark.parametrize("max_n, level", [(1, -1), (1, 0), (2, 0)])
def test_dp_rejects_levels_below_one(max_n, level):
    # refused before 2**level, which is a float for a negative level
    with pytest.raises(ValueError, match="^level must be >= 1$"):
        dp_optimal_upto(max_n, level)
    with pytest.raises(ValueError, match="^level must be >= 1$"):
        centroid_numerators(level)  # the DP's numerators check the same


@pytest.mark.parametrize("n", range(1, 13))
def test_dp_agrees_with_closed_form_at_level_8(n):
    ps, v = dp_optimal_upto(n, 8)[-1]
    assert "numerators" not in vars(ps)  # the DP caches nothing on its codebooks
    assert v == quantization_error(n)
    assert ps == build_alpha(n)
    assert dp_optimal_upto(12, 8)[n - 1] == (ps, v)


def _per_interval_value(n, level, edges):
    """The DP value summed one interval at a time, with rho."""
    nums = centroid_numerators(level)
    den, m = 2 * 3 ** level, 2 ** level
    value = F(0)
    for i, j in zip(edges, edges[1:]):
        p = u_inverse(n, F(sum(nums[i:j]), (j - i) * den))
        for t in nums[i:j]:
            value += (F(1, 9 ** level) * VARIANCE + rho(F(t, den), p)) / m
    return value


def test_dp_matches_brute_force_with_lexicographic_tie_break():
    ties = 0
    for level in range(1, 5):
        m = 2 ** level
        nums = centroid_numerators(level)
        pref = [0, *accumulate(nums)]
        max_n = min(m, 6)
        results = dp_optimal_upto(max_n, level)
        for n in range(1, max_n + 1):
            # combinations come in lexicographic order, so the first of the
            # maxima has the smallest boundaries
            best, best_edges, count = None, None, 0
            for cut in combinations(range(1, m), n - 1):
                edges = (0, *cut, m)
                score = sum(F((pref[j] - pref[i]) ** 2, j - i)
                            for i, j in zip(edges, edges[1:]))
                if best is None or score > best:
                    best, best_edges, count = score, edges, 1
                elif score == best:
                    count += 1
            ties += count > 1
            ps, value = results[n - 1]
            feet = tuple(F(pref[j] - pref[i], (j - i) * 2 * 3 ** level)
                         for i, j in zip(best_edges, best_edges[1:]))
            assert ps.points == tuple(u_inverse(n, t) for t in feet)
            assert value == _per_interval_value(n, level, best_edges)
    assert ties > 0  # the tie-break is exercised


def _eager_dp_optimal_upto(max_n, level):
    """The DP filled eagerly, layer by layer: every row of layers 1..max_n-1
    and row 0 of the top layer, each row's columns bounded only by the
    divide-and-conquer.  Each value is summed in Fractions from the groups'
    own sums of squares, not through the evaluator's 3/8.  A reference for
    dp_optimal_upto, which fills rows on demand."""
    m = 2 ** level
    nums = centroid_numerators(level)
    pref = [0, *accumulate(nums)]
    pref2 = [0, *accumulate(v * v for v in nums)]
    pnum = [(pref[m] - pref[i]) ** 2 for i in range(m)]
    pden = [m - i for i in range(m)]
    arg = [None, None]
    for g in range(2, max_n + 1):
        rows = m - g + 1 if g < max_n else 1
        cnum, cden, carg = [0] * rows, [1] * rows, [0] * rows

        def solve(ilo, ihi, jlo, jhi):
            if ilo > ihi:
                return
            mid = (ilo + ihi) // 2
            bn, bd, best_j = -1, 1, -1
            for j in range(max(jlo, mid + 1), jhi + 1):
                d, size, pd = pref[j] - pref[mid], j - mid, pden[j]
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
    results = []
    for n in range(1, max_n + 1):
        edges = [0]
        for g in range(n, 1, -1):
            edges.append(arg[g][edges[-1]])
        edges.append(m)
        groups = [(pref[j] - pref[i], pref2[j] - pref2[i], j - i)
                  for i, j in zip(edges, edges[1:])]
        lcm_size = lcm(*(size for *_, size in groups))
        ps = PointSet.from_feet(n, lcm_size * den0,
                                [s1 * (lcm_size // size) for s1, _, size in groups])
        # each level interval adds its own variance, (1/8) / 9**level =
        # (1/2) / den0**2, to its centroid's square
        value = sum((F(2 * s2 + size, 2 * den0 * den0 * m) - 2 * p.x * F(s1, den0 * m)
                     + (p.x ** 2 + p.y ** 2) * F(size, m))
                    for p, (s1, s2, size) in zip(ps.points, groups))
        results.append((ps, value))
    return results


@pytest.mark.parametrize("max_n, level", [
    *((max_n, level) for level in range(1, 9)
      for max_n in sorted({1, 2, 3, 4, 5, 8, 17, 2 ** level}) if max_n <= 2 ** level),
    (4, 10), (2, 12)])
def test_dp_matches_the_eager_fill(max_n, level):
    assert dp_optimal_upto(max_n, level) == _eager_dp_optimal_upto(max_n, level)


def _leftmost_argmaxes(level, layers):
    """arg[g][i], the end of the first group of the best grouping of intervals
    i..m-1 into g groups, leftmost among ties, for g = 1..layers and every
    row i <= m - g: an exhaustive search over every first group of every row,
    in Fractions; arg[1][i] = m."""
    m = 2 ** level
    pref = [0, *accumulate(centroid_numerators(level))]

    def gain(i, j):
        return F((pref[j] - pref[i]) ** 2, j - i)

    best = {(1, i): gain(i, m) for i in range(m)}
    arg = {(1, i): m for i in range(m)}
    for g in range(2, layers + 1):
        for i in range(m - g + 1):
            values = [gain(i, j) + best[g - 1, j] for j in range(i + 1, m - g + 2)]
            best[g, i] = max(values)
            arg[g, i] = i + 1 + values.index(best[g, i])
    return arg


@pytest.mark.parametrize("level", range(1, 7))
def test_first_group_ends_bound_each_other(level):
    # the caps of dp_optimal_upto: a row's first group ends no later with one
    # group more, and no earlier a row further right
    m = 2 ** level
    layers = min(m, 8)
    arg = _leftmost_argmaxes(level, layers)
    for g in range(2, layers + 1):
        for i in range(m - g + 1):
            assert arg[g, i] <= arg[g - 1, i]
            if i < m - g:
                assert arg[g, i] <= arg[g, i + 1]


def test_dp_keeps_two_layers_of_values():
    # every layer of integer pairs kept alive would peak near 0.36 MiB
    tracemalloc.start()
    try:
        dp_optimal_upto(16, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * 2 ** 20


def test_dp_builds_no_layer_for_one_group():
    # n = 1 reads pref alone: 0.32 MiB here, and 0.51 MiB with layer 1's
    # 2**12 values and pointers built all the same
    tracemalloc.start()
    try:
        dp_optimal_upto(1, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * 2 ** 20


def test_dp_keeps_only_live_rows_of_values():
    # the eager fill, two layers of every row, peaked at 0.42 MiB here (Python
    # 3.10-3.13) and the live rows at 0.21-0.22 MiB; keeping every filled row
    # of every layer peaks near 1.7 MiB
    tracemalloc.start()
    try:
        dp_optimal_upto(33, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.45 * 2 ** 20


@pytest.mark.parametrize("n", range(1, 17))
def test_voronoi_measures_preserved(n):
    alpha = build_alpha(n)
    constrained = cell_measures(n, alpha)
    means = [2 * p.x + F(1, n) for p in alpha.points]  # the feet
    midpoints = [(means[i] + means[i + 1]) / 2 for i in range(len(means) - 1)]
    ends = [partial_moments(c)[0] for c in (F(0), *midpoints, F(1))]
    unconstrained = [b - a for a, b in zip(ends, ends[1:])]
    assert constrained == unconstrained
    assert sum(constrained) == 1
    # each cell holds one or half of a level-l interval's mass
    l = level_of(n)
    assert set(constrained) <= {F(1, 2 ** l), F(1, 2 ** (l + 1))}


def test_oracle_reads_no_ordinate(monkeypatch):
    # the integer pass takes every ordinate numerator as a + e/n
    codebooks = {n: build_alpha(n) for n in range(1, 17)}
    expected = {n: (exact_distortion(n, ps), cell_measures(n, ps), lloyd_step(n, ps))
                for n, ps in codebooks.items()}

    def no_ordinate(p):
        raise AssertionError(f"ordinate of {p} read")

    monkeypatch.setattr(ConstraintPoint, "y", property(no_ordinate))
    for n, ps in codebooks.items():
        assert (exact_distortion(n, ps), cell_measures(n, ps),
                lloyd_step(n, ps)) == expected[n]
