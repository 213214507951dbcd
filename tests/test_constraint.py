import copy
import pickle
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorq.asymptotics import dimension_sequence
from cantorq.closedform import (
    admissible_split_sets,
    build_alpha,
    count_optimal_sets,
    error_pairs,
    error_pairs_sweep,
    feet_table,
    level_of,
    quantization_error,
    unconstrained_error,
)
from cantorq.constraint import (
    ConstraintPoint,
    PointSet,
    feasible_window,
    point_numerators,
    u_inverse,
)
from cantorq.measure import centroid_numerators, moment_numerators
from cantorq.oracle import cell_measures, dp_optimal_upto, exact_distortion
from reference import rho

F = Fraction

unit_rational_st = st.fractions(min_value=0, max_value=1)
# bounded denominators keep the kernel's orbits short
small_unit_st = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 4)
index_st = st.integers(min_value=1, max_value=64)


def test_constraint_point_ordinate_is_implied():
    p = ConstraintPoint(4, F(1, 8))
    assert p.y == F(1, 8) + F(1, 4)


def test_constraint_point_rejects_off_segment():
    with pytest.raises(ValueError):
        ConstraintPoint(1, F(-2))
    with pytest.raises(ValueError):
        ConstraintPoint(3, F(9, 8))
    with pytest.raises(ValueError):
        ConstraintPoint(0, F(0))
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        feasible_window(0)


@pytest.mark.parametrize("j", range(1, 65))
def test_constraint_point_range_ends(j):
    assert ConstraintPoint(j, -F(1, j)).x == -F(1, j)
    assert ConstraintPoint(j, F(1)).x == 1
    for x in (-F(1, j) - F(1, 10 ** 6 * j), 1 + F(1, 10 ** 6)):
        with pytest.raises(ValueError):
            ConstraintPoint(j, x)


def test_constraint_point_wraps_non_fraction_abscissa():
    for x, expected in ((0, F(0)), (1, F(1))):
        p = ConstraintPoint(3, x)
        assert type(p.x) is Fraction and p.x == expected


S2_PAIR = (ConstraintPoint(2, F(-1, 6)), ConstraintPoint(2, F(1, 6)))

# entries of the other modules whose integer argument constraint.check_n checks
INDEX_ENTRIES = {
    "level-of": level_of, "count": count_optimal_sets,
    "split-sets": admissible_split_sets, "feet-table": feet_table,
    "build-alpha": build_alpha, "unconstrained": unconstrained_error,
    "error-pairs": error_pairs, "quantization-error": quantization_error,
    "sweep": lambda n: list(error_pairs_sweep([n])),
    "dp-level": lambda level: dp_optimal_upto(2, level),
    "centroids": centroid_numerators, "dimension": dimension_sequence,
}


@pytest.mark.parametrize("make", [
    pytest.param(lambda: ConstraintPoint(2, 0.1), id="float-abscissa"),
    pytest.param(lambda: ConstraintPoint(3, "1/3"), id="str-abscissa"),
    pytest.param(lambda: ConstraintPoint(2.0, F(0)), id="float-index"),
    pytest.param(lambda: ConstraintPoint(F(2), F(0)), id="fraction-index"),
    pytest.param(lambda: ConstraintPoint._make((2, 0.1)), id="float-abscissa-make"),
    pytest.param(lambda: ConstraintPoint(2, F(0))._replace(x=0.1),
                 id="float-abscissa-replace"),
    pytest.param(lambda: u_inverse(2, 0.3), id="float-foot"),
    pytest.param(lambda: u_inverse(2.0, F(1, 3)), id="float-index-foot"),
    pytest.param(lambda: PointSet(2.0, S2_PAIR), id="float-n"),
    *[pytest.param(lambda f=f: f(2.0), id=f"float-{name}")
      for name, f in INDEX_ENTRIES.items()],
])
def test_a_float_is_refused_never_made_a_rational(make):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10; the
    # message names the refused value
    with pytest.raises(TypeError, match=", got "):
        make()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: ConstraintPoint(True, F(1, 2)), id="bool-index"),
    pytest.param(lambda: ConstraintPoint(2, True), id="bool-abscissa"),
    pytest.param(lambda: ConstraintPoint(2, F(0))._replace(j=True), id="bool-index-replace"),
    pytest.param(lambda: u_inverse(2, True), id="bool-foot"),
    pytest.param(lambda: u_inverse(True, F(1, 2)), id="bool-index-foot"),
    pytest.param(lambda: PointSet(True, [ConstraintPoint(1, F(0))]), id="bool-n"),
    pytest.param(lambda: PointSet.from_feet(True, 2, (1,)), id="bool-n-feet"),
    pytest.param(lambda: PointSet.from_feet(1, True, (1,)), id="bool-den"),
    *[pytest.param(lambda f=f: f(True), id=f"bool-{name}")
      for name, f in INDEX_ENTRIES.items()],
])
def test_a_bool_is_refused_never_made_an_int(make):
    # True == 1, so a bool would pass every range check and show in a repr
    with pytest.raises(TypeError, match=", got True$"):
        make()


@pytest.mark.parametrize("j, error, message", [
    (0, ValueError, "^j must be >= 1$"),
    (-3, ValueError, "^j must be >= 1$"),
    (2.0, TypeError, r"^j must be an int, got 2\.0$"),
    ("2", TypeError, r"^j must be an int, got '2'$"),
], ids=["zero", "negative", "float", "str"])
def test_u_inverse_checks_its_index_before_any_arithmetic(j, error, message):
    # u_inverse(0, t) once divided by zero, and a float or str j failed
    # inside the arithmetic
    with pytest.raises(error, match=message):
        u_inverse(j, F(1, 2))


def test_a_point_is_its_checked_pair():
    p = ConstraintPoint(2, F(-1, 4))
    assert repr(p) == "ConstraintPoint(j=2, x=Fraction(-1, 4))"
    assert p == (2, F(-1, 4)) and hash(p) == hash((2, F(-1, 4)))
    j, x = p
    assert (j, x) == (p.j, p.x)
    assert sorted([ConstraintPoint(3, 0), p, ConstraintPoint(2, F(1, 8))]) == [
        (2, F(-1, 4)), (2, F(1, 8)), (3, 0)]
    assert p._replace(x=F(1, 4)) == ConstraintPoint._make([2, F(1, 4)])
    assert type(ConstraintPoint._make((3, 1)).x) is Fraction
    # _make and _replace go through the constructor, messages and all
    for bad, call in [((2.0, F(0)), lambda: ConstraintPoint._make((2.0, F(0)))),
                      ((0, F(0)), lambda: p._replace(j=0)),
                      ((2, F(3, 2)), lambda: ConstraintPoint._make((2, F(3, 2)))),
                      ((1, F(-2)), lambda: p._replace(j=1, x=F(-2)))]:
        with pytest.raises((TypeError, ValueError)) as expected:
            ConstraintPoint(*bad)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            call()
    with pytest.raises(TypeError):
        ConstraintPoint._make((2,))
    with pytest.raises(AttributeError):
        p.x = F(0)
    with pytest.raises(AttributeError):
        p.z = 0
    with pytest.raises(TypeError):
        weakref.ref(p)


def test_copies_and_pickles_of_a_point_go_through_its_checks(monkeypatch):
    p = ConstraintPoint(2, F(-1, 4))
    seen = []
    checked = ConstraintPoint.__new__

    def spy(cls, *args):
        seen.append(args)
        return checked(cls, *args)

    monkeypatch.setattr(ConstraintPoint, "__new__", spy)
    twins = [copy.copy(p), copy.deepcopy(p)]
    twins += [pickle.loads(pickle.dumps(p, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert pickle.HIGHEST_PROTOCOL >= 5
    assert twins == [p] * len(twins) and seen == [(2, F(-1, 4))] * len(twins)
    assert all(type(twin) is ConstraintPoint for twin in twins)
    # a protocol-0 pickle with x's numerator edited to 8, so x = 8/4 = 2
    # (x is "-1/4" or the pair -1, 4, as the Python version pickles it),
    # is refused, not rebuilt
    text = pickle.dumps(p, 0)
    assert text.count(b"-1") == 1
    with pytest.raises(ValueError, match="outside S_2"):
        pickle.loads(text.replace(b"-1", b"8"))


@given(index_st, unit_rational_st)
def test_ordinate_and_inverse_match_reference(j, u):
    # x ranges over all of [-1/j, 1]; the reference is plain Fraction algebra
    x = -F(1, j) + u * (1 + F(1, j))
    p = ConstraintPoint(j, x)
    assert p.y == p.x + F(1, p.j)
    assert u_inverse(j, u).x == (u - F(1, j)) / 2


def test_rho_examples():
    assert rho(F(0), ConstraintPoint(1, F(0))) == 1
    assert rho(F(1, 2), ConstraintPoint(1, F(-1, 4))) == F(9, 8)
    assert rho(F(1, 6), ConstraintPoint(2, F(-1, 6))) == F(2, 9)


def test_u_inverse_examples():
    assert u_inverse(1, F(1, 2)).x == F(-1, 4)
    assert u_inverse(2, F(1, 6)).x == F(-1, 6)
    assert u_inverse(3, F(13, 18)).x == F(7, 36)
    # the left end of each feasible window has the foot 0
    for n in (1, 2, 5, 17):
        assert u_inverse(n, F(0)) == ConstraintPoint(n, F(-1, 2 * n))


def test_u_inverse_rejects_outside_image():
    with pytest.raises(ValueError):
        u_inverse(1, F(4))
    with pytest.raises(ValueError):
        u_inverse(2, F(-3))


def test_feasible_window_examples():
    assert feasible_window(1) == (F(-1, 2), F(0))
    assert feasible_window(2) == (F(-1, 4), F(1, 4))
    assert feasible_window(4) == (F(-1, 8), F(3, 8))


@pytest.mark.parametrize("j", [1, 2, 3, 8, 33, 64])
def test_round_trip_over_unit_interval(j):
    for i in range(50):
        p = u_inverse(j, F(i, 49))
        assert 2 * p.x + F(1, j) == F(i, 49)  # the foot of p
        e, (a,), (c,) = point_numerators(j, 49, [i])
        assert (F(a, e), F(c, e)) == (p.x, p.y)


@given(index_st, unit_rational_st, unit_rational_st)
def test_u_inverse_preserves_order(j, t1, t2):
    if t1 == t2:
        return
    lo, hi = sorted((t1, t2))
    assert u_inverse(j, lo).x < u_inverse(j, hi).x


@settings(max_examples=60)
@given(st.fractions(min_value=-2, max_value=2), index_st,
       st.fractions(min_value=0, max_value=1))
def test_rho_decomposition_identity(x, t, u):
    # rho(x, p) = 1/2 (2a - (x - 1/t))^2 + 1/2 (x + 1/t)^2 for p = (a, a+1/t)
    lo, hi = -F(1, t), F(1)
    a = lo + u * (hi - lo)
    p = ConstraintPoint(t, a)
    s = F(1, t)
    assert rho(x, p) == F(1, 2) * (2 * a - (x - s)) ** 2 + F(1, 2) * (x + s) ** 2


def _min_rho_over_segment(x, t):
    # quadratic in a; unconstrained vertex a* = (x - 1/t)/2 lies inside the
    # segment for every x in [0, 1]
    a = (x - F(1, t)) / 2
    assert -F(1, t) <= a <= 1
    return rho(x, ConstraintPoint(t, a))


@pytest.mark.parametrize("num", range(0, 11))
def test_nearest_segment_is_the_last_one(num):
    x = F(num, 10)
    for n in (2, 5, 9):
        best = [_min_rho_over_segment(x, t) for t in range(1, n + 1)]
        assert all(best[i] >= best[i + 1] for i in range(len(best) - 1))
        assert min(best) == best[-1]


@given(index_st, small_unit_st, small_unit_st)
def test_voronoi_cut_is_midpoint_of_feet(j, t1, t2):
    # the oracle cuts at the generic 2-D bisector; for two points on the
    # same S_j that lands at the midpoint of their perpendicular feet
    if t1 == t2:
        return
    lo, hi = sorted((t1, t2))
    mid = t1 + t2  # the cut is mid/2, given to the kernel unreduced
    f, _, d = moment_numerators(mid.numerator, 2 * mid.denominator)
    left = F(f, d)
    assert cell_measures(j, [u_inverse(j, lo), u_inverse(j, hi)]) == [left, 1 - left]


def test_point_set_validation():
    good = PointSet(2, (ConstraintPoint(2, F(-1, 6)), ConstraintPoint(2, F(1, 6))))
    assert tuple(p.x for p in good.points) == (F(-1, 6), F(1, 6))
    assert good.points == (u_inverse(2, F(1, 6)), u_inverse(2, F(5, 6)))
    with pytest.raises(ValueError, match="^abscissas must be strictly increasing$"):
        PointSet(2, (ConstraintPoint(2, F(1, 6)), ConstraintPoint(2, F(-1, 6))))
    with pytest.raises(ValueError, match="^expected 3 points, got 1$"):
        PointSet(3, (ConstraintPoint(3, F(0)),))
    with pytest.raises(ValueError, match=r"^abscissa 1/2 outside feasible window \[-1/4, 1/4\]$"):
        PointSet(2, (ConstraintPoint(2, F(-1, 6)), ConstraintPoint(2, F(1, 2))))
    with pytest.raises(ValueError, match="is not on S_2$"):
        PointSet(2, (ConstraintPoint(3, F(-1, 6)), ConstraintPoint(2, F(1, 6))))


def test_point_set_keeps_its_points_when_the_callers_list_changes():
    first, second = ConstraintPoint(2, F(-1, 4)), ConstraintPoint(2, F(1, 4))
    pts = [first, second]
    ps = PointSet(2, pts)
    assert exact_distortion(2, ps) == F(7, 12)  # the oracle keeps this pass
    pts[1] = ConstraintPoint(2, F(0))
    assert ps.points == (first, second)
    assert exact_distortion(2, ps) == F(7, 12)
    assert exact_distortion(2, PointSet(2, pts)) == F(3, 5)
    assert hash(ps) == hash(PointSet(2, (first, second)))


def _abscissa_st(n):
    """Abscissas on S_n: the window ends, and grid points of [-1/n, 1/2],
    which reaches 1/(2n) past either end of the window."""
    lo, hi = feasible_window(n)
    return st.one_of(st.sampled_from((lo, hi)),
                     *(st.integers(-(d // n), d // 2).map(lambda a, d=d: F(a, d))
                       for d in (12 * n, 13)))


ABSCISSA_STS = {n: _abscissa_st(n) for n in range(1, 9)}


@st.composite
def abscissas_st(draw):
    """n distinct sorted abscissas on S_n; then one neighbour copied or one
    pair swapped in some draws."""
    n = draw(st.integers(1, 8))
    xs = sorted(draw(st.lists(ABSCISSA_STS[n], min_size=n, max_size=n, unique=True)))
    i, edit = draw(st.integers(1, n)), draw(st.sampled_from(("none", "copy", "swap")))
    if i < n and edit == "copy":
        xs[i] = xs[i - 1]
    elif i < n and edit == "swap":
        xs[i - 1], xs[i] = xs[i], xs[i - 1]
    return n, xs


@settings(max_examples=200, deadline=None)
@given(abscissas_st())
def test_point_set_accepts_what_the_fraction_reference_accepts(drawn):
    n, xs = drawn
    lo, hi = feasible_window(n)
    expected = all(lo <= x <= hi for x in xs) and all(a < b for a, b in zip(xs, xs[1:]))
    try:
        PointSet(n, tuple(ConstraintPoint(n, x) for x in xs))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == expected
