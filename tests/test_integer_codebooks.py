"""Codebooks stored as integer feet agree with codebooks of Fraction points.

The reference builds each optimal codebook point by point, as a Fraction
abscissa x = (t*n - den) / (2*den*n) for its foot t/den, from the same
centroid numerators; the package builds integer feet and derives points only when asked.
"""

import copy
import pickle
from fractions import Fraction
from math import lcm

import pytest

from cantorq import oracle
from cantorq.cli import _point_texts
from cantorq.closedform import admissible_split_sets, build_alpha, level_of, split_word
from cantorq.constraint import ConstraintPoint, PointSet
from cantorq.measure import centroid_numerators
from reference import words

F = Fraction


def reference_points(n, split_set=None):
    """The codebook of build_alpha as Fraction points, one by one."""
    l = level_of(n)
    if split_set is None:
        split_set = set(list(words(l))[:n - 2 ** l])
    den, nums = 2 * 3 ** (l + 1), centroid_numerators(l + 1)
    pts = []
    for w, left, right in zip(words(l), nums[::2], nums[1::2]):
        feet = [(left, den), (right, den)] if w in split_set else [(left + right, 2 * den)]
        pts += [ConstraintPoint(n, F(t * n - d, 2 * d * n)) for t, d in feet]
    return pts


def assert_same_codebook(n, split_set=None, evaluate=True):
    pts = reference_points(n, split_set)
    alpha, reference = build_alpha(n, split_set), PointSet(n, pts)
    assert alpha == reference and hash(alpha) == hash(reference)
    texts = _point_texts(n, alpha.den, alpha.feet, "%d/%d,%d/%d")
    assert list(texts) == list(alpha.feet)
    assert list(texts.values()) == [
        f"{p.x.numerator}/{p.x.denominator},{p.y.numerator}/{p.y.denominator}"
        for p in pts]
    if not evaluate:
        assert alpha.points == tuple(pts)
        return
    # the pass alpha keeps starts from the coordinates the pass over Fraction
    # points took, over e = lcm(n, abscissa denominators), so every kernel
    # input is the same
    e, a, r, cells, _ = oracle._voronoi(n, alpha)
    e_old = lcm(n, *(p.x.denominator for p in pts))
    a_old = [p.x.numerator * (e_old // p.x.denominator) for p in pts]
    assert (e, a, r) == (e_old, a_old, [u * u + (u + e_old // n) ** 2 for u in a_old])
    if n <= 2 ** 8:  # and the intake of a list of points integrates it again
        assert oracle.exact_distortion(n, alpha) == oracle.exact_distortion(n, pts)
    # the Lloyd iterate the old way, x = (m1*n - mass) / (2*mass*n), is alpha
    assert oracle.lloyd_step(n, alpha) is alpha
    assert all(p.x.numerator * 2 * mass * n == (m1 * n - mass) * p.x.denominator
               for p, (mass, m1) in zip(pts, cells))


@pytest.mark.parametrize("block", range(8))
def test_canonical_codebooks_match_the_fraction_reference(block):
    # every n <= 2**10, in eight blocks of 128
    for n in range(128 * block + 1, 128 * (block + 1) + 1):
        assert_same_codebook(n)


@pytest.mark.parametrize("n", range(1, 19))
def test_every_split_set_matches_the_fraction_reference(n):
    for split_set in admissible_split_sets(n):
        assert_same_codebook(n, [split_word(level_of(n), i) for i in split_set])


@pytest.mark.parametrize("n", [2 ** 12, 2 ** 12 + 1, 2 ** 13 - 1, 2 ** 16])
def test_large_codebooks_match_the_fraction_reference(n):
    assert_same_codebook(n, evaluate=False)


def test_feet_outside_the_unit_interval_or_out_of_order_are_refused():
    assert PointSet.from_feet(2, 6, [1, 5]) == build_alpha(2)
    assert PointSet.from_feet(2, 12, (2, 10)) == build_alpha(2)  # reduced
    assert tuple(p.x for p in PointSet.from_feet(2, 1, (0, 1)).points) == (F(-1, 4), F(1, 4))
    for den, feet, message in (
            (6, (-1, 5), r"^abscissa -1/3 outside feasible window \[-1/4, 1/4\]$"),
            (6, (1, 7), r"^abscissa 1/3 outside feasible window \[-1/4, 1/4\]$"),
            (6, (5, 1), "^abscissas must be strictly increasing$"),
            (6, (3, 3), "^abscissas must be strictly increasing$"),
            (6, (1,), "^expected 2 points, got 1$"),
            (0, (0, 0), "^den must be >= 1$"),
            (-6, (-1, -5), "^den must be >= 1$")):
        with pytest.raises(ValueError, match=message):
            PointSet.from_feet(2, den, feet)
    for den, feet in ((6, (1, 5.0)), (6.0, (1, 5)), (6, (F(1), 5))):
        with pytest.raises(TypeError):
            PointSet.from_feet(2, den, feet)
    with pytest.raises(TypeError):
        PointSet.from_feet(2.0, 6, (1, 5))


def test_codebooks_and_points_are_immutable_values():
    alpha = build_alpha(3)
    for name in ("n", "den", "feet", "points"):
        with pytest.raises(AttributeError):
            setattr(alpha, name, None)
    with pytest.raises(AttributeError):
        del alpha.feet
    with pytest.raises(AttributeError):
        alpha.points[0].x = F(0)
    # copies go through the constructors, and keep equality and hash
    for value in (alpha, alpha.points[1]):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)
    # an evaluated codebook pickles to the bytes of a fresh one, and its
    # copies hold neither its points nor its pass
    oracle.exact_distortion(3, alpha)
    assert {"points", "_pass"} <= vars(alpha).keys()
    assert pickle.dumps(alpha) == pickle.dumps(build_alpha(3))
    for twin in (copy.copy(alpha), copy.deepcopy(alpha),
                 pickle.loads(pickle.dumps(alpha))):
        assert vars(twin).keys() == {"n", "den", "feet"}
