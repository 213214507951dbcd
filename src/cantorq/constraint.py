"""Geometry of the constraint segments and their projection to the line.

The n-th constraint is the segment S_n = {(x, x + 1/n) : -1/n <= x <= 1},
parallel to y = x.  Dropping a perpendicular from a point of S_n to the
real axis lands at its foot 2x + 1/n, which gives an order-preserving
bijection between S_n and an interval of the line.  A codebook is stored
as its integer feet over one denominator, and `point_numerators` is the
one map from feet back to points; oracle._voronoi cuts with 2-D bisectors.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import lt


class ConstraintPoint(namedtuple("ConstraintPoint", "j x")):
    """A point (x, x + 1/j) on the constraint segment S_j.

    Only the index j and abscissa x are stored, as the checked pair (j, x);
    the ordinate is implied, so y = x + 1/j cannot be violated by
    construction.  The constructor, _make, _replace, copy and pickle all
    check the pair; a point compares, hashes, unpacks and orders as it.
    """

    __slots__ = ()

    def __new__(cls, j: int, x: Fraction | int):
        _check_pair(j, x, "x")
        if type(x) is not Fraction:
            x = Fraction(x)
        num, den = x.as_integer_ratio()
        if not (-den <= j * num and num <= den):  # -1/j <= x <= 1
            raise ValueError(f"abscissa {x} outside S_{j} (needs -1/{j} <= x <= 1)")
        return tuple.__new__(cls, (j, x))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):  # every pickle protocol, 0 and 1 too
        return ConstraintPoint, (self.j, self.x)

    @property
    def y(self) -> Fraction:
        j, x = self
        num, den = x.as_integer_ratio()
        return Fraction(num * j + den, den * j)


def check_n(n: int, name: str = "n") -> None:
    """Refuse an n that is not an int >= 1, a bool too, before any use of it.
    The package's one check of an integer argument; name labels the message."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"{name} must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"{name} must be >= 1")


def _check_pair(j: int, v, name: str) -> None:
    """Refuse a j that check_n refuses and a v that is no int or Fraction, a bool too."""
    if type(j) is int and type(v) is Fraction and j >= 1:  # the common case
        return
    check_n(j, "j")
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise TypeError(f"need an int or Fraction {name}, got {v!r}")


def point_numerators(n: int, den: int, feet) -> tuple[int, list[int], list[int]]:
    """The points of S_n whose feet are t/den, t in feet, as numerators over
    one denominator e: (e, abscissas, ordinates).  An abscissa is
    (t*n - den) / (2*den*n), and e is the abscissas' lowest common
    denominator that n divides, so y = x + 1/n is over e too."""
    xs = [t * n - den for t in feet]
    g = gcd(2 * den, *xs)
    if g != 1:
        xs = [u // g for u in xs]
    q = 2 * den // g  # e / n
    return q * n, xs, [u + q for u in xs]


def u_inverse(j: int, t: Fraction) -> ConstraintPoint:
    """Point of S_j whose perpendicular foot is t; rejects t outside the image."""
    _check_pair(j, t, "t")
    num, den = t.as_integer_ratio()  # x = (t - 1/j) / 2
    return ConstraintPoint(j, Fraction(num * j - den, 2 * den * j))


def feasible_window(n: int) -> tuple[Fraction, Fraction]:
    """Abscissa range of points whose perpendicular foot lies in [0, 1]."""
    check_n(n)
    return (-Fraction(1, 2 * n), Fraction(1, 2) - Fraction(1, 2 * n))


def feet_of(n: int, points) -> tuple[int, list[int]]:
    """The feet of points on S_n, in their order, as integers over one
    denominator: (den, feet)."""
    check_n(n)
    xs = []
    for p in points:
        if p.j != n:
            raise ValueError(f"point {p} is not on S_{n}")
        xs.append(p.x.as_integer_ratio())
    b, n2 = lcm(*[d for _, d in xs]), 2 * n
    return n * b, [(n2 * u + d) * (b // d) for u, d in xs]


class PointSet:
    """An ordered codebook of n points on S_n, stored as n and the feet of
    its points over one denominator: `feet` holds strictly increasing ints
    in [0, den] (so every abscissa lies in the feasible window) with no
    factor common to all of them and den, so equal codebooks store equal
    (n, den, feet).  PointSet(n, points) takes points on S_n and keeps
    them; PointSet.from_feet(n, den, feet) takes the ints, and its points
    are derived on demand from its cached `numerators`.  Immutable; caches
    live in its instance dict, which copy and pickle leave behind."""

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __init__(self, n: int, points):
        points = tuple(points)
        self._store(n, *feet_of(n, points))  # feet_of checks n, builds den >= 1
        vars(self)["points"] = points

    @classmethod
    def from_feet(cls, n: int, den: int, feet) -> PointSet:
        check_n(n)
        check_n(den, "den")
        ps = object.__new__(cls)
        ps._store(n, den, feet)
        return ps

    def _store(self, n: int, den: int, feet) -> None:
        feet = tuple(feet)
        g = gcd(den, *feet)  # a TypeError unless all are ints
        if g != 1:
            den, feet = den // g, tuple(t // g for t in feet)
        if len(feet) != n:
            raise ValueError(f"expected {n} points, got {len(feet)}")
        if not all(map(lt, feet, feet[1:])):
            raise ValueError("abscissas must be strictly increasing")
        if feet[0] < 0 or feet[-1] > den:  # feet increase: only an end can be out
            t = feet[0] if feet[0] < 0 else feet[-1]
            e, (a,), _ = point_numerators(n, den, (t,))
            lo, hi = feasible_window(n)
            raise ValueError(
                f"abscissa {Fraction(a, e)} outside feasible window [{lo}, {hi}]")
        vars(self).update(n=n, den=den, feet=feet)

    @cached_property
    def numerators(self) -> tuple[int, list[int], list[int]]:
        return point_numerators(self.n, self.den, self.feet)

    @cached_property
    def points(self) -> tuple[ConstraintPoint, ...]:
        # unchecked: each point is on S_n, as every foot is in [0, 1]
        (e, nums, _), n = self.numerators, self.n
        return tuple(tuple.__new__(ConstraintPoint, (n, Fraction(a, e))) for a in nums)

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return (self.n, self.den, self.feet) == (other.n, other.den, other.feet)

    def __hash__(self):
        return hash((self.n, self.den, self.feet))

    def __repr__(self):
        return f"PointSet.from_feet({self.n}, {self.den}, {self.feet})"

    def __reduce__(self):  # copy and pickle through from_feet, without caches
        return PointSet.from_feet, (self.n, self.den, self.feet)
