"""Geometry of the constraint segments and their projection to the line.

The n-th constraint is the segment S_n = {(x, x + 1/n) : -1/n <= x <= 1},
parallel to y = x.  Dropping a perpendicular from a point of S_n to the
real axis lands at 2x + 1/n, which gives an order-preserving bijection
between S_n and an interval of the line.  The closed forms and the DP work
on these feet; the integer pass in oracle._voronoi cuts with 2-D bisectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ConstraintPoint:
    """A point (x, x + 1/j) on the constraint segment S_j.

    Only the index j and abscissa x are stored; the ordinate is implied,
    so y = x + 1/j cannot be violated by construction.
    """

    j: int
    x: Fraction

    def __post_init__(self):
        if not (isinstance(self.j, int) and isinstance(self.x, (int, Fraction))):
            raise TypeError(f"need an int j and an int or Fraction x: {self!r}")
        if self.j < 1:
            raise ValueError(f"constraint index must be >= 1, got {self.j}")
        if type(self.x) is not Fraction:
            object.__setattr__(self, "x", Fraction(self.x))
        num, den = self.x.numerator, self.x.denominator
        if not (-den <= self.j * num and num <= den):  # -1/j <= x <= 1
            raise ValueError(
                f"abscissa {self.x} outside S_{self.j} (needs -1/{self.j} <= x <= 1)")

    @property
    def y(self) -> Fraction:
        num, den = self.x.numerator, self.x.denominator
        return Fraction(num * self.j + den, den * self.j)


def rho(x: Fraction, p: ConstraintPoint) -> Fraction:
    """Squared distance from the real point x to the plane point p."""
    return (x - p.x) ** 2 + p.y ** 2


def foot_point(j: int, num: int, den: int) -> ConstraintPoint:
    """Point of S_j whose perpendicular foot is num/den, den > 0, built with
    one Fraction: x = (num*j - den) / (2*den*j); rejects feet outside the image."""
    return ConstraintPoint(j, Fraction(num * j - den, 2 * den * j))


def u_inverse(j: int, t: Fraction) -> ConstraintPoint:
    """Point of S_j whose perpendicular foot is t; rejects t outside the image."""
    if not isinstance(t, (int, Fraction)):
        raise TypeError(f"foot must be an int or Fraction, got {t!r}")
    return foot_point(j, t.numerator, t.denominator)


def feasible_window(n: int) -> tuple[Fraction, Fraction]:
    """Abscissa range of points whose perpendicular foot lies in [0, 1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (-Fraction(1, 2 * n), Fraction(1, 2) - Fraction(1, 2 * n))


@dataclass(frozen=True)
class PointSet:
    """An ordered codebook of n points on S_n, checked by integer comparisons:
    x = num/den is feasible when -den <= 2n*num <= (n-1)*den, and abscissas
    increase by cross-multiplication.  The points are copied to a tuple, so
    no later change to the caller's sequence escapes the checks."""

    n: int
    points: tuple[ConstraintPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not isinstance(self.n, int):
            raise TypeError(f"n must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.points) != self.n:
            raise ValueError(
                f"expected {self.n} points, got {len(self.points)}")
        n, pnum, pden = self.n, -1, 0  # no previous abscissa: -1/0 is below all
        for p in self.points:
            if p.j != n:
                raise ValueError(f"point {p} is not on S_{n}")
            num, den = p.x.numerator, p.x.denominator
            if not -den <= 2 * n * num <= (n - 1) * den:
                lo, hi = feasible_window(n)
                raise ValueError(
                    f"abscissa {p.x} outside feasible window [{lo}, {hi}]")
            if num * pden <= pnum * den:
                raise ValueError("abscissas must be strictly increasing")
            pnum, pden = num, den

    def abscissas(self) -> tuple[Fraction, ...]:
        return tuple(p.x for p in self.points)
