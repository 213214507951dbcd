"""Closed-form optimal codebooks and their exact error quantities.

For a point p on S_n with foot u_p = 2x + 1/n and a real t,

    rho(t, p) = (u_p - t)**2 / 2 + (t + 1/n)**2 / 2,

and the second term does not depend on the codebook.  So the optimal
codebook is the pullback of the unconstrained optimal n-means of Graf &
Luschgy, "The quantization of the Cantor distribution", Math. Nachr. 183
(1997), and for X Cantor distributed, with U_n their error,
V_n = U_n/2 + E(X + 1/n)**2 / 2 = U_n/2 + 3/16 + (n+1)/(2n**2).
For 2**l <= n < 2**(l+1), those n-means are the level-l centroids with
n - 2**l of the level-l words "split" into their two children; any choice
of split words gives the same error.  The A-term is A = V_n - U_n.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator

from .constraint import PointSet, foot_point, rho, u_inverse
from .measure import Word, centroid, centroid_numerators, words

V_INFINITY = Fraction(3, 16)


def level_of(n: int) -> int:
    """The unique l with 2**l <= n < 2**(l+1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n.bit_length() - 1


def count_optimal_sets(n: int) -> int:
    """Number of admissible split sets: C(2**l, n - 2**l)."""
    l = level_of(n)
    return comb(2 ** l, n - 2 ** l)


def canonical_split_set(n: int) -> frozenset[Word]:
    """The lexicographically smallest n - 2**l words of {1,2}**l."""
    l = level_of(n)
    return frozenset(itertools.islice(words(l), n - 2 ** l))


def admissible_split_sets(n: int) -> Iterator[frozenset[Word]]:
    """All split sets admissible for n, in lexicographic order."""
    l = level_of(n)
    for combo in itertools.combinations(words(l), n - 2 ** l):
        yield frozenset(combo)


def _checked_split_set(n: int, split_set) -> frozenset[Word]:
    if split_set is None:
        return canonical_split_set(n)
    if isinstance(split_set, str):
        raise TypeError("a split set is a collection of words, not a str")
    l = level_of(n)
    checked: set[Word] = set()
    for w in split_set:
        if not isinstance(w, str) or len(w) != l or w.strip("12"):
            raise ValueError(f"{w} is not a word of length {l} over {{1,2}}")
        if w in checked:
            raise ValueError(f"repeated word {w}")
        checked.add(w)
    if len(checked) != n - 2 ** l:
        raise ValueError(
            f"split set must have {n - 2 ** l} words for n={n}, "
            f"got {len(checked)}")
    return frozenset(checked)


def build_alpha(n: int, split_set: Iterable[Word] | None = None) -> PointSet:
    """The codebook of n points on S_n generated by the given split set.

    Unsplit level-l words contribute the pullback of their centroid;
    split words contribute the pullbacks of both children's centroids.
    Word i of words(l) has the children numerators 2i and 2i+1 of
    centroid_numerators(l + 1), and its own centroid is their mean; words
    come in position order, so the points need no sort.
    n = 1 (level 0, empty split set) gives the single point (-1/4, 3/4).
    """
    split_set = _checked_split_set(n, split_set)
    l = level_of(n)
    den = 2 * 3 ** (l + 1)
    nums = centroid_numerators(l + 1)
    pts = []
    for w, left, right in zip(words(l), nums[::2], nums[1::2]):
        if w in split_set:
            pts.append(foot_point(n, left, den))
            pts.append(foot_point(n, right, den))
        else:
            pts.append(foot_point(n, left + right, 2 * den))
    return PointSet(n, pts)


# an enumeration of split sets at one n revisits its 3 * 2**l summands
@lru_cache(maxsize=4096)
def _summand(n: int, w: Word) -> Fraction:
    a = centroid(w)
    return Fraction(1, 2 ** len(w)) * rho(a, u_inverse(n, a))


def a_term(n: int, split_set: Iterable[Word] | None = None) -> Fraction:
    """The A-term V_n - U_n by direct summation over the words, an oracle
    that does not use the foot identity."""
    split_set = _checked_split_set(n, split_set)
    l = level_of(n)
    total = Fraction(0)
    for w in words(l):
        if w in split_set:
            total += _summand(n, w + "1") + _summand(n, w + "2")
        else:
            total += _summand(n, w)
    return total


def _residual(n: int) -> tuple[int, int]:
    """R(n) = U_n / 2 = (17 * 2**l - 8n) / (144 * 18**l) as an integer pair."""
    l = level_of(n)
    return 17 * 2 ** l - 8 * n, 144 * 18 ** l


def unconstrained_error(n: int) -> Fraction:
    """The unconstrained optimal n-means error U_n = 2 R(n)."""
    num, den = _residual(n)
    return Fraction(2 * num, den)


def excess(n: int) -> Fraction:
    """V_n - 3/16 = R(n) + (n+1)/(2n**2), R(n) in (0, 9**-l / 16], as the sum
    of two Fractions: no gcd sees the full 144 * 18**l * n**2 denominator."""
    return Fraction(*_residual(n)) + Fraction(n + 1, 2 * n * n)


def quantization_error(n: int) -> Fraction:
    """Exact V_n = 3/16 + (n+1)/(2n**2) + R(n) as one integer pair over
    144 * 18**l * n**2, reduced once."""
    num, den = _residual(n)
    nn = n * n
    return Fraction((3 * den // 16 + num) * nn + den // 2 * (n + 1), den * nn)
