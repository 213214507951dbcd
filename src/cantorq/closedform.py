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

from .constraint import PointSet, rho, u_inverse
from .measure import Word, centroid, centroid_numerators, words


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
    nums = centroid_numerators(l + 1)
    feet = []  # over 2 * 3**(l + 1); both children's numerators are odd
    for w, left, right in zip(words(l), nums[::2], nums[1::2]):
        if w in split_set:
            feet += (left, right)
        else:
            feet.append((left + right) // 2)
    return PointSet.from_feet(n, 2 * 3 ** (l + 1), feet)


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


def unconstrained_error(n: int) -> Fraction:
    """U_n, the unconstrained optimal n-means error of Graf & Luschgy."""
    l = level_of(n)
    return Fraction(17 * 2 ** l - 8 * n, 72 * 18 ** l)


def error_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """V_n, V_n - 3/16 and n**2 (V_n - 3/16) as integer pairs (numerator,
    denominator), the first two in lowest terms, from one build of the excess
    N / (144 * 18**l * n**2), N = r n**2 + 72 * 18**l (n + 1), r = 17 * 2**l
    - 8n.  For n = 2**a 3**b w, w prime to 6, the denominator is
    2**(l+4+2a) 3**(2l+2+2b) w**2; a prime of w divides N's first term, not
    its n-free one, which has the factor n + 1.  So N shares min(v2(N),
    l+4+2a) 2s with it and, as N = r n**2 (mod 3**(2l+2)), j = v3(r) + 2b 3s:
    j < 2l + 2 for l >= 18, as 3**j <= r n**2 < 17 * 2**l * 4**(l+1) <
    9**(l+1), and for every n < 2**18 but 1, whose N = 9 * 17 has j = 2 3s
    too (the tests check both).  N / 3**j is built from 3**(2l+2-j), each
    product by n or 18**l one by n's odd part and a shift.  V_n = (16p +
    3q) / (16q), p/q the excess, shares only 2s: no odd prime of q divides
    16p."""
    l = level_of(n)
    a = (n & -n).bit_length() - 1
    odd = w = n >> a
    j = 0
    while w % 3 == 0:
        w, j = w // 3, j + 2
    r = (17 << l) - 8 * n
    while r % 3 == 0:
        r, j = r // 3, j + 1
    k, three = 3 ** (2 * l + 2 - j), 3 ** j
    ko, e2 = k * odd, l + 4 + 2 * a  # e2: the 2s of the denominator
    big = (r * w * w << 2 * a) + ((ko << a) + k << l + 3)  # N / 3**j
    twos = min((big & -big).bit_length() - 1, e2)
    p, q = big >> twos, ko * odd << e2 - twos
    s = 16 * p + 3 * q
    twos = min((s & -s).bit_length() - 1, e2 + 4 - twos)
    return ((s >> twos, q << 4 >> twos), (p, q),
            (big * three, k * three << l + 4))


def quantization_error(n: int) -> Fraction:
    """Exact V_n = 3/16 + U_n/2 + (n+1)/(2n**2), from error_pairs."""
    return Fraction(*error_pairs(n)[0])
