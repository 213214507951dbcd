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
from math import comb
from typing import Callable, Iterable, Iterator

from .constraint import PointSet, check_n
from .measure import centroid_numerators


def level_of(n: int) -> int:
    """The unique l with 2**l <= n < 2**(l+1)."""
    if type(n) is not int or n < 1:  # once per n of a sweep: the common case first
        check_n(n)
    return n.bit_length() - 1


def count_optimal_sets(n: int) -> int:
    """Number of admissible split sets: C(2**l, n - 2**l)."""
    l = level_of(n)
    return comb(2 ** l, n - 2 ** l)


def admissible_split_sets(n: int) -> Iterator[tuple[int, ...]]:
    """All split sets admissible for n, as sorted word indices, in
    lexicographic order; the first, range(n - 2**l), is the canonical one."""
    l = level_of(n)
    return itertools.combinations(range(2 ** l), n - 2 ** l)


def split_word(l: int, i: int) -> str:
    """Word i of level l, to print a split set: i's l binary digits over {1, 2}."""
    return bin(i | 1 << l)[3:].replace("1", "2").replace("0", "1")


def parse_split_set(n: int, split_set: Iterable[str]) -> list[int]:
    """Checks the words of a split set at n and returns their sorted indices."""
    if isinstance(split_set, str):
        raise TypeError("a split set is a collection of words, not a str")
    l = level_of(n)
    checked: set[int] = set()
    for w in split_set:
        if not isinstance(w, str) or len(w) != l or w.strip("12"):
            raise ValueError(f"{w} is not a word of length {l} over {{1,2}}")
        if (i := int("0" + w.replace("1", "0").replace("2", "1"), 2)) in checked:
            raise ValueError(f"repeated word {w}")
        checked.add(i)
    if len(checked) != n - 2 ** l:
        raise ValueError(f"split set must have {n - 2 ** l} words for n={n}, "
                         f"got {len(checked)}")
    return sorted(checked)


def feet_table(n: int) -> tuple[int, Callable[[Iterable[int]], list[int]]]:
    """(den, map): the map from a split set at n to the feet of its codebook
    over den = 2 * 3**(l + 1), from one table of the level's centroids: word i
    gives its centroid or, if split, its children's, numerators 2i and 2i+1 of
    centroid_numerators(l + 1), whose mean is its own.  The set is unchecked:
    n - 2**l distinct indices of range(2**l), sorted, so the feet are too."""
    nums = centroid_numerators(k := level_of(n) + 1)  # all odd
    means = [(left + right) // 2 for left, right in zip(nums[::2], nums[1::2])]
    def feet(split_set: Iterable[int]) -> list[int]:
        out, start = [], 0
        for i in split_set:
            out += means[start:i] + nums[2 * i:2 * i + 2]
            start = i + 1
        return out + means[start:]
    return 2 * 3 ** k, feet


def build_alpha(n: int, split_set: Iterable[str] | None = None) -> PointSet:
    """The codebook of n points on S_n generated by the given split words
    (None: the canonical set); n = 1 gives the single point (-1/4, 3/4)."""
    ss = (next(admissible_split_sets(n)) if split_set is None
          else parse_split_set(n, split_set))
    den, feet = feet_table(n)
    return PointSet.from_feet(n, den, feet(ss))


def unconstrained_error(n: int) -> Fraction:
    """U_n, the unconstrained optimal n-means error of Graf & Luschgy."""
    l = level_of(n)
    return Fraction(17 * 2 ** l - 8 * n, 72 * 18 ** l)


def error_pairs(n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """V_n and V_n - 3/16, two integer pairs (numerator, denominator) in
    lowest terms, from one build of the excess N / (144 * 18**l * n**2),
    N = r n**2 + 72 * 18**l (n + 1), r = 17 * 2**l - 8n.  For n = 2**a 3**b w,
    w prime to 6, the denominator is 2**(l+4+2a) 3**(2l+2+2b) w**2; a prime
    of w divides N's first term, not its n-free one, which has the factor
    n + 1.  So N shares min(v2(N), l+4+2a) 2s with it and, as N = r n**2
    (mod 3**(2l+2)), j = v3(r) + 2b 3s: j < 2l + 2 for l >= 18, as
    3**j <= r n**2 < 17 * 2**l * 4**(l+1) < 9**(l+1), and for every n < 2**18
    but 1, whose N = 9 * 17 has j = 2 3s too (the tests check both); v3(r) is
    v3(r / 2**a).  N / 3**j is built from 3**(2l+2-j), each product by n or
    18**l one by n's odd part and a shift.  V_n = (16p + 3q) / (16q), p/q the
    excess, shares only 2s: no odd prime of q divides 16p."""
    return next(error_pairs_sweep((n,)))


def error_pairs_sweep(ns: Iterable[int]) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """error_pairs(n) for each n of ns in turn, with 3**(2l+2) carried from
    one n to the next: times 9 per level up, a fresh power if the level drops."""
    l, nines = -1, 1  # 3**(2l+2) at l = -1
    for n in ns:
        m = level_of(n)
        nines, l = nines * 9 ** (m - l) if m >= l else 3 ** (2 * m + 2), m
        a = (n & -n).bit_length() - 1
        odd = w = n >> a
        three = 1  # 3**j
        while w % 3 == 0:
            w, three = w // 3, three * 9
        r = (17 << l - a) - 8 * odd  # r / 2**a: 9 at n = 2**l
        while r % 3 == 0:
            r, three = r // 3, three * 3
        k = nines // three
        ko, e2 = k * odd, l + 4 + 2 * a  # e2: the 2s of the denominator
        big = (r * w * w << 3 * a) + ((ko << a) + k << l + 3)  # N / 3**j
        twos = min((big & -big).bit_length() - 1, e2)
        p, q = big >> twos, ko * odd << e2 - twos
        s = 16 * p + 3 * q
        twos = min((s & -s).bit_length() - 1, e2 + 4 - twos)
        yield (s >> twos, q << 4 >> twos), (p, q)


def quantization_error(n: int) -> Fraction:
    """Exact V_n = 3/16 + U_n/2 + (n+1)/(2n**2), from error_pairs."""
    return Fraction(*error_pairs(n)[0])
