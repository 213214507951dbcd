"""Cantor IFS, centroids and the exact integration kernel.

The generating maps are t1(x) = x/3 and t2(x) = x/3 + 2/3.  A word sigma,
the string "s1s2...sk" over the letters "1" and "2", addresses the composition

    T_sigma = t_{sigma[0]} o t_{sigma[1]} o ... o t_{sigma[k-1]},

i.e. words are stored most-significant-letter FIRST: the first letter of
the word is the map applied LAST.  This convention is easy to invert by
accident; everything in this package relies on it.

J_sigma = T_sigma([0, 1]) is the level-k basic interval (length 3**-k,
mass 2**-k under the invariant measure), and the conditional mean of the
measure on J_sigma is T_sigma(1/2).

All arithmetic here is exact rational; no floats.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator

Word = str

#: Mean of the Cantor distribution.
MEAN = Fraction(1, 2)

#: Variance of the Cantor distribution.
VARIANCE = Fraction(1, 8)

_ONE_THIRD = Fraction(1, 3)
_TWO_THIRDS = Fraction(2, 3)


def words(k: int) -> Iterator[Word]:
    """All words of length k in lexicographic order."""
    if k < 0:
        raise ValueError("word length must be >= 0")
    return map("".join, itertools.product("12", repeat=k))


def apply_map(word: Word, x: Fraction) -> Fraction:
    """Apply the composition T_word to x (empty word is the identity)."""
    if not isinstance(word, str) or word.strip("12"):
        raise ValueError(f"word letters must be 1 or 2, got {word!r}")
    for letter in reversed(word):
        x = x * _ONE_THIRD
        if letter == "2":
            x += _TWO_THIRDS
    return x


def centroid(word: Word) -> Fraction:
    """Conditional mean of the measure on J_word; equals T_word(1/2)."""
    return apply_map(word, MEAN)


def centroid_numerators(k: int) -> list[int]:
    """Sorted numerators of the level-k centroids over the denominator 2*3**k.

    Built by the doubling recursion c_k = c_{k-1} u (c_{k-1} + 4*3**(k-1))
    starting from c_0 = {1}; the shift exceeds every element of c_{k-1}, so
    concatenation keeps the list sorted.
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    nums = [1]
    for i in range(1, k + 1):
        shift = 4 * 3 ** (i - 1)
        nums = nums + [v + shift for v in nums]
    return nums


def _unwind(digits: list[bool], f: int, m1: int, m2: int,
            d: int) -> tuple[int, int, int, int]:
    """Apply the maps of an orbit's digits (True for t2), last digit first,
    to v = (f, m1, m2)/d; the image is (f, m1, m2, d) again.

    t1 sends v to (9f, 3m1, m2)/(18d) and t2 to (9(f + d), 6f + 3m1 + 3d/2,
    4(f + m1) + m2 + 3d/8)/(18d): each step scales by small integers.  With
    d = 0 only the linear part of the maps is applied.
    """
    # 8 | d keeps d/2 and 3d/8 integral, and 18d keeps 8 | d
    for right in reversed(digits):
        if right:
            f, m1, m2 = (f + d, m1 + 2 * f + d // 2,
                         m2 + 4 * (f + m1) + 3 * d // 8)
        f, m1, d = 9 * f, 3 * m1, 18 * d
    return f, m1, m2, d


def moment_numerators(p: int, q: int) -> tuple[int, int, int, int]:
    """v(x) = (mu[0, x], int_0^x t dmu, int_0^x t**2 dmu) at x = p/q, q > 0, as
    numerators over one denominator: (f, m1, m2, d).

    Self-similarity gives v(x/3) = (F/2, M1/6, M2/18) and
    v(x/3 + 2/3) = (1/2 + F/2, F/3 + M1/6 + 1/12, 2F/9 + 2M1/9 + M2/18 + 1/48)
    for v(x) = (F, M1, M2), and v is the constant (1/2, 1/12, 1/48) on the
    middle third [1/3, 2/3].  The orbit x -> 3x mod 1 of a rational is
    eventually periodic: it either reaches the middle third or cycles inside
    the Cantor set, where v is the fixed point of the cycle's affine map,
    which is lower triangular.  p/q need not be reduced: the orbit scales
    with a common factor.  Clamped to v(0) for p <= 0 and v(1) for p >= q.
    See Graf & Luschgy, "The quantization of the Cantor distribution",
    Math. Nachr. 183 (1997).
    """
    if q <= 0:
        raise ValueError(f"denominator must be > 0, got {q}")
    if p <= 0:
        return 0, 0, 0, 1
    if p >= q:
        return 8, 4, 3, 8  # (1, 1/2, 3/8)
    digits: list[bool] = []
    seen: dict[int, int] = {}
    while not q <= 3 * p <= 2 * q and p not in seen:
        seen[p] = len(digits)
        p *= 3
        digits.append(p > q)
        if p > q:
            p -= 2 * q
    if p in seen:
        cycle, digits = digits[seen[p]:], digits[:seen[p]]
        # the cycle maps (f, m1, m2)/d to (N (f, m1, m2) + d K/8)/(18**L d),
        # L = len(cycle), N lower triangular; the fixed point solves
        # (18**L - N)(f, m1, m2) = d K/8, and this d makes it integral
        k0, k1, k2, top = _unwind(cycle, 0, 0, 0, 8)  # top = 8 * 18**L
        n00, n10, n20, _ = _unwind(cycle, 1, 0, 0, 0)
        _, n11, n21, _ = _unwind(cycle, 0, 1, 0, 0)
        d0, d1, d2 = top // 8 - n00, top // 8 - n11, top // 8 - 1
        d, g = 8 * d0 * d1 * d2, d0 * k1 + n10 * k0
        f, m1, m2 = k0 * d1 * d2, d2 * g, d1 * (d0 * k2 + n20 * k0) + n21 * g
    else:
        f, m1, m2, d = 72, 12, 3, 144  # (1/2, 1/12, 1/48)
    return _unwind(digits, f, m1, m2, d)
