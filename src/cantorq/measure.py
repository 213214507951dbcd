"""Cantor IFS, centroids and the exact integration kernel.

The generating maps are t1(x) = x/3 and t2(x) = x/3 + 2/3.  A word sigma
over the alphabet {1, 2} addresses the composition

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

Word = tuple[int, ...]

#: Mean of the Cantor distribution.
MEAN = Fraction(1, 2)

#: Variance of the Cantor distribution.
VARIANCE = Fraction(1, 8)

_ONE_THIRD = Fraction(1, 3)
_TWO_THIRDS = Fraction(2, 3)


def _check_word(word: Word) -> None:
    for letter in word:
        if letter not in (1, 2):
            raise ValueError(f"word letters must be 1 or 2, got {letter!r}")


def words(k: int) -> Iterator[Word]:
    """All words of length k in lexicographic order."""
    if k < 0:
        raise ValueError("word length must be >= 0")
    return itertools.product((1, 2), repeat=k)


def apply_map(word: Word, x: Fraction) -> Fraction:
    """Apply the composition T_word to x (empty word is the identity)."""
    _check_word(word)
    for letter in reversed(word):
        x = x * _ONE_THIRD
        if letter == 2:
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
            s: int) -> tuple[int, int, int]:
    """Apply the maps of an orbit's digits (True for t2), last digit first,
    to the numerators (f, m1, m2) of v over (2s, 12s, 144s).

    After j maps the numerators are over (2s*2**j, 12s*6**j, 144s*18**j),
    so t1 leaves them unchanged and t2 adds integer terms.  With s = 0 only
    the linear part of the maps is applied.
    """
    p2, p3 = 2 * s, 1  # s * 2**(j+1), 3**j
    for right in reversed(digits):
        if right:
            t = 12 * p3
            f, m1, m2 = (f + p2, m1 + t * f + 3 * p2 * p3,
                         m2 + t * (24 * p3 * f + 4 * m1) + 27 * p2 * p3 * p3)
        p2, p3 = 2 * p2, 3 * p3
    return f, m1, m2


def moment_numerators(p: int, q: int) -> tuple[int, int, int, int, int]:
    """v(x) = (mu[0, x], int_0^x t dmu, int_0^x t**2 dmu) at x = p/q, q > 0, as
    numerators (f, m1, m2) over (2s*2**j, 12s*6**j, 144s*18**j), then s, j.

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
    if p <= 0:
        return 0, 0, 0, 1, 0
    if p >= q:
        # (1, 1/2, 3/8) over (2, 12, 144)
        return 2, 6, 54, 1, 0
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
        # numerators of the cycle's map U(v) = K + A v, A unit lower triangular
        k0, k1, k2 = _unwind(cycle, 0, 0, 0, 1)
        _, a10, a20 = _unwind(cycle, 1, 0, 0, 0)
        a21 = _unwind(cycle, 0, 1, 0, 0)[2]
        # the fixed point over (2s, 12s, 144s) solves (D - A) v = s K with
        # D = diag(2**L, 6**L, 18**L), L = len(cycle); this s makes it integral
        length = len(cycle)
        d0, d1, d2 = 2 ** length - 1, 6 ** length - 1, 18 ** length - 1
        s, g = d0 * d1 * d2, d0 * k1 + a10 * k0
        f, m1, m2 = k0 * d1 * d2, d2 * g, d1 * (d0 * k2 + a20 * k0) + a21 * g
    else:
        # (1/2, 1/12, 1/48) over (2, 12, 144)
        f, m1, m2, s = 1, 1, 3, 1
    return (*_unwind(digits, f, m1, m2, s), s, len(digits))


def partial_moments(x: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Exact v(x) for rational x, from `moment_numerators`."""
    f, m1, m2, s, j = moment_numerators(x.numerator, x.denominator)
    return (Fraction(f, 2 * s * 2 ** j), Fraction(m1, 12 * s * 6 ** j),
            Fraction(m2, 144 * s * 18 ** j))
