"""Cantor IFS, centroids and the exact integration kernel.

The generating maps are t1(x) = x/3 and t2(x) = x/3 + 2/3.  A word sigma,
the string "s1s2...sk" over the letters "1" and "2", addresses the composition

    T_sigma = t_{sigma[0]} o t_{sigma[1]} o ... o t_{sigma[k-1]},

i.e. words are stored most-significant-letter FIRST: the first letter of
the word is the map applied LAST.  This convention is easy to invert by
accident; everything in this package relies on it.

J_sigma = T_sigma([0, 1]) is the level-k basic interval (length 3**-k,
mass 2**-k under the invariant measure), and the conditional mean of the
measure on J_sigma is T_sigma(1/2).  The integration kernel gives the
mass and first moment of the measure on [0, x]; no second moment is
computed, as `oracle` explains.

All arithmetic here is exact integer; no floats.
"""

from __future__ import annotations

from typing import Reversible

from .constraint import check_n


def centroid_numerators(k: int) -> list[int]:
    """Sorted numerators of the level-k centroids over the denominator 2*3**k.

    Built by the doubling recursion c_k = c_{k-1} u (c_{k-1} + 4*3**(k-1))
    starting from c_0 = {1}; the shift exceeds every element of c_{k-1}, so
    concatenation keeps the list sorted.
    """
    check_n(k, "level")
    nums = [1]
    for i in range(1, k + 1):
        shift = 4 * 3 ** (i - 1)
        nums = nums + [v + shift for v in nums]
    return nums


def _unwind(digits: Reversible[bool], f: int, m1: int,
            d: int) -> tuple[int, int, int]:
    """Apply the maps of an orbit's digits (True for t2), last digit first,
    to v = (f, m1)/d; the image is (f, m1, d) again.

    t1 sends v to (9f, 3m1)/(18d) and t2 to (9(f + d), 6f + 3m1 + 3d/2)/(18d):
    each step scales by small integers.  With d = 0 only the linear part of
    the maps is applied.
    """
    # 2 | d keeps d/2 integral, and 18d keeps 2 | d
    for right in reversed(digits):
        if right:
            f, m1 = f + d, m1 + 2 * f + d // 2
        f, m1, d = 9 * f, 3 * m1, 18 * d
    return f, m1, d


def moment_numerators(p: int, q: int) -> tuple[int, int, int]:
    """v(x) = (mu[0, x], int_0^x t dmu) at x = p/q, q > 0, as numerators over
    one denominator: (f, m1, d).

    Self-similarity gives v(x/3) = (F/2, M1/6) and v(x/3 + 2/3) =
    (1/2 + F/2, F/3 + M1/6 + 1/12) for v(x) = (F, M1), and v is the constant
    (1/2, 1/12) on the middle third [1/3, 2/3].  The orbit x -> 3x mod 1 of a
    rational is eventually periodic: it either reaches the middle third or
    cycles inside the Cantor set, where v is the fixed point of the cycle's
    affine map, which is lower triangular.  p/q need not be reduced: the
    orbit scales with a common factor.  Clamped to v(0) for p <= 0 and v(1)
    for p >= q.  See Graf & Luschgy, "The quantization of the Cantor
    distribution", Math. Nachr. 183 (1997).
    """
    if q <= 0:
        raise ValueError(f"denominator must be > 0, got {q}")
    if p <= 0:
        return 0, 0, 1
    if p >= q:
        return 2, 1, 2  # (1, 1/2)
    seen, q2 = {}, 2 * q  # each p of the orbit and its digit, True for t2
    while p not in seen:
        if (p3 := 3 * p) < q:
            seen[p], p = False, p3
        elif p3 > q2:
            seen[p], p = True, p3 - q2
        else:  # v on the middle third: (1/2, 1/12)
            return _unwind(seen.values(), 6, 1, 12)
    digits, i = list(seen.values()), list(seen).index(p)
    cycle, digits = digits[i:], digits[:i]
    # the cycle maps (f, m1)/d to (N (f, m1) + d K/2)/(18**L d), L =
    # len(cycle), N lower triangular with diagonal (9**L, 3**L); the fixed
    # point solves (18**L - N)(f, m1) = d K/2, and this d makes it integral
    k0, k1, top = _unwind(cycle, 0, 0, 2)  # top = 2 * 18**L
    _, n10, _ = _unwind(cycle, 1, 0, 0)
    d0, d1 = top // 2 - 9 ** len(cycle), top // 2 - 3 ** len(cycle)
    return _unwind(digits, k0 * d1, k1 * d0 + n10 * k0, 2 * d0 * d1)
