"""Word-by-word `Fraction` reference the tests check the package against.

The words of a level in lexicographic order, the Cantor maps and centroids
(words as in `cantorq.measure`: the first letter is the map applied last),
the squared distance `rho` from a real point to a point of a constraint
segment, and the A-term V_n - U_n summed over the words, which does not
use the foot identity of `closedform`.  Also the Fraction views of the
integer kernel and of V_n at powers of two.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from cantorq.closedform import level_of
from cantorq.constraint import ConstraintPoint, u_inverse
from cantorq.measure import moment_numerators

F = Fraction
Word = str

#: Mean of the Cantor distribution.
MEAN = F(1, 2)

#: Variance of the Cantor distribution.
VARIANCE = F(1, 8)

_ONE_THIRD = F(1, 3)
_TWO_THIRDS = F(2, 3)


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


def rho(x: Fraction, p: ConstraintPoint) -> Fraction:
    """Squared distance from the real point x to the plane point p."""
    return (x - p.x) ** 2 + p.y ** 2


# an enumeration of split sets at one n revisits its 3 * 2**l summands
@lru_cache(maxsize=4096)
def _summand(n: int, w: Word) -> Fraction:
    a = centroid(w)
    return F(1, 2 ** len(w)) * rho(a, u_inverse(n, a))


def a_term(n: int, split_set=None) -> Fraction:
    """The A-term V_n - U_n by direct summation over the words; None is the
    first n - 2**l words.  The split set is taken as given, unchecked."""
    l = level_of(n)
    split = set(itertools.islice(words(l), n - 2 ** l) if split_set is None
                else split_set)
    return sum((_summand(n, w + "1") + _summand(n, w + "2") if w in split
                else _summand(n, w) for w in words(l)), F(0))


def partial_moments(x):
    """v(x) = (mass, M1) of the measure on [0, x] as Fractions."""
    f, m1, d = moment_numerators(x.numerator, x.denominator)
    return F(f, d), F(m1, d)


def power_of_two_error(level):
    """V_n at n = 2**level: (1/16) (2**(3-2l) + 2**(3-l) + 9**-l + 3)."""
    return F(1, 16) * (F(8, 4 ** level) + F(8, 2 ** level)
                       + F(1, 9 ** level) + 3)
