import random
from fractions import Fraction
from math import comb

import pytest

from cantorq.closedform import (
    V_INFINITY,
    a_term,
    admissible_split_sets,
    build_alpha,
    canonical_split_set,
    count_optimal_sets,
    excess,
    level_of,
    quantization_error,
    unconstrained_error,
)
from cantorq.constraint import feasible_window, u_inverse
from cantorq.measure import centroid, words
from cantorq.oracle import exact_distortion

F = Fraction


def test_level_of():
    assert level_of(1) == 0
    assert level_of(5) == 2
    assert level_of(8) == 3
    with pytest.raises(ValueError):
        level_of(0)


def test_count_optimal_sets():
    assert count_optimal_sets(2) == 1
    assert count_optimal_sets(3) == 2
    assert count_optimal_sets(6) == 6
    assert count_optimal_sets(24) == comb(16, 8)


def test_canonical_split_set_is_lex_smallest():
    assert canonical_split_set(4) == frozenset()
    assert canonical_split_set(3) == frozenset({"1"})
    assert canonical_split_set(6) == frozenset({"11", "12"})


@pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 12])
def test_admissible_split_sets_enumeration(n):
    sets = list(admissible_split_sets(n))
    assert len(sets) == count_optimal_sets(n)
    assert len(set(sets)) == len(sets)


def test_build_alpha_two_points():
    assert build_alpha(2).abscissas() == (F(-1, 6), F(1, 6))


def test_build_alpha_four_points():
    # pullbacks of the level-2 centroids 1/18, 5/18, 13/18, 17/18
    assert build_alpha(4).abscissas() == (F(-7, 72), F(1, 72), F(17, 72), F(25, 72))


def test_build_alpha_split_right_parent():
    assert build_alpha(3, {"2"}).abscissas() == (F(-1, 12), F(7, 36), F(11, 36))


def test_build_alpha_one_point():
    alpha = build_alpha(1)
    assert alpha.abscissas() == (F(-1, 4),)
    assert alpha.points[0].y == F(3, 4)


def test_build_alpha_rejects_bad_split_sets():
    with pytest.raises(ValueError):
        build_alpha(3, set())          # wrong cardinality
    with pytest.raises(ValueError, match=r"^11 is not a word of length 1 over \{1,2\}$"):
        build_alpha(3, {"11"})         # wrong word length
    with pytest.raises(ValueError, match=r"^3 is not a word of length 1 over \{1,2\}$"):
        build_alpha(2, {"3"})          # bad letter
    with pytest.raises(ValueError, match=r"^1x is not a word of length 2 over \{1,2\}$"):
        a_term(5, ["1x"])              # bad letter of the right length
    with pytest.raises(ValueError, match=r"^\(1,\) is not a word of length 1 over \{1,2\}$"):
        build_alpha(3, {(1,)})         # a word is a string, not a tuple
    # a bare str is not read letter by letter, as {"1"} or {"2"}
    for build, n, split_set in [(build_alpha, 5, "11"), (build_alpha, 3, "2"), (a_term, 3, "2")]:
        with pytest.raises(TypeError, match="^a split set is a collection of words, not a str$"):
            build(n, split_set)


@pytest.mark.parametrize("build, n, split_set, word", [
    (build_alpha, 3, ["1", "1"], "1"),
    (a_term, 5, ["11", "11"], "11"),
])
def test_repeated_split_word_is_refused(build, n, split_set, word):
    # merged into one, the repeated word would meet the n - 2**l count
    with pytest.raises(ValueError, match=f"^repeated word {word}$"):
        build(n, split_set)


@pytest.mark.parametrize("n", range(1, 17))
def test_build_alpha_matches_word_by_word_construction(n):
    # the pullbacks of the unsplit centroids and the split words' children,
    # each centroid from the maps, sorted by abscissa
    l = level_of(n)
    for ss in admissible_split_sets(n):
        feet = [centroid(w + c) for w in words(l)
                for c in (["1", "2"] if w in ss else [""])]
        expected = sorted(u_inverse(n, t).x for t in feet)
        alpha = build_alpha(n, ss)
        assert alpha.abscissas() == tuple(expected)


@pytest.mark.parametrize("n", range(1, 33))
def test_build_alpha_feet_are_centroids(n):
    # independent check: each foot must be a centroid of level l or l+1
    l = level_of(n)
    valid = {centroid(w) for w in words(l)} | {centroid(w) for w in words(l + 1)}
    assert set(build_alpha(n).points) <= {u_inverse(n, t) for t in valid}


@pytest.mark.parametrize("n", range(1, 33))
def test_build_alpha_window_compliance(n):
    lo, hi = feasible_window(n)
    for x in build_alpha(n).abscissas():
        assert lo <= x <= hi


def test_a_term_two_points():
    # 1/2 * rho(1/6, U2^-1(1/6)) + 1/2 * rho(5/6, U2^-1(5/6))
    # = 1/2 * (2/9) + 1/2 * (8/9) = 5/9; also equals the power-of-two
    # shortcut 3/8 + 13/72
    assert a_term(2) == F(5, 9)
    assert a_term(2) == F(3, 8) + F(13, 72)


def test_a_term_split_choice_does_not_matter_at_three():
    assert a_term(3, {"1"}) == a_term(3, {"2"}) == F(526, 1296)


@pytest.mark.parametrize("level", range(1, 7))
def test_a_term_power_of_two_shortcut(level):
    n = 2 ** level
    expected = (F(n + 1, 2 * 4 ** level)
                + F(3 * 9 ** level - 1, 16 * 9 ** level))
    assert a_term(n) == expected


def test_distortion_report_examples():
    for n, v in ((1, F(5, 4)), (2, F(41, 72)), (3, F(67, 162))):
        assert quantization_error(n) == v


@pytest.mark.parametrize("level", range(0, 13))
def test_power_of_two_closed_form(level):
    expected = F(1, 16) * (F(8, 4 ** level) + F(8, 2 ** level)
                           + F(1, 9 ** level) + 3)
    assert quantization_error(2 ** level) == expected


def _graf_luschgy(n):
    """U_n = 18**-l * Var X * (2**(l+1) - n + (n - 2**l) / 9), the textbook
    form of the unconstrained n-means error."""
    l = level_of(n)
    return F(1, 18 ** l) * F(1, 8) * (2 ** (l + 1) - n + F(n - 2 ** l, 9))


@pytest.mark.parametrize("n", range(1, 65))
def test_report_decomposition(n):
    assert unconstrained_error(n) == _graf_luschgy(n)


def test_unconstrained_optimum_examples():
    # the feet of the codebook are the unconstrained optimal n-means
    for n, feet in ((1, [F(1, 2)]), (2, [F(1, 6), F(5, 6)]),
                    (4, [F(1, 18), F(5, 18), F(13, 18), F(17, 18)])):
        assert build_alpha(n).points == tuple(u_inverse(n, t) for t in feet)
    assert unconstrained_error(1) == F(1, 8)
    assert unconstrained_error(2) == F(1, 72)
    assert unconstrained_error(4) == F(1, 648)


@pytest.mark.parametrize("n", range(2, 17))
def test_split_set_independence(n):
    # every split set's codebook, integrated exactly, gives V_n
    v = quantization_error(n)
    for ss in admissible_split_sets(n):
        assert exact_distortion(n, build_alpha(n, ss)) == v


def test_error_sequence_monotone_and_bounded():
    prev = None
    for n in range(1, 65):
        v = quantization_error(n)
        assert v > F(3, 16)
        if prev is not None:
            assert v < prev
        prev = v


@pytest.mark.parametrize("n", range(1, 65))
def test_fast_closed_form_matches_enumeration(n):
    # the closed A-term V_n - U_n against the word-by-word sum
    assert quantization_error(n) - unconstrained_error(n) == a_term(n)


def _off_dyadic_ns():
    """Seeded n up to level 1100 off the three dyadic points per level:
    one random and one random odd n per level, every 3**k, every 5 * 2**j,
    and at l = 3j an n = 2**j * odd, where both summands of excess have
    2**(2j+1) in their denominators and the sum cancels a power of 2.
    Together they take every branch of Fraction's addition."""
    rng = random.Random(20240101)
    ns = {3 ** k for k in range(1, 1100) if 3 ** k < 2 ** 1101}
    ns |= {5 * 2 ** j for j in range(1099)}
    for l in range(1, 1101):
        ns.add(rng.randrange(2 ** l, 2 ** (l + 1)))
        ns.add(rng.randrange(2 ** l, 2 ** (l + 1)) | 1)
        if l % 3 == 0:
            j = l // 3
            ns.add((rng.randrange(2 ** l, 2 ** (l + 1)) >> j | 1) << j)
    return sorted(ns)


# every n through 2**12, both ends of each level up to l = 1100, and
# seeded n in between: excess and quantization_error check each other
EXPANSION_NS = {
    "small": range(1, 2 ** 12 + 1),
    "dyadic": sorted({m for l in range(1101)
                      for m in (2 ** l, 2 ** l + 1, 2 ** (l + 1) - 1)}),
    "off_dyadic": _off_dyadic_ns(),
}


def _remainder(n):
    """R(n) = U(n) - 9**-l / 16 + (n - 2**l) / (2**(l+1) 9**(l+1)), built
    from the textbook U(n) rather than the integer form."""
    l = level_of(n)
    return (_graf_luschgy(n) - F(1, 16 * 9 ** l)
            + F(n - 2 ** l, 2 ** (l + 1) * 9 ** (l + 1)))


@pytest.mark.parametrize("ns", EXPANSION_NS.values(), ids=EXPANSION_NS)
def test_integer_form_matches_decomposition(ns):
    # R(n) = U(n) / 2, the foot identity; test_excess_expansion puts R(n) in V_n
    for n in ns:
        u = unconstrained_error(n)
        assert u == _graf_luschgy(n)
        assert 2 * _remainder(n) == u


@pytest.mark.parametrize("ns", EXPANSION_NS.values(), ids=EXPANSION_NS)
def test_excess_is_error_minus_limit(ns):
    for n in ns:
        assert excess(n) == quantization_error(n) - V_INFINITY


@pytest.mark.parametrize("ns", EXPANSION_NS.values(), ids=EXPANSION_NS)
def test_excess_expansion(ns):
    for n in ns:
        assert excess(n) == F(1, 2 * n) + F(1, 2 * n * n) + _remainder(n)


@pytest.mark.parametrize("ns", EXPANSION_NS.values(), ids=EXPANSION_NS)
def test_expansion_remainder_bound(ns):
    for n in ns:
        l = level_of(n)
        r, bound = _remainder(n), F(1, 16 * 9 ** l)
        assert 0 < r <= bound
        assert (r == bound) == (n == 2 ** l)
