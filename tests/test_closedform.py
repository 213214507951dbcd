import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from cantorq.closedform import (
    admissible_split_sets,
    build_alpha,
    count_optimal_sets,
    error_pairs,
    error_pairs_sweep,
    feet_table,
    level_of,
    parse_split_set,
    quantization_error,
    split_word,
    unconstrained_error,
)
from cantorq.constraint import feasible_window, u_inverse
from cantorq.oracle import exact_distortion
from reference import a_term, centroid, power_of_two_error, words

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


def spelled(n, split_set):
    """The words of a split set of word indices at n."""
    return [split_word(level_of(n), i) for i in split_set]


@pytest.mark.parametrize("l", range(11))
def test_an_index_prints_as_its_word_and_parses_back(l):
    # word i of words(l) is split_word(l, i), and the parser reads it as i
    # (at level 0, n = 1 splits no word)
    for i, w in enumerate(words(l)):
        assert split_word(l, i) == w
        assert l == 0 or parse_split_set(2 ** l + 1, [w]) == [i]
    assert parse_split_set(2 ** (l + 1) - 1, list(words(l))[:0:-1]) == list(
        range(1, 2 ** l))


@pytest.mark.parametrize("n", range(1, 41))
def test_admissible_split_sets_enumeration(n):
    # the k-subsets of range(2**l) in lexicographic order, which print as the
    # k-subsets of words(l) in theirs, count_optimal_sets(n) of them; the
    # first, the canonical set, is the k smallest words.  Past 2**16 sets
    # (n = 37..40) only the first 2**12
    l, k = level_of(n), n - 2 ** level_of(n)
    size = None if (whole := comb(2 ** l, k) <= 2 ** 16) else 2 ** 12
    sets = list(itertools.islice(admissible_split_sets(n), size))
    if whole:
        assert len(sets) == count_optimal_sets(n)
    assert sets == list(itertools.islice(itertools.combinations(range(2 ** l), k), size))
    assert [tuple(spelled(n, ss)) for ss in sets] == list(
        itertools.islice(itertools.combinations(words(l), k), size))
    assert sets[0] == tuple(range(k))


def test_canonical_split_set_is_lex_smallest():
    # the first admissible set, spelled out, is the k smallest words
    def canonical(n):
        return frozenset(spelled(n, next(iter(admissible_split_sets(n)))))
    assert canonical(4) == frozenset()
    assert canonical(3) == frozenset({"1"})
    assert canonical(6) == frozenset({"11", "12"})


def test_build_alpha_two_points():
    assert tuple(p.x for p in build_alpha(2).points) == (F(-1, 6), F(1, 6))


def test_build_alpha_four_points():
    # pullbacks of the level-2 centroids 1/18, 5/18, 13/18, 17/18
    assert tuple(p.x for p in build_alpha(4).points) == (
        F(-7, 72), F(1, 72), F(17, 72), F(25, 72))


def test_build_alpha_split_right_parent():
    assert tuple(p.x for p in build_alpha(3, {"2"}).points) == (
        F(-1, 12), F(7, 36), F(11, 36))


def test_build_alpha_one_point():
    alpha = build_alpha(1)
    assert tuple(p.x for p in alpha.points) == (F(-1, 4),)
    assert alpha.points[0].y == F(3, 4)


def test_build_alpha_rejects_bad_split_sets():
    with pytest.raises(ValueError):
        build_alpha(3, set())          # wrong cardinality
    with pytest.raises(ValueError, match=r"^11 is not a word of length 1 over \{1,2\}$"):
        build_alpha(3, {"11"})         # wrong word length
    with pytest.raises(ValueError, match=r"^3 is not a word of length 1 over \{1,2\}$"):
        build_alpha(2, {"3"})          # bad letter
    with pytest.raises(ValueError, match=r"^1x is not a word of length 2 over \{1,2\}$"):
        build_alpha(5, ["1x"])         # bad letter of the right length
    with pytest.raises(ValueError, match=r"^\(1,\) is not a word of length 1 over \{1,2\}$"):
        build_alpha(3, {(1,)})         # a word is a string, not a tuple
    # a bare str is not read letter by letter, as {"1"} or {"2"}
    for build, n, split_set in [(build_alpha, 5, "11"), (build_alpha, 3, "2")]:
        with pytest.raises(TypeError, match="^a split set is a collection of words, not a str$"):
            build(n, split_set)


@pytest.mark.parametrize("build, n, split_set, word", [
    (build_alpha, 3, ["1", "1"], "1"),
    (build_alpha, 5, ["11", "11"], "11"),
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
    for ss in map(spelled, itertools.repeat(n), admissible_split_sets(n)):
        feet = [centroid(w + c) for w in words(l)
                for c in (["1", "2"] if w in ss else [""])]
        expected = sorted(u_inverse(n, t).x for t in feet)
        alpha = build_alpha(n, ss)
        assert tuple(p.x for p in alpha.points) == tuple(expected)


@pytest.mark.parametrize("n", range(1, 33))
def test_build_alpha_feet_are_centroids(n):
    # independent check: each foot must be a centroid of level l or l+1
    l = level_of(n)
    valid = {centroid(w) for w in words(l)} | {centroid(w) for w in words(l + 1)}
    assert set(build_alpha(n).points) <= {u_inverse(n, t) for t in valid}


@pytest.mark.parametrize("n", range(1, 33))
def test_build_alpha_window_compliance(n):
    lo, hi = feasible_window(n)
    for p in build_alpha(n).points:
        assert lo <= p.x <= hi


@pytest.mark.parametrize("n", [*range(1, 13), 18, 20])
def test_one_level_table_gives_every_codebook(n):
    # each split set's feet over 2 * 3**(l+1) from one table, in any order
    # and again, are build_alpha's codebook of its words, given in any order;
    # build_alpha's canonical set is the first
    den, feet = feet_table(n)
    assert den == 2 * 3 ** (level_of(n) + 1)
    sets = list(admissible_split_sets(n))
    for ss in [*sets, *reversed(sets)]:
        for ws in (spelled(n, ss), spelled(n, ss)[::-1]):
            alpha = build_alpha(n, ws)
            assert feet(ss) == [t * (den // alpha.den) for t in alpha.feet]
    assert build_alpha(n) == build_alpha(n, spelled(n, sets[0]))
    assert feet(sets[0]) == feet(range(n - 2 ** level_of(n)))


def test_a_refused_split_set_leaves_the_table_as_it_was():
    # the parser refuses the words; the table, which checks nothing, is the same
    den, feet = feet_table(6)
    expected = feet(parse_split_set(6, {"12", "21"}))
    for bad, error in [({"12"}, "^split set must have 2 words for n=6, got 1$"),
                       (["21", "21"], "^repeated word 21$"),
                       (["11", "13"], r"^13 is not a word of length 2 over \{1,2\}$")]:
        with pytest.raises(ValueError, match=error):
            parse_split_set(6, bad)
    assert feet(parse_split_set(6, ["21", "12"])) == feet([1, 2]) == expected
    # over 54: the means 3 and 51 of 11 and 22, the children 13, 17 and 37, 41
    assert den == 54 and expected == [3, 13, 17, 37, 41, 51]


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
    assert quantization_error(2 ** level) == power_of_two_error(level)


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
        assert exact_distortion(n, build_alpha(n, spelled(n, ss))) == v


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
    one random and one random odd n per level, every 3**k, 6**k and
    5 * 2**j, at l = 3j an n = 2**j * odd, and at l = 5i an n =
    2**(l//3) * 3**i * w for a seeded w.  They vary the 2s and 3s that
    error_pairs counts in the excess N / (144 * 18**l * n**2): every 3**k
    leaves 3**(2k) or more common to both; at 2**j * odd the two terms of N
    have 2**(3j+3) each, so their sum has more; and 6**k and the n at
    l = 5i make n's 2s and 3s large at once.  At l = 3j there is also the
    n = 2**j * o, if o odd is in range, for which N has more 2s than its
    denominator, so the excess has an odd denominator: N / 2**(l+3) =
    (17 * 2**(2j-3) - o) o**2 + 9**(l+1) (n + 1) is 0 mod 2**(2j+2) then,
    and as its derivative in o is odd, o is found one bit at a time."""
    rng = random.Random(20240101)
    ns = {3 ** k for k in range(1, 1100) if 3 ** k < 2 ** 1101}
    ns |= {6 ** k for k in range(1, 1100) if 6 ** k < 2 ** 1101}
    ns |= {5 * 2 ** j for j in range(1099)}
    for l in range(1, 1101):
        ns.add(rng.randrange(2 ** l, 2 ** (l + 1)))
        ns.add(rng.randrange(2 ** l, 2 ** (l + 1)) | 1)
        if l % 3 == 0:
            j = l // 3
            ns.add((rng.randrange(2 ** l, 2 ** (l + 1)) >> j | 1) << j)
    for l in range(5, 1101, 5):
        m = 2 ** (l // 3) * 3 ** (l // 5)
        ns.add(m * rng.randrange(-(-2 ** l // m), 2 ** (l + 1) // m))
    for j in range(2, 367):
        nines, o = pow(9, 3 * j + 1, 4 << 2 * j), 1
        for bit in range(1, 2 * j + 2):
            # N / 2**(l+3) mod 2**(2j+2), which is 0 mod 2**bit
            rest = ((17 << 2 * j - 3) - o) * o * o + nines * ((o << j) + 1)
            o += (rest >> bit & 1) << bit
        if o >> 2 * j == 1:
            ns.add(o << j)
    return sorted(ns)


def _v3(m):
    v = 0
    while m % 3 == 0:
        m, v = m // 3, v + 1
    return v


def test_common_threes_need_no_scan_of_the_excess():
    # error_pairs takes j = v3(r) + 2 v3(n), r = 17 * 2**l - 8n, for the 3s
    # the excess N shares with its denominator, which holds while j < 2l + 2;
    # its docstring bounds j for l >= 18, and this checks every n below that
    for n in range(2, 2 ** 18):
        l = n.bit_length() - 1
        assert _v3((17 << l) - 8 * n) + 2 * _v3(n) < 2 * l + 2
    # at n = 1, j = 2l + 2 = 2, and N = 9 * 1 + 72 * 2 has those 2 3s, no more
    assert _v3(17 - 8) == 2 == _v3(9 * 1 + 72 * 2)


@pytest.mark.parametrize("f, n", [(error_pairs, 0), (error_pairs, -1),
                                  (quantization_error, 0)])
def test_n_below_one_is_refused_by_level_of(f, n):
    # before any shift or mask sees n, by the package's one check
    with pytest.raises(ValueError, match="^n must be >= 1$") as refused:
        f(n)
    assert [entry.name for entry in refused.traceback[-2:]] == ["level_of", "check_n"]


# every n through 2**12, both ends of each level up to l = 1100, and
# seeded n in between: error_pairs against the textbook U_n and the expansion
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
def test_pairs_are_in_lowest_terms(ns):
    # V_n - 3/16 = U_n / 2 + (n+1) / (2n**2) from the textbook U_n, and V_n
    for n in ns:
        f = _graf_luschgy(n) / 2 + F(n + 1, 2 * n * n)
        g = f + F(3, 16)
        v, e, _ = error_pairs(n)
        assert v == (g.numerator, g.denominator)
        assert e == (f.numerator, f.denominator)


@pytest.mark.parametrize("ns", EXPANSION_NS.values(), ids=EXPANSION_NS)
def test_excess_is_error_minus_limit(ns):
    # V_n - 3/16 = p/q and n**2 p/q = N / (144 * 18**l), across in integers
    for n in ns:
        v, (p, q), (num, den) = error_pairs(n)
        assert v[0] * 16 * q == (16 * p + 3 * q) * v[1]
        assert num * q == n * n * p * den and den == 144 * 18 ** level_of(n)
        assert quantization_error(n) == F(*v)


@pytest.mark.parametrize("ns", EXPANSION_NS.values(), ids=EXPANSION_NS)
def test_excess_expansion(ns):
    for n in ns:
        p, q = error_pairs(n)[1]
        assert F(p, q) == F(1, 2 * n) + F(1, 2 * n * n) + _remainder(n)


@pytest.mark.parametrize("ns", EXPANSION_NS.values(), ids=EXPANSION_NS)
def test_expansion_remainder_bound(ns):
    for n in ns:
        l = level_of(n)
        r, bound = _remainder(n), F(1, 16 * 9 ** l)
        assert 0 < r <= bound
        assert (r == bound) == (n == 2 ** l)


# n rising, falling, repeating and jumping levels, every 2**l for l <= 1100,
# and a seeded shuffle: the sweep carries 3**(2l+2) across all of them
SWEEPS = {
    "rising": range(1, 2 ** 11 + 1),
    "falling": range(2 ** 11, 0, -1),
    "repeating": [1, 1, 2, 2, 3, 3, 3, 2 ** 40, 2 ** 40, 2 ** 41 - 1, 5, 5],
    "jumping": [1, 2 ** 1100, 3, 2 ** 600 + 1, 2 ** 600 + 1, 2, 2 ** 1101 - 1, 1],
    "dyadic": [2 ** l for l in range(1101)],
    "shuffled": random.Random(28).sample(EXPANSION_NS["off_dyadic"], 600),
}


@pytest.mark.parametrize("ns", SWEEPS.values(), ids=SWEEPS)
def test_sweep_is_error_pairs_at_each_n(ns):
    assert list(error_pairs_sweep(iter(ns))) == [error_pairs(n) for n in ns]


def test_sweep_refuses_n_below_one_when_it_reaches_it():
    sweep = error_pairs_sweep([2, 0])
    assert next(sweep) == error_pairs(2)
    with pytest.raises(ValueError, match="n must be >= 1"):
        next(sweep)
