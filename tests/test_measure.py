from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorq.measure import centroid_numerators, moment_numerators
from reference import MEAN, VARIANCE, apply_map, centroid, partial_moments, words

F = Fraction

word_st = st.text("12", max_size=8)
unit_st = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6)


def test_words_are_strings_in_lexicographic_order():
    assert list(words(0)) == [""]
    assert list(words(2)) == ["11", "12", "21", "22"]


def test_apply_map_empty_is_identity():
    assert apply_map("", F(1, 2)) == F(1, 2)


def test_apply_map_single_letters():
    assert apply_map("1", F(1, 2)) == F(1, 6)
    assert apply_map("2", F(1, 2)) == F(5, 6)


def test_apply_map_first_letter_applied_last():
    # T_21(x) = T_2(T_1(x))
    assert apply_map("21", F(1, 2)) == F(13, 18)


def test_apply_map_rejects_bad_letter():
    with pytest.raises(ValueError):
        apply_map("13", F(0))
    # a word that is not a str gets the same error, whatever its type
    for word in [(1, 2), ["1"], b"12", 12]:
        for call in (lambda: apply_map(word, F(0)), lambda: centroid(word)):
            with pytest.raises(ValueError, match="^word letters must be 1 or 2, got "):
                call()
    with pytest.raises(ValueError, match="^word length must be >= 0$"):
        words(-1)


def _between(a, b):
    """Mass and first moment of the measure on [a, b], from the kernel."""
    return tuple(y - x for x, y in zip(partial_moments(a), partial_moments(b)))


@given(word_st)
def test_basic_interval_length_and_mass(w):
    left, right = apply_map(w, F(0)), apply_map(w, F(1))
    assert right - left == F(1, 3 ** len(w))
    assert 0 <= left < right <= 1
    mass, m1 = _between(left, right)
    assert mass == F(1, 2 ** len(w))
    assert m1 == mass * centroid(w)


@pytest.mark.parametrize("k", range(1, 13))
def test_level_masses_sum_to_one(k):
    masses = [_between(apply_map(w, F(0)), apply_map(w, F(1)))[0]
              for w in words(k)]
    assert set(masses) == {F(1, 2 ** k)}
    assert sum(masses) == 1


def test_centroid_examples():
    assert centroid("") == MEAN
    assert centroid("1") == F(1, 6)
    assert centroid("2") == F(5, 6)
    assert centroid("22") == F(17, 18)


@given(word_st)
def test_children_centroids_average_to_parent(w):
    assert centroid(w + "1") + centroid(w + "2") == 2 * centroid(w)


def test_centroid_numerators_small_levels():
    assert centroid_numerators(1) == [1, 5]
    assert centroid_numerators(2) == [1, 5, 13, 17]
    assert centroid_numerators(3) == [1, 5, 13, 17, 37, 41, 49, 53]


@pytest.mark.parametrize("k", range(1, 11))
def test_centroid_numerators_match_enumerated_centroids(k):
    # independent route: enumerate words and scale the exact centroids
    expected = sorted(centroid(w) * 2 * 3 ** k for w in words(k))
    assert centroid_numerators(k) == [int(v) for v in expected]


def test_centroid_numerators_past_the_cli_level_cap():
    # no cap here: build_alpha needs level l + 1 for every n
    assert len(centroid_numerators(21)) == 2 ** 21


@pytest.mark.parametrize("k", range(1, 13))
def test_first_moment_closed_form(k):
    assert sum(centroid_numerators(k)) == 6 ** k


def test_second_moment_resolves_spec_discrepancy():
    # Direct enumeration at k=2: 1 + 25 + 169 + 289 = 484, agreeing with the
    # closed form 2**(k-1) * (3*9**k - 1) = 484.  (A quoted value of 482 for
    # this sum is an arithmetic slip; the enumeration is the ground truth.)
    by_hand = sum(v * v for v in (1, 5, 13, 17))
    assert by_hand == 484
    assert sum(v * v for v in centroid_numerators(2)) == 484
    assert sum(v * v for v in centroid_numerators(1)) == 26


@pytest.mark.parametrize("k", range(1, 13))
def test_second_moment_closed_form(k):
    assert (sum(v * v for v in centroid_numerators(k))
            == 2 ** (k - 1) * (3 * 9 ** k - 1))


@settings(max_examples=200)
@given(unit_st)
def test_self_similar_one_level_recursion(x):
    f, m1 = partial_moments(x)
    assert partial_moments(x / 3) == (f / 2, m1 / 6)
    assert partial_moments(x / 3 + F(2, 3)) == (
        F(1, 2) + f / 2, f / 3 + m1 / 6 + F(1, 12))


@pytest.mark.parametrize("i", range(20))
def test_single_point_distortion_on_s1_is_quadratic(i):
    # distortion of (a, a+1) over [0,1] equals 2a^2 + a + 11/8
    a = F(i - 10, 13)
    mass, m1 = partial_moments(F(1))
    m2 = VARIANCE + MEAN * MEAN  # E X**2 over [0, 1]
    assert m2 - 2 * a * m1 + (a * a + (a + 1) ** 2) * mass == \
        2 * a * a + a + F(11, 8)


@pytest.mark.parametrize("k", range(1, 7))
def test_partial_moments_match_finite_sums(k):
    # a level-k interval has mass 2**-k and mean c; v at its ends and at
    # gap midpoints is a finite sum
    den, width, mass = 2 * 3 ** k, F(1, 3 ** k), F(1, 2 ** k)
    cs = [F(t, den) for t in centroid_numerators(k)]
    sums = [(F(0), F(0))]
    for c in cs:
        f, m1 = sums[-1]
        sums.append((f + mass, m1 + mass * c))
    for i, c in enumerate(cs):
        assert partial_moments(c - width / 2) == sums[i]
        assert partial_moments(c + width / 2) == sums[i + 1]
        if i + 1 < len(cs):
            gap_mid = (c + cs[i + 1]) / 2
            assert partial_moments(gap_mid) == sums[i + 1]


def test_partial_moments_hand_values():
    # 1/4 = 0.0202..._3 and 3/4 = 0.2020..._3: F(1/4) = F(3/4)/2 and
    # F(3/4) = 1/2 + F(1/4)/2 give F(1/4) = 1/3; M1 follows likewise
    assert partial_moments(F(1, 4)) == (F(1, 3), F(1, 30))
    assert partial_moments(F(3, 4)) == (F(2, 3), F(1, 5))


def _periodic(cycle: str) -> F:
    """The point whose ternary digits repeat `cycle` from the first one."""
    return F(int(cycle, 3), 3 ** len(cycle) - 1)


# one minimal cycle in the Cantor set per length L = 2..12; t2 in front of a
# cycle ending in 0 gives a point with a one-digit preperiod
CYCLE_POINTS = [
    apply_map("2", _periodic("20")), _periodic("002"), _periodic("2000"),
    apply_map("2", _periodic("22020")), _periodic("022000"),
    _periodic("2020002"), apply_map("2", _periodic("02200000")),
    _periodic("222000220"), _periodic("0220022200"),
    apply_map("2", _periodic("22200200220")), _periodic("222020222200"),
]


@pytest.mark.parametrize("x", [F(1, 4), F(1, 10), F(570247, 590490),
                               *CYCLE_POINTS])
def test_partial_moments_bracketed_in_cantor_set(x):
    # x has a periodic ternary expansion with no digit 1, so the kernel
    # solves a cycle; the ends of each level-k interval around x border the
    # gaps on either side and take the terminating branch
    v = partial_moments(x)
    for k in range(1, 31):
        width = F(1, 3 ** k)
        left = F(int(x / width)) * width
        lo, hi = partial_moments(left), partial_moments(left + width)
        assert all(a <= b <= c for a, b, c in zip(lo, v, hi))
        c = left + width / 2
        mass = F(1, 2 ** k)
        assert tuple(b - a for a, b in zip(lo, hi)) == (mass, mass * c)


def test_partial_moments_clamps():
    zero, total = (0, 0), (1, MEAN)
    for x in (F(-5, 7), F(0)):
        assert partial_moments(x) == zero
    for x in (F(1), F(3, 2)):
        assert partial_moments(x) == total
    assert total == (1, F(1, 2))
    # the total second moment, which the evaluator adds to every distortion
    assert VARIANCE + MEAN * MEAN == F(3, 8)


# cycles inside the Cantor set, gap midpoints T_w(1/2), and both clamps
KERNEL_POINTS = [F(1, 4), F(3, 4), F(1, 10), F(570247, 590490), *CYCLE_POINTS,
                 *(centroid(w) for k in range(4) for w in words(k)),
                 F(-3, 7), F(0), F(1), F(5, 3)]


def _assert_scale_invariant(x):
    v = partial_moments(x)
    for g in range(1, 51):
        f, m1, d = moment_numerators(g * x.numerator, g * x.denominator)
        assert (F(f, d), F(m1, d)) == v


@pytest.mark.parametrize("x", KERNEL_POINTS)
def test_moment_numerators_ignore_common_factors(x):
    # the oracle passes cuts unreduced
    _assert_scale_invariant(x)


@settings(max_examples=100)
@given(st.fractions(min_value=-1, max_value=2, max_denominator=10 ** 4))
def test_moment_numerators_ignore_common_factors_drawn(x):
    _assert_scale_invariant(x)


@pytest.mark.parametrize("p, q", [(-1, -3), (2, -3), (0, 0), (1, 0), (5, -1)])
def test_moment_numerators_reject_nonpositive_denominators(p, q):
    # -1/-3 = 1/3 would otherwise clamp to v(0), and 2/-3 to v(1)
    with pytest.raises(ValueError, match="^denominator must be > 0"):
        moment_numerators(p, q)
