import random
from fractions import Fraction

import pytest

from cantorq import asymptotics
from cantorq.asymptotics import dimension_sequence
from cantorq.closedform import error_pairs_sweep, quantization_error
from reference import power_of_two_error

F = Fraction


def test_v_infinity_cross_checks():
    # power-of-two excess has the explicit form (1/16)(2^(3-2l)+2^(3-l)+9^-l)
    for level in range(1, 30):
        excess = power_of_two_error(level) - F(3, 16)
        assert excess == F(1, 16) * (F(8, 4 ** level) + F(8, 2 ** level)
                                     + F(1, 9 ** level))
    # limiting squared distance to the line y = x: (E(X^2) + (E X)^2) ... the
    # perpendicular projection halves (x-a)^2 + (x+s)^2 as s -> 0, giving
    # (V + 1/4 + 1/8)/2 evaluated exactly
    assert (F(1, 8) + F(1, 4)) / 2 == F(3, 16)


@pytest.fixture(scope="module")
def samples():
    return list(dimension_sequence(1024))


def test_sample_level_one(samples):
    s = samples[0]
    assert s.n == 2
    assert s.v_n == (41, 72)
    assert s.excess == (55, 144)
    assert s.coeff_estimate == float(F(55, 36))


def test_dimension_sequence_examples():
    seq = list(dimension_sequence(20))
    assert len(seq) == 20
    assert seq[0].excess == (55, 144)
    assert 1.85 <= seq[-1].dim_estimate <= 2.0


def test_dimension_estimates_increase_and_approach_two():
    seq = dimension_sequence(40)
    dims = [s.dim_estimate for s in seq]
    for i in range(4, len(dims) - 1):  # l >= 5
        assert dims[i] < dims[i + 1]
    for i, d in enumerate(dims, start=1):
        assert d < 2.0
        if i >= 10:
            assert 2.0 - d <= 1.2 * 2.0 / (i + 1)


def test_excess_positive_everywhere():
    # exhaustive through 2**14, then structured and random spot checks to 2**20
    ns = set(range(2, 2 ** 14 + 1))
    for level in range(14, 21):
        ns.update({2 ** level - 1, 2 ** level, 2 ** level + 1})
    rng = random.Random(7)
    ns.update(rng.randrange(2, 2 ** 20) for _ in range(500))
    for n in ns:
        assert quantization_error(n) > F(3, 16)


@pytest.mark.parametrize("level", range(1, 8))
def test_sandwich_between_power_of_two_errors(level):
    upper = power_of_two_error(level)
    lower = power_of_two_error(level + 1)
    for n in range(2 ** level, min(2 ** (level + 1), 257)):
        v = quantization_error(n)
        assert lower <= v <= upper


def test_coefficient_sequence_diverges():
    seq = dimension_sequence(35)
    coeffs = [s.coeff_estimate for s in seq]
    for i in range(2, len(coeffs) - 1):  # l >= 3
        assert coeffs[i] < coeffs[i + 1]
    assert coeffs[29] > 1e6
    # consecutive ratios approach 2
    for i in range(24, len(coeffs) - 1):
        assert abs(coeffs[i + 1] / coeffs[i] - 2.0) < 0.01


def test_coefficient_is_the_rounded_exact_value(samples):
    # every power of two up to 2**1024, the last whose coefficient is a float
    for l, s in enumerate(samples, start=1):
        assert s.n == 2 ** l
        assert s.coeff_estimate == float(s.n * s.n * F(*s.excess))


def test_power_of_two_coefficients_increase():
    # the lemma behind making the sample at max-level first: n**2 * excess
    # at n = 2**l is 2**(l-1) + 1/2 + (4/9)**l / 16, strictly increasing in l
    levels = range(1, 1101)
    coeffs = [c for _, _, c in error_pairs_sweep([2 ** l for l in levels])]
    for l, (num, den) in zip(levels, coeffs):
        assert 16 * 9 ** l * num == (8 * 9 ** l * (2 ** l + 1) + 4 ** l) * den
    for (n0, d0), (n1, d1) in zip(coeffs, coeffs[1:]):
        assert n1 * d0 > n0 * d1


def test_a_failing_max_level_fails_at_its_first_sample(monkeypatch):
    # no other sample, and no power of two below 2**65536, is made
    calls, sample = [], asymptotics._sample
    monkeypatch.setattr(asymptotics, "_sample",
                        lambda n, pairs: calls.append(n) or sample(n, pairs))
    with pytest.raises(OverflowError):
        dimension_sequence(2 ** 16)
    assert [n.bit_length() - 1 for n in calls] == [2 ** 16]  # levels


@pytest.mark.parametrize("max_level", [*range(1, 41), 1024])
def test_samples_come_in_level_order(max_level):
    ns = [2 ** l for l in range(1, max_level + 1)]
    expected = list(map(asymptotics._sample, ns, error_pairs_sweep(ns)))
    assert list(dimension_sequence(max_level)) == expected


def test_coefficient_overflows_past_level_1024():
    with pytest.raises(OverflowError):
        dimension_sequence(1025)


def test_sequences_reject_bad_arguments():
    with pytest.raises(ValueError):
        dimension_sequence(0)
