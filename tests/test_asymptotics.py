import math
import random
from fractions import Fraction

import pytest

from cantorq import asymptotics, closedform
from cantorq.asymptotics import MAX_LEVEL, dimension_sequence
from cantorq.closedform import error_pairs, error_pairs_sweep, quantization_error
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
    return list(dimension_sequence(MAX_LEVEL))


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
    # every power of two up to 2**MAX_LEVEL, so every sample the cap allows
    assert len(samples) == MAX_LEVEL
    for l, s in enumerate(samples, start=1):
        assert s.n == 2 ** l
        assert math.isfinite(s.dim_estimate) and math.isfinite(s.coeff_estimate)
        assert s.coeff_estimate == float(s.n * s.n * F(*s.excess))


def test_power_of_two_coefficients_increase():
    # the lemma behind the cap: n**2 * excess at n = 2**l is
    # 2**(l-1) + 1/2 + (4/9)**l / 16, strictly increasing in l, so the first
    # level whose coefficient overflows a float is the last one sampled
    levels = range(1, 1101)
    ns = [2 ** l for l in levels]
    coeffs = [(p * n * n, q) for n, (_, (p, q)) in zip(ns, error_pairs_sweep(ns))]
    for l, (num, den) in zip(levels, coeffs):
        assert 16 * 9 ** l * num == (8 * 9 ** l * (2 ** l + 1) + 4 ** l) * den
    for (n0, d0), (n1, d1) in zip(coeffs, coeffs[1:]):
        assert n1 * d0 > n0 * d1


@pytest.mark.parametrize("max_level", [MAX_LEVEL + 1, 2 ** 16])
def test_a_level_above_the_cap_makes_no_sample(monkeypatch, max_level):
    # refused at the call: no sample and no sweep, so no list of 2**16
    # powers of two either
    calls = []
    monkeypatch.setattr(asymptotics, "_sample", lambda *a: calls.append(a))
    monkeypatch.setattr(closedform, "error_pairs_sweep",
                        lambda ns: calls.append(ns) or iter(()))
    with pytest.raises(ValueError, match=f"<= {MAX_LEVEL}"):
        dimension_sequence(max_level)
    assert calls == []


@pytest.mark.parametrize("max_level", [*range(1, 41), MAX_LEVEL])
def test_samples_come_in_level_order(max_level):
    ns = [2 ** l for l in range(1, max_level + 1)]
    expected = list(map(asymptotics._sample, ns, error_pairs_sweep(ns)))
    assert list(dimension_sequence(max_level)) == expected


def test_coefficient_overflows_past_level_1024():
    # the cap is derived: the last level whose coefficient p n**2 / q, p/q the
    # excess pair of error_pairs at n = 2**l, is a float quotient
    assert MAX_LEVEL == 1024
    p, q = error_pairs(n := 2 ** MAX_LEVEL)[1]
    assert math.isfinite(p * n * n / q)
    p, q = error_pairs(n := 2 ** (MAX_LEVEL + 1))[1]
    with pytest.raises(OverflowError):
        p * n * n / q


def test_sequences_reject_bad_arguments():
    with pytest.raises(ValueError):
        dimension_sequence(0)
