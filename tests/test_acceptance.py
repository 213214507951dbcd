"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting the stated time budget."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from cantorq import (
    EmptyCellError,
    a_term,
    admissible_split_sets,
    build_alpha,
    cell_measures,
    centroid_numerators,
    dimension_sequence,
    dp_optimal_upto,
    exact_distortion,
    lloyd_step,
    partial_moments,
    quantization_error,
    u_inverse,
    unconstrained_error,
)

F = Fraction


def power_of_two_error(level):
    """V_n at n = 2**level: (1/16) (2**(3-2l) + 2**(3-l) + 9**-l + 3)."""
    return F(1, 16) * (F(8, 4 ** level) + F(8, 2 ** level)
                       + F(1, 9 ** level) + 3)


@contextmanager
def budget(name, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.3f}s, budget {seconds}s)")
    assert elapsed < seconds, f"{name} exceeded {seconds}s ({elapsed:.3f}s)"


def test_criterion_01_one_point_optimum():
    with budget("1 one-point optimum", 1):
        alpha = build_alpha(1)
        p = alpha.points[0]
        assert (p.x, p.y) == (F(-1, 4), F(3, 4))
        assert quantization_error(1) == F(5, 4)
        assert exact_distortion(1, alpha) == F(5, 4)


def test_criterion_02_power_of_two_closed_form():
    with budget("2 V at powers of two", 1):
        for level in range(1, 13):
            n = 2 ** level
            total = quantization_error(n)
            assert total == power_of_two_error(level)


def test_criterion_03_main_theorem_decomposition():
    with budget("3 decomposition V_n = baseline + A", 1):
        for n in range(1, 65):
            assert quantization_error(n) == unconstrained_error(n) + a_term(n)


def test_criterion_04_split_set_independence():
    with budget("4 split-set independence", 30):
        for n in range(2, 33):
            variance = unconstrained_error(n)
            totals = {variance + a_term(n, ss)
                      for ss in admissible_split_sets(n)}
            assert len(totals) == 1
            assert totals.pop() == quantization_error(n)


def test_criterion_05_dp_oracle_agreement():
    with budget("5 DP oracle agreement", 60):
        optima = dp_optimal_upto(64, 13)
        for n, (ps, value) in enumerate(optima, start=1):
            assert value == quantization_error(n)
            assert set(ps.abscissas()) == set(build_alpha(n).abscissas())


def test_criterion_06_lloyd_fixed_point_and_descent():
    with budget("6 Lloyd fixed point and descent", 60):
        for n in range(1, 33):
            alpha = build_alpha(n)
            assert lloyd_step(n, alpha).abscissas() == alpha.abscissas()
        rng = random.Random(1234)
        optima = dp_optimal_upto(5, 10)
        for n in (2, 3, 4, 5):
            optimum = optima[n - 1][1]
            done = 0
            while done < 100:
                feet = sorted(rng.sample(range(1, 3 ** 7), n))
                pts = [u_inverse(n, F(t, 3 ** 7)) for t in feet]
                try:
                    before = exact_distortion(n, pts)
                    after = exact_distortion(n, lloyd_step(n, pts))
                except EmptyCellError:
                    continue
                assert after <= before
                assert after >= optimum
                done += 1


def test_criterion_07_dimension_limit_properties():
    with budget("7 dimension approaches 2", 5):
        seq = dimension_sequence(25)
        dims = [s.dim_estimate for s in seq]
        for i in range(4, len(dims) - 1):  # strictly increasing from l = 5
            assert dims[i] < dims[i + 1]
        assert dims[24] >= 1.9
        for level in range(1, 8):
            hi, lo = power_of_two_error(level), power_of_two_error(level + 1)
            for n in range(2 ** level, min(2 ** (level + 1), 257)):
                assert lo <= quantization_error(n) <= hi


def test_criterion_08_coefficient_diverges():
    with budget("8 coefficient diverges", 5):
        seq = dimension_sequence(30)
        coeffs = [s.coeff_estimate for s in seq]
        for i in range(2, len(coeffs) - 1):  # strictly increasing from l = 3
            assert coeffs[i] < coeffs[i + 1]
        assert coeffs[29] > 1e6
        for i in range(24, len(coeffs) - 1):  # ratio -> 2 within 1% by l = 25
            assert abs(coeffs[i + 1] / coeffs[i] - 2.0) < 0.01


def test_criterion_09_moment_sums():
    with budget("9 moment sums", 5):
        for k in range(1, 21):
            nums = centroid_numerators(k)
            assert sum(nums) == 6 ** k
            assert sum(v * v for v in nums) == 2 ** (k - 1) * (3 * 9 ** k - 1)
        # the m = 2 closed form, with enumeration as ground truth; the value
        # at k = 2 is 484, resolving the 482-vs-484 question in the
        # enumeration's favor (and the recursion's)
        assert sum(v * v for v in centroid_numerators(2)) == 484


def test_criterion_10_voronoi_preservation():
    with budget("10 Voronoi measure preservation", 10):
        for n in range(1, 17):
            alpha = build_alpha(n)
            constrained = cell_measures(n, alpha)
            means = alpha.feet()
            cuts = [(means[i] + means[i + 1]) / 2
                    for i in range(len(means) - 1)]
            ends = [partial_moments(c)[0] for c in (F(0), *cuts, F(1))]
            assert constrained == [b - a for a, b in zip(ends, ends[1:])]


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
