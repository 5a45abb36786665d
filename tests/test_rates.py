"""Closed-form quantum rates, bounds, and sphere-packing estimates."""

import math

import numpy as np
import pytest

from gkplat.channel_sim import NoiseModel
from gkplat.rates import (
    best_integer_lambda,
    coherent_information,
    hw_upper_bound,
    minkowski_radius_sq,
    sphere_packing_rate,
    sphere_volume,
)

from oracles import error_probability_bound

E = math.e


class TestCoherentInformation:
    def test_threshold(self):
        assert coherent_information(NoiseModel(1.0 / E)) == 0.0

    def test_one_qubit(self):
        assert coherent_information(NoiseModel(1.0 / (2.0 * E))) == 1.0

    def test_three_qubits(self):
        assert coherent_information(NoiseModel(1.0 / (8.0 * E))) == 3.0

    def test_clamped_above_threshold(self):
        assert coherent_information(NoiseModel(5.0)) == 0.0


class TestHolevoWernerBound:
    def test_threshold(self):
        assert hw_upper_bound(NoiseModel(1.0)) == 0.0

    def test_quarter(self):
        assert hw_upper_bound(NoiseModel(0.25)) == 2.0

    def test_dominates_coherent_information(self):
        for s in np.geomspace(1e-6, 10.0, 200):
            noise = NoiseModel(float(s))
            assert hw_upper_bound(noise) >= coherent_information(noise)


class TestSpherePacking:
    def test_threshold(self):
        assert sphere_packing_rate(NoiseModel(1.0 / (4.0 * E))) == 0.0

    def test_one_qubit(self):
        assert sphere_packing_rate(NoiseModel(1.0 / (8.0 * E))) == 1.0

    def test_two_below_coherent(self):
        for s in np.geomspace(1e-6, 1.0 / (4.0 * E), 50, endpoint=False):
            noise = NoiseModel(float(s))
            assert sphere_packing_rate(noise) == pytest.approx(
                coherent_information(noise) - 2.0, abs=1e-12)


class TestBestIntegerLambda:
    def test_interior_value(self):
        lam, rate = best_integer_lambda(NoiseModel(0.1))
        assert lam == 3
        assert rate == pytest.approx(math.log2(3))

    def test_strict_at_exact_integer(self):
        lam, rate = best_integer_lambda(NoiseModel(1.0 / (2.0 * E)))
        assert (lam, rate) == (1, 0.0)

    def test_high_noise(self):
        for s in [1.0 / E, 0.5, 2.0]:
            lam, rate = best_integer_lambda(NoiseModel(s))
            assert lam <= 1 and rate == 0.0

    def test_never_exceeds_overlap_rate(self):
        for s in np.geomspace(1e-5, 1.0, 100):
            noise = NoiseModel(float(s))
            lam, rate = best_integer_lambda(noise)
            assert rate <= coherent_information(noise) + 1e-12


class TestErrorProbabilityBound:
    def test_unit_base(self):
        noise = NoiseModel(1.0 / E)
        for n in [1, 10, 100]:
            assert error_probability_bound(0.0, noise, 0.0, n) == pytest.approx(1.0)

    def test_doubling_modes_squares(self):
        noise = NoiseModel(0.05)
        b1 = error_probability_bound(1.5, noise, 0.01, 10)
        b2 = error_probability_bound(1.5, noise, 0.01, 20)
        assert b2 == pytest.approx(b1 * b1, rel=1e-9)

    def test_vanishes_below_overlap_rate(self):
        noise = NoiseModel(0.01)
        eps = 0.001
        rate = math.log2(1.0 / (E * (noise.sigma_sq + eps))) - 0.25
        assert error_probability_bound(rate, noise, eps, 1000) < 1e-50

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            error_probability_bound(1.0, NoiseModel(0.1), -0.1, 10)
        with pytest.raises(ValueError):
            error_probability_bound(1.0, NoiseModel(0.1), 0.0, 0)

    def test_zero_and_overflowing_base(self):
        assert error_probability_bound(1.0, NoiseModel(0.0), 0.0, 10) == 0.0
        assert error_probability_bound(1.0, NoiseModel(10.0), 0.0, 1000) == math.inf


class TestSphereVolume:
    def test_disk(self):
        assert sphere_volume(2) == pytest.approx(math.pi, rel=1e-14)

    def test_ball(self):
        assert sphere_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_dimension_refused(self, n):
        with pytest.raises(ValueError, match="dimension must be positive"):
            sphere_volume(n)

    def test_stirling_bound(self):
        for n in range(1, 201):
            assert sphere_volume(n) <= (2.0 * math.pi * E / n) ** (n / 2.0)


class TestMinkowskiRadius:
    def test_plane(self):
        assert minkowski_radius_sq(2) == pytest.approx(1.0 / (4.0 * math.pi * E))

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_dimension_refused(self, n):
        with pytest.raises(ValueError, match="dimension must be positive"):
            minkowski_radius_sq(n)

    def test_linear_in_dimension(self):
        for n in [2, 5, 24, 96]:
            assert minkowski_radius_sq(2 * n) == pytest.approx(
                2.0 * minkowski_radius_sq(n), rel=1e-14)

    def test_implied_by_density_bound(self):
        # the guaranteed radius is never above (1/4) (2 / V_n)^(2/n)
        for n in range(1, 201):
            direct = 0.25 * (2.0 / sphere_volume(n)) ** (2.0 / n)
            assert direct >= minkowski_radius_sq(n) * (1.0 - 1e-12)


class TestCurveRelations:
    def test_ordering_on_grid(self):
        for s in np.geomspace(1e-5, 1.0 / (4.0 * E), 100, endpoint=False):
            noise = NoiseModel(float(s))
            sp = sphere_packing_rate(noise)
            ov = coherent_information(noise)
            assert sp + 2.0 == pytest.approx(ov, abs=1e-12)
            assert ov <= hw_upper_bound(noise)
            assert best_integer_lambda(noise)[1] <= ov + 1e-12

    def test_scale_invariance(self):
        for c in [0.5, 2.0, 7.5]:
            a = NoiseModel(0.02, 1.0)
            b = NoiseModel(0.02 * c, c)
            assert coherent_information(a) == pytest.approx(coherent_information(b), rel=1e-14)
            assert hw_upper_bound(a) == pytest.approx(hw_upper_bound(b), rel=1e-14)
            assert sphere_packing_rate(a) == pytest.approx(sphere_packing_rate(b), rel=1e-14)
            assert best_integer_lambda(a) == best_integer_lambda(b)

    def test_monotone_nonincreasing(self):
        grid = np.geomspace(1e-5, 2.0, 300)
        for fn in (coherent_information, hw_upper_bound, sphere_packing_rate):
            values = [fn(NoiseModel(float(s))) for s in grid]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_when_log_argument_small(self):
        noise = NoiseModel(10.0)
        for fn in (coherent_information, hw_upper_bound, sphere_packing_rate):
            assert fn(noise) == 0.0
        assert best_integer_lambda(noise)[1] == 0.0

    @pytest.mark.parametrize("sigma_sq,hbar", [(1e308, 1.0), (1e300, 1e-300)])
    def test_zero_where_ratio_underflows(self, sigma_sq, hbar):
        # e sigma^2 overflows, or hbar / (e sigma^2) underflows to 0: log2 is not reached
        noise = NoiseModel(sigma_sq, hbar)
        row = [fn(noise) for fn in (coherent_information, hw_upper_bound, sphere_packing_rate)]
        assert row == [0.0, 0.0, 0.0]
        assert best_integer_lambda(noise) == (0, 0.0)

    @pytest.mark.parametrize("sigma_sq", [0.0, 1e-310])
    def test_ratio_beyond_float64_named(self, sigma_sq):
        for fn in (coherent_information, hw_upper_bound, sphere_packing_rate,
                   best_integer_lambda):
            with pytest.raises(ValueError, match=r"hbar / sigma\^2 = 1\.0 / .* overflows float64"):
                fn(NoiseModel(sigma_sq))
