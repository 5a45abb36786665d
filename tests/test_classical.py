"""Classical Gaussian channel rate formulas."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkplat.classical_channel import (
    ClassicalParams,
    debuda_rate,
    minkowski_lattice_rate,
    optimize_classical_d,
    shannon_capacity,
    signal_family,
)
from gkplat import dit_rates
from gkplat.dit_rates import dit_error_prob, dit_rate, dit_rate_bound, entropy_base_d

from oracles import dit_rate_screen, erfc_oracle, exhaustive_argmax, signal_error_prob


def at_snr(snr: float) -> ClassicalParams:
    return ClassicalParams(1.0, 1.0 / snr)


def concat_rate(d, params):
    """Bits per variable of the concatenated-dit scheme at alphabet size d."""
    return dit_rate(d, dit_error_prob(d, signal_family(params)), 1)


class TestShannonCapacity:
    @pytest.mark.parametrize("snr,want", [(1.0, 0.5), (3.0, 1.0), (15.0, 2.0)])
    def test_exact_anchors(self, snr, want):
        assert shannon_capacity(at_snr(snr)) == want

    def test_depends_only_on_ratio(self):
        for c in [0.25, 3.0, 11.0]:
            assert shannon_capacity(ClassicalParams(2.0 * c, 0.5 * c)) == \
                shannon_capacity(ClassicalParams(2.0, 0.5))


class TestMinkowskiRate:
    def test_threshold(self):
        assert minkowski_lattice_rate(at_snr(3.0)) == 0.0

    def test_snr_fifteen(self):
        assert minkowski_lattice_rate(at_snr(15.0)) == 1.0

    def test_one_below_capacity(self):
        for snr in np.geomspace(3.0, 1e6, 40):
            params = at_snr(float(snr))
            rate = minkowski_lattice_rate(params)
            if rate > 0.0:
                assert rate == pytest.approx(shannon_capacity(params) - 1.0, abs=1e-12)


class TestDeBudaRate:
    def test_threshold(self):
        assert debuda_rate(at_snr(1.0)) == 0.0

    def test_snr_four(self):
        assert debuda_rate(at_snr(4.0)) == 1.0

    def test_approaches_capacity(self):
        params = at_snr(1e6)
        assert shannon_capacity(params) - debuda_rate(params) < 1e-5
        assert debuda_rate(params) < shannon_capacity(params)


class TestDitErrorProb:
    def test_unit_argument(self):
        # d^2 = 3 P / (2 sigma^2) makes the erfc argument exactly 1
        params = ClassicalParams(2.0 * 16.0 / 3.0, 1.0)
        want = erfc_oracle(1.0)
        assert dit_error_prob(4, signal_family(params)) == pytest.approx(want, rel=1e-13)

    def test_increasing_in_d(self):
        params = at_snr(100.0)
        probs = [dit_error_prob(d, signal_family(params)) for d in range(2, 40)]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_family_gives_the_formula_bits(self):
        # the dit_rates family keeps 1.5 / (d^2 (sigma^2 / P)) operation for
        # operation: d up to 2**53, sigma^2 in [1e-15, 1e3], P in [1e-3, 1e3]
        rng = np.random.default_rng(16)
        for _ in range(300):
            ds = np.concatenate([np.arange(2, 66),
                                 np.exp2(rng.uniform(1.0, 53.0, 64)).astype(np.int64)])
            params = ClassicalParams(10.0 ** rng.uniform(-3.0, 3.0),
                                     10.0 ** rng.uniform(-15.0, 3.0))
            for d in ds.tolist():
                assert dit_error_prob(d, signal_family(params)).hex() == \
                    signal_error_prob(d, params.power, params.sigma_sq).hex()

    def test_spacing_power_identity(self):
        # dx = sqrt(3P)/d inverts P = (d dx)^2 / 3
        for d, power in [(2, 1.0), (7, 4.5)]:
            dx = math.sqrt(3.0 * power) / d
            assert (d * dx) ** 2 / 3.0 == pytest.approx(power, rel=1e-14)


class TestClassicalConcatRate:
    def test_noiseless(self):
        for d in [2, 5, 64]:
            assert dit_rate(d, 0.0, 1) == math.log2(d)

    def test_binary_value(self):
        expected = 1.0 - entropy_base_d(0.11, 2)
        assert dit_rate(2, 0.11, 1) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.50007, abs=5e-5)

    def test_uniform_output_gives_zero(self):
        for d in [2, 3, 10]:
            assert dit_rate(d, (d - 1) / d, 1) <= 1e-12

    def test_single_factors_beat_quantum_double_factors(self):
        for d, p in [(2, 0.01), (5, 0.02), (40, 0.005)]:
            classical = dit_rate(d, p, 1)
            quantum = dit_rate(d, p, 2)
            assert quantum < classical


class TestOptimize:
    def test_snr_1e4(self):
        params = at_snr(1e4)
        d_opt, rate = optimize_classical_d(params)
        cap = shannon_capacity(params)
        assert cap - rate <= 1.0
        assert rate == pytest.approx(5.9, abs=0.1)
        # scalar-loop reference scan over d <= 200
        best = max(
            concat_rate(d, params)
            for d in range(2, 201))
        assert rate == pytest.approx(best, rel=1e-12)

    def test_snr_1e3(self):
        params = at_snr(1e3)
        d_opt, rate = optimize_classical_d(params)
        cap = shannon_capacity(params)
        assert cap - rate <= 1.0
        best_d, best = max(
            ((d, concat_rate(d, params))
             for d in range(2, 201)), key=lambda t: t[1])
        assert (d_opt, rate) == (best_d, pytest.approx(best, rel=1e-12))

    def test_below_capacity_everywhere(self):
        for snr in np.geomspace(1.0, 1e6, 50):
            params = at_snr(float(snr))
            _, rate = optimize_classical_d(params)
            assert rate < shannon_capacity(params)

    def test_d_opt_pinned_on_readme_grid(self):
        # classical-rates --snr-grid 1:1e6:100
        d_opt = [optimize_classical_d(at_snr(float(snr)))[0] for snr in np.geomspace(1, 1e6, 100)]
        assert d_opt == [2] * 13 + [3] * 7 + [4] * 4 + [5] * 3 + [6] * 3 + [
            7, 7, 8, 8, 9, 9, 10, 11, 11, 12, 13, 14, 15, 16, 17, 18, 19, 21, 22, 24, 25, 27,
            29, 31, 33, 35, 38, 40, 43, 46, 49, 53, 56, 60, 64, 69, 74, 79, 84, 90, 97, 104,
            111, 119, 127, 136, 145, 156, 166, 178, 191, 204, 219, 234, 250, 268, 287, 307,
            329, 352, 377, 404, 432, 463, 496, 531, 568, 608, 651, 697]

    def test_pruned_scan_equals_exhaustive(self):
        # --snr-grid 1:1e10:50 and the README grid, against the argmax over every d
        for snr in np.concatenate([np.geomspace(1, 1e10, 50), np.geomspace(1, 1e6, 100)]):
            params = at_snr(float(snr))
            want = exhaustive_argmax(
                lambda d: concat_rate(d, params),
                max(2, math.ceil(8.0 * math.sqrt(params.snr))),
                lambda ds: dit_rate_screen(ds, signal_family(params), 1))
            assert optimize_classical_d(params) == want

    @settings(max_examples=60, deadline=None)
    @given(log_snr=st.floats(-1.0, 12.0), where=st.floats(0.0, 1.0),
           width=st.integers(0, 3000))
    @example(log_snr=-1.0, where=0.0, width=1)  # p(2) = 0.78 >= 2/3
    def test_block_bound_holds(self, log_snr, where, width):
        params = at_snr(10.0 ** log_snr)
        a = 2 + int(where * math.ceil(8.0 * math.sqrt(params.snr)))
        b = a + width
        upper = dit_rate_bound(signal_family(params), 1, a, b)
        rates = [concat_rate(d, params) for d in range(a, b + 1)]
        assert max(rates) <= upper + dit_rates._BOUND_SLACK
        if dit_error_prob(a, signal_family(params)) >= (b - 1) / b:  # every rate is 0
            assert upper == 0.0 and set(rates) == {0.0}

    def test_pruned_scan_evaluation_count(self, scan_evaluations):
        # SNR 1e14: 8e7 values of d; the pinned optimum is the exhaustive one
        assert optimize_classical_d(at_snr(1e14)) == (6254393, 22.399550511286744)
        assert 0 < len(scan_evaluations) <= 10**3

    def test_pruned_scan_evaluation_count_far_above_the_optimum(self, scan_evaluations):
        # SNR 0.6: d_opt = 4 and a best rate of 6e-4, with 2**53 values of d
        # above it, which the coupled bound prunes
        assert optimize_classical_d(at_snr(0.6), 2**53) == (4, 0.0006122035210165411)
        assert 0 < len(scan_evaluations) <= 10**4

    def test_d_opt_scales_like_sqrt_snr(self):
        for snr in [1e2, 1e3, 1e4]:
            d1, _ = optimize_classical_d(at_snr(snr))
            d100, _ = optimize_classical_d(at_snr(100.0 * snr))
            assert 8.0 <= d100 / d1 <= 12.0


class TestScaleInvariance:
    def test_all_rates(self):
        base = ClassicalParams(5.0, 0.02)
        for c in [0.1, 3.0]:
            scaled = ClassicalParams(5.0 * c, 0.02 * c)
            assert shannon_capacity(scaled) == shannon_capacity(base)
            assert debuda_rate(scaled) == debuda_rate(base)
            assert minkowski_lattice_rate(scaled) == minkowski_lattice_rate(base)
            assert dit_error_prob(9, signal_family(scaled)) == \
                dit_error_prob(9, signal_family(base))
            assert optimize_classical_d(scaled) == optimize_classical_d(base)


class TestValidation:
    def test_rejects_nonpositive_params(self):
        with pytest.raises(ValueError):
            ClassicalParams(0.0, 1.0)
        with pytest.raises(ValueError):
            ClassicalParams(1.0, -2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_params(self, bad):
        with pytest.raises(ValueError):
            ClassicalParams(bad, 1.0)
        with pytest.raises(ValueError):
            ClassicalParams(1.0, bad)

    def test_overflow_that_would_hide_p_refused(self):
        # P and sigma^2 enter only through sigma^2 / P: at P = sigma^2 = 1e308
        # nothing overflows, and p(2) is erfc(sqrt(1.5 / 4)), about 0.39, as at
        # P = sigma^2 = 1. A quotient that underflows to 0 is refused rather
        # than read as an infinite erfc argument
        assert optimize_classical_d(ClassicalParams(1e308, 1e308)) == \
            optimize_classical_d(ClassicalParams(1.0, 1.0))
        with pytest.raises(ValueError, match="leaves float64"):
            optimize_classical_d(ClassicalParams(1e308, 1e-308), 100)

    @pytest.mark.filterwarnings("error")
    def test_overflow_where_p_is_one_gives_zero_rate(self):
        # erfc(sqrt(1.5 / DBL_MAX)) is 1.0: p = 1 is exact where d^2 sigma^2 overflows
        assert optimize_classical_d(ClassicalParams(1.0, 1e300), 10**10) == (2, 0.0)
        assert [dit_error_prob(d, signal_family(at_snr(1e-300))) for d in (2, 10**10)] == [
            1.0, 1.0]

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            dit_rate(1, 0.1, 1)
        with pytest.raises(ValueError):
            [dit_rate(d, 0.1, 1) for d in (4, 1)]
