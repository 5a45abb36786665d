"""Grid-qudit error model, CSS rate formulas, and the nine-qudit code."""

import itertools
import math
import re
import tracemalloc
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfcinv
from scipy.stats import chi2_contingency

from gkplat import concatenated, dit_rates
from gkplat.channel_sim import NoiseModel, make_generator
from gkplat.concatenated import (
    CssCode,
    QuditPauliError,
    css_decode,
    min_distance_comparison,
    sample_qudit_errors,
    shor9_code,
    simulate_concatenated,
)
from gkplat.dit_rates import (
    dit_error_prob,
    dit_rate,
    dit_rate_bound,
    entropy_base_d,
    gkp_qudit_error_prob,
    optimize_dit_rate,
    optimize_qudit_dimension,
    qudit_family,
)
from gkplat.rates import coherent_information

from oracles import (dit_rate_screen, erfc_oracle, exhaustive_argmax, matmul_decode_sector,
                     normal_binned_qudit_errors, qudit_error_prob, qudit_shift_pmf,
                     trellis_sector_failure_prob, wilson_halfwidth)


def concat_rate(d, noise):
    """Qubit rate of the concatenated scheme at qudit dimension d."""
    return dit_rate(d, gkp_qudit_error_prob(d, noise), 2)


def sigma_sq_for_bound(d: int, p: float, hbar: float = 1.0) -> float:
    """Noise level at which the per-qudit erfc bound equals p."""
    return math.pi * hbar / (4.0 * d * float(erfcinv(p)) ** 2)


class TestErrorProbBound:
    def test_unit_argument(self):
        # sigma^2 = pi hbar / (4 d) makes the erfc argument exactly 1
        for d in [1, 2, 5]:
            noise = NoiseModel(math.pi / (4.0 * d))
            want = erfc_oracle(1.0)
            assert gkp_qudit_error_prob(d, noise) == pytest.approx(want, rel=1e-13)
            assert want == pytest.approx(0.15730, abs=5e-6)

    def test_small_noise_value(self):
        noise = NoiseModel(0.04)
        want = erfc_oracle(math.sqrt(math.pi / 0.32))
        assert gkp_qudit_error_prob(2, noise) == pytest.approx(want, rel=1e-13)
        assert want == pytest.approx(9.5e-6, rel=0.02)

    def test_increasing_in_d(self):
        noise = NoiseModel(0.05)
        probs = [gkp_qudit_error_prob(d, noise) for d in range(1, 40)]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_family_gives_the_formula_bits(self):
        # the dit_rates family keeps pi hbar / (4.0 d sigma^2) operation for
        # operation: d up to 2**53, sigma^2 in [1e-15, 1e3], hbar in [1e-3, 1e3]
        rng = np.random.default_rng(16)
        for _ in range(300):
            ds = np.concatenate([np.arange(1, 65),
                                 np.exp2(rng.uniform(1.0, 53.0, 64)).astype(np.int64)])
            noise = NoiseModel(10.0 ** rng.uniform(-15.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0))
            for d in ds.tolist():
                assert gkp_qudit_error_prob(d, noise).hex() == \
                    qudit_error_prob(d, noise.sigma_sq, noise.hbar).hex()

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(num=st.floats(5e-324, 1e308), s=st.floats(5e-324, 1e308),
           cj=st.sampled_from([(4.0, 1), (1.0, 2)]), d=st.integers(2, 2**53))
    @example(num=math.pi * 1e307, s=1e308, cj=(4.0, 1), d=2)
    @example(num=71.61, s=1.0, cj=(4.0, 1), d=2)
    def test_float64_domain_decided_by_dit_error_prob(self, num, s, cj, d):
        # either the family is refused, or p is erfc of the argument taken in
        # log space; never p = 1 where the true p is below 1. The first example
        # is gkp_qudit_error_prob(2, NoiseModel(1e308, 1e307)): 4 d sigma^2
        # overflows, but the true p is about 0.78. The second puts the
        # argument at z = 2.99, where an alternating Taylor series for erf
        # loses about 2e-9 of erfc to cancellation
        c, j = cj
        half_log_arg = 0.5 * (math.log(num) - math.log(c) - j * math.log(d) - math.log(s))
        want = erfc_oracle(math.exp(half_log_arg)) if half_log_arg < 709.0 else 0.0
        try:
            p = dit_error_prob(d, (num, c, j, s))
        except ValueError as err:
            assert "leaves float64" in str(err)
            return
        assert not (p == 1.0 and want < 1.0 - 1e-9)
        assert p == pytest.approx(want, rel=1e-9, abs=1e-300)


def _ulps(got: float, want) -> float:
    """|got - want| in units of the last place of the float nearest want."""
    return float(abs(mpmath.mpf(got) - want)) / math.ulp(float(want))


@pytest.mark.parametrize("family", ["qudit", "signal"])
def test_error_prob_within_3_ulp_of_mpmath(family):
    # libm's erfc against mpmath at 40 digits, at the float z = sqrt(num /
    # (c d^j s)) the family takes, over each family's whole float64 range
    # of p: z from 1e-8 to 27.3, where erfc underflows to 0
    rng = np.random.default_rng(23 if family == "qudit" else 29)
    worst = 0.0
    with mpmath.workdps(40):
        for z in np.exp(rng.uniform(math.log(1e-8), math.log(27.3), 3000)).tolist():
            d = int(np.exp2(rng.uniform(0.0, 53.0)))
            if family == "qudit":
                noise = NoiseModel(math.pi / (4.0 * d * z * z))
                got = gkp_qudit_error_prob(d, noise)
                z_float = math.sqrt(math.pi * noise.hbar / (4.0 * d * noise.sigma_sq))
            else:
                d = max(d, 2)
                params = (1.5, 1.0, 2, 1.5 / (float(d) * float(d) * z * z))
                got = dit_error_prob(d, params)
                z_float = math.sqrt(1.5 / (float(d) * float(d) * params[3]))
            want = mpmath.erfc(mpmath.mpf(z_float))
            worst = max(worst, _ulps(got, want) if want > 0 else abs(got) / 5e-324)
    assert worst <= 3.0


class TestEntropy:
    def test_degenerate(self):
        assert entropy_base_d(0.0, 2) == 0.0
        assert entropy_base_d(1.0, 5) == 0.0

    def test_half_binary(self):
        assert entropy_base_d(0.5, 2) == pytest.approx(1.0)

    def test_half_base_four(self):
        assert entropy_base_d(0.5, 4) == pytest.approx(0.5)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            entropy_base_d(-0.01, 2)
        with pytest.raises(ValueError):
            entropy_base_d(1.01, 2)
        with pytest.raises(ValueError, match="entropy base must be >= 2"):
            entropy_base_d(0.5, 1)


class TestCssRate:
    # dit_rate with k = 2: a CSS code over Z_d, in qubits
    def test_noiseless(self):
        for k in [1, 2]:
            assert dit_rate(7, 0.0, k) == math.log2(7)

    def test_binary_value(self):
        h = entropy_base_d(0.01, 2)
        assert dit_rate(2, 0.01, 2) == pytest.approx(1.0 - 2.0 * h, rel=1e-13)

    def test_clamped(self):
        assert dit_rate(2, 0.3, 2) == 0.0

    def test_min_over_sectors(self):
        # the rate falls as p grows, so of two sectors the one with the larger
        # p sets the rate: the rate at max(p_x, p_z) is the min over sectors
        assert dit_rate(3, 0.05, 2) == min(dit_rate(3, 0.001, 2), dit_rate(3, 0.05, 2))
        assert dit_rate(3, 0.001, 2) > dit_rate(3, 0.05, 2) > 0.0

    def test_symmetric_case_matches_single_sector_formula(self):
        for d, p in [(2, 0.01), (3, 0.02), (17, 0.001)]:
            expected = 1.0 - 2.0 * entropy_base_d(p, d) \
                - 2.0 * p * math.log(d - 1) / math.log(d)
            assert dit_rate(d, p, 2) == pytest.approx(math.log2(d) * expected, rel=1e-13)

    def test_clamp_inside_or_outside_the_log_agrees_to_the_bit(self):
        # log2 d > 0, so log2 d max(0, x) and max(0, log2 d x) are the same
        # floats, signed zeros included; from p = (d-1)/d on the rate is 0
        for d in range(2, 3000):
            log_ratio = math.log(d - 1) / math.log(d)
            for p in [0.0, 1e-9, 0.01, 0.3, 0.5, 0.9, 1.0]:
                for k in [1, 2]:
                    product = max(0.0, math.log2(d) * (1.0 - k * entropy_base_d(p, d)
                                                       - k * p * log_ratio))
                    expected = product if p < (d - 1) / d else 0.0
                    assert dit_rate(d, p, k).hex() == expected.hex()


class TestInputChecks:
    def test_inputs_are_checked(self):
        for p in [1.5, math.nan]:
            with pytest.raises(ValueError):
                entropy_base_d(p, 2)
        with pytest.raises(ValueError):
            dit_rate(1, 0.1, 2)
        with pytest.raises(ValueError):
            gkp_qudit_error_prob(0, NoiseModel(0.1))


class TestConcatRate:
    def test_approaches_log2_d(self):
        noise = NoiseModel(1e-6)
        for d in [2, 3, 8]:
            rate = concat_rate(d, noise)
            assert rate == pytest.approx(math.log2(d), rel=1e-6)
            assert rate <= math.log2(d)

    def test_small_noise_value(self):
        p = erfc_oracle(math.sqrt(math.pi / 0.32))
        expected = math.log2(2.0) * (1.0 - 2.0 * entropy_base_d(p, 2))
        assert concat_rate(2, NoiseModel(0.04)) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.999656, abs=5e-6)

    def test_never_exceeds_log2_d(self):
        for s in np.geomspace(1e-5, 0.3, 30):
            for d in [2, 5, 31]:
                assert concat_rate(d, NoiseModel(float(s))) <= math.log2(d)


class TestOptimize:
    @pytest.mark.parametrize("d_max", [None, 100])
    def test_zero_noise_refused(self, d_max):
        # no error at any d: refused before the default ceiling divides by sigma^2
        with pytest.raises(ValueError, match="sigma_sq = 0"):
            optimize_qudit_dimension(NoiseModel(0.0), d_max)

    def test_anchor_one_qubit_gap(self):
        noise = NoiseModel(1.88e-4)
        design = optimize_qudit_dimension(noise)
        gap = coherent_information(noise) - design.rate_qubits
        assert gap == pytest.approx(1.0, abs=0.05)

    def test_anchor_c_sq(self):
        design = optimize_qudit_dimension(NoiseModel(1.88e-4))
        assert design.c_sq == pytest.approx(1.0 / (2.0 * math.e), rel=0.10)

    def test_c_sq_band_where_rate_positive(self):
        for s in np.geomspace(1.88e-4, 0.2, 25):
            design = optimize_qudit_dimension(NoiseModel(float(s)))
            if design.rate_qubits > 0.0:
                assert 0.0 < design.c_sq < 1.0 / math.e

    def test_d_opt_tracks_c_sq_over_sigma_sq(self):
        for s in [1.88e-4, 1e-3, 1e-2]:
            design = optimize_qudit_dimension(NoiseModel(s))
            predicted = design.c_sq / s
            assert predicted / 2.0 <= design.d_opt <= predicted * 2.0

    def test_rate_consistency(self):
        design = optimize_qudit_dimension(NoiseModel(3e-3))
        assert design.rate_qubits == pytest.approx(
            math.log2(design.c_sq / design.sigma_sq), rel=1e-12)
        assert design.rate_qubits == pytest.approx(
            concat_rate(design.d_opt, NoiseModel(3e-3)), rel=1e-12)

    def test_strictly_below_coherent_information(self):
        for s in np.geomspace(1.88e-4, 0.3, 30):
            noise = NoiseModel(float(s))
            design = optimize_qudit_dimension(noise)
            assert design.rate_qubits < coherent_information(noise)

    def test_d_opt_pinned_on_readme_grid(self):
        # concat-rates --sigma-grid 0.0137:0.45:60
        d_opt = [optimize_qudit_dimension(NoiseModel(float(s) ** 2)).d_opt
                 for s in np.geomspace(0.0137, 0.45, 60)]
        assert d_opt == [
            1318, 1176, 1049, 936, 835, 745, 665, 593, 529, 472, 422, 376, 336, 300, 268,
            239, 214, 191, 171, 152, 136, 122, 109, 97, 87, 78, 70, 62, 56, 50, 45, 40, 36,
            32, 29, 26, 23, 21, 19, 17, 15, 13, 12, 11, 10, 9, 8, 7, 6, 6, 5, 5, 4, 4, 4, 3,
            3, 3, 3, 2]

    def test_scan_memory_bounded(self):
        # 8e6 values of d; one array over the whole range would take about 490 MB
        tracemalloc.start()
        try:
            design = optimize_qudit_dimension(NoiseModel(1e-6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert (design.d_opt, design.rate_qubits) == (216623, 17.35210724242679)

    def test_scan_blocks_agree_with_one_array(self, monkeypatch):
        # a rate with many ties, split into blocks of 7: the maximum is found,
        # at a d that attains it, with an infinite bound (blocks pop in
        # ascending d) and with one growing with d (they pop in descending d)
        def rate(d):
            return round(math.sin(0.37 * d), 1)
        family = qudit_family(NoiseModel(0.1))
        monkeypatch.setattr(dit_rates, "_SCAN_CHUNK", 7)
        monkeypatch.setattr(dit_rates, "dit_rate", lambda d, p, k: rate(d))
        for bound in [lambda f, k, a, b: math.inf, lambda f, k, a, b: float(b)]:
            monkeypatch.setattr(dit_rates, "dit_rate_bound", bound)
            for d_max in range(2, 60):
                d, best = optimize_dit_rate(family, 2, d_max)
                assert best == max(map(rate, range(2, d_max + 1)))
                assert 2 <= d <= d_max and rate(d) == best
        monkeypatch.setattr(dit_rates, "dit_rate", lambda d, p, k: 0.0)
        d, best = optimize_dit_rate(family, 2, 40)
        assert 2 <= d <= 40 and best == 0.0
        with pytest.raises(ValueError):
            optimize_dit_rate(family, 2, 1)

    def test_pruned_scan_equals_exhaustive(self):
        # the README grid, --sigma-grid 1e-3:0.0137:3 and the anchor, against
        # the argmax over every d
        sigma_sq = [float(s) ** 2 for s in np.geomspace(0.0137, 0.45, 60)]
        sigma_sq += [float(s) ** 2 for s in np.geomspace(1e-3, 0.0137, 3)] + [1.88e-4]
        for s in sigma_sq:
            noise = NoiseModel(s)
            design = optimize_qudit_dimension(noise)
            want = exhaustive_argmax(lambda d: concat_rate(d, noise),
                                     max(2, math.ceil(8.0 / s)),
                                     partial(dit_rate_screen, family=qudit_family(noise), k=2))
            assert (design.d_opt, design.rate_qubits) == want

    def test_pruned_scan_evaluation_count(self, scan_evaluations):
        design = optimize_qudit_dimension(NoiseModel(1e-6))  # sigma = 1e-3: 8e6 values of d
        assert (design.d_opt, design.rate_qubits) == (216623, 17.35210724242679)
        assert 0 < len(scan_evaluations) <= 10**3

    def test_pruned_scan_evaluation_count_at_small_noise(self, scan_evaluations):
        # sigma = 1e-4: 8e8 values of d; the exhaustive first maximum is
        # (20102594, 23.91567380116969), and the scan stops within the slack of it
        design = optimize_qudit_dimension(NoiseModel(1e-8))
        assert (design.d_opt, design.rate_qubits) == (20102593, 23.915673801169685)
        assert abs(design.rate_qubits - 23.91567380116969) <= \
            dit_rates._BOUND_SLACK * (1.0 + design.rate_qubits)
        assert 0 < len(scan_evaluations) <= 32

    def test_pruned_scan_evaluation_count_at_tiny_noise(self, scan_evaluations):
        # sigma = 1e-6: 8e12 values of d, about 1e6 of them within the slack
        # 1e-12 of the best rate, where the rate is flat to the last bits; the
        # first of them, 182125363210, has the rate 37.09387387135325
        design = optimize_qudit_dimension(NoiseModel(1e-12))
        assert (design.d_opt, design.rate_qubits) == (182125374866, 37.09387387135325)
        assert abs(design.rate_qubits - 37.09387387135325) <= \
            dit_rates._BOUND_SLACK * (1.0 + design.rate_qubits)
        assert 0 < len(scan_evaluations) <= 32

    @pytest.mark.parametrize("chunk,sigma_sq,d_max", [
        (1 << 16, 0.45 ** 2, None), (1 << 16, 1.88e-4, None), (1 << 16, 1e-5, None),
        (1 << 16, 1e-6, None), (1 << 16, 0.01, 10**8),
        (64, 1e-4, None), (64, 0.0137 ** 2, 10**6), (7, 0.3, 10**5),
        (16, 1e-4, None), (16, 0.0137 ** 2, 10**6),
    ])
    def test_best_first_blocks_are_block_scan_blocks(self, monkeypatch, chunk, sigma_sq,
                                                     d_max):
        # reference: test the bound on each block in turn, evaluate the blocks
        # it keeps; best-first order can only prune more of them
        monkeypatch.setattr(dit_rates, "_SCAN_CHUNK", chunk)
        noise = NoiseModel(sigma_sq)
        d_max = d_max or math.ceil(8.0 / sigma_sq)
        upper = partial(dit_rate_bound, qudit_family(noise), 2)
        best, want = (0, -math.inf), set()
        for start in range(2, d_max + 1, chunk):
            end = min(start + chunk - 1, d_max)
            if upper(start, end) + dit_rates._BOUND_SLACK * (1.0 + abs(best[1])) <= best[1]:
                continue
            want.add(start)
            for d in range(start, end + 1):
                rate = concat_rate(d, noise)
                if rate > best[1]:
                    best = (d, rate)
        got, rate = [], dit_rates.dit_rate
        monkeypatch.setattr(dit_rates, "dit_rate", lambda d, p, k:
                            got.append(d) or rate(d, p, k))
        assert optimize_dit_rate(qudit_family(noise), 2, d_max) == best
        assert got and {d - (d - 2) % chunk for d in got} <= want
        assert len(got) == len(set(got))

    def test_optimize_dit_rate_pairs_rate_and_bound(self, monkeypatch):
        # one (family, k) feeds both the rate and every bound call; the result
        # is the exhaustive first maximum for either k
        family = qudit_family(NoiseModel(1e-3))
        bounds, bound = [], dit_rates.dit_rate_bound
        monkeypatch.setattr(dit_rates, "dit_rate_bound", lambda f, k, a, b:
                            bounds.append((f, k)) or bound(f, k, a, b))
        for k in [1, 2]:
            bounds.clear()
            want = exhaustive_argmax(lambda d: dit_rate(d, dit_error_prob(d, family), k),
                                     8000)
            assert optimize_dit_rate(family, k, 8000) == want
            assert bounds and set(bounds) == {(family, k)}

    def test_scan_ceiling_is_two_to_the_53(self):
        noise = NoiseModel(0.01)
        assert optimize_qudit_dimension(noise, 2**53).d_opt == 30
        for d_max in (2**53 + 1, 2.5, True, np.float64(8.0)):  # out of range, or no int
            with pytest.raises(ValueError, match="2\\*\\*53"):
                optimize_qudit_dimension(noise, d_max)
        assert dit_rates.scan_ceiling(2.0**53, "bound") == 2**53
        with pytest.raises(ValueError, match="sigma_sq"):
            optimize_qudit_dimension(NoiseModel(7.9 / 2**53))  # default ceiling above 2**53

    @settings(max_examples=60, deadline=None)
    @given(log_sigma_sq=st.floats(-7.0, 0.5), hbar=st.sampled_from([0.5, 1.0, 3.0]),
           where=st.floats(0.0, 1.0), width=st.integers(0, 3000))
    @example(log_sigma_sq=0.5, hbar=0.5, where=0.0, width=1)  # p(2) = 0.72 >= 2/3
    def test_block_bound_holds(self, log_sigma_sq, hbar, where, width):
        noise = NoiseModel(10.0 ** log_sigma_sq, hbar)
        a = 2 + int(where * math.ceil(8.0 * hbar / noise.sigma_sq))
        b = a + width
        upper = dit_rate_bound(qudit_family(noise), 2, a, b)
        rates = [concat_rate(d, noise) for d in range(a, b + 1)]
        assert max(rates) <= upper + dit_rates._BOUND_SLACK
        if gkp_qudit_error_prob(a, noise) >= (b - 1) / b:  # every rate on [a, b] is 0
            assert upper == 0.0 and set(rates) == {0.0}

    def test_c_sq_slowly_varying(self):
        # variation of log2(c_sq) within each decade of sigma^2 stays under a bit
        grid = np.geomspace(1.88e-4, 0.188, 41)
        logs = np.array([math.log2(optimize_qudit_dimension(NoiseModel(float(s))).c_sq)
                         for s in grid])
        per_decade = 10.0 / 3.0  # grid points per decade: 40 points over 3 decades
        window = int(round(40 / 3))
        for start in range(0, len(logs) - window):
            chunk = logs[start:start + window + 1]
            assert chunk.max() - chunk.min() <= 1.0


class TestChannelSample:
    def test_rejects_d_one(self):
        with pytest.raises(ValueError, match="qudit dimension must be >= 2"):
            sample_qudit_errors(1, NoiseModel(0.1), make_generator(1), 1)

    def test_vanishing_noise(self):
        gen = make_generator(50)
        a, b = sample_qudit_errors(3, NoiseModel(1e-8), gen, 1)
        assert a.tolist() == b.tolist() == [0]

    @pytest.mark.parametrize("d,p_target", [(2, 0.002), (2, 0.05), (3, 0.2)])
    def test_erfc_bound_tightness(self, d, p_target):
        sigma_sq = sigma_sq_for_bound(d, p_target)
        noise = NoiseModel(sigma_sq)
        bound = gkp_qudit_error_prob(d, noise)
        gen = make_generator(60 + d)
        a, _ = sample_qudit_errors(d, noise, gen, 1_000_000)
        p_hat = float((a != 0).mean())
        stderr = math.sqrt(bound * (1.0 - bound) / 1_000_000)
        assert p_hat <= bound + 3.0 * stderr
        assert p_hat >= 0.95 * bound

    def test_matches_wrapped_pmf(self):
        d, sigma_sq = 3, 0.12
        noise = NoiseModel(sigma_sq)
        pmf = qudit_shift_pmf(d, math.sqrt(sigma_sq))
        gen = make_generator(61)
        a, _ = sample_qudit_errors(d, noise, gen, 500_000)
        for v in range(d):
            p_hat = float((a == v).mean())
            half = wilson_halfwidth(p_hat, 500_000)
            assert abs(p_hat - pmf[v]) <= 3.0 * half

    @pytest.mark.parametrize("d", [2, 10, 1448])
    @pytest.mark.parametrize("size", [1, 40_000, (29_127, 9)])
    def test_chunked_draw_equals_one_shot(self, d, size):
        # the normal-binning reference: 80,000 and 524,286 normals are not
        # multiples of its 2**16 chunk
        noise = NoiseModel(0.05)
        sigma, delta = math.sqrt(noise.sigma_sq), math.sqrt(2.0 * math.pi * noise.hbar / d)
        gen, ref = make_generator(63), make_generator(63)
        a, b = normal_binned_qudit_errors(d, noise, gen, size)
        shape = (2,) + (size if isinstance(size, tuple) else (size,))
        want = np.rint(ref.standard_normal(shape) * sigma / delta).astype(np.int64) % d
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, want[0]) and np.array_equal(b, want[1])
        assert repr(gen.bit_generator.state) == repr(ref.bit_generator.state)

    @pytest.mark.parametrize("d,sigma_sq,size", [(10, 0.05, (29_127, 9)), (5, 0.3, 40_000),
                                                  (3, 1e-30, (100, 9))])
    def test_draw_cells_are_the_nonzero_entries(self, d, sigma_sq, size):
        # the cells the block decoder takes in place of a pass over the
        # block, from the draw sample_qudit_errors makes; q = 0 gives none
        noise = NoiseModel(sigma_sq)
        gen, ref = make_generator(80), make_generator(80)
        a, b, *cells = concatenated._draw(*concatenated._nonzero_shifts(d, noise), gen, size)
        want = sample_qudit_errors(d, noise, ref, size)
        assert repr(gen.bit_generator.state) == repr(ref.bit_generator.state)
        assert (sigma_sq == 1e-30) == (len(cells[0][0]) + len(cells[1][0]) == 0)
        for x, w, (hits, values) in zip((a, b), want, cells):
            assert np.array_equal(x, w)
            assert hits.dtype == values.dtype == np.int64
            assert hits.base is None  # no view keeps a geometric buffer alive
            assert np.array_equal(hits, np.flatnonzero(x))
            assert np.array_equal(values, x.reshape(-1)[hits])

    def test_draw_cells_over_several_gap_draws(self):
        gen = ShortFirstGaps(make_generator(81))
        shifts = concatenated._nonzero_shifts(10, NoiseModel(0.05))
        a, b, *cells = concatenated._draw(*shifts, gen, (1000, 9))
        assert gen.draws >= 2
        assert a.reshape(-1)[:1000].all()  # gaps of one: the first draw covers 1,517 cells
        for x, (hits, values) in zip((a, b), cells):
            assert np.array_equal(hits, np.flatnonzero(x))
            assert np.array_equal(values, x.reshape(-1)[hits])

    @pytest.mark.parametrize("d", [2, 3, 1448, 2**40 + 1, 2**53 - 1])
    def test_float_binning_exact_up_to_its_limit(self, d):
        # the normal-binning reference, at shifts s at and around
        # |s| + d = 2**53: binned as int64 % d, or refused
        noise = NoiseModel(1.0)  # sigma = 1
        delta = math.sqrt(2.0 * math.pi * noise.hbar / d)
        for target in (0, 1, d - 1, d, 2**52, 2**53 - d - 2, 2**53 - d, 2**53 - d + 2,
                       2**53 - 1, 2**53):
            for sign in (1, -1):
                x = sign * target * delta
                s = float(np.rint(x * 1.0 / delta))  # the function's own float steps
                if abs(s) + d < 2**53:
                    a, b = normal_binned_qudit_errors(d, noise, FixedNormals([x, -x]), 1)
                    assert a.dtype == b.dtype == np.int64
                    assert (int(a[0]), int(b[0])) == (int(s) % d, int(-s) % d)
                else:
                    with pytest.raises(ValueError, match=r"\|s\| \+ d >= 2\*\*53"):
                        normal_binned_qudit_errors(d, noise, FixedNormals([x, -x]), 1)

    def test_qudit_dimension_must_be_an_integer_below_2_to_the_53(self):
        with pytest.raises(TypeError):
            sample_qudit_errors(2.0, NoiseModel(0.1), make_generator(1), 1)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            sample_qudit_errors(2**53, NoiseModel(1e-30), make_generator(1), 1)

    def test_batch_memory_bounded(self):
        # one full block of shor9 at d = 10: sampling, then decoding
        code = shor9_code(10)
        rows = concatenated._BATCH_TRIALS // code.n
        gen = make_generator(64)
        tracemalloc.start()
        try:
            a, b = sample_qudit_errors(code.d, NoiseModel(0.05), gen, (rows, code.n))
            failed = concatenated._batch_failures(code, a, b)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        assert 0 < failed.sum() < rows

    def test_x_z_independent(self):
        noise = NoiseModel(sigma_sq_for_bound(2, 0.1))
        gen = make_generator(62)
        a, b = sample_qudit_errors(2, noise, gen, 200_000)
        table = np.array([[((a == 0) & (b == 0)).sum(), ((a == 0) & (b != 0)).sum()],
                          [((a != 0) & (b == 0)).sum(), ((a != 0) & (b != 0)).sum()]])
        assert chi2_contingency(table).pvalue > 0.001

    @pytest.mark.parametrize("sigma_sq", [1e-8, 1e-30])
    def test_no_nonzero_cell_where_every_tail_underflows(self, sigma_sq):
        # q = 0: a whole block of zeros, and nothing asked of the generator
        noise = NoiseModel(sigma_sq)
        assert concatenated._nonzero_shifts(3, noise)[2] == 0.0
        gen = make_generator(65)
        state = repr(gen.bit_generator.state)
        a, b = sample_qudit_errors(3, noise, gen, (29_127, 9))
        assert not a.any() and not b.any()
        assert repr(gen.bit_generator.state) == state

    @pytest.mark.parametrize("sigma_sq", [8e-4, 4e-4])
    def test_tiny_q_gap_stays_in_int64(self, sigma_sq):
        # rng.geometric(q) returns 2**63 - 1 for such q; the gap is cut to
        # the block, so summing gaps cannot wrap to a cell inside it
        noise = NoiseModel(sigma_sq)
        q = concatenated._nonzero_shifts(3, noise)[2]
        assert 0.0 < q <= 1e-116
        assert make_generator(66).geometric(q) == 2**63 - 1
        a, b = sample_qudit_errors(3, noise, make_generator(66), (29_127, 9))
        assert not a.any() and not b.any()

    @pytest.mark.parametrize("d", [2, 3, 5, 10, 37])
    @pytest.mark.parametrize("sigma_sq", [0.01, 0.05, 0.5, 5.0])
    def test_pmf_matches_wrap_sum_oracle(self, d, sigma_sq):
        # both the direct window and, from sigma = d delta / 4 on (at
        # sigma^2 = 5 for d <= 10), the Poisson-summed series
        residues, cdf, q = concatenated._nonzero_shifts(d, NoiseModel(sigma_sq))
        pmf = np.zeros(d)
        np.add.at(pmf, residues, np.diff(cdf, prepend=0.0) * q)
        pmf[0] = 1.0 - q
        want = qudit_shift_pmf(d, math.sqrt(sigma_sq))
        assert np.abs(pmf - want).max() <= 1e-12

    @pytest.mark.parametrize("sigma_sq", [1e-3, 1e-2])
    def test_q_keeps_its_precision_at_small_noise(self, sigma_sq):
        # 1 - pmf[0] would be 0 or off by 1e-4 relative here; q is within
        # 1e-12 relative of mpmath's 50-digit sum over m != 0 mod 3
        d = 3
        q = concatenated._nonzero_shifts(d, NoiseModel(sigma_sq))[2]
        with mpmath.workdps(50):
            scale = mpmath.sqrt(2 * mpmath.mpf(sigma_sq) * d / (2 * mpmath.pi))
            want = sum(mpmath.erfc((m - mpmath.mpf(0.5)) / scale)
                       - mpmath.erfc((m + mpmath.mpf(0.5)) / scale)
                       for m in range(1, 40) if m % d)
        assert float(want) > 0.0
        assert q == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 10, 1448])
    @pytest.mark.parametrize("sigma_sq", [0.05, 0.5, 5.0])
    def test_counts_match_normal_binning_reference(self, d, sigma_sq):
        noise = NoiseModel(sigma_sq)
        got = np.concatenate(sample_qudit_errors(d, noise, make_generator(67), 200_000))
        ref = np.concatenate(normal_binned_qudit_errors(d, noise, make_generator(68), 200_000))
        counts = np.array([np.bincount(got, minlength=d), np.bincount(ref, minlength=d)])
        assert chi2_contingency(pooled_columns(counts)).pvalue > 1e-3

    def test_joint_xz_counts_match_normal_binning_reference(self):
        d, noise = 3, NoiseModel(0.5)
        got = sample_qudit_errors(d, noise, make_generator(69), 200_000)
        ref = normal_binned_qudit_errors(d, noise, make_generator(70), 200_000)
        counts = np.array([np.bincount(a * d + b, minlength=d * d) for a, b in (got, ref)])
        assert chi2_contingency(pooled_columns(counts)).pvalue > 1e-3

    @settings(max_examples=120, deadline=None)
    @given(d=st.one_of(st.integers(2, 1448), st.sampled_from([2**40 + 1, 2**53 - 1])),
           sigma_sq=st.sampled_from([5e-324, 1e-308, 1e-8, 0.05, 1e6, 1e40, 1e300]),
           hbar=st.sampled_from([1e-3, 1.0, 1e3]))
    @example(d=2**53 - 1, sigma_sq=1e-8, hbar=1.0)  # 35,680 erfc terms, far fewer than d
    @example(d=2**53 - 1, sigma_sq=0.05, hbar=1.0)  # refused: about 8e7 erfc terms
    @example(d=1448, sigma_sq=1e6, hbar=1e-3)       # the series, uniform on Z_d
    @example(d=3, sigma_sq=1e300, hbar=1e-3)        # sigma^2 d / hbar overflows
    def test_bounded_work_at_every_input(self, d, sigma_sq, hbar):
        # int64 exponents in [0, d), or one ValueError before any pmf term;
        # at most 2**16 erfc or cosine terms and 8 MiB traced either way
        terms, erfc, cos = [], math.erfc, np.cos
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(math, "erfc", lambda x: terms.append(1) or erfc(x))
            patch.setattr(np, "cos", lambda x: terms.append(np.size(x)) or cos(x))
            tracemalloc.start()
            try:
                a, b = sample_qudit_errors(d, NoiseModel(sigma_sq, hbar), make_generator(71),
                                           (100, 9))
            except ValueError as err:
                assert re.fullmatch(r"the qudit shift pmf at .* needs \d+ terms, more than "
                                    r"2\*\*16|sigma_sq d / hbar overflows float64 at .*",
                                    str(err))
                assert terms == []
                a = b = np.zeros((100, 9), dtype=np.int64)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        assert concatenated._MAX_TERMS == 2**16
        assert sum(terms) <= 2**16
        assert peak <= 8 * 2**20
        for x in (a, b):
            assert x.dtype == np.int64 and x.shape == (100, 9)
            assert 0 <= x.min() and x.max() < d


def pooled_columns(counts: np.ndarray) -> np.ndarray:
    """Columns of a two-row count table with at least 20 counts, then one
    column pooling the others if they hold any."""
    keep = counts.sum(axis=0) >= 20
    rest = counts[:, ~keep].sum(axis=1, keepdims=True)
    return np.hstack([counts[:, keep]] + ([rest] if rest.any() else []))


class FixedNormals:
    """Stands in for a generator: standard_normal(out=...) copies out the
    given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def standard_normal(self, out):
        out[:] = self.values[:len(out)]


class ShortFirstGaps:
    """Stands in for a generator whose first geometric draw is all ones:
    those gaps cover fewer cells than the block, so the gap loop runs
    again, on the wrapped generator's draws."""

    def __init__(self, gen):
        self.gen, self.draws = gen, 0

    def geometric(self, q, size):
        self.draws += 1
        return np.ones(size, dtype=np.int64) if self.draws == 1 else self.gen.geometric(q, size)

    def random(self, size):
        return self.gen.random(size)


def all_single_errors(d):
    for pos in range(9):
        for a in range(d):
            for b in range(d):
                if a == 0 and b == 0:
                    continue
                err = [QuditPauliError(0, 0)] * 9
                err[pos] = QuditPauliError(a, b)
                yield pos, a, b, err


class TestShor9:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_orthogonality(self, d):
        code = shor9_code(d)
        assert not ((code.hx @ code.hz.T) % d).any()

    def test_d3_single_error_syndromes_correctable(self):
        code = shor9_code(3)
        seen = set()
        for pos, a, b, err in all_single_errors(3):
            synd = (tuple((code.hz @ [e.a for e in err]) % 3),
                    tuple((code.hx @ [e.b for e in err]) % 3))
            seen.add(synd)
            _, failure = css_decode(code, err)
            assert not failure, (pos, a, b)
        assert len([s for s in seen]) > 0
        # X-sector syndromes of distinct single X errors never collide
        x_synds = {}
        for pos in range(9):
            for a in range(1, 3):
                vec = np.zeros(9, dtype=int)
                vec[pos] = a
                key = tuple((code.hz @ vec) % 3)
                assert key not in x_synds
                x_synds[key] = (pos, a)
        assert len(x_synds) == 18

    def test_weight_zero(self):
        code = shor9_code(2)
        correction, failure = css_decode(code, [QuditPauliError(0, 0)] * 9)
        assert not failure
        assert all((c.a, c.b) == (0, 0) for c in correction)

    @pytest.mark.parametrize("d", [2, 3])
    def test_all_single_errors_corrected(self, d):
        code = shor9_code(d)
        for pos, a, b, err in all_single_errors(d):
            _, failure = css_decode(code, err)
            assert not failure, (pos, a, b)

    def test_d1000_single_errors_corrected(self):
        # sectors decode independently, so X^v Z^(d-v) covers every nonzero
        # exponent of both sectors at each position
        d = 1000
        code = shor9_code(d)
        for pos in range(9):
            for v in range(1, d):
                err = [QuditPauliError(0, 0)] * 9
                err[pos] = QuditPauliError(v, d - v)
                correction, failure = css_decode(code, err)
                assert not failure, (pos, v)
                assert correction[pos].a == v  # Z corrections agree up to a stabilizer

    def test_syndrome_keys_must_fit_int64(self):
        assert shor9_code(1448).d == 1448   # 1448**6 < 2**63
        with pytest.raises(ValueError):
            shor9_code(1449)

    def test_block_length_mismatch(self):
        with pytest.raises(ValueError):
            css_decode(shor9_code(2), [QuditPauliError(0, 0)] * 5)

    @pytest.mark.parametrize("d", [*range(2, 61), 97, 128, 255, 1000, 1448])
    def test_tables_match_dict_reference(self, d):
        code = shor9_code(d)
        for got, want in zip((code.x_table, code.z_table), dict_tables(code)):
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w)


def oracle_codes():
    """Codes for the decoder comparison: shor9 at both ends of concat-sim's
    range and between, the mod-3 code with a coefficient 2, the bare qudit
    with empty check matrices, and a code with all-zero check and logical
    rows."""
    ones = np.array([[1, 1, 1]], dtype=np.int64)
    empty, one = np.zeros((0, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int64)
    zero_rows = CssCode(d=3, hz=np.array([[1, -1, 0], [0, 0, 0], [0, 1, -1]], dtype=np.int64),
                        hx=np.zeros((1, 3), dtype=np.int64),
                        logical_x=np.array([[1, 1, 1], [0, 0, 0]], dtype=np.int64),
                        logical_z=np.array([[1, 0, 0]], dtype=np.int64))
    return [pytest.param(shor9_code(d), id=f"shor9-d{d}") for d in (2, 3, 10, 1448)] + [
        pytest.param(CssCode(d=3, hz=np.array([[1, 2, 0]], dtype=np.int64), hx=ones,
                             logical_x=ones, logical_z=ones), id="coefficient-2"),
        pytest.param(CssCode(d=5, hz=empty, hx=empty, logical_x=one, logical_z=one),
                     id="bare-qudit"),
        pytest.param(zero_rows, id="zero-rows"),
    ]


def mixed_block(code: CssCode, rng, rows: int = 3000) -> np.ndarray:
    """(rows, n) exponents in [0, d), a fifth of the rows each: all zero,
    one nonzero entry, two (one where n = 1), nonzero everywhere, drawn
    over the full range."""
    d, n = code.d, code.n
    kind = rng.integers(0, 5, rows)
    block = rng.integers(0, d, (rows, n))
    block[kind == 3] = rng.integers(1, d, (int((kind == 3).sum()), n))
    block[kind < 3] = 0
    for cells in (1, 2):
        few = np.flatnonzero(kind == cells)
        columns = np.argsort(rng.random((len(few), n)), axis=1)[:, :cells]
        block[few[:, None], columns] = rng.integers(1, d, (len(few), min(cells, n)))
    return block


def nonzero_cells(block: np.ndarray):
    """Sorted flat indices of a block's nonzero entries, and the entries."""
    hits = np.flatnonzero(block)
    return hits, block.reshape(-1)[hits]


class TestBlockDecoderOracle:
    @pytest.mark.parametrize("code", oracle_codes())
    def test_zero_error_is_row_zero(self, code):
        # why an all-zero row may skip decoding: it keeps row 0 and never fails
        for keys, corrections, _, pairing, *_ in (code.x_table, code.z_table):
            assert keys[0] == 0
            assert not corrections[0].any() and not pairing[0].any()

    @pytest.mark.parametrize("code", oracle_codes())
    def test_single_error_outcomes_match_matmul_decoder(self, code):
        # the stored outcome of each single error, position-major and
        # value-minor; shor9 corrects them all, the other codes fail some
        d, n = code.d, code.n
        single = np.arange(n * (d - 1))
        errors = np.zeros((len(single), n), dtype=np.int64)
        errors[single, single // (d - 1)] = single % (d - 1) + 1
        failing = 0
        for checks, table, opposite in ((code.hz, code.x_table, code.logical_z),
                                        (code.hx, code.z_table, code.logical_x)):
            row, failed = matmul_decode_sector(d, errors, checks, table, opposite)
            assert table[4].dtype == np.int64 and table[5].dtype == bool
            assert np.array_equal(table[4], row) and np.array_equal(table[5], failed)
            failing += failed.sum()
        assert (failing == 0) == (code.hz.shape == (6, 9))

    @pytest.mark.parametrize("code", oracle_codes())
    def test_rows_and_failures_match_matmul_decoder(self, code):
        # through the dense entry and the cell entry simulate_concatenated uses
        rng = np.random.default_rng(code.d)
        a, b = mixed_block(code, rng), mixed_block(code, rng)
        zero = np.zeros_like(a)
        want_a, bad_a = matmul_decode_sector(code.d, a, code.hz, code.x_table, code.logical_z)
        want_b, bad_b = matmul_decode_sector(code.d, b, code.hx, code.z_table, code.logical_x)
        assert 0 < bad_a.sum() + bad_b.sum()
        by_cells = partial(concatenated._decode_block, code)
        for x, z, rows_x, rows_z, failed in [(a, zero, want_a, 0, bad_a),
                                             (zero, b, 0, want_b, bad_b),
                                             (a, b, want_a, want_b, bad_a | bad_b)]:
            for got_x, got_z, got_failed in (
                    concatenated._batch_failures(code, x, z),
                    by_cells(x, z, nonzero_cells(x), nonzero_cells(z))):
                assert got_x.dtype == got_z.dtype == np.int64
                assert np.array_equal(got_x, np.broadcast_to(rows_x, len(x)))
                assert np.array_equal(got_z, np.broadcast_to(rows_z, len(z)))
                assert np.array_equal(got_failed, failed)
        for empty in (concatenated._batch_failures(code, a[:0], b[:0]),
                      by_cells(a[:0], b[:0], nonzero_cells(a[:0]), nonzero_cells(b[:0]))):
            assert [len(x) for x in empty] == [0, 0, 0]

    def test_only_multi_cell_rows_reach_searchsorted(self, monkeypatch):
        # one d = 10 block: the syndromes searched are those of the rows
        # with two or more nonzero cells, in row order, X sector first
        code = shor9_code(10)
        shifts = concatenated._nonzero_shifts(code.d, NoiseModel(0.05))
        rows = concatenated._BATCH_TRIALS // code.n
        a, b, *cells = concatenated._draw(*shifts, make_generator(19), (rows, code.n))
        needles, searchsorted = [], np.searchsorted
        tables = (code.x_table, code.z_table)

        def spy(keys, v, *args, **kwargs):
            if any(keys is table[0] for table in tables):
                needles.append(v.copy())
            return searchsorted(keys, v, *args, **kwargs)
        monkeypatch.setattr(np, "searchsorted", spy)
        failed = concatenated._decode_block(code, a, b, *cells)[2]
        monkeypatch.undo()
        want = [((x[(x != 0).sum(axis=1) >= 2] @ checks.T) % code.d) @ table[2]
                for x, checks, table in zip((a, b), (code.hz, code.hx), tables)]
        assert 0.1 * rows < len(want[0]) < 0.2 * rows and 0.1 * rows < len(want[1]) < 0.2 * rows
        assert np.array_equal(np.concatenate(needles), np.concatenate(want))
        assert np.array_equal(failed, concatenated._batch_failures(code, a, b)[2])


def dict_tables(code: CssCode):
    """Reference (keys, corrections, weights, pairing) of both sectors,
    built as a dict of ("X"|"Z", syndrome tuple) entries over the zero
    error and the single errors in a loop, then sorted by key: X entries
    overwrite, Z entries keep the first error with their syndrome."""
    d, n = code.d, code.n
    table = {("X", (0,) * len(code.hz)): np.zeros(n, dtype=np.int64),
             ("Z", (0,) * len(code.hx)): np.zeros(n, dtype=np.int64)}
    for pos in range(n):
        for val in range(1, d):
            err = np.zeros(n, dtype=np.int64)
            err[pos] = val
            table[("X", tuple((code.hz @ err) % d))] = err
            table.setdefault(("Z", tuple((code.hx @ err) % d)), err)
    tables = []
    for sector, checks, opposite in (("X", code.hz, code.logical_z),
                                     ("Z", code.hx, code.logical_x)):
        weights = d ** np.arange(len(checks) - 1, -1, -1, dtype=np.int64)
        entries = sorted(((int(np.array(synd, dtype=np.int64) @ weights), corr)
                          for (sec, synd), corr in table.items() if sec == sector),
                         key=lambda entry: entry[0])
        keys = np.array([key for key, _ in entries] + [np.iinfo(np.int64).max], dtype=np.int64)
        corrections = np.zeros((len(keys), n), dtype=np.int64)
        corrections[:-1] = [corr for _, corr in entries]
        tables.append((keys, corrections, weights, (corrections @ opposite.T) % d))
    return tables


def brute_force_coset_failure(code: CssCode, a_vec: np.ndarray) -> bool:
    """Minimal-weight X-sector decoding by exhausting all d^n error vectors."""
    d, n = code.d, code.n
    synd = tuple((code.hz @ a_vec) % d)
    best = None
    for cand in itertools.product(range(d), repeat=n):
        cand = np.array(cand, dtype=np.int64)
        if tuple((code.hz @ cand) % d) != synd:
            continue
        w = int((cand != 0).sum())
        if best is None or w < best[0]:
            best = (w, cand)
    residual = (a_vec - best[1]) % d
    return bool(((residual @ code.logical_z.T) % d).any())


class TestWeightTwo:
    def test_same_block_equal_exponent_pairs_match_brute_force(self):
        code = shor9_code(2)
        for block in range(3):
            for i, j in [(0, 1), (0, 2), (1, 2)]:
                a_vec = np.zeros(9, dtype=np.int64)
                a_vec[3 * block + i] = 1
                a_vec[3 * block + j] = 1
                err = [QuditPauliError(int(v), 0) for v in a_vec]
                _, failure = css_decode(code, err)
                assert failure == brute_force_coset_failure(code, a_vec)
                assert failure  # weight 2 in one block defeats a distance-3 code

    def test_cross_block_pairs_flagged_without_correction(self):
        # the weight-1 table has no entry for these syndromes; decoding
        # conservatively reports failure even though a weight-2 correction exists
        code = shor9_code(2)
        a_vec = np.zeros(9, dtype=np.int64)
        a_vec[0] = a_vec[3] = 1
        err = [QuditPauliError(int(v), 0) for v in a_vec]
        correction, failure = css_decode(code, err)
        assert failure
        assert all((c.a, c.b) == (0, 0) for c in correction)
        assert not brute_force_coset_failure(code, a_vec)


def exact_sector_failure_prob(code: CssCode, pmf: np.ndarray, sector: str) -> float:
    """Exact logical-failure probability of one sector by enumerating all
    error patterns with their iid per-qudit probabilities."""
    d, n = code.d, code.n
    total = 0.0
    for pattern in itertools.product(range(d), repeat=n):
        prob = 1.0
        for v in pattern:
            prob *= pmf[v]
        if sector == "X":
            err = [QuditPauliError(v, 0) for v in pattern]
        else:
            err = [QuditPauliError(0, v) for v in pattern]
        _, failure = css_decode(code, err)
        if failure:
            total += prob
    return total


def enumerated_sector_failure_prob(code: CssCode, pmf: np.ndarray, sector: str) -> float:
    """Exact logical-failure probability of one sector: every one of the
    d**n error patterns, decoded at once by the dense matmul decoder and
    weighted by its iid per-qudit probabilities."""
    patterns = np.array(list(itertools.product(range(code.d), repeat=code.n)), dtype=np.int64)
    checks, table, opposite = ((code.hz, code.x_table, code.logical_z) if sector == "X"
                               else (code.hx, code.z_table, code.logical_x))
    failed = matmul_decode_sector(code.d, patterns, checks, table, opposite)[1]
    return float(np.prod(pmf[patterns[failed]], axis=1).sum())


class TestTrellisOracle:
    @pytest.mark.parametrize("sector", ["X", "Z"])
    def test_matches_scalar_enumeration_at_d2(self, sector):
        code = shor9_code(2)
        pmf = qudit_shift_pmf(2, math.sqrt(sigma_sq_for_bound(2, 0.02)))
        want = exact_sector_failure_prob(code, pmf, sector)
        assert trellis_sector_failure_prob(code, pmf, sector) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("sector", ["X", "Z"])
    @pytest.mark.parametrize("sigma_sq", [0.05, 0.2])
    def test_matches_d9_enumeration_at_d3(self, sector, sigma_sq):
        code = shor9_code(3)
        pmf = qudit_shift_pmf(3, math.sqrt(sigma_sq))
        want = enumerated_sector_failure_prob(code, pmf, sector)
        assert 0.0 < want < 1.0
        assert trellis_sector_failure_prob(code, pmf, sector) == pytest.approx(want, rel=1e-9)


class TestSimulateConcatenated:
    def test_vanishing_noise(self):
        est = simulate_concatenated(shor9_code(2), NoiseModel(1e-6), 20_000, seed=70)
        assert est.p_hat == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_below_pseudothreshold(self, d):
        sigma_sq = sigma_sq_for_bound(d, 0.01)
        noise = NoiseModel(sigma_sq)
        est = simulate_concatenated(shor9_code(d), noise, 100_000, seed=71)
        assert est.p_hat < gkp_qudit_error_prob(d, noise)

    def test_matches_exact_enumeration(self):
        d = 2
        sigma_sq = sigma_sq_for_bound(d, 0.02)
        noise = NoiseModel(sigma_sq)
        code = shor9_code(d)
        pmf = qudit_shift_pmf(d, math.sqrt(sigma_sq))
        pX = exact_sector_failure_prob(code, pmf, "X")
        pZ = exact_sector_failure_prob(code, pmf, "Z")
        exact = 1.0 - (1.0 - pX) * (1.0 - pZ)
        est = simulate_concatenated(code, noise, 400_000, seed=72)
        half = wilson_halfwidth(est.p_hat, est.trials)
        assert abs(est.p_hat - exact) <= 3.0 * half

    def test_matches_trellis_at_d5(self):
        # at sigma^2 = 0.2 the shifts +-2 (residues 2 and 3) have about
        # 8.5e-5 each: the sampler's pmf has four nonzero values here
        d, sigma_sq = 5, 0.2
        code = shor9_code(d)
        pmf = qudit_shift_pmf(d, math.sqrt(sigma_sq))
        assert 5e-5 < pmf[2] == pytest.approx(pmf[3], rel=1e-12)
        p_x, p_z = (trellis_sector_failure_prob(code, pmf, s) for s in "XZ")
        exact = 1.0 - (1.0 - p_x) * (1.0 - p_z)
        est = simulate_concatenated(code, NoiseModel(sigma_sq), 200_000, seed=78)
        assert abs(est.p_hat - exact) <= 3.0 * wilson_halfwidth(est.p_hat, est.trials)

    def test_batch_decoding_agrees_with_scalar(self):
        d = 3
        noise = NoiseModel(sigma_sq_for_bound(d, 0.15))
        code = shor9_code(d)
        gen = make_generator(73, 0)
        a, b = sample_qudit_errors(d, noise, gen, (500, 9))
        fails_scalar = 0
        for row_a, row_b in zip(a, b):
            err = [QuditPauliError(int(x), int(y)) for x, y in zip(row_a, row_b)]
            _, failure = css_decode(code, err)
            fails_scalar += failure
        est = simulate_concatenated(code, noise, 500, seed=73)
        assert est.failures == fails_scalar

    @pytest.mark.parametrize("d,workers,failures", [
        (3, 1, 34), (3, 2, 33), (10, 1, 71168), (10, 2, 71254),
        (2, 1, 32611), (2, 2, 32769), (1448, 1, 44789), (1448, 2, 45240)])
    def test_pinned_failure_counts(self, d, workers, failures):
        # exact counts at seed 19: a change to sampling or decoding shows here.
        # At both ends of concat-sim's d range the noise is set so that some
        # blocks, not none or all, fail
        sigma_sq = {2: 0.2, 1448: 3e-4}.get(d, 0.05)
        est = simulate_concatenated(shor9_code(d), NoiseModel(sigma_sq), 300_000, 19, workers)
        assert est.failures == failures

    @pytest.mark.parametrize("d,sigma_sq,workers,failures", [
        (5, 0.3, 1, 92671), (5, 0.3, 2, 92682), (10, 0.5, 1, 99879), (10, 0.5, 2, 99886)])
    def test_pinned_failure_counts_where_rows_hold_several_cells(self, d, sigma_sq, workers,
                                                                  failures):
        # exact counts at seed 19 where most rows hold two or more nonzero
        # cells (81 % at d = 5, 99 % at d = 10) and are decoded by syndrome;
        # 100,000 trials keep the four runs under half a second
        est = simulate_concatenated(shor9_code(d), NoiseModel(sigma_sq), 100_000, 19, workers)
        assert est.failures == failures

    def test_threaded_counts_equal_serial(self, on_cpus):
        # two streams of at least two full blocks each
        code = shor9_code(10)
        trials = 4 * (concatenated._BATCH_TRIALS // code.n) + 1

        def run():
            return simulate_concatenated(code, NoiseModel(0.05), trials, 29, workers=2)
        serial, built = on_cpus(1, run)
        assert built == 0
        threaded, built = on_cpus(2, run)
        assert built == 1
        assert threaded == serial
        assert 0 < serial.failures < trials

    def test_runs_at_large_d(self):
        est = simulate_concatenated(shor9_code(1000), NoiseModel(1e-4), 10_000, seed=1,
                                    workers=2)
        assert est.trials == 10_000
        assert est.p_hat < 0.01

    def test_trivial_code_reproduces_raw_error_rate(self):
        d = 2
        sigma_sq = sigma_sq_for_bound(d, 0.08)
        noise = NoiseModel(sigma_sq)
        pmf = qudit_shift_pmf(d, math.sqrt(sigma_sq))
        p_raw = 1.0 - pmf[0] ** 2  # X or Z component nonzero
        # one bare qudit, no checks: every nonidentity error is logical
        empty, one = np.zeros((0, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int64)
        bare = CssCode(d=d, hz=empty, hx=empty, logical_x=one, logical_z=one)
        est = simulate_concatenated(bare, noise, 300_000, seed=74)
        half = wilson_halfwidth(est.p_hat, est.trials)
        assert abs(est.p_hat - p_raw) <= 3.0 * half

    def test_wilson_width_scales(self):
        noise = NoiseModel(sigma_sq_for_bound(2, 0.05))
        code = shor9_code(2)
        est1 = simulate_concatenated(code, noise, 50_000, seed=75)
        est2 = simulate_concatenated(code, noise, 100_000, seed=75)
        w1 = est1.ci_high - est1.ci_low
        w2 = est2.ci_high - est2.ci_low
        assert w1 / w2 == pytest.approx(math.sqrt(2.0), rel=0.15)

    def test_deterministic(self):
        noise = NoiseModel(sigma_sq_for_bound(2, 0.05))
        a = simulate_concatenated(shor9_code(2), noise, 30_000, seed=76, workers=4)
        b = simulate_concatenated(shor9_code(2), noise, 30_000, seed=76, workers=4)
        assert a == b

    def test_idle_workers_change_nothing(self):
        noise = NoiseModel(0.3)
        many = simulate_concatenated(shor9_code(3), noise, 3, seed=77, workers=1000)
        assert many == simulate_concatenated(shor9_code(3), noise, 3, seed=77, workers=3)


class TestMinDistanceComparison:
    def test_unit_ratio_dimension(self):
        _, _, ratio = min_distance_comparison(2.0, math.pi * math.e / 4.0, NoiseModel(0.01))
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_hundred_modes(self):
        l_concat, l_pack, ratio = min_distance_comparison(3.0, 100, NoiseModel(0.01))
        assert ratio == pytest.approx(math.sqrt(400.0 / (math.pi * math.e)), rel=1e-12)
        assert ratio == pytest.approx(6.84, abs=0.01)
        assert l_concat == pytest.approx(2.0 * math.pi * 2.0 ** -3.0)
        assert l_pack == pytest.approx(800.0 / math.e * 2.0 ** -3.0)

    def test_ratio_independent_of_rate(self):
        ratios = [min_distance_comparison(r, 50, NoiseModel(0.05))[2]
                  for r in [0.5, 1.0, 4.0, 9.0]]
        assert max(ratios) - min(ratios) < 1e-12

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            min_distance_comparison(0.0, 10, NoiseModel(0.1))


class TestCssCodeValidation:
    def test_rejects_non_orthogonal_checks(self):
        hz = np.array([[1, 0, 0]], dtype=np.int64)
        hx = np.array([[1, 0, 0]], dtype=np.int64)
        logical = np.zeros((1, 3), dtype=np.int64)
        with pytest.raises(ValueError):
            CssCode(d=2, hz=hz, hx=hx, logical_x=logical, logical_z=logical)

    @pytest.mark.parametrize("logical,message", [
        ("logical_x", "logical X anticommutes with a Z check"),
        ("logical_z", "logical Z anticommutes with an X check"),
    ])
    def test_rejects_logical_not_commuting_with_a_check(self, logical, message):
        # mod 3 the Z check Z0 Z1^2, the X check X0 X1 X2 and both all-ones
        # logicals commute; X0 fails the Z check and Z0 the X check
        ones = np.array([[1, 1, 1]], dtype=np.int64)
        matrices = dict(hz=np.array([[1, 2, 0]], dtype=np.int64), hx=ones,
                        logical_x=ones, logical_z=ones)
        matrices[logical] = np.array([[1, 0, 0]], dtype=np.int64)
        with pytest.raises(ValueError, match=message):
            CssCode(d=3, **matrices)

    def test_block_length_is_check_width(self):
        hz = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int64)
        hx = np.zeros((0, 3), dtype=np.int64)
        logical = np.ones((1, 3), dtype=np.int64)
        assert CssCode(d=2, hz=hz, hx=hx, logical_x=logical, logical_z=logical).n == 3
        assert shor9_code(3).n == 9
        for narrow in ("hx", "logical_x", "logical_z"):
            matrices = dict(hz=hz, hx=hx, logical_x=logical, logical_z=logical)
            matrices[narrow] = matrices[narrow][:, :2]
            with pytest.raises(ValueError, match="share one width"):
                CssCode(d=2, **matrices)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            shor9_code(1)
