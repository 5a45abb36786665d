"""Grid-qudit error model, CSS rate formulas, and the nine-qudit code."""

import itertools
import math
import subprocess
import sys
import tracemalloc
from functools import partial

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
    gkp_qudit_error_prob,
    min_distance_comparison,
    optimize_qudit_dimension,
    qudit_family,
    sample_qudit_errors,
    shor9_code,
    simulate_concatenated,
)
from gkplat.dit_rates import (
    dit_error_prob,
    dit_rate,
    dit_rate_bound,
    entropy_base_d,
    optimize_dit_rate,
)
from gkplat.rates import coherent_information

from oracles import (erfc_oracle, exhaustive_argmax, qudit_error_prob, qudit_shift_pmf,
                     wilson_halfwidth)


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
            want = qudit_error_prob(ds, noise.sigma_sq, noise.hbar)
            assert gkp_qudit_error_prob(ds, noise).tobytes() == want.tobytes()
            for d in map(int, ds[::9]):
                assert np.asarray(gkp_qudit_error_prob(d, noise)).tobytes() == \
                    np.asarray(qudit_error_prob(d, noise.sigma_sq, noise.hbar)).tobytes()

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(num=st.floats(5e-324, 1e308), s=st.floats(5e-324, 1e308),
           cj=st.sampled_from([(4.0, 1), (1.0, 2)]), d=st.integers(2, 2**53))
    @example(num=math.pi * 1e307, s=1e308, cj=(4.0, 1), d=2)
    def test_float64_domain_decided_by_dit_error_prob(self, num, s, cj, d):
        # either the family is refused, or p is erfc of the argument taken in
        # log space; never p = 1 where the true p is below 1. The example is
        # gkp_qudit_error_prob(2, NoiseModel(1e308, 1e307)): 4 d sigma^2
        # overflows, but the true p is about 0.78
        c, j = cj
        half_log_arg = 0.5 * (math.log(num) - math.log(c) - j * math.log(d) - math.log(s))
        want = erfc_oracle(math.exp(half_log_arg)) if half_log_arg < 709.0 else 0.0
        try:
            p = dit_error_prob(d, (num, c, j, s))
        except ValueError as err:
            assert "leaves float64" in str(err)
            return
        assert not (p == 1.0 and want < 1.0 - 1e-9)
        assert p == pytest.approx(want, rel=1e-8, abs=1e-300)


_ERFC_PROBE = """
import sys
import numpy as np
from gkplat.dit_rates import _erfc_ufunc
rng = np.random.default_rng(7)
d = np.arange(1, 10**6 + 1, dtype=np.float64)
x = np.concatenate([
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e300, -1e300, np.inf, -np.inf,
     np.nan],
    np.linspace(26.5, 40.0, 100_001),        # erfc underflows to subnormals, then 0
    rng.uniform(-30.0, 30.0, 10**6),
    rng.exponential(3.0, 10**6),
    np.sqrt(np.pi / (4.0 * d * 1e-2)),      # the concat-rates scan at sigma^2 = 1e-2 ...
    np.sqrt(np.pi / (4.0 * d * 1e-6)),      # ... and 1e-6
    np.sqrt(1.5 / (d ** 2 * 1e-10)),        # the classical-rates scan at SNR 1e10
])
fast = _erfc_ufunc()(x)
assert "scipy.special" not in sys.modules, "erfc came from the scipy.special fallback"
from scipy.special import erfc
assert _erfc_ufunc() is erfc
assert fast.tobytes() == erfc(x).tobytes()
"""


def test_erfc_ufunc_is_scipys_bit_for_bit():
    # pins the by-path load to the installed scipy: the tests import
    # scipy.special themselves, so this runs in a fresh interpreter
    proc = subprocess.run([sys.executable, "-c", _ERFC_PROBE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
        ds = np.arange(2, 3000)
        log_ratio = np.log(ds - 1) / np.log(ds)
        for p in [0.0, 1e-9, 0.01, 0.3, 0.5, 0.9, 1.0]:
            for k in [1, 2]:
                product = np.maximum(0.0, np.log2(ds) * (1.0 - k * entropy_base_d(p, ds)
                                                         - k * p * log_ratio))
                expected = np.where(p < (ds - 1) / ds, product, 0.0)
                assert dit_rate(ds, p, k).tobytes() == expected.tobytes()


class TestArrayForms:
    def test_arrays_match_scalars(self):
        noise = NoiseModel(0.02)
        ds = np.arange(2, 40)
        ps = np.linspace(0.0, 1.0, len(ds))
        cases = [(gkp_qudit_error_prob(ds, noise), lambda d, p: gkp_qudit_error_prob(d, noise)),
                 (entropy_base_d(ps, ds), lambda d, p: entropy_base_d(p, d)),
                 (dit_rate(ds, ps, 1), lambda d, p: dit_rate(d, p, 1)),
                 (dit_rate(ds, ps, 2), lambda d, p: dit_rate(d, p, 2)),
                 (concat_rate(ds, noise), lambda d, p: concat_rate(d, noise))]
        for array, scalar in cases:
            assert array.shape == ds.shape
            for i, d in enumerate(ds):
                assert array[i] == pytest.approx(scalar(int(d), float(ps[i])), rel=1e-15, abs=0)

    def test_arrays_are_checked(self):
        with pytest.raises(ValueError):
            entropy_base_d(np.array([0.1, 1.5]), 2)
        with pytest.raises(ValueError):
            entropy_base_d(np.array([0.1, np.nan]), 2)
        with pytest.raises(ValueError):
            dit_rate(np.array([3, 1]), 0.1, 2)
        with pytest.raises(ValueError):
            gkp_qudit_error_prob(np.array([2, 0]), NoiseModel(0.1))


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
        # a rate with many ties, split into blocks of 7: the first maximum wins,
        # with an infinite bound (blocks pop in ascending d) and with one
        # growing with d (they pop in descending d)
        def rate(ds):
            return np.round(np.sin(0.37 * ds), 1)
        family = qudit_family(NoiseModel(0.1))
        monkeypatch.setattr(dit_rates, "_SCAN_CHUNK", 7)
        monkeypatch.setattr(dit_rates, "dit_rate", lambda ds, p, k: rate(ds))
        for bound in [lambda f, k, a, b: math.inf, lambda f, k, a, b: float(b)]:
            monkeypatch.setattr(dit_rates, "dit_rate_bound", bound)
            for d_max in range(2, 60):
                ds = np.arange(2, d_max + 1)
                idx = int(np.argmax(rate(ds)))
                want = (int(ds[idx]), float(rate(ds)[idx]))
                assert optimize_dit_rate(family, 2, d_max) == want
        monkeypatch.setattr(dit_rates, "dit_rate", lambda ds, p, k: np.zeros(len(ds)))
        assert optimize_dit_rate(family, 2, 40) == (2, 0.0)
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
            want = exhaustive_argmax(lambda ds: concat_rate(ds, noise),
                                     max(2, math.ceil(8.0 / s)))
            assert (design.d_opt, design.rate_qubits) == want

    def test_pruned_scan_evaluation_count(self, scan_evaluations):
        design = optimize_qudit_dimension(NoiseModel(1e-6))  # sigma = 1e-3: 8e6 values of d
        assert (design.d_opt, design.rate_qubits) == (216623, 17.35210724242679)
        assert 0 < sum(scan_evaluations) <= 2.5e5

    def test_pruned_scan_evaluation_count_at_small_noise(self, scan_evaluations):
        # sigma = 1e-4: 8e8 values of d; the pinned optimum is the exhaustive one
        design = optimize_qudit_dimension(NoiseModel(1e-8))
        assert (design.d_opt, design.rate_qubits) == (20102594, 23.91567380116969)
        assert 0 < sum(scan_evaluations) <= 2.5e6

    @pytest.mark.parametrize("chunk,sigma_sq,d_max", [
        (1 << 16, 0.45 ** 2, None), (1 << 16, 1.88e-4, None), (1 << 16, 1e-5, None),
        (1 << 16, 1e-6, None), (1 << 16, 0.01, 10**8),
        (64, 1e-4, None), (64, 0.0137 ** 2, 10**6), (7, 0.3, 10**5),
    ])
    def test_best_first_blocks_are_block_scan_blocks(self, monkeypatch, chunk, sigma_sq,
                                                     d_max):
        # reference: test the bound on each block in turn, evaluate the blocks
        # it keeps; best-first order can only prune more of them
        monkeypatch.setattr(dit_rates, "_SCAN_CHUNK", chunk)
        noise = NoiseModel(sigma_sq)
        d_max = d_max or math.ceil(8.0 / sigma_sq)
        upper = partial(dit_rate_bound, qudit_family(noise), 2)
        best, want = (0, -math.inf), []
        for start in range(2, d_max + 1, chunk):
            ds = np.arange(start, min(start + chunk, d_max + 1), dtype=np.int64)
            if upper(start, int(ds[-1])) + dit_rates._BOUND_SLACK * (1.0 + abs(best[1])) \
                    <= best[1]:
                continue
            want.append(start)
            rates = concat_rate(ds, noise)
            if rates.max() > best[1]:
                best = (int(ds[np.argmax(rates)]), float(rates.max()))
        got, rate = [], dit_rates.dit_rate
        monkeypatch.setattr(dit_rates, "dit_rate", lambda ds, p, k:
                            got.append(int(ds[0])) or rate(ds, p, k))
        assert optimize_dit_rate(qudit_family(noise), 2, d_max) == best
        assert got and set(got) <= set(want)
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
            want = exhaustive_argmax(lambda ds: dit_rate(ds, dit_error_prob(ds, family), k),
                                     8000)
            assert optimize_dit_rate(family, k, 8000) == want
            assert bounds and set(bounds) == {(family, k)}

    def test_scan_ceiling_is_two_to_the_53(self):
        noise = NoiseModel(0.01)
        assert optimize_qudit_dimension(noise, 2**53).d_opt == 30
        with pytest.raises(ValueError, match="2\\*\\*53"):
            optimize_qudit_dimension(noise, 2**53 + 1)
        assert dit_rates.scan_ceiling(2.0**53, "bound") == 2**53
        with pytest.raises(ValueError, match="sigma_sq"):
            optimize_qudit_dimension(NoiseModel(7.9 / 2**53))  # default ceiling above 2**53

    @settings(max_examples=60, deadline=None)
    @given(log_sigma_sq=st.floats(-7.0, 0.5), hbar=st.sampled_from([0.5, 1.0, 3.0]),
           where=st.floats(0.0, 1.0), width=st.integers(0, 3000))
    def test_block_bound_holds(self, log_sigma_sq, hbar, where, width):
        noise = NoiseModel(10.0 ** log_sigma_sq, hbar)
        a = 2 + int(where * math.ceil(8.0 * hbar / noise.sigma_sq))
        b = a + width
        upper = dit_rate_bound(qudit_family(noise), 2, a, b)
        rates = concat_rate(np.arange(a, b + 1), noise)
        if upper == -math.inf:  # an interval past d = 2 whose rates are all exactly 0
            assert a > 2 and (rates == 0.0).all()
        else:
            assert rates.max() <= upper + dit_rates._BOUND_SLACK

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
        # 80,000 and 524,286 normals: not multiples of the 2**16 chunk
        noise = NoiseModel(0.05)
        sigma, delta = math.sqrt(noise.sigma_sq), math.sqrt(2.0 * math.pi * noise.hbar / d)
        gen, ref = make_generator(63), make_generator(63)
        a, b = sample_qudit_errors(d, noise, gen, size)
        shape = (2,) + (size if isinstance(size, tuple) else (size,))
        want = np.rint(ref.standard_normal(shape) * sigma / delta).astype(np.int64) % d
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, want[0]) and np.array_equal(b, want[1])
        assert repr(gen.bit_generator.state) == repr(ref.bit_generator.state)

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
        (3, 1, 23), (3, 2, 30), (10, 1, 71574), (10, 2, 71280)])
    def test_pinned_failure_counts(self, d, workers, failures):
        # exact counts at seed 19: a change to sampling or decoding shows here
        est = simulate_concatenated(shor9_code(d), NoiseModel(0.05), 300_000, 19, workers)
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
