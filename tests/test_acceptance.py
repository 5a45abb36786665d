"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion; each test also prints a summary line with its key numbers.
"""

import math
import random
import time

import numpy as np
import pytest
from scipy.special import erfinv

from gkplat import exact
from gkplat.catalog import get
from gkplat.channel_sim import NoiseModel, estimate_error_probability, make_generator
from gkplat.concatenated import (
    QuditPauliError,
    css_decode,
    gkp_qudit_error_prob,
    optimize_qudit_dimension,
    sample_qudit_errors,
    shor9_code,
    simulate_concatenated,
)
from gkplat.classical_channel import (
    ClassicalParams,
    debuda_rate,
    minkowski_lattice_rate,
    optimize_classical_d,
    shannon_capacity,
    signal_family,
)
from gkplat.decoder import closest_points, shortest_vector
from gkplat.dit_rates import dit_error_prob, dit_rate
from gkplat.rates import (
    best_integer_lambda,
    coherent_information,
    sphere_packing_rate,
)
from gkplat.symplectic_lattice import (
    SymplecticGram,
    code_dimension,
    make_code,
    rescale,
    standard_form,
)

from oracles import error_probability_bound, pfaffian, reference_closest, wilson_halfwidth
from test_symplectic import random_integral_antisymmetric

E = math.e
ANCHOR_SIGMA_SQ = 1.88e-4


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_concat_rate_anchor():
    start = time.perf_counter()
    noise = NoiseModel(ANCHOR_SIGMA_SQ)
    design = optimize_qudit_dimension(noise)
    gap = coherent_information(noise) - design.rate_qubits
    assert gap == pytest.approx(1.00, abs=0.05)

    grid = np.geomspace(ANCHOR_SIGMA_SQ, 0.3, 40)
    rates = []
    for s in grid:
        n = NoiseModel(float(s))
        r = optimize_qudit_dimension(n).rate_qubits
        rates.append(r)
        assert r < coherent_information(n)
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"gap {gap:.4f} qubits at sigma_sq {ANCHOR_SIGMA_SQ:g}; "
              f"40-point curve monotone and below I_Q; {elapsed:.1f}s")


def test_criterion_2_c_sq_anchor():
    start = time.perf_counter()
    design = optimize_qudit_dimension(NoiseModel(ANCHOR_SIGMA_SQ))
    target = 1.0 / (2.0 * E)
    assert design.c_sq == pytest.approx(target, rel=0.10)

    for s in np.geomspace(ANCHOR_SIGMA_SQ, 0.35, 30):
        d = optimize_qudit_dimension(NoiseModel(float(s)))
        if d.rate_qubits > 0.0:
            assert 0.0 < d.c_sq < 1.0 / E
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"c_sq {design.c_sq:.6f} vs 1/2e {target:.6f} "
              f"({design.c_sq / target - 1.0:+.2%}); band holds; {elapsed:.1f}s")


def test_criterion_3_square_lattice_monte_carlo():
    start = time.perf_counter()
    trials = 1_000_000
    checked = []
    for d in (2, 3, 5):
        code = make_code(get(f"grid_qudit({d})").lattice)
        b = 1.0 / (2.0 * math.sqrt(d))
        for p_target in (2e-3, 0.05, 0.25):
            per_coord = math.sqrt(1.0 - p_target)
            sigma_lat = b / (math.sqrt(2.0) * float(erfinv(per_coord)))
            exact_p = 1.0 - math.erf(b / (sigma_lat * math.sqrt(2.0))) ** 2
            assert 1e-3 <= exact_p <= 0.3
            noise = NoiseModel(sigma_lat ** 2 * 2.0 * math.pi)
            est = estimate_error_probability(code, noise, trials,
                                             seed=1000 + 10 * d)
            half = wilson_halfwidth(est.p_hat, trials)
            assert abs(est.p_hat - exact_p) <= 3.0 * half
            checked.append((d, exact_p, est.p_hat))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    worst = max(abs(p - e) / wilson_halfwidth(p, trials) for _, e, p in checked)
    report(3, f"9 runs x 1e6 trials within 3 half-widths "
              f"(worst {worst:.2f}); {elapsed:.1f}s")


def test_criterion_4_erfc_bound_tightness():
    samples = 1_000_000
    results = []
    for d, sigma_sq in ((2, 0.08), (3, 0.10), (5, 0.16)):
        noise = NoiseModel(sigma_sq)
        bound = gkp_qudit_error_prob(d, noise)
        assert bound > 1e-3
        gen = make_generator(2000 + d)
        a, _ = sample_qudit_errors(d, noise, gen, samples)
        p_hat = float((a != 0).mean())
        stderr = math.sqrt(bound * (1.0 - bound) / samples)
        assert p_hat <= bound + 3.0 * stderr
        assert p_hat >= 0.95 * bound
        results.append(p_hat / bound)
    report(4, "empirical/bound ratios " +
              ", ".join(f"{r:.4f}" for r in results))


def test_criterion_5_decoder_oracle_equivalence():
    rng = np.random.default_rng(404)
    for name in ("Zn(2)", "Zn(4)", "D4", "E8"):
        lat = get(name).lattice
        m = lat.effective_matrix()
        xs = rng.uniform(-2.0, 2.0, size=(1000, lat.n))
        coeffs, _ = closest_points(lat, xs)
        for x, c in zip(xs, coeffs):
            delta = x - c.astype(float) @ m  # as closest_point computes dist_sq
            _, ref_d = reference_closest(name, x)
            assert float(delta @ delta) == ref_d

    expected = {"Zn(2)": 1.0, "Zn(4)": 1.0, "D4": 2.0, "E8": 2.0}
    for name, want_sq in expected.items():
        _, length_sq = shortest_vector(get(name).lattice)
        assert length_sq == pytest.approx(want_sq, rel=1e-12)
    report(5, "4 lattices x 1000 points exact; shortest vectors 1, 1, "
              "sqrt(2), sqrt(2)")


def test_criterion_6_symplectic_algebra_suite():
    rng = random.Random(99)
    count = 0
    for n in (4, 6):
        for _ in range(100):
            a = random_integral_antisymmetric(rng, n)
            gram = SymplecticGram(exact.freeze(a))
            form = standard_form(gram)
            lhs = exact.mat_mul(exact.mat_mul(form.r, gram.entries),
                                exact.transpose(form.r))
            assert lhs == form.block_form()
            assert abs(exact.determinant(form.r)) == 1
            det_d = 1
            for dd in form.diag:
                det_d *= dd
            assert det_d == abs(pfaffian(a))
            count += 1
    assert count == 200

    for lam in (1, 2, 3, 4, 5):
        for modes in (1, 2, 3):
            lat = rescale(get(f"Zn({2 * modes})").lattice, lam)
            assert code_dimension(lat) == lam ** modes
    report(6, "200 random standard forms verified; rescale power law "
              "lam <= 5, N <= 3")


def test_criterion_7_rate_formula_thresholds():
    assert coherent_information(NoiseModel(1.0 / E)) == 0.0
    assert coherent_information(NoiseModel(1.0 / (2.0 * E))) == 1.0
    for s in np.geomspace(1e-6, 1.0 / (4.0 * E), 60, endpoint=False):
        noise = NoiseModel(float(s))
        assert sphere_packing_rate(noise) == pytest.approx(
            coherent_information(noise) - 2.0, abs=1e-12)
    assert best_integer_lambda(NoiseModel(1.0 / (2.0 * E))) == (1, 0.0)

    noise = NoiseModel(0.01)
    eps = 1e-3
    rate = math.log2(1.0 / (E * (noise.sigma_sq + eps))) - 0.1
    values = [error_probability_bound(rate, noise, eps, n) for n in (10, 100, 1000)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-20
    report(7, "thresholds exact at 1/e and 1/(2e); packing offset -2; "
              "strict integer cutoff; bound vanishes with N")


def test_criterion_8_css_suite():
    from scipy.special import erfcinv
    for d in (2, 3):
        code = shor9_code(d)
        assert not ((code.hx @ code.hz.T) % d).any()
        for pos in range(9):
            for a in range(d):
                for b in range(d):
                    if a == 0 and b == 0:
                        continue
                    err = [QuditPauliError(0, 0)] * 9
                    err[pos] = QuditPauliError(a, b)
                    _, failure = css_decode(code, err)
                    assert not failure

    rates = {}
    for d in (2, 3):
        sigma_sq = math.pi / (4.0 * d * float(erfcinv(0.01)) ** 2)
        noise = NoiseModel(sigma_sq)
        p = gkp_qudit_error_prob(d, noise)
        assert p == pytest.approx(0.01, rel=1e-9)
        est = simulate_concatenated(shor9_code(d), noise, 100_000, seed=3000 + d)
        assert est.p_hat < p
        rates[d] = est.p_hat
    report(8, f"orthogonality and exhaustive single-error correction for "
              f"d in (2,3); logical rates {rates[2]:.5f}, {rates[3]:.5f} < 0.01")


def test_criterion_9_classical_suite():
    for snr, want in ((1.0, 0.5), (3.0, 1.0), (15.0, 2.0)):
        assert shannon_capacity(ClassicalParams(1.0, 1.0 / snr)) == want

    gaps = []
    for snr in (1e3, 1e4):
        params = ClassicalParams(1.0, 1.0 / snr)
        d_opt, rate = optimize_classical_d(params)
        best = max(
            dit_rate(d, dit_error_prob(d, signal_family(params)), 1)
            for d in range(2, 201))
        assert rate == pytest.approx(best, rel=1e-12)
        gap = shannon_capacity(params) - rate
        assert gap <= 1.0
        gaps.append(gap)

    for snr in np.geomspace(1.0, 1e6, 100):
        params = ClassicalParams(1.0, 1.0 / float(snr))
        cap = shannon_capacity(params)
        assert minkowski_lattice_rate(params) <= cap
        assert debuda_rate(params) <= cap
        assert optimize_classical_d(params)[1] <= cap
    report(9, f"capacity anchors exact; optimized gaps {gaps[0]:.3f}, "
              f"{gaps[1]:.3f} <= 1 bit; 100-point grid below capacity")
