"""Design concatenated codes: optimize the inner qudit dimension, then
simulate the explicit nine-qudit block code below its pseudothreshold."""

import math
from statistics import NormalDist

import numpy as np

from gkplat import (
    NoiseModel,
    coherent_information,
    gkp_qudit_error_prob,
    min_distance_comparison,
    optimize_qudit_dimension,
    shor9_code,
    simulate_concatenated,
)

print("== Optimized concatenated rate vs the coherent information ==")
print("sigma_sq      d_opt   per-qudit p   rate      I_Q       gap     C^2")
for s in np.geomspace(1.88e-4, 0.1, 10):
    noise = NoiseModel(float(s))
    design = optimize_qudit_dimension(noise)
    iq = coherent_information(noise)
    print(f"{s:.3e}  {design.d_opt:5d}   {design.p:.5f}      "
          f"{design.rate_qubits:7.4f}  {iq:7.4f}  {iq - design.rate_qubits:6.3f}"
          f"  {design.c_sq:.5f}")

print()
print(f"reference values: 1/e = {1/math.e:.5f}, 1/2e = {1/(2*math.e):.5f}")

print()
print("== Rate-matched minimum distances: hierarchy beats raw geometry ==")
noise = NoiseModel(1e-3)
for n_modes in (10, 100, 1000):
    l_concat, l_pack, ratio = min_distance_comparison(5.0, n_modes, noise)
    print(f"N={n_modes:5d}: concat len^2 = {l_concat:.4f}, packing len^2 = "
          f"{l_pack:9.2f}, length ratio = {ratio:.2f}")

print()
print("== The nine-qudit block code under the true shift distribution ==")
erfcinv_001 = NormalDist().inv_cdf(0.995) / math.sqrt(2.0)  # erfc(x) = 0.01
for d in (2, 3):
    sigma_sq = math.pi / (4.0 * d * erfcinv_001 ** 2)
    noise = NoiseModel(sigma_sq)
    p = gkp_qudit_error_prob(d, noise)
    est = simulate_concatenated(shor9_code(d), noise, 200_000, seed=9)
    print(f"d={d}: per-qudit p = {p:.5f} -> logical {est.p_hat:.5f} "
          f"[{est.ci_low:.5f}, {est.ci_high:.5f}]")
