"""Closed-form achievable rates and bounds for the Gaussian quantum channel.

All rates are in qubits per channel use and are clamped at zero so curves
plot uniformly; each formula's positivity threshold is where its log
argument crosses 1. Everything depends on sigma_sq and hbar only through
the dimensionless ratio hbar / sigma_sq.
"""

from __future__ import annotations

import math

from .channel_sim import NoiseModel

_EPS = math.ulp(1.0)


def coherent_information(noise: NoiseModel) -> float:
    """One-shot coherent information maximized over Gaussian inputs:
    log2(hbar / (e sigma^2)), zero at and below the threshold."""
    return max(0.0, math.log2(noise.hbar / (math.e * noise.sigma_sq)))


def hw_upper_bound(noise: NoiseModel) -> float:
    """Holevo-Werner capacity upper bound log2(hbar / sigma^2)."""
    return max(0.0, math.log2(noise.hbar / noise.sigma_sq))


def sphere_packing_rate(noise: NoiseModel) -> float:
    """Rate from non-overlapping decoding spheres: log2(hbar / (4 e sigma^2)).

    Two qubits below the coherent information wherever both are positive.
    """
    return max(0.0, math.log2(noise.hbar / (math.e * noise.sigma_sq)) - 2.0)


def best_integer_lambda(noise: NoiseModel) -> tuple[int, float]:
    """Largest integer lambda strictly below hbar / (e sigma^2), and the
    rate log2(lambda) it achieves by rescaling a self-dual lattice.

    The strict inequality is honored at float resolution: a ratio within a
    few ulps of an integer counts as that integer.
    """
    ratio = noise.hbar / (math.e * noise.sigma_sq)
    lam = math.floor(ratio)
    if ratio - lam <= 8.0 * _EPS * max(1.0, ratio):
        lam -= 1
    lam = max(0, lam)
    rate = math.log2(lam) if lam >= 2 else 0.0
    return lam, rate


def error_probability_bound(rate: float, noise: NoiseModel, eps: float, n_modes: int) -> float:
    """Union-bound failure probability (e (sigma^2 + eps) / hbar * 2^R)^N
    for a rate-R code on N modes drawn from the lattice-averaging argument.

    Values above 1 are returned as computed; only values < 1 are
    informative.
    """
    if eps < 0 or n_modes < 1:
        raise ValueError("eps must be >= 0 and n_modes positive")
    base = (math.e * (noise.sigma_sq + eps) / noise.hbar) * 2.0 ** rate
    if base == 0.0:
        return 0.0
    log_val = n_modes * math.log(base)
    if log_val > 700.0:
        return math.inf
    return math.exp(log_val)


def sphere_volume(n: int) -> float:
    """Volume of the unit n-ball, pi^(n/2) / Gamma(n/2 + 1), via log-gamma."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0))


def minkowski_radius_sq(n: int) -> float:
    """Guaranteed packing radius^2, n / (8 pi e), of some unimodular lattice
    in n dimensions (Minkowski's density bound)."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return n / (8.0 * math.pi * math.e)

