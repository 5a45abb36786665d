"""Closed-form achievable rates and bounds for the Gaussian quantum channel.

All rates are in qubits per channel use and are clamped at zero so curves
plot uniformly; each formula's positivity threshold is where its log
argument crosses 1. Everything depends on sigma_sq and hbar only through
the dimensionless ratio hbar / sigma_sq.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_EPS = math.ulp(1.0)


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian displacement channel: per-quadrature variance, physical units."""

    sigma_sq: float
    hbar: float = 1.0

    def __post_init__(self):
        if not (0 <= self.sigma_sq < math.inf and 0 < self.hbar < math.inf):
            raise ValueError("sigma_sq must be finite and >= 0, hbar finite and > 0")

    @property
    def lattice_sigma_sq(self) -> float:
        """Displacement variance per dimensionless lattice coordinate."""
        return self.sigma_sq / (2.0 * math.pi * self.hbar)

    @property
    def lattice_sigma(self) -> float:
        return math.sqrt(self.lattice_sigma_sq)


def _ratio(noise: NoiseModel, c: float) -> float:
    """hbar / (c sigma^2); a quotient beyond float64, sigma^2 = 0 included,
    is a ValueError. One that underflows to 0 is valid: every rate is 0."""
    ratio = noise.hbar / (c * noise.sigma_sq) if noise.sigma_sq else math.inf
    if ratio == math.inf:
        raise ValueError(f"hbar / sigma^2 = {noise.hbar!r} / {noise.sigma_sq!r} overflows float64")
    return ratio


def coherent_information(noise: NoiseModel) -> float:
    """One-shot coherent information maximized over Gaussian inputs:
    log2(hbar / (e sigma^2)), zero at and below the threshold."""
    ratio = _ratio(noise, math.e)
    return math.log2(ratio) if ratio > 1.0 else 0.0


def hw_upper_bound(noise: NoiseModel) -> float:
    """Holevo-Werner capacity upper bound log2(hbar / sigma^2)."""
    ratio = _ratio(noise, 1.0)
    return math.log2(ratio) if ratio > 1.0 else 0.0


def sphere_packing_rate(noise: NoiseModel) -> float:
    """Rate from non-overlapping decoding spheres: log2(hbar / (4 e sigma^2)).

    Two qubits below the coherent information wherever both are positive.
    """
    return max(0.0, coherent_information(noise) - 2.0)


def best_integer_lambda(noise: NoiseModel) -> tuple[int, float]:
    """Largest integer lambda strictly below hbar / (e sigma^2), and the
    rate log2(lambda) it achieves by rescaling a self-dual lattice.

    The strict inequality is honored at float resolution: a ratio within a
    few ulps of an integer counts as that integer.
    """
    ratio = _ratio(noise, math.e)
    lam = math.floor(ratio)
    if ratio - lam <= 8.0 * _EPS * max(1.0, ratio):
        lam -= 1
    lam = max(0, lam)
    rate = math.log2(lam) if lam >= 2 else 0.0
    return lam, rate


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

