"""Rates for the classical Gaussian channel under an average-power constraint.

Analytic formulas only: the Shannon capacity, the one-bit-short rate from
Minkowski-density lattice packings, the de Buda lattice-code rate, and the
concatenated-dit scheme (d-ary signaling per real variable plus an outer
random code). Everything depends on P and sigma^2 only through the ratio
P / sigma^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dit_rates import optimize_dit_rate, scan_ceiling


@dataclass(frozen=True)
class ClassicalParams:
    power: float       # average power constraint P
    sigma_sq: float

    def __post_init__(self):
        if not (0 < self.power < math.inf and 0 < self.sigma_sq < math.inf):
            raise ValueError("power and sigma_sq must be finite and positive")

    @property
    def snr(self) -> float:
        return self.power / self.sigma_sq


def shannon_capacity(params: ClassicalParams) -> float:
    """C = (1/2) log2(1 + P / sigma^2) bits per real variable."""
    return 0.5 * math.log2(1.0 + params.snr)


def minkowski_lattice_rate(params: ClassicalParams) -> float:
    """Rate of non-overlapping decoding spheres on a Minkowski-density
    lattice: one bit below capacity, clamped at zero."""
    return max(0.0, shannon_capacity(params) - 1.0)


def debuda_rate(params: ClassicalParams) -> float:
    """Lattice-code rate (1/2) log2(P / sigma^2) achievable with small
    maximal error probability; approaches capacity at high SNR."""
    return max(0.0, 0.5 * math.log2(params.snr))


def signal_family(params: ClassicalParams) -> tuple:
    """The dit_rates family (1.5 P, 1.0, 2, sigma^2) of d-ary signals with
    spacing 2 dx, dx = sqrt(3 P) / d: p(d) = erfc(sqrt(3 P / (2 d^2 sigma^2)))."""
    return (1.5 * params.power, 1.0, 2, params.sigma_sq)


def optimize_classical_d(params: ClassicalParams, d_max: int | None = None) -> tuple[int, float]:
    """Best signal alphabet size over 2 <= d <= d_max; ties go to the smallest d.

    The optimum sits near C * sqrt(P / sigma^2) with C below 1, so the
    default ceiling 8 sqrt(P / sigma^2) is comfortably interior; above
    P / sigma^2 = 2**100 it passes the scan's limit and is refused.
    The rate is dit_rate(d, p, 1), a random outer code on d-ary signals
    with p the per-variable error bound (dit_rates.optimize_dit_rate).
    """
    if d_max is None:
        d_max = scan_ceiling(8.0 * math.sqrt(params.snr), f"snr = {params.snr!r}")
    return optimize_dit_rate(signal_family(params), 1, d_max)
