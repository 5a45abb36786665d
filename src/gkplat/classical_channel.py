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

import numpy as np

from .concatenated import (
    _erfc,
    dit_rate_bound,
    entropy_base_d,
    scan_ceiling,
    scan_dimensions,
)


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


def classical_dit_error_prob(d: int | np.ndarray, params: ClassicalParams) -> float | np.ndarray:
    """Per-variable error bound erfc(sqrt(3 P / (2 d^2 sigma^2))) for d-ary
    signaling with spacing 2 dx, dx = sqrt(3 P) / d; d may be an array."""
    if np.any(np.asarray(d) < 2):
        raise ValueError("signal alphabet must have d >= 2")
    d_sq = np.asarray(d, dtype=float) ** 2
    return _erfc(np.sqrt(1.5 * params.power / (d_sq * params.sigma_sq)))


def classical_concat_rate(d: int | np.ndarray, p) -> float | np.ndarray:
    """Bits per variable of a random outer code on d-ary signals:
    log2(d) (1 - H_d(p) - p log_d(d-1)), clamped at 0. Scalars or arrays."""
    if np.any(np.asarray(d) < 2):
        raise ValueError("signal alphabet must have d >= 2")
    log_ratio = np.log(d - 1) / np.log(d)
    return np.maximum(0.0, np.log2(d) * (1.0 - entropy_base_d(p, d) - p * log_ratio))


def optimize_classical_d(params: ClassicalParams, d_max: int | None = None) -> tuple[int, float]:
    """Best signal alphabet size over 2 <= d <= d_max; ties go to the smallest d.

    The optimum sits near C * sqrt(P / sigma^2) with C below 1, so the
    default ceiling 8 sqrt(P / sigma^2) is comfortably interior; above
    P / sigma^2 = 2**100 it passes the scan's limit and is refused.
    The rate is max(0, log2 d - h2(p) - p log2(d-1)) with p increasing
    in d, so dit_rate_bound(p, 1) bounds it on each block of the scan,
    and blocks that cannot beat the best rate so far are skipped. The
    result equals that of an exhaustive scan, bit for bit.
    """
    if d_max is None:
        d_max = scan_ceiling(8.0 * math.sqrt(params.snr), f"snr = {params.snr!r}")
    return scan_dimensions(
        lambda ds: classical_concat_rate(ds, classical_dit_error_prob(ds, params)), d_max,
        dit_rate_bound(lambda ds: classical_dit_error_prob(ds, params), 1))
