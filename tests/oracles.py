"""Independent oracles for the test suite.

Everything here deliberately avoids the code paths it is used to check:
the symplectic form omega is written out entry by entry (the library
never forms it), the Pfaffian is a combinatorial sum over perfect
matchings, the determinant and inverse are Fraction eliminations (the
library's is a fraction-free pass in ints), lattice membership is a
Fraction elimination of its own,
closest-point references are box enumerations, erfc is a Taylor series
plus a continued fraction, and success probabilities come from the 1D
Gaussian CDF. The two per-symbol error bounds are written out in their
own operation order, which the library's one erfc family must reproduce
bit for bit, and the best d of a rate scan is a blockwise argmax over
every d. The lattice-averaging error bound, which no library path
calls, is kept here as a reference that the rate tests check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def omega(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Symplectic form [[0, I_N], [-I_N, 0]] for n = 2N coordinates, as an
    exact matrix comparable with the library's."""
    if n <= 0 or n % 2:
        raise ValueError("phase-space dimension must be even and positive")
    half = n // 2
    return tuple(tuple(Fraction(int(j == i + half) - int(i == j + half)) for j in range(n))
                 for i in range(n))


def pfaffian(a) -> Fraction:
    """Pfaffian by summing signed perfect matchings (exact, n <= ~10)."""
    n = len(a)
    if n % 2:
        raise ValueError("pfaffian needs even dimension")
    rows = [[Fraction(v) for v in row] for row in a]

    def rec(items):
        if not items:
            return Fraction(1)
        first, rest = items[0], items[1:]
        total = Fraction(0)
        for i, j in enumerate(rest):
            term = rows[first][j] * rec(rest[:i] + rest[i + 1:])
            total += term if i % 2 == 0 else -term
        return total

    return rec(list(range(n)))


def determinant(a) -> Fraction:
    """Exact determinant by Fraction Gaussian elimination."""
    n = len(a)
    m = [[Fraction(v) for v in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def inverse(a) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse by Fraction Gauss-Jordan; ValueError on singular input."""
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * p for v, p in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def coset_member(lat, v, v_scale_sq=None) -> bool:
    """Exact membership of sqrt(v_scale_sq) * v in the lattice
    sqrt(lat.scale_sq) * (integer row span of lat.basis).

    The vector scale defaults to the lattice's own. The coordinates c solve
    basis^T c = root * v, with root^2 the ratio of the scales, by Fraction
    Gauss-Jordan elimination. A ratio with no rational square root raises
    ValueError: no nonzero rational vector at that scale is a lattice point.
    """
    u = [Fraction(x) for x in v]
    n = len(lat.basis)
    if len(u) != n:
        raise ValueError("vector/lattice dimension mismatch")
    if not any(u):
        return True
    ratio = (lat.scale_sq if v_scale_sq is None else Fraction(v_scale_sq)) / lat.scale_sq
    top, bottom = math.isqrt(ratio.numerator), math.isqrt(ratio.denominator)
    if top * top != ratio.numerator or bottom * bottom != ratio.denominator:
        raise ValueError("vector scale is incompatible with the lattice scale")
    root = Fraction(top, bottom)
    rows = [[Fraction(lat.basis[i][j]) for i in range(n)] + [root * u[j]] for j in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return all((rows[i][n] / rows[i][i]).denominator == 1 for i in range(n))


@lru_cache(maxsize=8)
def _delta_box(n: int, radius: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(-radius, radius + 1)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(float)


class BruteForceCVP:
    """Closest-point reference: exhaustive coefficient box around the
    coordinatewise-rounding seed. Only sound when the true closest point
    is never more than ``radius`` coefficients away from the seed."""

    def __init__(self, m: np.ndarray, radius: int = 2):
        self.m = np.asarray(m, dtype=float)
        self.m_inv = np.linalg.inv(self.m)
        self.radius = radius
        self.deltas = _delta_box(self.m.shape[0], radius)
        self.dm = self.deltas @ self.m
        self.dm_sq = np.einsum("ij,ij->i", self.dm, self.dm)

    def closest(self, x) -> tuple[np.ndarray, float]:
        """(coefficients, squared distance) of the box minimum.

        The final distance is recomputed directly so it is bit-comparable
        with a decoder that reports |x - coeffs @ m|^2.
        """
        x = np.asarray(x, dtype=float)
        seed = np.rint(x @ self.m_inv)
        r = seed @ self.m - x
        approx = self.dm_sq + 2.0 * self.dm @ r + float(r @ r)
        best = np.argpartition(approx, 8)[:8]
        best_d, best_c = math.inf, None
        for idx in best:
            coeffs = seed + self.deltas[idx]
            v = coeffs @ self.m
            d = float((x - v) @ (x - v))
            if d < best_d:
                best_d, best_c = d, coeffs
        return best_c, best_d


def closest_zn(x: np.ndarray) -> np.ndarray:
    """Exact CVP in Z^n: coordinatewise rounding."""
    return np.rint(np.asarray(x, dtype=float))


def closest_dn(x: np.ndarray) -> np.ndarray:
    """Exact CVP in D_n (integer vectors with even sum).

    Round every coordinate; if the parity is wrong, re-round the worst
    coordinate to its second-nearest integer.
    """
    x = np.asarray(x, dtype=float)
    r = np.rint(x)
    if int(r.sum()) % 2:
        err = x - r
        i = int(np.argmax(np.abs(err)))
        r = r.copy()
        r[i] += 1.0 if err[i] >= 0 else -1.0
    return r


def closest_e8(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact CVP in E8 (even coordinate system): best over the two cosets
    D8 and D8 + (1/2, ..., 1/2)."""
    x = np.asarray(x, dtype=float)
    best_v, best_d = None, math.inf
    for v in (closest_dn(x), closest_dn(x - 0.5) + 0.5):
        d = float((x - v) @ (x - v))
        if d < best_d:
            best_v, best_d = v, d
    return best_v, best_d


def reference_closest(name: str, x) -> tuple[np.ndarray, float]:
    """Exact closest point for the named catalog lattice, by construction."""
    x = np.asarray(x, dtype=float)
    if name.startswith("Zn"):
        v = closest_zn(x)
    elif name == "D4":
        v = closest_dn(x)
    elif name == "E8":
        return closest_e8(x)
    else:
        raise KeyError(name)
    return v, float((x - v) @ (x - v))


def erfc_oracle(z: float) -> float:
    """erfc via Taylor series (small z) or Lentz-free continued fraction."""
    if z < 0:
        return 2.0 - erfc_oracle(-z)
    if z < 3.0:
        # erf(z) = 2/sqrt(pi) sum (-1)^k z^(2k+1) / (k! (2k+1))
        total, term = 0.0, z
        k = 0
        while abs(term) > 1e-20 * max(1.0, abs(total)):
            total += term / (2 * k + 1)
            k += 1
            term *= -z * z / k
        return 1.0 - 2.0 / math.sqrt(math.pi) * total
    # erfc(z) = exp(-z^2)/sqrt(pi) / (z + (1/2)/(z + 1/(z + (3/2)/(z + ...))))
    f = 0.0
    for k in range(80, 0, -1):
        f = (k / 2.0) / (z + f)
    return math.exp(-z * z) / math.sqrt(math.pi) / (z + f)


def qudit_error_prob(d, sigma_sq: float, hbar: float):
    """Grid-qudit bound erfc(sqrt(pi hbar / (4.0 d sigma^2))), evaluated in
    that order with scipy.special.erfc; d an integer or an array."""
    from scipy.special import erfc
    return erfc(np.sqrt(math.pi * hbar / (4.0 * d * sigma_sq)))


def signal_error_prob(d, power: float, sigma_sq: float):
    """d-ary signal bound erfc(sqrt(1.5 P / (d^2 sigma^2))), evaluated in
    that order with d^2 a float; d an integer or an array."""
    from scipy.special import erfc
    d_sq = np.asarray(d, dtype=float) ** 2
    return erfc(np.sqrt(1.5 * power / (d_sq * sigma_sq)))


def exhaustive_argmax(rate, d_max: int) -> tuple[int, float]:
    """First maximum (d, rate(d)) over 2 <= d <= d_max: ``rate`` maps an
    int64 array of d to rates elementwise and runs on consecutive blocks of
    2**16 in ascending d, each reduced by np.argmax; a later block wins
    only on a strictly higher rate. No bound, no heap."""
    best = (0, -math.inf)
    for start in range(2, d_max + 1, 1 << 16):
        ds = np.arange(start, min(start + (1 << 16), d_max + 1), dtype=np.int64)
        rates = rate(ds)
        idx = int(np.argmax(rates))
        if rates[idx] > best[1]:
            best = (int(ds[idx]), float(rates[idx]))
    return best


def error_probability_bound(rate: float, noise, eps: float, n_modes: int) -> float:
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


def gauss_abs_cdf(b: float, sigma: float) -> float:
    """P(|X| < b) for X ~ N(0, sigma^2)."""
    if sigma == 0.0:
        return 1.0 if b > 0 else 0.0
    return math.erf(b / (sigma * math.sqrt(2.0)))


def square_lattice_failure_prob(d: int, n: int, sigma_lattice: float) -> float:
    """Exact Voronoi-failure probability for the (1/sqrt(d)) Z^n lattice
    under iid N(0, sigma_lattice^2) coordinates."""
    per_coord = gauss_abs_cdf(1.0 / (2.0 * math.sqrt(d)), sigma_lattice)
    return 1.0 - per_coord ** n

def qudit_shift_pmf(d: int, sigma: float, hbar: float = 1.0, k_range: int = 8) -> np.ndarray:
    """Distribution of round(shift/delta) mod d for a N(0, sigma^2) shift,
    delta = sqrt(2 pi hbar / d), with wrap-around windows summed."""
    delta = math.sqrt(2.0 * math.pi * hbar / d)
    pmf = np.zeros(d)
    for v in range(d):
        total = 0.0
        for k in range(-k_range, k_range + 1):
            center = (v + k * d) * delta
            hi = (center + delta / 2.0) / (sigma * math.sqrt(2.0))
            lo = (center - delta / 2.0) / (sigma * math.sqrt(2.0))
            total += 0.5 * (math.erf(hi) - math.erf(lo))
        pmf[v] = total
    return pmf


def wilson_halfwidth(p_hat: float, trials: int, z: float = 1.959963984540054) -> float:
    zz = z * z / trials
    return z * math.sqrt(p_hat * (1.0 - p_hat) / trials + zz / (4.0 * trials)) / (1.0 + zz)
