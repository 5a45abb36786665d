"""Independent oracles for the test suite.

Everything here deliberately avoids the code paths it is used to check:
the symplectic form omega is written out entry by entry (the library
never forms it), the Pfaffian is a combinatorial sum over perfect
matchings, the determinant and inverse are Fraction eliminations (the
library's is a fraction-free pass in ints), lattice membership is a
Fraction elimination of its own,
closest-point references are box enumerations, erfc is a series of
positive terms plus a continued fraction, and success probabilities come
from the 1D Gaussian CDF. The two per-symbol error bounds are written out
in their own operation order, which the library's one erfc family must
reproduce bit for bit. A rate scan, which promises a rate within its
slack of the best, is checked against the first argmax over every d,
screened by a numpy evaluation of the rate in bits where the range is
long. The lattice-averaging error bound, which no library path
calls, is kept here as a reference that the rate tests check, and so is the
dense block decoder: int64 matrix products over every row, where the
library sums over the checks' nonzero entries on the nonzero rows only.
The single-qudit channel's reference draws and bins normal shifts, where
the library samples the binned distribution; a block's exact failure
probability is a syndrome trellis over the qudits, where the library
decodes sampled errors. The general-path search is kept in the form it
had before its level loop went level-major, with a node and a zigzag
index per child.
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
    """erfc via a series of positive terms (z < 1.5) or a Lentz-free
    continued fraction (z >= 1.5)."""
    if z < 0:
        return 2.0 - erfc_oracle(-z)
    if z < 1.5:
        # erf(z) = 2/sqrt(pi) exp(-z^2) sum 2^k z^(2k+1) / (1 3 ... (2k+1));
        # no term cancels another, and erfc >= 0.03 here, so 1 - erf keeps
        # its relative accuracy
        total, term, k = 0.0, z, 0
        while term > 1e-17 * total:
            total += term
            k += 1
            term *= 2.0 * z * z / (2 * k + 1)
        return 1.0 - 2.0 / math.sqrt(math.pi) * math.exp(-z * z) * total
    # erfc(z) = exp(-z^2)/sqrt(pi) / (z + (1/2)/(z + 1/(z + (3/2)/(z + ...))))
    f = 0.0
    for k in range(80, 0, -1):
        f = (k / 2.0) / (z + f)
    return math.exp(-z * z) / math.sqrt(math.pi) / (z + f)


def qudit_error_prob(d: int, sigma_sq: float, hbar: float) -> float:
    """Grid-qudit bound erfc(sqrt(pi hbar / (4.0 d sigma^2))), evaluated in
    that order with libm's erfc (math.erfc)."""
    return math.erfc(math.sqrt(math.pi * hbar / (4.0 * d * sigma_sq)))


def signal_error_prob(d: int, power: float, sigma_sq: float) -> float:
    """d-ary signal bound erfc(sqrt(1.5 / (d^2 (sigma^2 / P)))), evaluated in
    that order with d^2 the float product d * d and libm's erfc."""
    d_sq = float(d) * float(d)
    return math.erfc(math.sqrt(1.5 / (d_sq * (sigma_sq / power))))


def dit_rate_screen(ds: np.ndarray, family: tuple, k: int) -> np.ndarray:
    """dit_rate(d, p(d), k) of the erfc family (num, c, j, s) over an int64
    array of d, written in bits, log2 d - k h2(p) - k p log2(d-1), clamped
    at 0 and 0 from p = (d-1)/d on, with numpy and scipy's erfc: within
    about 1e-13 of the library's scalar evaluation, which is the
    quotient form in libm."""
    from scipy.special import erfc
    num, c, j, s = family
    d = ds.astype(float)
    p = erfc(np.sqrt(num / (c * d ** j * s)))
    inside = (p > 0.0) & (p < 1.0)
    q = np.where(inside, p, 0.5)
    h2 = np.where(inside, -(q * np.log2(q) + (1.0 - q) * np.log2(1.0 - q)), 0.0)
    rate = np.maximum(0.0, np.log2(d) - k * h2 - k * p * np.log2(d - 1.0))
    return np.where(p < (d - 1.0) / d, rate, 0.0)


def exhaustive_argmax(rate, d_max: int, screen=None, tol: float = 1e-9) -> tuple[int, float]:
    """First maximum (d, rate(d)) over 2 <= d <= d_max of the scalar
    ``rate``; no bound, no heap.

    Without ``screen`` every d is evaluated, in ascending order. With it,
    ``screen`` maps an int64 array of d to values within ``tol`` of rate(d),
    run on consecutive blocks of 2**16; only the d whose screened value is
    within 2 tol of the greatest screened value are evaluated with ``rate``
    (every maximum of ``rate`` is among them), and the screen's accuracy
    is asserted on each of them.
    """
    if screen is None:
        candidates = range(2, d_max + 1)
    else:
        top, kept = -math.inf, []
        for start in range(2, d_max + 1, 1 << 16):
            ds = np.arange(start, min(start + (1 << 16), d_max + 1), dtype=np.int64)
            values = screen(ds)
            top = max(top, float(values.max()))
            keep = values >= top - 2.0 * tol
            kept.extend(zip(ds[keep].tolist(), values[keep].tolist()))
        screened = {d: v for d, v in kept if v >= top - 2.0 * tol}
        candidates = screened
    best = (0, -math.inf)
    for d in candidates:
        value = rate(d)
        if screen is not None:
            assert abs(value - screened[d]) <= tol, (d, value, screened[d])
        if value > best[1]:
            best = (d, value)
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


def normal_rounding_outcomes(code, noise, rows: int, rng):
    """Reference for the Monte Carlo of a code whose normalizer has an
    orthogonal frame: the rounded coefficients xi M^-1 of ``rows``
    displacements xi drawn by standard_normal, rounding being nearest-point
    decoding there, and their voronoi and coset failure masks, tested as
    binned_row_failures tests them. This was the library's estimator,
    decoder and all, before it sampled binned coefficients."""
    xi = rng.standard_normal((rows, code.normalizer.n))
    xi *= noise.lattice_sigma
    coeffs = np.rint(xi @ np.linalg.inv(code.normalizer.effective_matrix())).astype(np.int64)
    num, den = code.coset_test
    return coeffs, coeffs.any(axis=1), ((coeffs @ num) % den != 0).any(axis=1)


def binned_row_failures(code, hits, values, rows: int, criterion: str) -> np.ndarray:
    """Failure of each of ``rows`` rows whose nonzero rounded normalizer
    coefficients are the cells (hits, values) of the flat (rows, n) block:
    voronoi fails a row with any nonzero coefficient, coset a row whose
    coefficients c leave den not dividing some entry of c @ num."""
    coeffs = np.zeros(rows * code.normalizer.n, dtype=np.int64)
    coeffs[hits] = values
    coeffs = coeffs.reshape(rows, -1)
    if criterion == "voronoi":
        return coeffs.any(axis=1)
    num, den = code.coset_test
    return ((coeffs @ num) % den != 0).any(axis=1)


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


def pooled_columns(counts: np.ndarray) -> np.ndarray:
    """Columns of a two-row count table with at least 20 counts, then one
    column pooling the others if they hold any."""
    keep = counts.sum(axis=0) >= 20
    rest = counts[:, ~keep].sum(axis=1, keepdims=True)
    return np.hstack([counts[:, keep]] + ([rest] if rest.any() else []))


def wilson_halfwidth(p_hat: float, trials: int, z: float = 1.959963984540054) -> float:
    zz = z * z / trials
    return z * math.sqrt(p_hat * (1.0 - p_hat) / trials + zz / (4.0 * trials)) / (1.0 + zz)


def matmul_decode_sector(d, errors, checks, table, opposite_logical):
    """Table rows and failure mask of one sector for (m, n) exponents; a
    missing syndrome gets the last row (zero correction) and fails. The
    residual errors - correction pairs with the opposite logicals as
    errors @ opposite_logical.T minus the row's stored pairing, mod d."""
    keys, _, weights, pairing = table[:4]
    synd = errors @ checks.T
    synd %= d
    synd = synd @ weights
    row = np.searchsorted(keys, synd)
    found = keys[row] == synd
    row[~found] = -1
    residual = errors @ opposite_logical.T
    residual -= pairing[row]
    residual %= d
    return row, ~found | residual.any(axis=1)


_SAMPLE_CHUNK = 1 << 16  # normals per fill of the one reused float buffer
_MAX_SHIFT = 2.0 ** 53   # float64 holds every integer below it exactly


def normal_binned_qudit_errors(d: int, noise, rng, size) -> tuple[np.ndarray, np.ndarray]:
    """Reference single-qudit channel: arrays of X and Z exponents.

    Shifts are sampled in physical units and binned to the nearest
    multiple of the spacing delta = sqrt(2 pi hbar / d), modulo d. They
    are drawn _SAMPLE_CHUNK at a time into one float buffer, reduced mod d
    in float as s - floor(s / d) d and cast into the int64 output, with
    the values and generator state of one draw of the whole (2,) + size
    array. The reduction is exact while |s| + d < 2**53; a shift beyond
    that, or a d of 2**53 or more, raises ValueError before the cast.
    """
    if d < 2:
        raise ValueError("qudit dimension must be >= 2")
    delta = math.sqrt(2.0 * math.pi * noise.hbar / d)
    sigma = math.sqrt(noise.sigma_sq)
    limit = _MAX_SHIFT - d  # below it s, floor(s / d) d and their difference are exact
    shape = (2,) + (tuple(size) if isinstance(size, tuple) else (size,))
    binned = np.empty(shape, dtype=np.int64)
    flat = binned.reshape(-1)
    chunk = np.empty(min(_SAMPLE_CHUNK, flat.size))
    for lo in range(0, flat.size, _SAMPLE_CHUNK):
        shifts = chunk[:flat.size - lo]
        out = flat[lo:lo + len(shifts)]
        rng.standard_normal(out=shifts)
        shifts *= sigma
        shifts /= delta
        np.rint(shifts, out=shifts)
        if not (-limit < shifts.min() and shifts.max() < limit):
            raise ValueError(f"d = {d} with sigma_sq = {noise.sigma_sq!r} and hbar = "
                             f"{noise.hbar!r} gives qudit shifts s with |s| + d >= 2**53, "
                             f"beyond float64's exact integers")
        wraps = out.view(np.float64)  # the output slice, not yet written, as scratch
        np.divide(shifts, d, out=wraps)
        np.floor(wraps, out=wraps)
        wraps *= d
        shifts -= wraps
        out[:] = shifts  # the same cast as astype(np.int64)
    return binned[0], binned[1]


def trellis_sector_failure_prob(code, pmf, sector: str) -> float:
    """Exact logical-failure probability of one sector ("X" or "Z") of a
    CssCode whose qudits take iid exponents with the given pmf on Z_d, by
    a syndrome trellis (Bahl, Cocke, Jelinek, Raviv 1974; Wolf 1978).

    The state is the syndrome digits and the pairing with the opposite
    logicals, in Z_d^(r+k); each qudit column c of the checks and
    logicals takes P to sum_v pmf[v] roll(P, v c mod d). A block succeeds
    where its syndrome is a table key and its pairing is that key's
    correction's pairing, so the failure probability is 1 minus P summed
    over those states.
    """
    d = code.d
    checks, table, opposite = ((code.hz, code.x_table, code.logical_z) if sector == "X"
                               else (code.hx, code.z_table, code.logical_x))
    columns = np.concatenate([checks, opposite]) % d
    axes = tuple(range(len(columns)))
    prob = np.zeros((d,) * len(columns))
    prob[(0,) * len(columns)] = 1.0
    for col in columns.T:
        prob = sum(pmf[v] * np.roll(prob, tuple(int(s) for s in v * col % d), axis=axes)
                   for v in range(d))
    keys, _, weights, pairing = table[:4]
    success = 0.0
    for key, paired in zip(keys[:-1].tolist(), pairing[:-1].tolist()):
        success += prob[tuple(key // w % d for w in weights.tolist()) + tuple(paired)]
    return 1.0 - success


_MAX_NODES = 1 << 20  # the decoder's enumeration nodes per level


def reference_search(lower, ys, bound=None, nonzero=False, every=False):
    """The decoder's search as it was written with per-node index arrays,
    integer coefficients and a partial sum built term by term: the
    reference its level loop must match bit for bit.

    Enumerate, level by level, the coefficient vectors c with
    |c @ lower - y|^2 <= bound for each row y of ys; returns the first
    minimum of each row in depth-first Schnorr-Euchner order, its squared
    distance and the runner-up distance (inf if none). With bound None
    only the nearer child of each node is taken: the nearest-plane point,
    with no runner-up. ``nonzero`` leaves out the zero vector of a bounded
    search. ``every``, for one target, returns instead every coefficient
    vector within the bound and its squared distance, in depth-first
    Schnorr-Euchner order."""
    rows, n = ys.shape
    row = np.arange(rows)
    part = np.zeros(rows)
    c = np.zeros((rows, n), dtype=np.int64)
    for k in range(n - 1, -1, -1):
        s = np.zeros(len(row))
        for i in range(k + 1, n):
            s = s + c[:, i] * lower[i, k]
        diag = lower[k, k]
        mu = (ys[row, k] - s) / diag
        lo = np.floor(mu)
        first = lo + 1 - mu <= mu - lo  # lo + 1 is the nearer child
        if bound is None:  # nearest plane: each row keeps its nearer child only
            node, cand = slice(None), lo + first
        else:
            rad = np.sqrt(np.maximum(bound[row] - part, 0.0)) / abs(diag)
            width = 2 * np.floor(rad).astype(np.int64) + 3
            ends = np.cumsum(width)
            if len(ends) and ends[-1] > _MAX_NODES:
                raise ValueError(f"the decoder's search needs {ends[-1]} nodes at one level, "
                                 f"above 2**20: the lattice basis is too skewed for the decoder")
            node = np.repeat(np.arange(len(row)), width)
            j = np.arange(len(node)) - np.repeat(ends - width, width)
            zigzag = (j + 1) // 2 * np.where(j % 2, -1, 1)  # 0, -1, 1, -2, 2, ...
            cand = lo[node] + first[node] + np.where(first, 1.0, -1.0)[node] * zigzag
        t = cand * diag + s[node] - ys[row[node], k]
        p = part[node] + t * t
        if bound is not None:
            keep = p <= bound[row[node]]
            node, cand, p = node[keep], cand[keep], p[keep]
        row, part, c = row[node], p, c[node]
        c[:, k] = cand
    if bound is None:
        return c, part, np.full(rows, np.inf)
    if every:
        return c, part
    if nonzero:
        keep = c.any(axis=1)
        row, part, c = row[keep], part[keep], c[keep]
    order = np.lexsort((part, row))  # stable: the first of equal minima wins
    start = np.searchsorted(row, np.arange(rows))
    second = np.where(np.bincount(row, minlength=rows) > 1, start + 1, -1)
    dist = np.append(part[order], np.inf)
    return c[order[start]], dist[start], dist[second]
