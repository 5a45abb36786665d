"""Closest-point and shortest-vector search for desk-scale lattices.

``closest_points`` is the one nearest-point search: ``closest_point`` is
a batch of one and ``shortest_vector`` runs the same enumeration around
the origin. Orthogonal frames (G = c^2 I exactly) decode by rounding.
Otherwise blocks of targets are decoded in the QR frame of an LLL-reduced
basis by enumerating, level by level, every coefficient vector within the
nearest-plane (Babai) distance, children in Schnorr-Euchner order
(Agrell, Eriksson, Vardy, Zeger, *Closest point search in lattices*).

A near-tie with the runner-up is flagged and counts as a decoding failure
(the Voronoi cell boundary has measure zero under Gaussian noise, and
failing there is the conservative choice). "Near" is relative to the
lattice's scale (c^2, or the nearest-plane distance limit), and so is the
search margin, so a rescaled lattice decodes alike. At an exact tie the
reported point is one of the tied points. Coefficients of 2**26 or more,
where float64 no longer decodes reliably, raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .symplectic_lattice import Lattice, orthogonal_scale_sq

MAX_DIM = 12
TIE_REL = 1e-12
_SLACK_REL = 1e-9  # search margin so tie partners are always enumerated
_BLOCK = 1 << 12  # targets per enumeration block; bounds the node arrays
_MAX_COEFF = 2.0 ** 26  # beyond it the residual keeps under 26 of 52 fraction bits
_TOO_FAR = ("target coefficients in the lattice basis reach 2**26, beyond float64: "
            "the target is too far out for the lattice's scale")
_MAX_TRANSFORM = 2.0 ** 53  # LLL transform entries stay exact in float64, far below int64
_LLL_ROUNDS = 4  # LLL rounds allowed per n^2 (bits + 2); see _lll
_MAX_NODES = 1 << 20  # enumeration nodes per level of a block, about 150 MB at n = 12


@dataclass(frozen=True)
class DecodeResult:
    closest: np.ndarray      # nearest lattice point, ambient coordinates
    coeffs: np.ndarray       # its integer coordinates in the basis
    dist_sq: float
    tie: bool                # a second lattice point at (numerically) equal distance


def _lll(m: np.ndarray) -> np.ndarray:
    """Integer unimodular U with U @ m LLL-reduced (delta 0.99). Floats only
    choose the integer row operations, so U @ m spans the lattice of m.
    Raises ValueError if an entry of U would reach 2**53, or after
    _LLL_ROUNDS n^2 (bits + 2) rounds, bits the log2 of m's largest entry
    over its least Gram-Schmidt length: LLL's swap count is polynomial in
    both, and float rounding beyond 53 bits can make the swaps cycle."""
    n = len(m)
    u = np.eye(n, dtype=np.int64)
    r = np.linalg.qr(m.T, mode="r")
    rounds = _LLL_ROUNDS * n * n * (math.log2(np.abs(m).max() / np.abs(np.diag(r)).min()) + 2)
    k = 1
    while k < n:
        rounds -= 1
        if rounds < 0:
            raise ValueError("lattice basis is beyond the decoder's float64 range: "
                             "its LLL reduction does not settle")
        r = np.linalg.qr((u @ m).T, mode="r")
        for j in range(k - 1, -1, -1):  # size reduction of row k
            mu = np.rint(r[j, k] / r[j, j])
            if abs(mu) * np.abs(u[j]).max() + np.abs(u[k]).max() >= _MAX_TRANSFORM:
                raise ValueError("lattice basis is beyond the decoder's int64/float64 range: "
                                 "its LLL transform reaches 2**53")
            u[k] -= int(mu) * u[j]
            r[:, k] -= mu * r[:, j]
        if r[k, k] ** 2 < (0.99 - (r[k - 1, k] / r[k - 1, k - 1]) ** 2) * r[k - 1, k - 1] ** 2:
            u[[k - 1, k]] = u[[k, k - 1]]
            k = max(k - 1, 1)
        else:
            k += 1
    return u


@lru_cache(maxsize=128)
def _frame(lat: Lattice):
    """Float generator matrix and its inverse, the triangular frame of the
    basis, the exact orthogonal scale c^2 (or None), and the LLL transform
    U with the (lower, q) frame of U M."""
    if lat.n > MAX_DIM:
        raise ValueError(f"decoder supports dimensions up to {MAX_DIM}, got {lat.n}")
    m = lat.effective_matrix()
    r = np.linalg.qr(m.T, mode="r")
    u = _lll(m)
    q_red, r_red = np.linalg.qr((u @ m).T)
    return m, np.linalg.inv(m), r.T, orthogonal_scale_sq(lat), u, r_red.T, q_red


def _search(lower, ys, bound=None, nonzero=False):
    """Enumerate, level by level, the coefficient vectors c with
    |c @ lower - y|^2 <= bound for each row y of ys; returns the first
    minimum of each row in depth-first Schnorr-Euchner order, its squared
    distance and the runner-up distance (inf if none). With bound None
    only the first child of each node is taken: the nearest-plane point.
    ``nonzero`` leaves out the zero vector."""
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
        step = np.where(lo + 1 - mu <= mu - lo, 1.0, -1.0)  # +1: lo + 1 comes first
        if bound is None:
            width = np.ones(len(row), dtype=np.int64)
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
        cand = lo[node] + (step[node] > 0) + step[node] * zigzag
        t = cand * diag + s[node] - ys[row[node], k]
        p = part[node] + t * t
        if bound is not None:
            keep = p <= bound[row[node]]
            node, cand, p = node[keep], cand[keep], p[keep]
        row, part, c = row[node], p, c[node]
        c[:, k] = cand
    if nonzero:
        keep = c.any(axis=1)
        row, part, c = row[keep], part[keep], c[keep]
    order = np.lexsort((part, row))  # stable: the first of equal minima wins
    start = np.searchsorted(row, np.arange(rows))
    second = np.where(np.bincount(row, minlength=rows) > 1, start + 1, -1)
    dist = np.append(part[order], np.inf)
    return c[order[start]], dist[start], dist[second]


def closest_points(lat: Lattice, xs) -> tuple[np.ndarray, np.ndarray]:
    """Nearest lattice points of the rows of an (m, n) block of targets:
    their basis coefficients, (m, n) int64, and a tie flag per row. On an
    orthogonal frame the tie test is decided column by column.

    Raises ValueError for a non-finite coordinate, for lattice
    coefficients of 2**26 or more, and for a basis so skewed that its LLL
    reduction leaves the int64/float64 range."""
    _, m_inv, _, c_sq, u_red, lower, q = _frame(lat)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != lat.n:
        raise ValueError(f"point/lattice dimension mismatch: points of shape {xs.shape} "
                         f"for a lattice of dimension {lat.n}")
    if not np.isfinite(xs).all():
        raise ValueError("target coordinates must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the test below
        u = xs @ m_inv
    if u.size and not (-_MAX_COEFF < u.min() and u.max() < _MAX_COEFF):
        raise ValueError(_TOO_FAR)
    if c_sq is not None:
        # rounding is exact; tie gap c_sq (1 - 2 max_i |frac_i|), bitwise the least
        # per-coordinate gap c_sq (1 - 2|frac_i|) since 1 - 2x is monotone in float
        c_sq = float(c_sq)
        k = np.rint(u)
        frac = np.subtract(u, k, out=u)
        d1 = c_sq * np.einsum("ij,ij->i", frac, frac)
        np.abs(frac, out=frac)
        worst = frac[:, 0].copy()
        for col in frac.T[1:]:
            np.maximum(worst, col, out=worst)
        gap = c_sq * (1.0 - 2.0 * worst)
        return k.astype(np.int64), gap <= TIE_REL * (c_sq + d1)
    box = float(np.sum(np.diag(lower) ** 2)) / 4.0  # nearest-plane distance limit
    coeffs = np.empty(xs.shape, dtype=np.int64)
    tie = np.empty(len(xs), dtype=bool)
    for lo in range(0, len(xs), _BLOCK):
        y = xs[lo:lo + _BLOCK] @ q
        _, near, _ = _search(lower, y)
        if not (near <= box * (1.0 + _SLACK_REL)).all():
            raise ValueError("target too far from the origin for float64 decoding")
        c, d1, d2 = _search(lower, y, near * (1.0 + _SLACK_REL) + _SLACK_REL * box)
        coeffs[lo:lo + _BLOCK] = c @ u_red
        tie[lo:lo + _BLOCK] = (d2 - d1) <= TIE_REL * (box + d1)
    return coeffs, tie


def closest_point(lat: Lattice, x) -> DecodeResult:
    """True nearest lattice point of one target: a batch of one."""
    x = np.asarray(x, dtype=float)
    coeffs, tie = closest_points(lat, x.reshape(1, -1))
    closest = coeffs[0].astype(float) @ _frame(lat)[0]
    delta = x - closest
    return DecodeResult(closest=closest, coeffs=coeffs[0], dist_sq=float(delta @ delta),
                        tie=bool(tie[0]))


def shortest_vector(lat: Lattice) -> tuple[np.ndarray, float]:
    """A nonzero lattice vector of minimal norm and its squared length.

    The search runs in the lattice's own basis, so the vector reported
    among the minimal ones is the first in that basis's search order."""
    m, _, lower, *_ = _frame(lat)
    bound = float(np.einsum("ij,ij->i", m, m).min()) * (1.0 + _SLACK_REL)
    c, _, _ = _search(lower, np.zeros((1, lat.n)), np.array([bound]), nonzero=True)
    vec = c[0].astype(float) @ m
    return vec, float(vec @ vec)


def packing_radius(lat: Lattice) -> float:
    """Half the shortest nonzero vector length."""
    _, length_sq = shortest_vector(lat)
    return math.sqrt(length_sq) / 2.0
