"""Closest-point and shortest-vector search for desk-scale lattices.

``closest_points`` is the one nearest-point search, ``closest_point`` a
batch of one. Each lattice's blocks of targets are decoded in the QR
frame of an LLL-reduced basis, and the same enumeration, run once around
the origin there, gives ``shortest_vector``. A nearest-plane (Babai)
pass takes, level by level, the nearer child of each row; on an
orthogonal frame (G = c^2 I) that is coordinatewise rounding. Rows past
the packing-radius margin below then go to a bounded search that
enumerates every coefficient vector within the nearest-plane distance,
children in Schnorr-Euchner order (Agrell, Eriksson, Vardy, Zeger,
*Closest point search in lattices*). A level lays every node's children
out in that order as a row of one padded rectangle, whose padding the
bound drops. Partial sums run left to right, as np.add.accumulate runs;
np.add.reduce or @ may sum pairwise instead.

The margin is bounded-distance decoding (Conway & Sloane, *Sphere
Packings, Lattices and Groups*, ch. 20). Let b be a row's nearest-plane
point, at squared distance near from the target y, and 2 rho the length
of a shortest nonzero lattice vector. Any other lattice point v has
|v - y| >= |v - b| - |b - y| >= 2 rho - sqrt(near). The bounded search
keeps the points within bound = near (1 + slack) + slack box, b among
them. So where (2 rho - sqrt(near))^2 exceeds the bound, b is the only
point it keeps: it would return b, its runner-up distance inf and tie
False. Such a row keeps b, and the search runs only on the others. The
test is (2 rho - sqrt(near))^2 (1 - 1e-9) > bound. The 1 - 1e-9 factor
covers the float error in near and in the float length 2 rho, each a few
ulps at n <= 12. 2 rho is that of the float frame the search runs in:
the least nonzero length that the origin enumeration finds. The test
never passes for sqrt(near) >= rho, and where it passes,
2 rho - sqrt(near) > rho; another point would need its computed distance
off by 1e-9 rho^2 to enter the bound. The search's per-coordinate
rounding, a few ulps of |y|, stays far below that for targets within
about 10^5 rho of the origin.

A near-tie with the runner-up is flagged and counts as a decoding failure
(the Voronoi cell boundary has measure zero under Gaussian noise, and
failing there is the conservative choice). "Near" is relative to the
lattice's scale (the nearest-plane distance limit), and so is the search
margin, so a rescaled lattice decodes alike. At an exact tie the
reported point is one of the tied points. Coefficients of 2**26 or more,
where float64 no longer decodes reliably, raise ValueError.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .symplectic_lattice import Lattice

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
_CHUNK_CELLS = 1 << 16  # cells of a level's padded rectangle expanded at once


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


_Frame = namedtuple("_Frame", "m m_inv u lower q min_len shortest box")


@lru_cache(maxsize=128)
def _frame(lat: Lattice) -> _Frame:
    """The decoder's frame of a lattice: float generator matrix m, its inverse,
    LLL transform u, frame u m = lower q^T, and, off one search around the
    origin, lower's float length min_len = 2 rho and shortest_vector's
    coefficients in m; box = sum diag(lower)^2 / 4 limits nearest-plane distance."""
    if lat.n > MAX_DIM:
        raise ValueError(f"decoder supports dimensions up to {MAX_DIM}, got {lat.n}")
    m = lat.effective_matrix()
    u = _lll(m)
    q_red, r_red = np.linalg.qr((u @ m).T)
    lower = r_red.T
    bound = np.array([float(np.einsum("ij,ij->i", lower, lower).min()) * (1.0 + _SLACK_REL)])
    c, part = _search(lower, np.zeros((1, lat.n)), bound, every=True)
    length_sq = part[c.any(axis=1)].min()
    short = c[c.any(axis=1) & (part <= length_sq * (1.0 + TIE_REL))] @ u  # minimal, in m
    tol = TIE_REL * (np.abs(short) @ np.abs(m)).max()  # far above short @ m's float error
    for col in m.T:  # the lexicographically greatest, coordinates within tol counting equal
        short = short[(x := short @ col) >= x.max() - tol]
    return _Frame(m, np.linalg.inv(m), u, lower, q_red, math.sqrt(length_sq), short[0],
                  float(np.sum(np.diag(lower) ** 2)) / 4.0)


@lru_cache(maxsize=None)
def _offsets(size):
    """A node's first size children minus lo, in Schnorr-Euchner order, where lo (row 0) or
    lo + 1 (row 1) is nearer. size is a power of two, so few tables are cached."""
    zigzag = np.arange(1, size + 1) // 2 * (1 - 2 * (np.arange(size) % 2))  # 0, -1, 1, -2, ...
    return np.array([-zigzag, 1 + zigzag], dtype=float)


def _search(lower, ys, bound=None, every=False):
    """Enumerate, level by level, the coefficient vectors c with
    |c @ lower - y|^2 <= bound for each row y of ys; returns the first
    minimum of each row in depth-first Schnorr-Euchner order, its squared
    distance and the runner-up distance (inf if none). With bound None
    only the nearer child of each node is taken: the nearest-plane point,
    with no runner-up. ``every`` returns instead, for one target, every
    vector within the bound and its squared distance, in that order.
    Coefficients are held level-major, as floats."""
    rows, n = ys.shape
    row, part, c = np.arange(rows), np.zeros(rows), np.zeros((n, rows))
    for k in range(n - 1, -1, -1):
        s = np.add.accumulate(c[k:] * lower[k:, k, None])[-1]  # left to right; c[k] is 0
        diag = lower[k, k]
        y = ys[:, k] if bound is None else ys[:, k][row]
        mu = (y - s) / diag
        lo = np.floor(mu)
        first = mu - lo >= 0.5  # lo + 1 is the nearer child; mu - lo is exact
        if bound is None:  # nearest plane: each row keeps its nearer child only
            cand = lo + first
            t = cand * diag + s - y
            part = part + t * t
        else:
            gap = (lim := bound[row]) - part  # children reach rad = sqrt(max(gap, 0)) / |diag|
            wide = 2 * int(math.sqrt(gap.max(initial=0.0)) / abs(diag)) + 3  # 2 floor(rad) + 3
            if len(row) * wide > _MAX_NODES and (total := int(np.sum(2.0 * np.floor(
                    np.sqrt(np.maximum(gap, 0.0)) / abs(diag)) + 3.0))) > _MAX_NODES:
                raise ValueError(f"the decoder's search needs {total} nodes at one level, "
                                 f"above 2**20: the lattice basis is too skewed for the decoder")
            offsets, kept = _offsets(1 << (wide - 1).bit_length()), []
            step = max(1, _CHUNK_CELLS // wide)
            for a in range(0, len(row) or 1, step):  # chunks of at most 2**16 cells, or one node
                b = slice(a, a + step)
                kids = lo[b, None] + offsets[first[b].view(np.uint8), :wide]
                t = kids * diag + s[b, None] - y[b, None]
                p = part[b, None] + t * t
                keep = p <= lim[b, None]
                kept.append((keep.nonzero()[0] + a, kids[keep], p[keep]))
            node, cand, part = kept[0] if len(kept) == 1 else map(np.concatenate, zip(*kept))
            row, c = row[node], c.take(node, axis=1)
        c[k] = cand
    if bound is None:
        return c.T.astype(np.int64), part, np.full(rows, np.inf)
    if every:
        return c.T.astype(np.int64), part
    order = np.lexsort((part, row))  # stable: the first of equal minima wins
    start = np.searchsorted(row, np.arange(rows))
    second = np.where(np.bincount(row, minlength=rows) > 1, start + 1, -1)
    dist = np.append(part[order], np.inf)
    return c[:, order[start]].T.astype(np.int64), dist[start], dist[second]


def closest_points(lat: Lattice, xs) -> tuple[np.ndarray, np.ndarray]:
    """Nearest lattice points of the rows of an (m, n) block of targets:
    their basis coefficients, (m, n) int64, and a tie flag per row. A row
    within the packing-radius margin keeps its nearest-plane point, tie
    False, and only the other rows are searched (module docstring).

    Raises ValueError for a non-finite coordinate, for lattice
    coefficients of 2**26 or more, and for a basis so skewed that its LLL
    reduction leaves the int64/float64 range."""
    frame = _frame(lat)
    xs, lower, box = np.asarray(xs, dtype=float), frame.lower, frame.box
    if xs.ndim != 2 or xs.shape[1] != len(lower):
        raise ValueError(f"point/lattice dimension mismatch: points of shape {xs.shape} "
                         f"for a lattice of dimension {len(lower)}")
    if not np.isfinite(xs).all():
        raise ValueError("target coordinates must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the test below
        u = xs @ frame.m_inv
    if u.size and not (-_MAX_COEFF < u.min() and u.max() < _MAX_COEFF):
        raise ValueError(_TOO_FAR)
    coeffs = np.empty(xs.shape, dtype=np.int64)
    tie = np.zeros(len(xs), dtype=bool)
    for lo in range(0, len(xs), _BLOCK):
        y = xs[lo:lo + _BLOCK] @ frame.q
        c, near, _ = _search(lower, y)
        if not (near <= box * (1.0 + _SLACK_REL)).all():
            raise ValueError("target too far from the origin for float64 decoding")
        bound = near * (1.0 + _SLACK_REL) + _SLACK_REL * box
        far = np.flatnonzero((frame.min_len - np.sqrt(near)) ** 2 * (1.0 - 1e-9) <= bound)
        if len(far):  # only there can another point lie within the bound
            c[far], d1, d2 = _search(lower, y[far], bound[far])
            tie[lo + far] = (d2 - d1) <= TIE_REL * (box + d1)
        coeffs[lo:lo + _BLOCK] = c @ frame.u
    return coeffs, tie


def closest_point(lat: Lattice, x) -> DecodeResult:
    """True nearest lattice point of one target: a batch of one."""
    x = np.asarray(x, dtype=float)
    coeffs, tie = closest_points(lat, x.reshape(1, -1))
    closest = coeffs[0].astype(float) @ _frame(lat).m
    delta = x - closest
    return DecodeResult(closest=closest, coeffs=coeffs[0], dist_sq=float(delta @ delta),
                        tie=bool(tie[0]))


def shortest_vector(lat: Lattice) -> tuple[np.ndarray, float]:
    """A shortest nonzero lattice vector and its squared length: of those
    within TIE_REL of the least squared length, the lexicographically
    greatest (coordinates equal to float error tie), whatever the basis."""
    frame = _frame(lat)
    vec = frame.shortest.astype(float) @ frame.m
    return vec, float(vec @ vec)


def packing_radius(lat: Lattice) -> float:
    """Half the shortest nonzero vector length."""
    _, length_sq = shortest_vector(lat)
    return math.sqrt(length_sq) / 2.0
