"""Concatenated coding: a grid qudit in each oscillator, a CSS code on
top. This module is the Monte Carlo side.

A shift of q by m multiples of the spacing delta = sqrt(2 pi hbar / d)
acts as X^m on the qudit, one of p as Z^m, independently under Gaussian
displacements. dit_rates holds the asymptotic side (no numpy): the
per-qudit bound erfc(sqrt(pi hbar / (4 d sigma^2))), which takes the d - 1
nonzero shifts as equally likely, the CSS rate and the best d
(optimize_qudit_dimension, also importable from here). The Monte Carlo
samples the true, peaked shift distribution on a nine-qudit block code,
which stands in for the random CSS codes of the asymptotic argument and
corrects every single-qudit error from tables CssCode derives from its
check matrices.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .channel_sim import (ErrorEstimate, _binned_table, _cell_rows, _combine_columns,
                          _estimate, _sample_cells)
from .dit_rates import optimize_qudit_dimension  # noqa: F401  (still imported from here)
from .rates import NoiseModel


@dataclass(frozen=True)
class QuditPauliError:
    """Exponent pair of X^a Z^b on one qudit; (0, 0) is the identity."""

    a: int
    b: int


@dataclass(frozen=True, eq=False)
class CssCode:
    """CSS code over Z_d whose decoder corrects single-qudit errors.

    ``hz`` rows are Z-type checks (they detect X errors), ``hx`` rows
    X-type checks (they detect Z errors); hx @ hz^T must vanish mod d, and
    all four matrices share the block length n. The tables ``x_table`` and
    ``z_table`` (see _syndrome_table) correct every single-qudit error when
    errors that share a syndrome differ by a stabilizer, as in a distance-3
    code, and store each single error's outcome. A d whose syndrome keys,
    d**rows for the longer check matrix, overflow int64 is refused first.
    """

    d: int
    hz: np.ndarray
    hx: np.ndarray
    logical_x: np.ndarray
    logical_z: np.ndarray
    x_table: tuple = field(init=False, repr=False)
    z_table: tuple = field(init=False, repr=False)

    def __post_init__(self):
        d = self.d
        if d < 2:
            raise ValueError("qudit dimension must be >= 2")
        rows = max(len(self.hz), len(self.hx))  # before any % d: d itself may not fit int64
        if d ** rows >= 2 ** 63:
            raise ValueError(f"syndrome keys d**{rows} overflow int64; "
                             f"d = {d} is too large for this code")
        if any(m.shape[1] != self.n for m in (self.hx, self.logical_x, self.logical_z)):
            raise ValueError("check and logical matrices must share one width")
        if ((self.hx @ self.hz.T) % d).any():
            raise ValueError("check matrices are not orthogonal mod d")
        if ((self.hz @ self.logical_x.T) % d).any():
            raise ValueError("logical X anticommutes with a Z check")
        if ((self.hx @ self.logical_z.T) % d).any():
            raise ValueError("logical Z anticommutes with an X check")
        object.__setattr__(self, "x_table", self._syndrome_table(self.hz, self.logical_z))
        object.__setattr__(self, "z_table", self._syndrome_table(self.hx, self.logical_x))

    @property
    def n(self) -> int:
        return self.hz.shape[1]

    def _syndrome_table(self, checks: np.ndarray, opposite_logical: np.ndarray):
        """Sorted int64 syndrome keys (base-d digits of the syndrome), their
        correction rows, the digit weights, each correction's pairing with
        the opposite logical operators mod d, and each single-qudit error's
        table row and failure flag. The candidates are the zero error, then
        every single-qudit error, position-major and value-minor; the first
        with a syndrome becomes its correction. A last key of int64 max,
        above every syndrome, with a zero row keeps searchsorted in range and
        stands for a missing syndrome; __post_init__ has refused keys that
        would overflow int64.
        """
        d, n, rows = self.d, self.n, checks.shape[0]
        weights = d ** np.arange(rows - 1, -1, -1, dtype=np.int64)
        errors = np.zeros((1 + n * (d - 1), n), dtype=np.int64)
        single = np.arange(n * (d - 1))  # position-major, value-minor
        errors[1 + single, single // (d - 1)] = single % (d - 1) + 1
        keys, first, row = np.unique(((errors @ checks.T) % d) @ weights,
                                     return_index=True, return_inverse=True)
        keys = np.append(keys, np.iinfo(np.int64).max)
        corrections = np.zeros((len(keys), n), dtype=np.int64)
        corrections[:-1] = errors[first]
        pairing = (corrections @ opposite_logical.T) % d
        failed = ((errors[1:] @ opposite_logical.T - pairing[row[1:]]) % d).any(axis=1)
        return keys, corrections, weights, pairing, row[1:], failed


def sample_qudit_errors(d: int, noise: NoiseModel, rng: np.random.Generator,
                        size) -> tuple[np.ndarray, np.ndarray]:
    """Vector form of the single-qudit channel: X and Z exponents of shape
    size, the cells simulate_concatenated draws scattered into zeros.

    A shift x ~ N(0, sigma^2) acts as m mod d, m = round(x / delta) with
    delta = sqrt(2 pi hbar / d). No normal is drawn: the nonzero cells of
    the (2,) + size output lie geometric(q) gaps apart, q = P(m != 0 mod d),
    and take values from the pmf given nonzero by inverse CDF on
    rng.random. A non-integer d raises TypeError; d outside [2, 2**53), a
    pmf past 2**16 terms or sigma^2 d / hbar past float64, ValueError.
    """
    shifts = _nonzero_shifts(d, noise)
    out = np.zeros((2,) + (tuple(size) if isinstance(size, tuple) else (size,)), dtype=np.int64)
    np.put(out, *_sample_cells(*shifts, rng, out.size))
    return out[0], out[1]


def _nonzero_shifts(d: int, noise: NoiseModel):
    """(residues, cdf, q): the channel_sim._binned_table of m mod d, with
    t = sigma / delta: the nonzero exponents, possibly repeated, their
    cumulative pmf given nonzero, and q, its sum."""
    d = operator.index(d)
    if not 2 <= d < 2**53:
        raise ValueError(f"qudit dimension must be >= 2 and below 2**53, got {d}")
    t_sq = noise.sigma_sq / noise.hbar * d / (2.0 * math.pi)
    at = f"d = {d}, sigma_sq = {noise.sigma_sq!r}, hbar = {noise.hbar!r}"
    if t_sq == math.inf:
        raise ValueError(f"sigma_sq d / hbar overflows float64 at {at}")
    return _binned_table(t_sq, d, True, f"the qudit shift pmf at {at}")


# ---------------------------------------------------------------------------
# The nine-qudit block code and syndrome decoding.

def shor9_code(d: int) -> CssCode:
    """Nine-qudit CSS code mod d: three repetition blocks plus block sums.

    Z-type checks compare neighbors within each block of three (six, for X
    shifts), X-type checks consecutive block sums (two, for Z shifts).
    Distance 3: every single-qudit X^a Z^b error is corrected; Z errors
    within a block share a syndrome, and each corrects the others up to a
    Z-type stabilizer. A d too large for the six-digit X syndrome keys
    (d >= 1449) is refused before the 9 (d - 1) single errors are built.
    """
    hz = np.array([[1, -1, 0, 0, 0, 0, 0, 0, 0],  # -1 stands for d - 1: no entry depends on d
                   [0, 1, -1, 0, 0, 0, 0, 0, 0],
                   [0, 0, 0, 1, -1, 0, 0, 0, 0],
                   [0, 0, 0, 0, 1, -1, 0, 0, 0],
                   [0, 0, 0, 0, 0, 0, 1, -1, 0],
                   [0, 0, 0, 0, 0, 0, 0, 1, -1]], dtype=np.int64)
    hx = np.array([[1, 1, 1, -1, -1, -1, 0, 0, 0],
                   [0, 0, 0, 1, 1, 1, -1, -1, -1]], dtype=np.int64)
    logical_x = np.array([[1, 1, 1, 0, 0, 0, 0, 0, 0]], dtype=np.int64)  # constant on one block
    logical_z = np.array([[1, 0, 0, 1, 0, 0, 1, 0, 0]], dtype=np.int64)  # one site per block

    code = CssCode(d=d, hz=hz, hx=hx, logical_x=logical_x, logical_z=logical_z)
    if len(code.x_table[0]) != 2 + 9 * (d - 1):  # the zero error, 9 (d - 1) singles, sentinel
        raise AssertionError("colliding X syndromes for single errors")
    return code


def css_decode(code: CssCode, error: list[QuditPauliError]) -> tuple[list[QuditPauliError], bool]:
    """Decode one block error; returns (correction, logical_failure), as a
    batch of one through the decoder the simulation uses. In each sector,
    a syndrome missing from the table fails with no correction; otherwise
    the residual error fails if it pairs nontrivially with the opposite
    logical operators mod d. A non-integer exponent raises TypeError."""
    if len(error) != code.n:
        raise ValueError("error length must equal the block length")
    exponents = np.array([[operator.index(e.a) % code.d for e in error],
                          [operator.index(e.b) % code.d for e in error]], dtype=np.int64)
    cells = [(hits, x[hits]) for x in exponents for hits in [np.flatnonzero(x)]]
    sectors = _decode_block(code, *cells)
    corr_a, corr_b = (table[1][found[0] if len(found) else 0]  # no cell: the zero error's row
                      for table, (_, found, _) in zip((code.x_table, code.z_table), sectors))
    correction = [QuditPauliError(int(x), int(y)) for x, y in zip(corr_a, corr_b)]
    return correction, any(bool(bad.any()) for _, _, bad in sectors)


_BATCH_TRIALS = 1 << 18  # sets which draws become X and Z shifts; changing it changes results


def simulate_concatenated(code: CssCode, noise: NoiseModel, trials: int, seed: int,
                          workers: int = 1) -> ErrorEstimate:
    """Monte Carlo logical-failure probability of a concatenated block:
    each trial samples the N qudits' errors from one shift table and
    decodes both sectors, in blocks of batch_cap trials run by the channel
    simulator's estimator; deterministic for fixed (seed, trials, workers)."""
    batch_cap = max(1, _BATCH_TRIALS // max(1, code.n))
    shifts = _nonzero_shifts(code.d, noise)

    def block_failures(gen, rows):
        half = rows * code.n  # X exponents fill the first half of the flat block, Z the second
        hits, values = _sample_cells(*shifts, gen, 2 * half)
        cut = np.searchsorted(hits, half)
        hits[cut:] -= half
        failed = np.zeros(rows, dtype=bool)
        for held, _, bad in _decode_block(code, (hits[:cut], values[:cut]),
                                          (hits[cut:], values[cut:])):
            failed[held[bad]] = True
        return int(np.count_nonzero(failed))

    return _estimate(block_failures, seed, trials, workers, batch_cap)


def _decode_sector(d, n, hits, values, checks, table, opposite_logical):
    """Syndrome decoding of one sector of a flat block of n-entry rows of
    exponents in [0, d), from its nonzero cells at sorted flat indices hits:
    the rows that hold cells (the one-cell rows, then the others, each in
    order), their table rows and failure flags; no array has the block's
    length. Any other row has table row 0 (key 0 sorts first: a zero
    correction and pairing) and cannot fail. A one-cell row reads its
    outcome from the table at position (d - 1) + value - 1; the rows of two
    or more, gathered by channel_sim._cell_rows, are decoded in one pass.
    Each syndrome digit, and each pairing of the residual errors -
    correction with the opposite logicals, is a sum of coefficient times
    column over one matrix row's nonzero entries, mod d. A missing syndrome
    gets the last row (zero correction) and fails."""
    keys, _, weights, pairing, single_row, single_failed = table
    rows = hits // n
    first = np.ones(len(rows) + 1, dtype=bool)  # cell i starts a row; the last True ends one
    np.not_equal(rows[1:], rows[:-1], out=first[1:-1])
    alone = np.flatnonzero(first[:-1] & first[1:])  # indices, as bool masks index slowly
    del first
    lone = rows[alone]
    outcome = (hits[alone] - lone * n) * (d - 1) + values[alone] - 1
    multi, nonzero = _cell_rows(hits, values, n, rows, alone)
    del rows, alone  # the pass below reuses their memory
    synd, digit = np.zeros((2, len(multi)), dtype=np.int64)
    for check, weight in zip(checks, weights):
        _combine_columns(nonzero, check, digit)
        digit %= d
        digit *= weight
        synd += digit
    found = np.searchsorted(keys, synd)
    failed = keys[found] != synd
    np.putmask(found, failed, -1)
    for logical, paired in zip(opposite_logical, pairing.T):
        residual = _combine_columns(nonzero, logical, digit)
        residual -= paired[found]
        residual %= d
        failed |= residual != 0
    return (np.concatenate([lone, multi]), np.concatenate([single_row[outcome], found]),
            np.concatenate([single_failed[outcome], failed]))


def _decode_block(code: CssCode, cells_a, cells_b):
    """Syndrome decoding of a block of code.n-qudit rows, sectors apart,
    from each sector's nonzero cells (sorted flat indices, values): each
    sector's _decode_sector triple, X first, whose table rows index
    code.x_table[1] and code.z_table[1]. A row fails if either sector does."""
    return (_decode_sector(code.d, code.n, *cells_a, code.hz, code.x_table, code.logical_z),
            _decode_sector(code.d, code.n, *cells_b, code.hx, code.z_table, code.logical_x))


def min_distance_comparison(rate: float, n_modes: int, noise: NoiseModel) -> tuple[float, float, float]:
    """Shortest normalizer vectors of rate-matched codes, concatenated vs
    sphere packing: (len^2 concat, len^2 packing, length ratio). With
    d = 2^R the concatenated spacing gives len^2 = 2 pi hbar 2^-R, a rate-R
    efficient packing on N modes len^2 = (8 N hbar / e) 2^-R; the length
    ratio sqrt(4 N / (pi e)) does not depend on the rate."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    l_sq_concat = 2.0 * math.pi * noise.hbar * 2.0 ** (-rate)
    l_sq_packing = (8.0 * n_modes * noise.hbar / math.e) * 2.0 ** (-rate)
    return l_sq_concat, l_sq_packing, math.sqrt(l_sq_packing / l_sq_concat)
