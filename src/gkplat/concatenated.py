"""Concatenated coding: a grid qudit in each oscillator, a CSS code on top.

Each oscillator carries a d-dimensional system encoded in the single-mode
grid code; a shift of q by an integer multiple a of the normalizer spacing
delta = sqrt(2 pi hbar / d) acts as X^a on the qudit, a shift of p as Z^b.
Under Gaussian displacements the per-qudit error probabilities obey

    p_X, p_Z <= erfc(sqrt(pi hbar / (4 d sigma^2)))

(qudit_family, in the erfc family of dit_rates), and the X/Z components
are independent. A CSS code over Z_d then protects k of N qudits; the
achievable asymptotic rate, dit_rate(d, p, 2) qubits per oscillator,
uses the pessimistic model where all d-1 shift values are equally
likely, while the Monte Carlo here samples the true (peaked) shift
distribution.

The explicit nine-qudit block code below (three repetition blocks, block
sums compared across blocks) stands in for the random CSS codes of the
asymptotic argument when something concrete must be simulated. It
corrects every single-qudit error, from syndrome tables that CssCode
derives from its check matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel_sim import ErrorEstimate, NoiseModel, _estimate
from .dit_rates import dit_error_prob, optimize_dit_rate, scan_ceiling


@dataclass(frozen=True)
class QuditPauliError:
    """Exponent pair of X^a Z^b on one qudit; (0, 0) is the identity."""

    a: int
    b: int


@dataclass(frozen=True, eq=False)
class CssCode:
    """CSS code over Z_d whose decoder corrects single-qudit errors.

    ``hz`` rows are Z-type checks (they detect X errors), ``hx`` rows are
    X-type checks (they detect Z errors); hx @ hz^T must vanish mod d. The
    block length n is the width of ``hz``, shared by all four matrices.
    Each sector's decode table is derived from its checks alone: sorted
    int64 syndrome keys (``x_table``, ``z_table``) of the zero error and
    every single-qudit error, each with the first such error as its
    correction and that correction's pairing with the opposite logicals.
    Every single-qudit error is corrected when errors that share a
    syndrome differ by a stabilizer, as in a distance-3 code; syndromes
    outside the table are uncorrectable. A d whose syndrome keys, d**rows
    for the longer check matrix, overflow int64 is refused first.
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
        # logical operators must commute with the opposite-type checks
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
        correction rows, the digit weights, and the pairing of each
        correction row with the opposite logical operators mod d.

        The candidate errors are the zero error, then every single-qudit
        error, position-major and value-minor; the first candidate with a
        syndrome becomes its correction. A last key of int64 max, above
        every syndrome, with a zero row keeps searchsorted in range and
        stands for a missing syndrome. __post_init__ has refused keys that
        would overflow int64 before any candidate is built.
        """
        d, n, rows = self.d, self.n, checks.shape[0]
        weights = d ** np.arange(rows - 1, -1, -1, dtype=np.int64)
        errors = np.zeros((1 + n * (d - 1), n), dtype=np.int64)
        single = np.arange(n * (d - 1))  # position-major, value-minor
        errors[1 + single, single // (d - 1)] = single % (d - 1) + 1
        keys, first = np.unique(((errors @ checks.T) % d) @ weights, return_index=True)
        keys = np.append(keys, np.iinfo(np.int64).max)
        corrections = np.zeros((len(keys), n), dtype=np.int64)
        corrections[:-1] = errors[first]
        return keys, corrections, weights, (corrections @ opposite_logical.T) % d


def qudit_family(noise: NoiseModel) -> tuple:
    """The dit_rates family (pi hbar, 4.0, 1, sigma^2) of the grid-qudit bound."""
    return (math.pi * noise.hbar, 4.0, 1, noise.sigma_sq)


def gkp_qudit_error_prob(d: int | np.ndarray, noise: NoiseModel) -> float | np.ndarray:
    """Tail bound erfc(sqrt(pi hbar / (4 d sigma^2))) on p_X and p_Z; d may
    be an integer or an array of them."""
    if np.any(np.asarray(d) < 1):
        raise ValueError("qudit dimension must be >= 1")
    return dit_error_prob(d, qudit_family(noise))


@dataclass(frozen=True)
class ConcatDesign:
    """Optimized concatenated design at one noise level."""

    sigma_sq: float
    d_opt: int
    p: float                 # per-qudit error bound at d_opt
    rate_qubits: float
    c_sq: float              # rate written as log2(c_sq * hbar / sigma_sq)


def optimize_qudit_dimension(noise: NoiseModel, d_max: int | None = None) -> ConcatDesign:
    """Best qudit dimension over 2 <= d <= d_max; ties go to the smallest d.

    The default ceiling 8 hbar / sigma^2 leaves the optimum (near
    c_sq * hbar / sigma^2 with c_sq < 1/e) well in the interior; below
    sigma^2 = 8 hbar / 2**53 it passes the scan's limit and is refused.
    The rate is dit_rate(d, p, 2), a CSS code over Z_d on grid qudits
    with p = p_X = p_Z the grid-qudit error bound (optimize_dit_rate).
    """
    if noise.sigma_sq == 0.0:  # no errors: the rate grows without bound in d
        raise ValueError("sigma_sq = 0 has no optimal qudit dimension")
    if d_max is None:
        d_max = scan_ceiling(8.0 * noise.hbar / noise.sigma_sq,
                             f"sigma_sq = {noise.sigma_sq!r} with hbar = {noise.hbar!r}")
    d_opt, rate = optimize_dit_rate(qudit_family(noise), 2, d_max)
    c_sq = 2.0 ** rate * noise.sigma_sq / noise.hbar
    if c_sq == math.inf:
        raise ValueError(f"c_sq = 2**rate * sigma_sq / hbar overflows float64 at "
                         f"sigma_sq = {noise.sigma_sq!r} with hbar = {noise.hbar!r}")
    p = float(gkp_qudit_error_prob(d_opt, noise))
    return ConcatDesign(noise.sigma_sq, d_opt, p, rate, c_sq)


_SAMPLE_CHUNK = 1 << 16  # normals per fill of the one reused float buffer
_MAX_SHIFT = 2.0 ** 53   # rounded shifts below it are exact integers, cast safely


def sample_qudit_errors(d: int, noise: NoiseModel, rng: np.random.Generator,
                        size) -> tuple[np.ndarray, np.ndarray]:
    """Vector form of the single-qudit channel: arrays of X and Z exponents.

    Shifts are sampled in physical units and binned to the nearest
    multiple of the spacing delta = sqrt(2 pi hbar / d), modulo d. They
    are drawn _SAMPLE_CHUNK at a time into one float buffer and binned
    into the int64 output, with the values and generator state of one
    draw of the whole (2,) + size array. A shift of 2**53 spacings or more,
    beyond float64's exact integers, raises ValueError before the cast.
    """
    if d < 2:
        raise ValueError("qudit dimension must be >= 2")
    delta = math.sqrt(2.0 * math.pi * noise.hbar / d)
    sigma = math.sqrt(noise.sigma_sq)
    shape = (2,) + (tuple(size) if isinstance(size, tuple) else (size,))
    binned = np.empty(shape, dtype=np.int64)
    flat = binned.reshape(-1)
    chunk = np.empty(min(_SAMPLE_CHUNK, flat.size))
    for lo in range(0, flat.size, _SAMPLE_CHUNK):
        shifts = chunk[:flat.size - lo]
        rng.standard_normal(out=shifts)
        shifts *= sigma
        shifts /= delta
        np.rint(shifts, out=shifts)
        if not (-_MAX_SHIFT < shifts.min() and shifts.max() < _MAX_SHIFT):
            raise ValueError(f"sigma_sq = {noise.sigma_sq!r} and hbar = {noise.hbar!r} give "
                             f"qudit shifts of 2**53 spacings or more, beyond float64's "
                             f"exact integers")
        flat[lo:lo + len(shifts)] = shifts  # the same cast as astype(np.int64)
    flat %= d
    return binned[0], binned[1]


# ---------------------------------------------------------------------------
# The nine-qudit block code and syndrome decoding.

def shor9_code(d: int) -> CssCode:
    """Nine-qudit CSS code mod d: three repetition blocks plus block sums.

    Z-type checks compare neighbors within each block of three (six
    checks, diagnosing X shifts); X-type checks compare consecutive block
    sums (two checks, diagnosing Z shifts). Distance 3: every single-qudit
    X^a Z^b error is correctable, from tables CssCode derives from these
    checks. Z errors within a block share a syndrome; any one of them is
    a correction equivalent up to a Z-type stabilizer. A d too large for
    the six-digit X syndrome keys (d >= 1449) is refused before the
    9 (d - 1) single errors are built.
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
    """Decode one block error; returns (correction, logical_failure).

    X and Z sectors are handled independently. A syndrome missing from the
    table is flagged as a failure with no correction attempted; otherwise
    failure means the residual error acts nontrivially on the code space
    (detected by its pairing with the opposite logical operators mod d).
    Runs as a batch of one through the decoder the simulation uses.
    """
    if len(error) != code.n:
        raise ValueError("error length must equal the block length")
    a = np.array([[e.a % code.d for e in error]], dtype=np.int64)
    b = np.array([[e.b % code.d for e in error]], dtype=np.int64)
    row_a, row_b, failed = _batch_failures(code, a, b)
    corr_a, corr_b = code.x_table[1][row_a[0]], code.z_table[1][row_b[0]]
    correction = [QuditPauliError(int(x), int(y)) for x, y in zip(corr_a, corr_b)]
    return correction, bool(failed[0])


_BATCH_TRIALS = 1 << 18  # sets which draws become X and Z shifts; changing it changes results


def simulate_concatenated(code: CssCode, noise: NoiseModel, trials: int, seed: int,
                          workers: int = 1) -> ErrorEstimate:
    """Monte Carlo logical-failure probability of a concatenated block.

    Each trial draws independent grid-qudit errors for the N oscillators
    from the true shift distribution and decodes both sectors. The
    channel simulator's estimator runs it, on blocks of batch_cap trials:
    deterministic for fixed (seed, trials, workers).
    """
    batch_cap = max(1, _BATCH_TRIALS // max(1, code.n))

    def block_failures(gen, rows):
        a, b = sample_qudit_errors(code.d, noise, gen, (rows, code.n))
        return int(_batch_failures(code, a, b)[2].sum())

    return _estimate(block_failures, seed, trials, workers, batch_cap)


def _decode_sector(d, errors, checks, table, opposite_logical):
    """Table rows and failure mask of one sector for (m, n) exponents; a
    missing syndrome gets the last row (zero correction) and fails. The
    residual errors - correction pairs with the opposite logicals as
    errors @ opposite_logical.T minus the row's stored pairing, mod d."""
    keys, _, weights, pairing = table
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


def _batch_failures(code: CssCode, a, b):
    """Syndrome decoding of (m, n) X exponents a and Z exponents b, sectors
    independently: returns (X table rows, Z table rows, failure mask); the
    corrections are rows of code.x_table[1] and code.z_table[1]."""
    row_a, bad_a = _decode_sector(code.d, a, code.hz, code.x_table, code.logical_z)
    row_b, bad_b = _decode_sector(code.d, b, code.hx, code.z_table, code.logical_x)
    return row_a, row_b, bad_a | bad_b


def min_distance_comparison(rate: float, n_modes: int, noise: NoiseModel) -> tuple[float, float, float]:
    """Shortest normalizer vectors of rate-matched codes: concatenated vs
    sphere-packing, as (len^2 concat, len^2 packing, length ratio).

    With d = 2^R the concatenated normalizer spacing gives
    len^2 = 2 pi hbar 2^-R, while a rate-R efficient packing on N modes
    reaches len^2 = (8 N hbar / e) 2^-R; the ratio of lengths is
    sqrt(4 N / (pi e)), independent of the rate.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    l_sq_concat = 2.0 * math.pi * noise.hbar * 2.0 ** (-rate)
    l_sq_packing = (8.0 * n_modes * noise.hbar / math.e) * 2.0 ** (-rate)
    ratio = math.sqrt(l_sq_packing / l_sq_concat)
    return l_sq_concat, l_sq_packing, ratio
