"""Concatenated coding: a grid qudit in each oscillator, a CSS code on top.

Each oscillator carries a d-dimensional system encoded in the single-mode
grid code; a shift of q by an integer multiple a of the normalizer spacing
delta = sqrt(2 pi hbar / d) acts as X^a on the qudit, a shift of p as Z^b.
Under Gaussian displacements the per-qudit error probabilities obey

    p_X, p_Z <= erfc(sqrt(pi hbar / (4 d sigma^2)))

and the X/Z components are independent. A CSS code over Z_d then protects
k of N qudits; the achievable asymptotic rate uses the pessimistic model
where all d-1 shift values are equally likely, while the Monte Carlo here
samples the true (peaked) shift distribution.

dit_rate gives the rate in qubits per oscillator.
The explicit nine-qudit block code below (three repetition blocks, block
sums compared across blocks) stands in for the random CSS codes of the
asymptotic argument when something concrete must be simulated. It
corrects every single-qudit error, from syndrome tables that CssCode
derives from its check matrices.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .channel_sim import ErrorEstimate, NoiseModel, _estimate


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
    outside the table are uncorrectable.
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
        if any(m.shape[1] != self.n for m in (self.hx, self.logical_x, self.logical_z)):
            raise ValueError("check and logical matrices must share one width")
        if self.hz.size and self.hx.size:
            if ((self.hx @ self.hz.T) % d).any():
                raise ValueError("check matrices are not orthogonal mod d")
        # logical operators must commute with the opposite-type checks
        if self.hz.size and ((self.hz @ self.logical_x.T) % d).any():
            raise ValueError("logical X anticommutes with a Z check")
        if self.hx.size and ((self.hx @ self.logical_z.T) % d).any():
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
        stands for a missing syndrome. Keys that would overflow int64 are
        refused before any candidate is built.
        """
        d, n, rows = self.d, self.n, checks.shape[0]
        if d ** rows >= 2 ** 63:
            raise ValueError(f"syndrome keys d**{rows} overflow int64; "
                             f"d = {d} is too large for this code")
        weights = d ** np.arange(rows - 1, -1, -1, dtype=np.int64)
        errors = np.zeros((1 + n * (d - 1), n), dtype=np.int64)
        single = np.arange(n * (d - 1))  # position-major, value-minor
        errors[1 + single, single // (d - 1)] = single % (d - 1) + 1
        keys, first = np.unique(((errors @ checks.T) % d) @ weights, return_index=True)
        keys = np.append(keys, np.iinfo(np.int64).max)
        corrections = np.zeros((len(keys), n), dtype=np.int64)
        corrections[:-1] = errors[first]
        return keys, corrections, weights, (corrections @ opposite_logical.T) % d


@cache
def _erfc_ufunc() -> np.ufunc:
    """scipy's erfc ufunc, loaded on first use without the package init of
    scipy.special, which imports far more than erfc needs (array-API
    support, numpy.testing, numpy.ma, numpy.f2py).

    After the cheap ``import scipy``, the extension scipy/special/
    _special_ufuncs<suffix> is loaded by path under its real module name
    and put in sys.modules, so a later ``import scipy.special`` reuses it
    and its erfc is this very object. Where the file or its erfc ufunc is
    missing (older scipy), ``from scipy.special import erfc`` runs instead.
    """
    import importlib.machinery
    import importlib.util
    import os
    import sys

    import scipy
    name = "scipy.special._special_ufuncs"
    if name not in sys.modules:
        stem = os.path.join(scipy.__path__[0], "special", "_special_ufuncs")
        paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((path for path in paths if os.path.isfile(path)), None)
        if path is not None:
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
    erfc = getattr(sys.modules.get(name), "erfc", None)
    if isinstance(erfc, np.ufunc):
        return erfc
    from scipy.special import erfc
    return erfc


def _erfc(x):
    """Elementwise erfc of a scalar or an array: scipy's ufunc, so a run
    that evaluates no erfc never loads scipy (see _erfc_ufunc)."""
    return _erfc_ufunc()(x)


def gkp_qudit_error_prob(d: int | np.ndarray, noise: NoiseModel) -> float | np.ndarray:
    """Tail bound erfc(sqrt(pi hbar / (4 d sigma^2))) on p_X and p_Z; d may
    be an integer or an array of them."""
    if np.any(np.asarray(d) < 1):
        raise ValueError("qudit dimension must be >= 1")
    return _erfc(np.sqrt(math.pi * noise.hbar / (4.0 * d * noise.sigma_sq)))


def entropy_base_d(p: float | np.ndarray, d: int | np.ndarray) -> float | np.ndarray:
    """Binary-split entropy -p log_d p - (1-p) log_d (1-p); 0 at p in {0,1}.
    Scalars or arrays (broadcast together)."""
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p must lie in [0, 1]")
    if np.any(np.asarray(d) < 2):
        raise ValueError("entropy base must be >= 2")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log(p) + (1.0 - p) * np.log1p(-p)) / np.log(d)
    return np.where((p > 0.0) & (p < 1.0), h, 0.0)[()]  # [()]: scalar for scalar input


def dit_rate(d: int | np.ndarray, p, k: int) -> float | np.ndarray:
    """Bits per d-ary symbol of a random code when each of k error sectors
    hits a symbol with probability p, spread evenly over the d - 1 wrong
    values: log2(d) max(0, 1 - k H_d(p) - k p log_d(d-1)). k = 1 is the
    classical outer code, k = 2 a CSS code over Z_d with p_X = p_Z = p.
    The rate is 0 from p = (d-1)/d on, where the formula would rise again.
    Scalars or arrays (broadcast together)."""
    if np.any(np.asarray(d) < 2):
        raise ValueError("dimension d must be >= 2")
    log_ratio = np.log(d - 1) / np.log(d)  # 0 when d == 2
    rate = np.log2(d) * np.maximum(0.0, 1.0 - k * entropy_base_d(p, d) - k * p * log_ratio)
    return np.where(np.asarray(p) < (d - 1) / d, rate, 0.0)[()]


_SCAN_CHUNK = 1 << 16  # d values per block of a scan; bounds its memory
_BOUND_SLACK = 1e-9    # float slack, relative to 1 + |best|, before a block bound prunes
_D_LIMIT = 2 ** 53     # largest scan ceiling: every d up to it is exact in float64


def scan_ceiling(bound: float, source: str) -> int:
    """Default scan ceiling max(2, ceil(bound)). A bound above _D_LIMIT
    (or an infinite one) is refused with an error naming the input,
    ``source``, that set it."""
    if not bound <= _D_LIMIT:
        raise ValueError(f"{source} puts the default ceiling on d at {bound:.4g}, "
                         f"above 2**53 where d is exact in float64")
    return max(2, math.ceil(bound))


def dit_rate_bound(error_prob, k: int):
    """Interval bound for dit_rate(d, p, k) = max(0, log2 d - k h2(p)
    - k p log2(d-1)) with p = error_prob(d) increasing in d and h2 the
    binary entropy in bits.

    Returns upper(a, b) = max(0, log2 b - k min(h2(p(a)), h2(p(b)))
    - k p(a) log2(a-1)), which is >= the rate for every a <= d <= b: log2 d
    <= log2 b; p(d) lies in [p(a), p(b)] and h2 is concave, so h2(p(d))
    is at least its smaller endpoint value; p(d) log2(d-1) is a product
    of nonnegative nondecreasing factors, so it is at least its value at a.
    The bound only grows as its interval widens; it also bounds the rate 0
    that dit_rate gives from p = (d-1)/d on. For a > 2 it is -inf where
    every rate on [a, b] is exactly 0 (p(a) >= (b-1)/b, or the unclamped
    bound at most -_BOUND_SLACK), which never displaces the first maximum.
    """
    def upper(a: int, b: int) -> float:
        p_a, p_b = error_prob(np.array([a, b], dtype=np.int64))
        h_min = min(entropy_base_d(p_a, 2), entropy_base_d(p_b, 2))
        bound = math.log2(b) - k * h_min - k * p_a * math.log2(a - 1)
        if a > 2 and (p_a >= (b - 1) / b or bound <= -_BOUND_SLACK):
            return -math.inf
        return max(0.0, bound)
    return upper


def scan_dimensions(rate, d_max: int, upper=lambda a, b: math.inf) -> tuple[int, float]:
    """Best (d, rate(d)) over 2 <= d <= d_max <= 2**53; ties go to the smallest d.

    ``rate`` maps an int64 array of d to rates elementwise. It runs on
    blocks of at most _SCAN_CHUNK values, on a grid of blocks starting at
    d = 2, so memory stays bounded. ``upper(a, b)`` bounds rate(d) from
    above on a <= d <= b (see dit_rate_bound); the default, infinity,
    prunes nothing.

    The search is best-first: a heap holds intervals keyed on their bound,
    starting from [2, d_max]; the top one is split in two on the block
    grid, or evaluated if it is one block. It stops once the top bound
    plus the float slack _BOUND_SLACK (1 + |best|) is at most the best
    rate, when no interval left can hold a value equal to the best. A
    block replaces the best on a higher rate, or an equal one at a smaller
    d, so the result is the first maximum of the whole range, bit for bit.
    With the default bound the intervals pop in ascending d: an exhaustive
    scan.
    """
    if not 2 <= d_max <= _D_LIMIT:
        raise ValueError(f"d_max = {d_max} must lie in [2, 2**53]")
    best = (0, -math.inf)
    heap = [(-upper(2, d_max), 2, d_max)]
    while heap and -heap[0][0] + _BOUND_SLACK * (1.0 + abs(best[1])) > best[1]:
        _, a, b = heapq.heappop(heap)
        blocks = (b - a) // _SCAN_CHUNK + 1
        if blocks > 1:
            mid = a + blocks // 2 * _SCAN_CHUNK
            heapq.heappush(heap, (-upper(a, mid - 1), a, mid - 1))
            heapq.heappush(heap, (-upper(mid, b), mid, b))
            continue
        ds = np.arange(a, b + 1, dtype=np.int64)
        rates = rate(ds)
        idx = int(np.argmax(rates))
        if rates[idx] > best[1] or (rates[idx] == best[1] and ds[idx] < best[0]):
            best = (int(ds[idx]), float(rates[idx]))
    return best


def optimize_dit_rate(error_prob, k: int, d_max: int) -> tuple[int, float]:
    """Best (d, dit_rate(d, error_prob(d), k)) over 2 <= d <= d_max, ties to
    the smallest d: scan_dimensions pruned by dit_rate_bound(error_prob, k),
    so the rate and its bound share one (error_prob, k). ``error_prob``
    maps an int64 array of d to probabilities increasing in d."""
    return scan_dimensions(lambda ds: dit_rate(ds, error_prob(ds), k), d_max,
                           dit_rate_bound(error_prob, k))


@dataclass(frozen=True)
class ConcatDesign:
    """Optimized concatenated design at one noise level."""

    sigma_sq: float
    hbar: float
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
    with p = p_X = p_Z the grid-qudit error bound; optimize_dit_rate
    finds its first maximum by a best-first search pruned by the rate's
    bound, with the result of an exhaustive scan, bit for bit.
    """
    if d_max is None:
        d_max = scan_ceiling(8.0 * noise.hbar / noise.sigma_sq, f"sigma_sq = {noise.sigma_sq!r}")
    d_opt, rate = optimize_dit_rate(lambda ds: gkp_qudit_error_prob(ds, noise), 2, d_max)
    c_sq = 2.0 ** rate * noise.sigma_sq / noise.hbar
    p = float(gkp_qudit_error_prob(d_opt, noise))
    return ConcatDesign(noise.sigma_sq, noise.hbar, d_opt, p, rate, c_sq)


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
            raise ValueError(f"sigma_sq = {noise.sigma_sq!r} gives qudit shifts of 2**53 "
                             f"spacings or more, beyond float64's exact integers")
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
    hz = np.zeros((6, 9), dtype=np.int64)
    for block in range(3):
        for i in range(2):
            row = hz[2 * block + i]
            row[3 * block + i] = 1
            row[3 * block + i + 1] = d - 1
    hx = np.zeros((2, 9), dtype=np.int64)
    hx[0, 0:3] = 1
    hx[0, 3:6] = d - 1
    hx[1, 3:6] = 1
    hx[1, 6:9] = d - 1

    logical_x = np.zeros((1, 9), dtype=np.int64)
    logical_x[0, 0:3] = 1                       # constant on one block
    logical_z = np.zeros((1, 9), dtype=np.int64)
    logical_z[0, [0, 3, 6]] = 1                 # one site per block

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
