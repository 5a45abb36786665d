"""Monte Carlo of the Gaussian displacement channel acting on lattice codes.

The channel displaces every quadrature independently by a centered
Gaussian of variance sigma_sq (physical units). Displacements are handled
entirely at the phase-space level: physical displacement = sqrt(2 pi hbar)
times the dimensionless lattice coordinates in which codes are stored, so
each lattice coordinate receives variance sigma_sq / (2 pi hbar).

Recovery applies the minimal-length correction consistent with the
syndrome. Two success criteria are offered:

* ``voronoi``: the displacement lies strictly inside the Voronoi cell of
  the normalizer lattice (sufficient for recovery; the default), or
* ``coset``: the nearest normalizer point is a stabilizer translation, so
  the minimal correction acts trivially on the code space (necessary and
  sufficient for this error model).

The coset success set contains the Voronoi one, so the coset criterion
never reports more failures. Ties on the cell boundary count as failures
under both.

Where the normalizer has an orthogonal frame (G = c^2 I: Z^n, grid_qudit(d)
and every scaled rotation of the cubic lattice), nearest-point decoding is
rounding, and the rounded basis coefficients of a displacement are
independent integers, m = round(N(0, t^2)) with t = sigma / c. There no
normal is drawn and nothing is decoded: the nonzero coefficients of each
block are sampled as cells, geometric(q) gaps apart with q = P(m != 0),
and for the coset test valued by inverse CDF on a table built once per
call. Only the rows holding a cell can fail: each fails voronoi, and
under coset they go through the criterion's integer test. Ties never
arise there. The same table builder and cell sampler draw the qudit
shifts of the concatenated Monte Carlo. Any other lattice draws normal displacements and decodes
them with ``closest_points``.

Trials use the Philox counter-based generator. Worker streams are derived
by hashing (master seed, worker index), so a run is bit-reproducible for a
fixed (seed, trials, worker count) and may be partitioned freely. When
every stream holds at least one full sampling block, the streams run at
once on up to min(streams, usable CPUs) threads, the calling thread among
them (numpy releases the GIL in Philox fills and large kernels); smaller
streams run one after the other. A failure count is a sum over streams,
so it does not depend on the number of threads.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .rates import NoiseModel  # also imported from here, as channel_sim.NoiseModel

RNG_ALGORITHM = "philox4x64+sha256-worker-streams/v1"
WILSON_Z = 1.959963984540054  # 97.5th normal percentile, for 95% intervals
_BATCH = 1 << 15  # rows per block; bounds what each running stream holds at once

CRITERIA = ("voronoi", "coset")


@dataclass(frozen=True)
class ErrorEstimate:
    p_hat: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int
    failures: int


def make_generator(seed: int, worker: int = 0) -> np.random.Generator:
    """Philox stream of one worker, keyed by 128 bits of sha256(seed, worker)."""
    digest = hashlib.sha256(f"gkplat/{RNG_ALGORITHM}/{seed}/{worker}".encode()).digest()
    return np.random.Generator(np.random.Philox(key=np.frombuffer(digest[:16], dtype=np.uint64)))


def partition_trials(trials: int, workers: int) -> list[int]:
    """Trial counts of the workers that draw: the first min(workers, trials)
    of them; any further worker would run zero trials."""
    base, extra = divmod(trials, workers)
    return [base + (1 if i < extra else 0) for i in range(min(workers, trials))]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _stream_threads(counts: list[int], block: int) -> int:
    """Threads for streams of ``counts`` rows: one per stream, up to the
    usable CPUs, when every stream holds a full block of ``block`` rows;
    else one, since small blocks lose more to GIL switches than they gain."""
    if min(counts) < block:
        return 1
    return min(len(counts), _usable_cpus())


def _estimate(block_failures, seed: int, trials: int, workers: int,
              block: int) -> ErrorEstimate:
    """Failure probability with a 95% Wilson interval from the sum of
    block_failures(generator, rows), at most ``rows`` failures each, over
    blocks of at most ``block`` rows of each worker stream: stream w draws
    partition_trials(trials, workers)[w] rows from make_generator(seed, w).

    With t = _stream_threads(...) threads, thread i runs streams i, i + t,
    ..., and the calling thread is thread 0. Once a stream raises, the
    others stop at their next block, and the exception is re-raised here
    after every thread has finished; no partial sum is returned.
    """
    if trials < 1 or workers < 1:
        raise ValueError("trials and workers must be positive")
    counts = partition_trials(trials, workers)
    threads = _stream_threads(counts, block)
    totals = [0] * threads
    errors = [None] * threads

    def run(i):
        try:
            for w in range(i, len(counts), threads):
                gen = make_generator(seed, w)
                for done in range(0, counts[w], block):
                    if any(exc is not None for exc in errors):
                        return
                    totals[i] += block_failures(gen, min(block, counts[w] - done))
        except BaseException as exc:  # re-raised by the calling thread
            errors[i] = exc

    helpers = [threading.Thread(target=run, args=(i,)) for i in range(1, threads)]
    for helper in helpers:
        helper.start()
    run(0)
    for helper in helpers:
        helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    failures = sum(totals)
    low, high = wilson_interval(failures, trials)
    return ErrorEstimate(p_hat=failures / trials, ci_low=low, ci_high=high,
                         trials=trials, seed=seed, failures=failures)


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    p = failures / trials
    zz = WILSON_Z * WILSON_Z / trials
    denom = 1.0 + zz
    center = (p + zz / 2.0) / denom
    half = WILSON_Z * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials)) / denom
    low = 0.0 if failures == 0 else max(0.0, center - half)
    high = 1.0 if failures == trials else min(1.0, center + half)
    return low, high


def failure_mask(code: LatticeCode, xi, criterion: str = "voronoi") -> np.ndarray:
    """Decoding failure of each row of an (m, n) block xi of displacements
    (lattice coordinates); ties on the cell boundary count as failures.

    The nearest normalizer point comes from ``closest_points``; its
    coefficients then go through the criterion's integer test
    (_criterion_fails), ORed into the tie mask.
    """
    _check_criterion(code, criterion)
    from .decoder import closest_points
    coeffs, fail = closest_points(code.normalizer, xi)
    return _criterion_fails(code, coeffs, criterion, fail)


def _check_criterion(code: LatticeCode, criterion: str) -> None:
    """A ValueError for an unknown criterion, and for a coset test whose
    denominator int64 arithmetic cannot hold."""
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")
    den = code.coset_test[1]
    if criterion == "coset" and den > np.iinfo(np.int64).max:
        raise ValueError(f"the coset test's denominator {den} is beyond int64")


def _criterion_fails(code: LatticeCode, coeffs, criterion: str, fail) -> np.ndarray:
    """ORs into the (m,) mask fail the rows of (m, n) int64 normalizer
    coefficients that fail: voronoi success needs them all zero, coset
    success a stabilizer translation. The test goes column by column: each
    column of the coefficients (voronoi), or each combination of them by a
    column of ``code.coset_test`` (coset), ORs one (m,) test into fail."""
    if criterion == "voronoi":
        for col in coeffs.T:
            fail |= col != 0
    else:
        num, den = code.coset_test
        v, floor = np.empty((2, len(coeffs)), dtype=np.int64)
        for col in num.T:
            _combine_columns(coeffs, col, v)
            np.floor_divide(v, den, out=floor)  # several times faster than % by a scalar
            floor *= den
            fail |= floor != v  # den does not divide v
    return fail


def _combine_columns(block, coefficients, out) -> np.ndarray:
    """out = the sum of coefficients[j] * block[:, j] over the nonzero
    coefficients, a column of coefficient 1 or -1 added or subtracted."""
    out.fill(0)
    for j, c in enumerate(coefficients.tolist()):
        if c in (1, -1):
            (np.add if c == 1 else np.subtract)(out, block[:, j], out=out)
        elif c:
            out += block[:, j] * c
    return out


_MAX_TERMS = 1 << 16  # erfc or cosine terms of one pmf; its table has at most twice as many cells


def _binned_table(t_sq: float, den: int, wrap: bool, name: str):
    """(values, cdf, q) of m = round(x), x ~ N(0, t_sq): q = P(m is a cell),
    the values a cell carries, possibly repeated, and their cumulative pmf
    given a cell. With ``wrap``, a cell is m != 0 mod den and carries
    m mod den in [1, den) (a qudit shift); without, a cell is m != 0 and
    carries m itself while t = sqrt(t_sq) < den / 4, then a representative
    of m mod den in [1, den] (den standing for 0), which keeps it nonzero.

    While t < den / 4, each probability is a difference of the tails
    P(m > i) = erfc((i + 1/2) / (t sqrt 2)) / 2, so q keeps its precision
    at any noise, and |m| <= top leaves out under 2**-64 of P(m > 0), as
    erfc(y) <= erfc(x) exp(x^2 - y^2). From t = den / 4 on, the series
    pmf(v) = (1 + 2 sum_j exp(-2 (pi t j / den)^2) sinc(j / den) cos(2 pi j v / den)) / den
    (Poisson summation) stops at j = top = floor(1.5 den / t) <= 6, past
    which its terms are under 2**-64; without ``wrap``, P(m = 0) is taken
    off residue 0. A table of more than _MAX_TERMS erfc or cosine terms is
    a ValueError naming ``name``, raised before any term is computed.
    """
    t, dual = math.sqrt(t_sq), 16.0 * t_sq >= den * den
    residues = den - 1 if wrap else den  # the series regime's values: 1 .. residues
    top = math.floor(1.5 * den / t) if dual else \
        max(1, math.ceil(math.sqrt(0.25 + 88.8 * t_sq) - 0.5))  # 88.8 > 128 ln 2
    terms = (top + 1) * (residues if dual else 1)
    if terms > _MAX_TERMS:
        raise ValueError(f"{name} needs {terms} terms, more than 2**16")
    if dual:
        values, j = np.arange(1, residues + 1), np.arange(1, top + 1)[:, None]
        waves = np.exp(-2.0 * (math.pi * t * j / den) ** 2) * np.sinc(j / den) \
            * np.cos(2.0 * math.pi * (j * values) / den)
        probs = (1.0 + 2.0 * waves.sum(axis=0)) / den
        if not wrap:  # the last value, den, is residue 0
            probs[-1] = max(0.0, probs[-1] - math.erf(0.5 / (math.sqrt(2.0) * t)))
    else:  # m = i, then m = -i, for i = 1 .. top
        tails = np.array([0.5 * math.erfc((i + 0.5) / (math.sqrt(2.0) * t)) if t else 0.0
                          for i in range(top + 1)])
        values = np.concatenate([np.arange(1, top + 1), np.arange(-1, -top - 1, -1)])
        probs = np.tile(tails[:-1] - tails[1:], 2)
        if wrap:  # a cell of residue 0 gets 0
            values %= den
            probs *= values != 0
    cdf = np.cumsum(probs)
    q = float(cdf[-1])
    return values, cdf / (q or 1.0), q


def _sample_cells(values, cdf, q, rng: np.random.Generator, size: int):
    """The cells of a flat block of ``size`` entries from a cell table
    (values, cdf, q), as _binned_table builds: their sorted indices,
    possibly a slice of the gap buffer, and their values. The cells lie
    geometric(q) gaps apart and take values by inverse CDF on rng.random;
    q = 0 draws nothing."""
    last = -1
    hits, picked = [np.zeros(0, dtype=np.int64)], [values[:0]]
    while q and last < size - 1:
        mean = (size - 1 - last) * q
        cells = rng.geometric(q, math.ceil(mean + 4.0 * math.sqrt(mean) + 1.0))
        np.minimum(cells, size + 1, out=cells)  # a gap past the block ends it; sums stay in int64
        cells[0] += last
        np.cumsum(cells, out=cells)
        hits.append(cells[:np.searchsorted(cells, size)])
        picked.append(values[np.searchsorted(cdf, rng.random(len(hits[-1])), side="right")])
        last = int(cells[-1])
    # an empty first piece serves q = 0; one draw, the usual case, is not concatenated
    return tuple(np.concatenate(x) if len(x) > 2 else x[-1] for x in (hits, picked))


def _coefficient_table(code: LatticeCode, noise: NoiseModel, criterion: str):
    """The cell table (values, cdf, q) of the rounded normalizer
    coefficients of one displacement when the normalizer has an orthogonal
    frame (G = c^2 I), else None. There the coefficients xi M^-1 of
    xi ~ N(0, sigma^2 I) are independent N(0, t^2), t = sigma / c, and a
    cell is a nonzero one, q = P(m != 0) = erfc(1 / (2 sqrt 2 t)) for both
    criteria. Voronoi needs no values, so its cells all carry 1; coset
    takes them from the _binned_table of m at the coset test's den, of
    which only the residues mod den enter the test."""
    from .symplectic_lattice import orthogonal_scale_sq
    if orthogonal_scale_sq(code.normalizer) is None:
        return None
    t = noise.lattice_sigma / math.hypot(*code.normalizer.effective_matrix()[0])
    if criterion == "voronoi":
        values, cdf = np.ones(1, dtype=np.int64), np.ones(1)
    else:
        den = code.coset_test[1]
        values, cdf, _ = _binned_table(t * t, den, False,
                                       f"the coefficient pmf at coset denominator {den}, "
                                       f"sigma_sq = {noise.sigma_sq!r}, hbar = {noise.hbar!r}")
    return values, cdf, math.erfc(0.5 / (math.sqrt(2.0) * t)) if t else 0.0


def _cell_failures(code: LatticeCode, criterion: str, hits, values, n: int) -> int:
    """Failures among the rows of a flat block of n-coefficient rows whose
    nonzero coefficients are the given cells: only a row holding a cell
    can fail. Under voronoi each such row fails, a cell being a nonzero
    coefficient; under coset those rows, scattered into a block of their
    own, go through _criterion_fails."""
    rows = hits // n
    slot = np.empty(len(rows), dtype=np.int64)  # each cell's row in the block below
    slot[:1] = 0
    np.not_equal(rows[1:], rows[:-1], out=slot[1:])
    if criterion == "voronoi":
        return int(np.count_nonzero(slot)) + (len(slot) > 0)
    np.cumsum(slot, out=slot)
    coeffs = np.zeros((int(slot[-1]) + 1 if len(slot) else 0, n), dtype=np.int64)
    np.subtract(slot, rows, out=rows)  # each cell's flat index in that block
    rows *= n
    rows += hits
    coeffs.reshape(-1)[rows] = values
    del rows, slot  # the test below reuses their memory
    return int(_criterion_fails(code, coeffs, criterion, np.zeros(len(coeffs), dtype=bool)).sum())


def estimate_error_probability(code: LatticeCode, noise: NoiseModel, trials: int,
                               seed: int, criterion: str = "voronoi",
                               workers: int = 1) -> ErrorEstimate:
    """Monte Carlo logical-error probability with a 95% Wilson interval.

    On a normalizer with an orthogonal frame no normal is drawn: the nonzero
    rounded coefficients of each block are sampled as cells of
    _coefficient_table and decided by _cell_failures, so ties never arise.
    Otherwise each block of displacements is drawn by standard_normal and
    decided by failure_mask. The draws do not depend on the criterion (a
    voronoi cell only ignores its value), so at one seed the coset
    failures are among the voronoi ones.

    Deterministic for a fixed (seed, trials, workers): worker w consumes
    the derived stream hash(seed, w) and failure counts are summed,
    whether the streams run one after the other or at once.
    """
    _check_criterion(code, criterion)
    sigma = noise.lattice_sigma
    if not math.isfinite(sigma):
        raise ValueError(f"sigma_sq = {noise.sigma_sq!r} over hbar = {noise.hbar!r} gives a "
                         f"lattice-coordinate sigma beyond float64")
    n = code.normalizer.n
    table = _coefficient_table(code, noise, criterion)

    def block_failures(gen, rows):
        if table is not None:
            return _cell_failures(code, criterion, *_sample_cells(*table, gen, rows * n), n)
        xi = gen.standard_normal((rows, n))
        xi *= sigma
        return int(failure_mask(code, xi, criterion).sum())

    return _estimate(block_failures, seed, trials, workers, _BATCH)
