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

    The nearest normalizer point comes from ``closest_points``. Voronoi
    success needs that point to be the origin; coset success needs it to be
    a stabilizer translation. The decision is made column by column: each
    column of the coefficients (voronoi) or of ``code.coset_test`` (coset)
    ORs one (m,) test into the tie mask.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")
    from .decoder import closest_points
    coeffs, fail = closest_points(code.normalizer, xi)
    if criterion == "voronoi":
        for col in coeffs.T:
            fail |= col != 0
    else:
        num, den = code.coset_test
        for col in num.T:
            v = coeffs @ col
            fail |= v != v // den * den  # den does not divide v
    return fail


def estimate_error_probability(code: LatticeCode, noise: NoiseModel, trials: int,
                               seed: int, criterion: str = "voronoi",
                               workers: int = 1) -> ErrorEstimate:
    """Monte Carlo logical-error probability with a 95% Wilson interval.

    Deterministic for a fixed (seed, trials, workers): worker w consumes
    the derived stream hash(seed, w) and failure counts are summed,
    whether the streams run one after the other or at once.
    """
    sigma = noise.lattice_sigma
    if not math.isfinite(sigma):
        raise ValueError(f"sigma_sq = {noise.sigma_sq!r} over hbar = {noise.hbar!r} gives a "
                         f"lattice-coordinate sigma beyond float64")

    def block_failures(gen, rows):
        xi = gen.standard_normal((rows, code.normalizer.n))
        xi *= sigma
        return int(failure_mask(code, xi, criterion).sum())

    return _estimate(block_failures, seed, trials, workers, _BATCH)
