"""Gaussian displacement channel Monte Carlo."""

import math
import os
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from gkplat import channel_sim, decoder
from gkplat.catalog import get
from gkplat.channel_sim import (
    CRITERIA,
    NoiseModel,
    estimate_error_probability,
    failure_mask,
    make_generator,
    partition_trials,
    wilson_interval,
)
from gkplat.decoder import closest_point, closest_points
from gkplat.symplectic_lattice import (
    Lattice,
    coeff_transition,
    lattice_from_dict,
    logical_class,
    make_code,
    orthogonal_scale_sq,
    rescale,
)

from oracles import (binned_row_failures, normal_rounding_outcomes, pooled_columns,
                     square_lattice_failure_prob, wilson_halfwidth)


def lattice_noise(sigma_lattice: float, hbar: float = 1.0) -> NoiseModel:
    """NoiseModel whose per-coordinate lattice deviation is sigma_lattice."""
    return NoiseModel(sigma_lattice ** 2 * 2.0 * math.pi * hbar, hbar)


GQ2 = make_code(get("grid_qudit(2)").lattice)
D4 = make_code(get("D4").lattice)


def skewed_grid_code(d: int):
    """grid_qudit(d) from the basis (1, 0), (1, 1): the same point sets, but
    no orthogonal frame, so decoding takes the closest_point path."""
    code = make_code(Lattice([[1, 0], [1, 1]], d))
    assert orthogonal_scale_sq(code.normalizer) is None
    return code


GQ2_SKEW = skewed_grid_code(2)


class TestSampling:
    def test_zero_variance(self):
        for code in (GQ2, D4):
            for criterion in CRITERIA:
                est = estimate_error_probability(code, NoiseModel(0.0), 1000, seed=1,
                                                 criterion=criterion)
                assert est.failures == 0

    def test_estimate_reads_worker_streams(self):
        # worker w decides rows of its own stream: on GQ2 (an orthogonal
        # frame) from the binned cells of each block of at most _BATCH rows,
        # on D4 from normals scaled by lattice_sigma
        noise = lattice_noise(0.3)
        trials, table = 100_001, channel_sim._coefficient_table(GQ2, noise, "coset")
        expected = 0
        for worker, count in enumerate(partition_trials(trials, 2)):
            gen = make_generator(4, worker)
            for done in range(0, count, channel_sim._BATCH):
                rows = min(channel_sim._BATCH, count - done)
                hits, values = channel_sim._sample_cells(*table, gen, rows * 2)
                expected += int(binned_row_failures(GQ2, hits, values, rows, "coset").sum())
        assert count > channel_sim._BATCH  # each stream draws two blocks
        est = estimate_error_probability(GQ2, noise, trials, 4, "coset", workers=2)
        assert est.failures == expected
        trials, expected = 1001, 0
        for worker, count in enumerate(partition_trials(trials, 2)):
            block = make_generator(4, worker).standard_normal((count, D4.normalizer.n))
            expected += int(failure_mask(D4, block * noise.lattice_sigma, "coset").sum())
        est = estimate_error_probability(D4, noise, trials, 4, "coset", workers=2)
        assert est.failures == expected


class TestRecoveryOutcome:
    """One-row calls of the batched failure test, on the rounding path
    (GQ2) and the closest_point path (the same lattices, skewed basis)."""

    def test_zero_displacement(self):
        for code in (GQ2, GQ2_SKEW, D4):
            for criterion in CRITERIA:
                assert not failure_mask(code, np.zeros((1, code.normalizer.n)), criterion)[0]

    def test_normalizer_vector_outside_stabilizer(self):
        # (1/sqrt(2)) e_2: a normalizer generator that is not a stabilizer
        xi = np.array([[0.0, 1.0 / math.sqrt(2.0)]])
        for code in (GQ2, GQ2_SKEW):
            assert any(logical_class(code, closest_point(code.normalizer, xi[0]).coeffs))
            for criterion in CRITERIA:
                assert failure_mask(code, xi, criterion)[0]

    def test_stabilizer_vector_distinguishes_criteria(self):
        xi = np.array([[math.sqrt(2.0), 0.0]])
        for code in (GQ2, GQ2_SKEW):
            assert not any(logical_class(code, closest_point(code.normalizer, xi[0]).coeffs))
            assert failure_mask(code, xi, "voronoi")[0]  # trivial class, yet a failure
            assert not failure_mask(code, xi, "coset")[0]

    def test_boundary_tie(self):
        xi = np.array([[1.0 / (2.0 * math.sqrt(2.0)), 0.0]])
        for code in (GQ2, GQ2_SKEW):
            assert closest_point(code.normalizer, xi[0]).tie
            for criterion in CRITERIA:
                assert failure_mask(code, xi, criterion)[0]

    def test_rejects_unknown_criterion(self):
        with pytest.raises(ValueError):
            failure_mask(GQ2, [[0.0, 0.0]], "ml")
        with pytest.raises(ValueError):
            estimate_error_probability(GQ2, NoiseModel(0.1), 10, seed=1, criterion="ml")


def failure_mask_reference(code, xi, criterion):
    """failure_mask's decision written with reductions along axis 1 and the
    coset arrays built from the exact coefficient transition on every call,
    the form it had before it went column by column: the reference it must
    match bit for bit."""
    coeffs, tie = closest_points(code.normalizer, xi)
    if criterion == "voronoi":
        trivial = ~coeffs.any(axis=1)
    else:
        t = coeff_transition(code.normalizer, code.stabilizer)
        den = math.lcm(*(v.denominator for row in t for v in row))
        num = np.array([[int(v * den) for v in row] for row in t], dtype=np.int64)
        trivial = ((coeffs @ num) % den == 0).all(axis=1)
    return tie | ~trivial


COLUMNWISE_CODES = ([f"Zn({n})" for n in range(2, 13, 2)]
                    + [f"grid_qudit({d})" for d in range(2, 6)]
                    + ["D4", "E8x2"])  # the last two take the enumeration branch


class TestColumnwiseDecision:
    @pytest.mark.parametrize("name", COLUMNWISE_CODES)
    def test_equals_axis_reductions(self, name):
        lat = rescale(get("E8").lattice, 2) if name == "E8x2" else get(name).lattice
        code = make_code(lat)
        n, rng = code.normalizer.n, np.random.default_rng(43)
        rows = 150 if orthogonal_scale_sq(code.normalizer) is None else 600
        # Gaussian displacements, and exact half- and quarter-integer
        # combinations of the normalizer basis (ties, nontrivial classes)
        m = code.normalizer.effective_matrix()
        exact_points = [rng.integers(-4 * s, 4 * s + 1, size=(rows, n)) / s for s in (2, 4)]
        xi = np.vstack([rng.standard_normal((rows, n)) * s for s in (0.05, 0.5, 5.0)]
                       + exact_points + [x @ m for x in exact_points])
        masks = {}
        for criterion in CRITERIA:
            masks[criterion] = failure_mask(code, xi, criterion)
            assert np.array_equal(masks[criterion], failure_mask_reference(code, xi, criterion))
        assert 0 < masks["coset"].sum() < len(xi)
        assert not (masks["coset"] & ~masks["voronoi"]).any()

    def test_coset_arrays_built_once(self):
        code = make_code(rescale(get("E8").lattice, 2))
        num, den = code.coset_test
        assert code.coset_test[0] is num and not num.flags.writeable
        again = make_code(rescale(get("E8").lattice, 2))  # eq and hash skip the array
        assert again == code and hash(again) == hash(code) and again.coset_test[0] is not num
        t = coeff_transition(code.normalizer, code.stabilizer)
        assert all(int(num[i, j]) == t[i][j] * den for i in range(len(t)) for j in range(len(t)))
        assert den == math.lcm(*(v.denominator for row in t for v in row))


class TestEstimate:
    def test_vanishing_noise(self):
        est = estimate_error_probability(GQ2, lattice_noise(0.01), 100_000, seed=5)
        assert est.p_hat == 0.0

    def test_square_lattice_oracle(self):
        noise = lattice_noise(0.15)
        est = estimate_error_probability(GQ2, noise, 1_000_000, seed=9)
        exact = square_lattice_failure_prob(2, 2, 0.15)
        half = wilson_halfwidth(est.p_hat, est.trials)
        assert abs(est.p_hat - exact) <= 3.0 * half

    def test_coset_never_worse(self):
        noise = lattice_noise(0.35)
        voronoi = estimate_error_probability(GQ2, noise, 200_000, seed=13,
                                             criterion="voronoi")
        coset = estimate_error_probability(GQ2, noise, 200_000, seed=13,
                                           criterion="coset")
        assert coset.p_hat < voronoi.p_hat  # strictly, at this noise level

    def test_monotone_in_sigma_common_randomness(self):
        previous = -1.0
        for sigma in [0.05, 0.1, 0.15, 0.2, 0.3]:
            est = estimate_error_probability(GQ2, lattice_noise(sigma),
                                             100_000, seed=21)
            assert est.p_hat >= previous
            previous = est.p_hat

    def test_deterministic(self):
        noise = lattice_noise(0.2)
        a = estimate_error_probability(GQ2, noise, 50_000, seed=33, workers=3)
        b = estimate_error_probability(GQ2, noise, 50_000, seed=33, workers=3)
        assert a == b

    def test_worker_partition_covers_trials(self):
        noise = lattice_noise(0.2)
        est = estimate_error_probability(GQ2, noise, 10_001, seed=1, workers=7)
        assert est.trials == 10_001

    @pytest.mark.parametrize("trials,workers", [(0, 1), (-5, 1), (10, 0)])
    def test_nonpositive_trials_or_workers_refused(self, trials, workers):
        with pytest.raises(ValueError, match="trials and workers must be positive"):
            estimate_error_probability(GQ2, lattice_noise(0.2), trials, seed=1, workers=workers)

    def test_partition_sized_by_trials(self):
        # only the workers that draw get a count, however many are requested
        assert partition_trials(3, 10**6) == [1, 1, 1]
        assert partition_trials(10, 4) == [3, 3, 2, 2]
        assert sum(partition_trials(10_001, 7)) == 10_001

    @settings(max_examples=200, deadline=None)
    @given(trials=st.integers(1, 10**12), workers=st.integers(1, 10**4))
    def test_partition_property(self, trials, workers):
        counts = partition_trials(trials, workers)
        assert len(counts) == min(workers, trials)
        assert sum(counts) == trials
        assert max(counts) - min(counts) <= 1

    def test_idle_workers_change_nothing(self):
        noise = lattice_noise(0.4)
        for code in (GQ2, D4):
            for criterion in CRITERIA:
                many = estimate_error_probability(code, noise, 3, 8, criterion, workers=1000)
                assert many == estimate_error_probability(code, noise, 3, 8, criterion, workers=3)

    def test_unit_conversion_exact(self):
        # (sigma^2, hbar) and (sigma^2 / 2, hbar / 2) hit identical streams
        a = estimate_error_probability(GQ2, NoiseModel(0.0225, 2.0), 50_000, seed=3)
        b = estimate_error_probability(GQ2, NoiseModel(0.01125, 1.0), 50_000, seed=3)
        assert a == b

    def test_interval_brackets_estimate(self):
        est = estimate_error_probability(GQ2, lattice_noise(0.18), 30_000, seed=8)
        assert est.ci_low <= est.p_hat <= est.ci_high

    def test_generic_path_agrees_with_rounding_path(self):
        # one lattice in two bases: rounding in the orthogonal one,
        # closest_point in the skewed one; every trial decides alike
        code, skew = make_code(get("grid_qudit(3)").lattice), skewed_grid_code(3)
        xi = make_generator(41, 0).standard_normal((2_000, 2)) * lattice_noise(0.2).lattice_sigma
        for criterion in CRITERIA:
            mask = failure_mask(code, xi, criterion)
            assert mask.any()
            assert np.array_equal(mask, failure_mask(skew, xi, criterion))

    @pytest.mark.parametrize("name,sigma_sq,trials,failures", [
        ("D4", 0.5, 1000, {("voronoi", 1): 426, ("voronoi", 2): 431,
                           ("coset", 1): 422, ("coset", 2): 427}),
        ("E8x2", 0.5, 200, {("voronoi", 1): 173, ("voronoi", 2): 164,
                            ("coset", 1): 173, ("coset", 2): 164}),
        ("grid_qudit(2)", 1.0, 200_000, {("voronoi", 1): 121757, ("voronoi", 2): 121793,
                                         ("coset", 1): 119756, ("coset", 2): 119745}),
    ])
    def test_pinned_failure_counts(self, name, sigma_sq, trials, failures):
        # exact counts at seed 17: a change to sampling or decoding shows here
        lat = rescale(get("E8").lattice, 2) if name == "E8x2" else get(name).lattice
        code = make_code(lat)
        for (criterion, workers), want in failures.items():
            est = estimate_error_probability(code, NoiseModel(sigma_sq), trials, 17,
                                             criterion, workers)
            assert est.failures == want, (criterion, workers)

    def test_generic_lattice_runs(self):
        code = make_code(get("D4").lattice)
        est = estimate_error_probability(code, lattice_noise(0.2), 2_000, seed=6)
        assert 0.0 <= est.p_hat <= 1.0


# 3 times a rotation of Z^4: its normalizer has an orthogonal frame (c^2 = 1/9)
# and a coset test that mixes coordinates (den = 81), so signs matter
ROTATED = lattice_from_dict({"n": 4, "lambda": "1", "basis": [
    ["1", "2", "2", "0"], ["2", "-1", "0", "-2"], ["2", "0", "-1", "2"], ["0", "-2", "2", "1"]]})

# (code name, sigma^2, whether t >= den / 4 puts the table in its series
# regime): each code on both sides, but at d = 10**12 the series regime lies
# past the 2**16-term cap
BINNED_CASES = [("Zn(2)", 0.1, False), ("Zn(2)", 1.0, True),
                ("Zn(12)", 0.1, False), ("Zn(12)", 1.0, True),
                ("grid_qudit(2)", 0.3, False), ("grid_qudit(2)", 3.0, True),
                ("grid_qudit(3)", 0.4, False), ("grid_qudit(3)", 4.0, True),
                ("grid_qudit(1448)", 500.0, False), ("grid_qudit(1448)", 700.0, True),
                ("grid_qudit(1000000000000)", 1e-12, False),
                ("grid_qudit(1000000000000)", 1e-11, False),
                ("rotated", 0.3, False), ("rotated", 300.0, True)]


def binned_code(name):
    return make_code(ROTATED if name == "rotated" else get(name).lattice)


class TestBinnedLatticePath:
    """On a normalizer with an orthogonal frame the Monte Carlo samples the
    nonzero rounded coefficients as cells, in place of normals and the
    rounding decode."""

    @pytest.mark.parametrize("name,sigma_sq,series", BINNED_CASES)
    def test_cells_and_row_outcomes_match_normal_rounding_reference(self, name, sigma_sq,
                                                                    series):
        # 100,000 rows of each estimator, by chi-square: the coefficient
        # values (0 included; in the series regime nonzero m mod den, den
        # for 0), and each row's outcome (passes, fails voronoi only, fails
        # both)
        code, noise, rows = binned_code(name), NoiseModel(sigma_sq), 100_000
        n, den = code.normalizer.n, code.coset_test[1]
        t_sq = noise.lattice_sigma_sq / float(orthogonal_scale_sq(code.normalizer))
        assert (16.0 * t_sq >= den * den) == series
        tables = [channel_sim._coefficient_table(code, noise, c) for c in CRITERIA]
        assert tables[0][2] == tables[1][2]  # one cell rate q: voronoi's cells only carry 1
        hits, values = channel_sim._sample_cells(*tables[CRITERIA.index("coset")],
                                                 make_generator(91), rows * n)
        binned = [binned_row_failures(code, hits, values, rows, c) for c in CRITERIA]
        for criterion, mask in zip(CRITERIA, binned):
            assert channel_sim._cell_failures(code, criterion, hits, values, n) == mask.sum()
        coeffs, *reference = normal_rounding_outcomes(code, noise, rows, make_generator(92))
        nonzero = coeffs[coeffs != 0]
        cells = [values, (nonzero - 1) % den + 1 if series else nonzero]
        kinds = np.unique(np.concatenate(cells))
        counts = np.array([np.append(rows * n - len(c), np.bincount(np.searchsorted(kinds, c),
                                                                    minlength=len(kinds)))
                           for c in cells])
        assert chi2_contingency(pooled_columns(counts)).pvalue > 1e-3
        counts = []
        for voronoi, coset in (binned, reference):
            assert not (coset & ~voronoi).any()
            counts.append(np.bincount(voronoi.astype(int) + coset, minlength=3))
        if den == 1:
            assert counts[0][2] == counts[1][2] == 0  # Zn: coset never fails
        table = pooled_columns(np.array(counts))
        if table.shape[1] > 1:
            assert chi2_contingency(table).pvalue > 1e-3
        else:
            assert np.array_equal(*(np.flatnonzero(c) for c in counts))

    def test_coset_failures_are_voronoi_failures_at_one_seed(self, monkeypatch):
        # the draws do not depend on the criterion: both runs see the same
        # cells (voronoi's all valued 1), and each coset-failing row also
        # fails voronoi
        sample, draws, failures = channel_sim._sample_cells, {}, {}
        for criterion in CRITERIA:
            seen = draws[criterion] = []
            monkeypatch.setattr(channel_sim, "_sample_cells",
                                lambda *args, seen=seen: seen.append(sample(*args)) or seen[-1])
            failures[criterion] = estimate_error_probability(
                GQ2, lattice_noise(0.4), 3 * channel_sim._BATCH + 5, 29, criterion).failures
        assert len(draws["voronoi"]) == 4
        masks = {c: [] for c in CRITERIA}
        for (hits, ones), (again, values) in zip(draws["voronoi"], draws["coset"]):
            assert np.array_equal(hits, again) and (ones == 1).all()
            rows = channel_sim._BATCH if len(masks["coset"]) < 3 else 5
            for criterion in CRITERIA:
                masks[criterion].append(binned_row_failures(GQ2, hits, values, rows, criterion))
        voronoi, coset = (np.concatenate(masks[c]) for c in CRITERIA)
        assert not (coset & ~voronoi).any() and 0 < coset.sum() < voronoi.sum()
        assert (coset.sum(), voronoi.sum()) == (failures["coset"], failures["voronoi"])

    def test_no_normal_and_no_decode_on_an_orthogonal_frame(self, monkeypatch):
        class NoNormals(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                raise AssertionError("standard_normal called")

        def never(name):
            def called(*args):
                raise AssertionError(f"{name} called")
            return called
        make = channel_sim.make_generator
        monkeypatch.setattr(channel_sim, "make_generator",
                            lambda seed, worker=0: NoNormals(make(seed, worker).bit_generator))
        monkeypatch.setattr(decoder, "closest_points", never("closest_points"))
        monkeypatch.setattr(decoder, "_frame", never("the decoder's _frame"))  # nor its frame
        for code in (GQ2, make_code(get("Zn(12)").lattice), make_code(ROTATED)):
            for criterion in CRITERIA:
                est = estimate_error_probability(code, lattice_noise(0.3), 70_000, 3, criterion,
                                                 workers=2)
                assert 0 < est.failures or (criterion == "coset" and code.coset_test[1] == 1)
        for name, call in (  # the patches do bite on D4
                ("standard_normal", lambda: estimate_error_probability(D4, lattice_noise(0.3),
                                                                       10, 3)),
                ("closest_points", lambda: failure_mask(D4, np.zeros((1, 4)))),
                ("the decoder's _frame", lambda: decoder.shortest_vector(D4.normalizer))):
            with pytest.raises(AssertionError, match=f"^{name} called$"):
                call()

    def test_coefficient_pmf_past_the_term_cap_named(self):
        # t = 5,046 >= den / 4 at den = 20,000: the coset test's series
        # needs 6 * 20,000 terms, and the binned sampler refuses it.
        # Voronoi values no cell, builds no table and answers, as decoding
        # normals did: nearly every trial fails.
        code, noise = make_code(get("grid_qudit(20000)").lattice), NoiseModel(8000.0)
        with pytest.raises(ValueError, match=r"^the coefficient pmf at coset denominator "
                                             r"20000, sigma_sq = 8000\.0, hbar = 1\.0 needs "
                                             r"120000 terms, more than 2\*\*16$"):
            estimate_error_probability(code, noise, 10, 1, "coset")
        est = estimate_error_probability(code, noise, 1000, 1, "voronoi")
        assert est.failures == 1000

    @settings(max_examples=80, deadline=None)
    @given(d=st.one_of(st.integers(1, 1448), st.sampled_from([20_000, 10**6, 2**40 + 1, 10**12])),
           sigma_sq=st.sampled_from([0.0, 5e-324, 1e-30, 1e-8, 0.05, 5.0, 1e4, 1e12, 1e40,
                                     1e300]),
           hbar=st.sampled_from([1e-3, 1.0, 1e3]), criterion=st.sampled_from(CRITERIA))
    @example(d=20_000, sigma_sq=8000.0, hbar=1.0, criterion="coset")  # past 2**16 terms
    @example(d=2, sigma_sq=1e12, hbar=1.0, criterion="voronoi")  # series, t about 6e5
    @example(d=1448, sigma_sq=1e4, hbar=1.0, criterion="coset")  # series, 8,688 terms
    def test_bounded_work_at_every_input(self, d, sigma_sq, hbar, criterion):
        # grid_qudit(d) over one full block: a valid estimate or one named
        # ValueError, at most 2**16 erf, erfc or cosine terms, 8 MiB traced
        code = make_code(Lattice([[1, 0], [0, 1]], d))
        terms, erf, erfc, cos = [], math.erf, math.erfc, np.cos
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(math, "erf", lambda x: terms.append(1) or erf(x))
            patch.setattr(math, "erfc", lambda x: terms.append(1) or erfc(x))
            patch.setattr(np, "cos", lambda x: terms.append(np.size(x)) or cos(x))
            tracemalloc.start()
            try:
                est = estimate_error_probability(code, NoiseModel(sigma_sq, hbar),
                                                 channel_sim._BATCH, 5, criterion)
                assert 0 <= est.failures <= est.trials == channel_sim._BATCH
                assert est.ci_low <= est.p_hat <= est.ci_high
            except ValueError as err:
                assert re.fullmatch(r"the coefficient pmf at coset denominator \d+, .* needs "
                                    r"\d+ terms, more than 2\*\*16|sigma_sq = .* beyond "
                                    r"float64", str(err))
                assert terms == []
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        assert channel_sim._MAX_TERMS == 2**16
        assert sum(terms) <= 2**16
        assert peak <= 8 * 2**20


class TestStreams:
    """Worker streams run at once when each holds a full block; the
    failure count is the same as one after the other."""

    @pytest.mark.parametrize("code,criterion,trials", [
        (GQ2, "voronoi", 4 * channel_sim._BATCH + 3),
        (GQ2, "coset", 4 * channel_sim._BATCH + 3),
        (D4, "coset", 2 * channel_sim._BATCH),  # the general decoding path
    ])
    def test_threaded_counts_equal_serial(self, on_cpus, code, criterion, trials):
        def run():
            return estimate_error_probability(code, lattice_noise(0.3), trials, 23,
                                              criterion, workers=2)
        serial, built = on_cpus(1, run)
        assert built == 0
        threaded, built = on_cpus(2, run)
        assert built == 1
        assert threaded == serial
        assert 0 < serial.failures < trials

    def test_small_streams_stay_serial(self, on_cpus):
        # a stream below one full block runs on the calling thread
        trials = 2 * channel_sim._BATCH - 1
        _, built = on_cpus(2, lambda: estimate_error_probability(
            GQ2, lattice_noise(0.3), trials, 23, workers=2))
        assert built == 0

    def test_thread_count(self, on_cpus):
        # helper threads _estimate builds for blocks of 5 rows; the calling
        # thread is the other one
        for cpus, trials, workers, helpers in [
                (4, 10, 2, 1),  # streams of [5, 5]: one thread each
                (4, 45, 9, 3),  # [5] * 9: one thread per CPU
                (4, 9, 2, 0),   # [5, 4]: a stream below one block keeps them all serial
                (1, 45, 9, 0)]:
            est, built = on_cpus(cpus, lambda: channel_sim._estimate(
                lambda gen, rows: 0, 1, trials, workers, 5))
            assert built == helpers
            assert est.trials == trials and est.failures == 0

    def test_usable_cpus(self):
        assert 1 <= channel_sim._usable_cpus() <= (os.cpu_count() or 1)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failed_stream_raises_after_join(self, monkeypatch, failing):
        # the stream's generator stands in as its worker index; streams
        # 0, 2 run on the calling thread and 1, 3 on the helper
        monkeypatch.setattr(channel_sim, "make_generator", lambda seed, worker: worker)
        started, finished = threading.Event(), []

        def block_failures(worker, rows):
            if worker == failing:
                if worker == 0:
                    started.wait(5)  # fail while the helper is mid-block
                raise RuntimeError(f"stream {worker} failed")
            started.set()
            time.sleep(0.05)
            finished.append(worker)
            return rows

        before = threading.active_count()
        monkeypatch.setattr(channel_sim, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match=f"stream {failing} failed"):
            channel_sim._estimate(block_failures, 1, 8, 4, 1)
        assert threading.active_count() == before
        if failing == 0:
            assert finished == [1]  # the helper's block ran to its end first
        else:
            assert finished in ([], [0])  # the calling thread stopped at its next block

    def test_streams_sum_under_switching(self, monkeypatch):
        # more threads than cores and a tiny switch interval: a lost update
        # of a total would change the sum. Stream w's generator is its
        # budget [w] of extra failures: each of its 15 blocks (100 rows in
        # blocks of <= 7) fails 1 row plus what it takes from the budget, at
        # most ``rows`` in all, so every block counts and the stream sums
        # 15 + w are distinct.
        monkeypatch.setattr(channel_sim, "make_generator", lambda seed, worker: [worker])
        monkeypatch.setattr(channel_sim, "_usable_cpus", lambda: 16)

        def block_failures(budget, rows):
            extra = min(rows - 1, budget[0])
            budget[0] -= extra
            return 1 + extra

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            est = channel_sim._estimate(block_failures, 1, 64 * 100, 64, 7)
        finally:
            sys.setswitchinterval(interval)
        assert est.failures == sum(15 + w for w in range(64))


class TestWilson:
    def test_zero_failures(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0 and 0.0 < high < 0.005

    def test_all_failures(self):
        low, high = wilson_interval(1000, 1000)
        assert high == 1.0 and 0.995 < low < 1.0

    def test_width_shrinks_with_sqrt_trials(self):
        half1 = wilson_halfwidth(0.1, 10_000)
        half2 = wilson_halfwidth(0.1, 20_000)
        assert half1 / half2 == pytest.approx(math.sqrt(2.0), rel=0.01)


class TestNoiseModel:
    def test_lattice_variance(self):
        noise = NoiseModel(math.pi, 0.5)
        assert noise.lattice_sigma_sq == pytest.approx(1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            NoiseModel(-1.0)
        with pytest.raises(ValueError):
            NoiseModel(1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            NoiseModel(bad)
        with pytest.raises(ValueError):
            NoiseModel(0.1, bad)
