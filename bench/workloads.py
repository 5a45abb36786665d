"""Workloads of the gkplat benchmark: job lists, execution and output checks.

Three closed-loop workloads, one client each, one job at a time:

* ``mc_general``    Monte Carlo on normalizers with no orthogonal frame,
                    so every trial runs the branch-and-bound decoder;
* ``mc_vectorized`` rounding-path Monte Carlo and concatenated blocks,
                    where the decoder is bypassed;
* ``cli_tables``    the ``gkplat`` command line, one subprocess per call.

Every Monte Carlo job uses two worker streams. A job's seed derives from
the benchmark seed, the round and the job's (code, noise, trials) key, so
the voronoi and coset jobs of one key draw identical displacements.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import oracles
from gkplat.catalog import get as catalog_get
from gkplat.channel_sim import (
    NoiseModel,
    estimate_error_probability,
    make_generator,
    partition_trials,
)
from gkplat.classical_channel import ClassicalParams, optimize_classical_d, shannon_capacity
from gkplat.concatenated import (
    QuditPauliError,
    css_decode,
    optimize_qudit_dimension,
    shor9_code,
    simulate_concatenated,
)
from gkplat.decoder import closest_point, packing_radius, shortest_vector
from gkplat.rates import (
    best_integer_lambda,
    coherent_information,
    hw_upper_bound,
    sphere_packing_rate,
)
from gkplat.symplectic_lattice import logical_class, make_code, rescale

WORKERS = 2
CRITERIA = ("voronoi", "coset")
CHECK_Z = 5.0            # Wilson z for checks against exact values (false alarm ~6e-7)
ORACLE_SAMPLES = 4       # decoded displacements checked per (code, noise) pair and round
ANCHOR_SIGMA = math.sqrt(1.88e-4)
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class McJob:
    """One ``estimate_error_probability`` call."""

    lattice: str          # catalog name, or E8x2 for rescale(E8, 2)
    sigma_sq: float
    criterion: str
    trials: int

    @property
    def pair(self) -> str:
        return f"{self.lattice}_s{self.sigma_sq:g}"

    @property
    def key(self) -> str:
        return f"{self.pair}/{self.trials}"

    @property
    def label(self) -> str:
        return f"mc {self.pair} {self.criterion} x{self.trials}"

    @property
    def general(self) -> bool:
        return not self.lattice.startswith("grid_qudit")


@dataclass(frozen=True)
class ConcatJob:
    """One ``simulate_concatenated`` call on the nine-qudit block."""

    d: int
    sigma_sq: float
    trials: int

    @property
    def key(self) -> str:
        return f"shor9_d{self.d}_s{self.sigma_sq:g}/{self.trials}"

    @property
    def label(self) -> str:
        return f"concat shor9 d={self.d} s{self.sigma_sq:g} x{self.trials}"


@dataclass(frozen=True)
class CliJob:
    """One ``gkplat`` subprocess; ``{seed}`` and ``{point}`` are filled per round."""

    args: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.args)

    @property
    def label(self) -> str:
        return "gkplat " + self.key

    @property
    def csv(self) -> bool:
        return self.args[0] in ("rates", "concat-rates", "classical-rates")


def mc_general_jobs(scale: float) -> list:
    jobs = []
    for lattice, trials in (("D4", 300), ("E8x2", 100)):
        for sigma_sq in (0.1, 0.2):
            for criterion in CRITERIA:
                jobs.append(McJob(lattice, sigma_sq, criterion, max(1, round(trials * scale))))
    return jobs


def mc_vectorized_jobs(scale: float) -> list:
    n_grid = max(1, round(2_000_000 * scale))
    n_concat = max(1, round(1_000_000 * scale))
    return [McJob("grid_qudit:2", 0.1, "voronoi", n_grid),
            McJob("grid_qudit:2", 0.1, "coset", n_grid),
            ConcatJob(3, 0.05, n_concat),
            ConcatJob(10, 0.05, n_concat)]


def cli_tables_jobs(scale: float) -> list:
    anchor = repr(ANCHOR_SIGMA)
    n_sim = str(max(1, round(1000 * scale)))
    n_concat = str(max(1, round(100_000 * scale)))
    return [CliJob(a) for a in (
        ("rates", "--sigma-sq-grid", "1e-4:1e0:100"),
        ("concat-rates", "--sigma-grid", "0.0137:0.45:60"),
        ("concat-rates", "--sigma-grid", "1e-3:0.0137:3"),
        ("concat-rates", "--sigma-grid", f"{anchor}:{anchor}:1"),
        ("classical-rates", "--snr-grid", "1:1e10:50"),
        ("lattice-info", "D4"),
        ("lattice-info", "E8"),
        ("decode", "E8", "{point}"),
        ("simulate", "--lattice", "D4", "--sigma-sq", "0.2", "--trials", n_sim,
         "--seed", "{seed}"),
        ("concat-sim", "--code", "shor9", "--d", "3", "--sigma-sq", "0.05",
         "--trials", n_concat, "--seed", "{seed}"),
    )]


WORKLOADS = {
    "mc_general": mc_general_jobs,
    "mc_vectorized": mc_vectorized_jobs,
    "cli_tables": cli_tables_jobs,
}


def derive_seed(seed: int, *parts) -> int:
    material = "/".join(str(p) for p in (seed, *parts)).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:4], "little")


def resolve_lattice(name: str):
    if name == "E8x2":
        return rescale(catalog_get("E8").lattice, 2)
    return catalog_get(name).lattice


def wilson(failures: int, trials: int, z: float = CHECK_Z) -> tuple[float, float]:
    p = failures / trials
    zz = z * z / trials
    center = (p + zz / 2.0) / (1.0 + zz)
    half = z * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials)) / (1.0 + zz)
    return center - half, center + half


def grid_failure_prob(d: int, sigma_sq: float, criterion: str) -> float:
    """Exact failure probability of grid_qudit(d) (one mode, two quadratures).

    Voronoi: 1 - erf(b / sigma sqrt 2)^2 with b half the normalizer
    spacing 1/sqrt(d). Coset: a quadrature fails unless it rounds to a
    multiple of the stabilizer spacing sqrt(d).
    """
    sigma = math.sqrt(sigma_sq / (2.0 * math.pi))
    h = 1.0 / math.sqrt(d)
    root2s = sigma * math.sqrt(2.0)

    def window(c):  # P(|x - c| < h/2)
        return 0.5 * (math.erf((c + h / 2) / root2s) - math.erf((c - h / 2) / root2s))

    if criterion == "voronoi":
        per = window(0.0)
    else:
        per = sum(window(j * d * h) for j in range(-20, 21))
    return 1.0 - per * per


def shor9_failure_prob(d: int, sigma_sq: float) -> float:
    """Exact block failure probability of shor9 by enumerating every X and
    every Z error pattern through the scalar ``css_decode``, weighted by the
    independent shift distribution in ``tests/oracles.py``."""
    code = shor9_code(d)
    pmf = oracles.qudit_shift_pmf(d, math.sqrt(sigma_sq))
    p_x = p_z = 0.0
    for digits in itertools.product(range(d), repeat=code.n):
        weight = math.prod(pmf[v] for v in digits)
        if css_decode(code, [QuditPauliError(v, 0) for v in digits])[1]:
            p_x += weight
        if css_decode(code, [QuditPauliError(0, v) for v in digits])[1]:
            p_z += weight
    return 1.0 - (1.0 - p_x) * (1.0 - p_z)


def strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def strict_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class JobResult:
    job: object
    seed: int
    seconds: float = 0.0
    failures: int | None = None
    ok: bool = True
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.errors.append(message)


class Runner:
    """Runs job lists, checks their outputs and, with a tracer, replays
    them with spans around direct calls into each gkplat module."""

    def __init__(self, root, seed: int, tracer=None):
        self.root = root
        self.seed = seed
        self.tracer = tracer
        self.codes: dict = {}
        self.css: dict = {}
        self.exact: dict = {}
        self.brute: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.out_dir = root / "bench" / "results"
        self.cli_dir = self.out_dir / "cli"
        self.cli_dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, GKPLAT_WORKERS=str(WORKERS))
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    # -- set-up -----------------------------------------------------------

    def prepare(self, jobs) -> None:
        """Build every code the job list uses (not timed)."""
        for job in jobs:
            if isinstance(job, McJob):
                self.code(job.lattice)
            elif isinstance(job, ConcatJob):
                self.css_code(job.d)

    def code(self, lattice: str):
        if lattice not in self.codes:
            self.codes[lattice] = make_code(resolve_lattice(lattice))
        return self.codes[lattice]

    def css_code(self, d: int):
        if d not in self.css:
            self.css[d] = shor9_code(d)
        return self.css[d]

    # -- one pass through a job list -------------------------------------

    def run_pass(self, jobs, rnd, traced: bool = False, tag: str = "",
                 calib=None) -> tuple[float, list, float]:
        """Run every job once and check the outputs.

        With a calibration, its probe runs twice before every job and
        after the last, and is left out of the wall time. Each job is
        calibrated by the probes around it; the pass by the time-weighted
        mean of those factors. Returns (wall s, results, factor or 1.0).
        """
        slots = []
        start = time.perf_counter()
        results = []
        for job in jobs:
            if calib is not None:
                slots.append(calib.probe(2))
            result = JobResult(job, derive_seed(self.seed, rnd, job.key))
            if self.tracer is not None:
                self.tracer.job = f"{tag}r{rnd}/{job.label}"
            try:
                if isinstance(job, McJob):
                    self._mc(job, result, traced)
                elif isinstance(job, ConcatJob):
                    self._concat(job, result, traced)
                else:
                    self._cli(job, result, traced)
            except CheckFailed as exc:
                result.fail(str(exc))
            except Exception:  # a failed operation is counted, not fatal
                result.fail(traceback.format_exc(limit=3))
            results.append(result)
        self._check_pass(results)
        if calib is not None:
            slots.append(calib.probe(2))
        wall = time.perf_counter() - start - sum(map(sum, slots))
        factor = 1.0
        if calib is not None:
            weights = [r.seconds for r in results]
            factors = [calib.factor(slots[i] + slots[i + 1]) for i in range(len(results))]
            factor = sum(w * f for w, f in zip(weights, factors)) / sum(weights) \
                if sum(weights) > 0 else calib.factor([t for slot in slots for t in slot])
        for r in results:
            self.attempted += 1
            if not r.ok:
                self.failed += 1
                self.errors.append(f"{r.job.label} seed {r.seed}: " + "; ".join(r.errors))
        return wall, results, factor

    def _span(self, traced: bool, name: str):
        return self.tracer.span(name) if traced else contextlib.nullcontext()

    def _mc(self, job: McJob, result: JobResult, traced: bool) -> None:
        code = self.code(job.lattice)
        noise = NoiseModel(job.sigma_sq)
        t0 = time.perf_counter()
        if traced and job.general:
            with self.tracer.span("channel_sim.replay", pair=job.pair):
                failures = self._replay_general(job, code, noise, result.seed)
        else:
            with self._span(traced, "channel_sim.estimate_error_probability"):
                est = estimate_error_probability(code, noise, job.trials, result.seed,
                                                 job.criterion, WORKERS)
            failures = est.failures
            require(est.p_hat == failures / job.trials, "p_hat != failures / trials")
        result.seconds = time.perf_counter() - t0
        result.failures = failures
        require(0 <= failures <= job.trials, f"failures {failures} out of range")
        if not job.general:
            d = int(job.lattice.split(":")[1])
            p = grid_failure_prob(d, job.sigma_sq, job.criterion)
            low, high = wilson(failures, job.trials)
            require(low <= p <= high,
                    f"p_hat {failures / job.trials:.6g} disagrees with closed form {p:.6g}")

    def _replay_general(self, job: McJob, code, noise, seed: int) -> int:
        """Per-trial replay of the general path with spans around the decoder
        and the logical-class computation; the same streams as the library."""
        tr = self.tracer
        sigma = noise.lattice_sigma
        n = code.normalizer.n
        failures = 0
        for worker, count in enumerate(partition_trials(job.trials, WORKERS)):
            gen = make_generator(seed, worker)
            for _ in range(count):
                xi = gen.standard_normal(n) * sigma
                with tr.span("decoder.closest_point", pair=job.pair):
                    res = closest_point(code.normalizer, xi)
                tr.count("decoder.closest_point_calls")
                if res.tie:
                    tr.count("decoder.ties")
                    failures += 1
                    continue
                if job.criterion == "voronoi" and not res.coeffs.any():
                    continue
                with tr.span("symplectic_lattice.logical_class"):
                    label = logical_class(code, res.coeffs)
                tr.count("symplectic_lattice.logical_class_calls")
                if job.criterion == "voronoi" or any(label):
                    failures += 1
        return failures

    def _concat(self, job: ConcatJob, result: JobResult, traced: bool) -> None:
        code = self.css_code(job.d)
        noise = NoiseModel(job.sigma_sq)
        t0 = time.perf_counter()
        with self._span(traced, "concatenated.simulate_concatenated"):
            est = simulate_concatenated(code, noise, job.trials, result.seed, WORKERS)
        result.seconds = time.perf_counter() - t0
        result.failures = est.failures
        require(0 <= est.failures <= job.trials, "failures out of range")
        require(est.p_hat == est.failures / job.trials, "p_hat != failures / trials")
        if job.d == 3:
            key = (job.d, job.sigma_sq)
            if key not in self.exact:
                self.exact[key] = shor9_failure_prob(job.d, job.sigma_sq)
            low, high = wilson(est.failures, job.trials)
            require(low <= self.exact[key] <= high,
                    f"p_hat {est.p_hat:.6g} disagrees with exact {self.exact[key]:.6g}")

    def _check_pass(self, results) -> None:
        """Checks across the jobs of one pass: coset failures never exceed
        voronoi failures on the same displacements, and sampled general-path
        displacements decode as the independent references do."""
        by_key: dict = {}
        for r in results:
            if isinstance(r.job, McJob) and r.failures is not None:
                by_key.setdefault((r.job.key, r.seed), {})[r.job.criterion] = r
        for (_, seed), pair in by_key.items():
            if len(pair) == 2 and pair["coset"].failures > pair["voronoi"].failures:
                pair["coset"].fail(f"coset failures {pair['coset'].failures} > "
                                   f"voronoi failures {pair['voronoi'].failures}")
            first = next(iter(pair.values()))
            if first.job.general:
                try:
                    self._oracle_sample(first.job, seed)
                except CheckFailed as exc:
                    for r in pair.values():
                        r.fail(str(exc))

    def _oracle_sample(self, job: McJob, seed: int) -> None:
        code = self.code(job.lattice)
        sigma = NoiseModel(job.sigma_sq).lattice_sigma
        n = code.normalizer.n
        pick = np.random.default_rng(derive_seed(seed, "oracle"))
        for worker, count in enumerate(partition_trials(job.trials, WORKERS)):
            if count == 0:
                continue
            block = make_generator(seed, worker).standard_normal((count, n)) * sigma
            for i in pick.choice(count, size=min(ORACLE_SAMPLES, count), replace=False):
                xi = block[i]
                res = closest_point(code.normalizer, xi)
                ref_v, ref_d = self._reference_closest(job.lattice, code, xi)
                require(close(res.dist_sq, ref_d, 1e-9),
                        f"{job.pair}: decoder distance {res.dist_sq!r} != reference {ref_d!r}")
                require(res.tie or np.allclose(res.closest, ref_v, atol=1e-9),
                        f"{job.pair}: decoder point differs from reference")

    def _reference_closest(self, lattice: str, code, x):
        if lattice == "E8x2":  # the normalizer is E8 / sqrt(2) in the same coordinates
            v, _ = oracles.closest_e8(np.asarray(x) * math.sqrt(2.0))
            v = v / math.sqrt(2.0)
            return v, float((x - v) @ (x - v))
        if lattice not in self.brute:
            self.brute[lattice] = oracles.BruteForceCVP(code.normalizer.effective_matrix(), 2)
        brute = self.brute[lattice]
        coeffs, dist = brute.closest(x)
        return coeffs @ brute.m, dist

    # -- command line ----------------------------------------------------

    def cli_args(self, job: CliJob, seed: int) -> list[str]:
        point = np.random.default_rng(seed).normal(scale=0.6, size=8)
        point[0] = abs(point[0])  # a leading '-' would read as an option
        fill = {"{seed}": str(seed), "{point}": ",".join(repr(float(v)) for v in point)}
        args = [fill.get(a, a) for a in job.args]
        if job.csv:
            args += ["--out", str(self.cli_dir / "table.csv")]
        return args

    def run_cli(self, args: list[str]) -> tuple[float, int, str, str]:
        """One ``gkplat`` call as a subprocess; returns (s, exit code, out, err)."""
        out_path, err_path = self.cli_dir / "stdout.txt", self.cli_dir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "gkplat.cli", *args],
                                    stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                rc = proc.wait(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - t0
        return seconds, rc, out_path.read_text(), err_path.read_text()

    def _cli(self, job: CliJob, result: JobResult, traced: bool) -> None:
        args = self.cli_args(job, result.seed)
        with self._span(traced, "cli." + job.args[0]):
            seconds, rc, out, err = self.run_cli(args)
        result.seconds = seconds
        require(rc == 0, f"exit code {rc}: {err.strip()[-300:]}")
        if job.csv:
            self._check_csv(job, args)
        else:
            self._check_json(job, args, out)

    def _check_csv(self, job: CliJob, args: list[str]) -> None:
        table = self.cli_dir / "table.csv"
        text = table.read_text()
        man_text = (self.cli_dir / "table.csv.manifest.json").read_text().rstrip("\n")
        first, payload = text.split("\n", 1)
        require(first == "# manifest-sha256: " + hashlib.sha256(man_text.encode()).hexdigest(),
                "CSV comment checksum does not match the manifest")
        manifest = strict_json(man_text)
        require(manifest["output_sha256"] == hashlib.sha256(payload.encode()).hexdigest(),
                "manifest output_sha256 does not match the CSV payload")
        rows = list(csv.reader(io.StringIO(payload)))
        header, body = rows[0], [[strict_float(v) for v in row] for row in rows[1:]]
        require(len(body) == int(args[2].split(":")[2]), "row count differs from the grid")
        col = {name: i for i, name in enumerate(header)}
        sub = job.args[0]
        for row in body:
            if sub == "rates":
                s = row[col["sigma_sq"]]
                # both are clamped at zero
                require(close(row[col["coherent_info"]], max(0.0, math.log2(1.0 / (math.e * s)))),
                        "coherent information differs from log2(1 / e sigma^2)")
                require(close(row[col["hw_upper"]], max(0.0, math.log2(1.0 / s))),
                        "upper bound differs from log2(1 / sigma^2)")
            elif sub == "concat-rates":
                require(row[col["d_opt"]] >= 2 and 0.0 <= row[col["p"]] <= 1.0,
                        "d_opt or p out of range")
                rate, info = row[col["rate"]], row[col["coherent_info"]]
                require(rate < info or rate == info == 0.0,
                        "concatenated rate not below the coherent information")
            else:
                snr = row[col["snr"]]
                require(close(row[col["capacity"]], 0.5 * math.log2(1.0 + snr)),
                        "capacity differs from log2(1 + snr) / 2")
                require(row[col["concat_rate"]] <= row[col["capacity"]],
                        "concatenated rate above capacity")
        if sub == "concat-rates" and len(body) == 1:
            # paper anchor: one qubit below the coherent information, C^2 = 1/2e
            row = body[0]
            gap = row[col["coherent_info"]] - row[col["rate"]]
            require(abs(gap - 1.0) <= 0.05, f"anchor gap {gap:.4f} is not 1 qubit")
            require(abs(row[col["c_sq"]] * 2.0 * math.e - 1.0) <= 0.10,
                    f"anchor C^2 {row[col['c_sq']]:.6f} is not 1/2e")

    def _check_json(self, job: CliJob, args: list[str], text: str) -> None:
        strict_json(text)
        prefix = '{"manifest":'
        require(text.startswith(prefix), "output does not start with the manifest")
        decoder = json.JSONDecoder()
        manifest, end = decoder.raw_decode(text, len(prefix))
        require(text.startswith(',"result":', end), "manifest is not followed by the result")
        payload = text[end + len(',"result":'):].rstrip("\n")[:-1]
        require(manifest["output_sha256"] == hashlib.sha256(payload.encode()).hexdigest(),
                "manifest output_sha256 does not match the payload")
        res = strict_json(payload)
        sub = job.args[0]
        if sub == "lattice-info":
            require(close(res["shortest_sq"], 2.0, 1e-9), "shortest vector norm is not 2")
            require(close(res["packing_radius"], math.sqrt(2.0) / 2.0, 1e-9),
                    "packing radius is not sqrt(2)/2")
        elif sub == "decode":
            x = np.array([float(v) for v in args[2].split(",")])
            ref_v, ref_d = oracles.closest_e8(x)
            require(close(res["dist_sq"], ref_d, 1e-9), "decode distance differs from the E8 oracle")
            require(res["tie"] or np.allclose(res["closest"], ref_v, atol=1e-9),
                    "decoded point differs from the E8 oracle")
        else:
            trials = int(args[args.index("--trials") + 1])
            require(res["trials"] == trials and 0 <= res["failures"] <= trials,
                    "failure count out of range")
            require(res["p_hat"] == res["failures"] / trials, "p_hat != failures / trials")
            require(res["ci_low"] <= res["p_hat"] <= res["ci_high"], "p_hat outside its interval")

    # -- in-process replay of the command line, for the layer metrics -----

    def replay_cli(self, jobs) -> None:
        """Call the module functions each subcommand calls, with spans."""
        tr = self.tracer
        for job in jobs:
            seed = derive_seed(self.seed, 0, job.key)
            args = self.cli_args(job, seed)
            tr.job = "layers/" + job.label
            sub = args[0]
            if sub == "rates":
                for s in self._grid(args[2]):
                    with tr.span("rates.row"):
                        noise = NoiseModel(float(s))
                        (coherent_information(noise), hw_upper_bound(noise),
                         sphere_packing_rate(noise), best_integer_lambda(noise))
            elif sub == "concat-rates":
                for sigma in self._grid(args[2]):
                    noise = NoiseModel(float(sigma) ** 2)
                    with tr.span("concatenated.optimize_qudit_dimension"):
                        optimize_qudit_dimension(noise, None)
                    # the default scan ceiling, computed: 2 .. ceil(8 hbar / sigma^2)
                    tr.count("concatenated.scan_points",
                             max(2, math.ceil(8.0 / noise.sigma_sq)) - 1)
            elif sub == "classical-rates":
                for snr in self._grid(args[2]):
                    params = ClassicalParams(1.0, 1.0 / float(snr))
                    with tr.span("classical_channel.optimize_classical_d"):
                        optimize_classical_d(params, None)
                    shannon_capacity(params)
                    tr.count("classical_channel.scan_points",
                             max(2, math.ceil(8.0 * math.sqrt(params.snr))) - 1)
            elif sub == "lattice-info":
                lat = catalog_get(args[1]).lattice
                with tr.span("decoder.shortest_vector"):
                    shortest_vector(lat)
                packing_radius(lat)
            elif sub == "decode":
                point = [float(v) for v in args[2].split(",")]
                with tr.span("decoder.closest_point", pair="cli"):
                    closest_point(catalog_get(args[1]).lattice, point)
            elif sub == "simulate":
                code = make_code(catalog_get(args[2]).lattice)
                with tr.span("channel_sim.estimate_error_probability"):
                    estimate_error_probability(code, NoiseModel(float(args[4])),
                                               int(args[6]), seed, "voronoi", WORKERS)
            elif sub == "concat-sim":
                code = shor9_code(int(args[4]))
                with tr.span("concatenated.simulate_concatenated"):
                    simulate_concatenated(code, NoiseModel(float(args[6])),
                                          int(args[8]), seed, WORKERS)
        tr.job = None

    @staticmethod
    def _grid(spec: str) -> np.ndarray:
        start, stop, points = spec.split(":")
        return np.geomspace(float(start), float(stop), int(points))
