"""Benchmark of gkplat: three fixed workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload mc_general --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a gkplat source tree; the package is imported
from ``src/`` and the reference decoders from ``tests/oracles.py``. Each run

* measures set-up (process start to first trial or first output row) in
  fresh processes, several times, and reports the median;
* runs a warm-up pass that no figure includes;
* repeats the workload's fixed job list until ``--seconds`` have passed,
  checking every output, and reports medians over those rounds.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a separate
traced run (see ``NOTES.md``). A full report, and in traced runs the
spans, go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 7
PROBE_REPS = 5
GENERAL_PAIRS = ("D4_s0.1", "D4_s0.2", "E8x2_s0.1", "E8x2_s0.2")
WORKLOAD_NAMES = ("mc_general", "mc_vectorized", "cli_tables")
# the probe that calibrates each workload's rounds (see calibrate.py);
# set-up, which is mostly interpreter start and import, uses "python"
PROBE_KIND = {"mc_general": "python", "mc_vectorized": "numpy", "cli_tables": "python"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply every trial count (smoke tests use a small value)")
    p.add_argument("--setup-probe", dest="setup_probe", choices=WORKLOAD_NAMES,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        p.error("--workload is required")
    return args


def import_program() -> None:
    """Import gkplat from this tree's src/ and the oracles from tests/."""
    src, tests = ROOT / "src", ROOT / "tests"
    for path in (src / "gkplat" / "__init__.py", tests / "oracles.py"):
        if not path.is_file():
            sys.exit(f"bench: {path.relative_to(ROOT)} not found; run inside a gkplat source tree")
    sys.path[1:1] = [str(src), str(tests)]
    import gkplat
    if not Path(gkplat.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: gkplat was imported from {gkplat.__file__}, not from {src}")


def median(values) -> float:
    return statistics.median(values)


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest order statistic with at
    least ten samples above it; the maximum when there are fewer than 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


def metric(value: float, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def why(workload: str) -> str | None:
    """The reason the workload was chosen, as BENCHMARK.json records it."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError:
        return None
    return next((w["why"] for w in spec["workloads"] if w["name"] == workload), None)


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes

def setup_probe(workload: str) -> None:
    """Child side: import, build every code, run one trial of every job."""
    import workloads as w
    from gkplat.channel_sim import NoiseModel, estimate_error_probability
    from gkplat.concatenated import simulate_concatenated

    runner = w.Runner(ROOT, 0)
    jobs = w.WORKLOADS[workload](1.0)
    runner.prepare(jobs)
    for job in jobs:
        if isinstance(job, w.McJob):
            estimate_error_probability(runner.code(job.lattice), NoiseModel(job.sigma_sq), 1, 0,
                                       job.criterion, w.WORKERS)
        elif isinstance(job, w.ConcatJob):
            simulate_concatenated(runner.css_code(job.d), NoiseModel(job.sigma_sq), 1, 0,
                                  w.WORKERS)
    print("ready", flush=True)


def measure_setup(runner, workload: str, reps: int, calib) -> tuple[list[float], list[float]]:
    """Raw set-up seconds of each rep, and their calibration factors from
    the probes just before and after."""
    samples, factors = [], []
    for _ in range(reps):
        before = calib.probe(3)
        if workload == "cli_tables":  # first output row of the smallest table
            seconds, rc, out, err = runner.run_cli(["rates", "--sigma-sq-grid", "1e-4:1e0:1"])
            if rc != 0 or len(out.splitlines()) != 3:
                raise RuntimeError(f"set-up call failed: {err.strip()[-300:]}")
        else:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.stdout.close()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        samples.append(seconds)
        factors.append(calib.factor(before + calib.probe(3)))
    return samples, factors


# ---------------------------------------------------------------------------
# the untraced run

def warmup_jobs(w, jobs):
    """Small versions of each job: the first calls run slower (lazy
    imports, caches) and are kept out of every figure."""
    out = []
    for job in jobs:
        if isinstance(job, w.McJob):
            out.append(replace(job, trials=min(job.trials, 32 if job.general else 1 << 18)))
        elif isinstance(job, w.ConcatJob):
            out.append(replace(job, trials=min(job.trials, 1 << 15)))
    return out or jobs[:1]


def rate(results, keep) -> float | None:
    chosen = [r for r in results if keep(r.job)]
    seconds = sum(r.seconds for r in chosen)
    return sum(r.job.trials for r in chosen) / seconds if seconds > 0 else None


def run_untraced(w, args, report) -> tuple[dict, object]:
    from calibrate import Calibration, one_cpu

    runner = w.Runner(ROOT, args.seed)
    jobs = w.WORKLOADS[args.workload](args.scale)
    setup_calib = Calibration("python")
    with one_cpu():
        setup, setup_factors = measure_setup(runner, args.workload,
                                             SETUP_REPS if args.scale >= 1.0 else 1, setup_calib)
    runner.prepare(jobs)
    runner.run_pass(warmup_jobs(w, jobs), "warmup")

    # the command-line calls run in children; Monte Carlo jobs stay free to
    # use every CPU
    cli = args.workload == "cli_tables"
    calib = Calibration(PROBE_KIND[args.workload])
    walls, factors, results = [], [], []
    with one_cpu() if cli else contextlib.nullcontext():
        start = time.perf_counter()
        rnd = 0
        while rnd == 0 or time.perf_counter() - start < args.seconds:
            wall, res, factor = runner.run_pass(jobs, rnd, calib=calib)
            walls.append(wall)
            factors.append(factor)
            results += res
            rnd += 1

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": metric(median([s * f for s, f in zip(setup, setup_factors)]), "s"),
        "wall_s": metric(median([wall * f for wall, f in zip(walls, factors)]), "s"),
        "peak_rss_mb": metric(usage.ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "voronoi_trials_per_s": rate(results, lambda j: isinstance(j, w.McJob)
                                     and j.criterion == "voronoi"),
        "coset_trials_per_s": rate(results, lambda j: isinstance(j, w.McJob)
                                   and j.criterion == "coset"),
        "concat_trials_per_s": rate(results, lambda j: isinstance(j, w.ConcatJob)),
    }
    for name, value in detail.items():
        if value is not None:
            report["metrics"][name] = metric(value, "1/s")
    if cli:
        calls = [r.seconds for r in results]
        value, pct, n = tail(calls)
        report["metrics"]["cli_s_p50"] = metric(median(calls), "s", samples=n)
        report["metrics"]["cli_s_tail"] = metric(value, "s", percentile=pct, samples=n)
    report["metrics"].update(metrics)
    report["rounds"] = rnd
    report["raw"] = {"setup_s": median(setup), "wall_s": median(walls)}
    report["calibration"] = {"setup": setup_calib.kind, "rounds": calib.kind,
                             "setup_factors": setup_factors,
                             "round_factors": factors}
    report["setup_samples_s"] = setup
    report["round_wall_s"] = walls
    report["jobs"] = job_table(results)
    finish(runner, report)
    return metrics, runner


def job_table(results) -> list[dict]:
    table = {}
    for r in results:
        row = table.setdefault(r.job.label, {"job": r.job.label, "seeds": [],
                                             "failures": [], "seconds": []})
        row["seeds"].append(r.seed)
        row["failures"].append(r.failures)
        row["seconds"].append(r.seconds)
    return list(table.values())


def finish(runner, report) -> None:
    report["attempted"] = runner.attempted
    report["failed"] = runner.failed
    report["metrics"]["failed_frac"] = metric(runner.failed / max(1, runner.attempted), "ratio")
    report["errors"] = runner.errors[:50]


# ---------------------------------------------------------------------------
# the traced run

def run_traced(w, args, report) -> tuple[dict, object]:
    from calibrate import Calibration
    from tracing import Tracer

    tracer = Tracer()
    runner = w.Runner(ROOT, args.seed, tracer)
    jobs = w.WORKLOADS[args.workload](args.scale)
    runner.prepare(jobs)
    runner.run_pass(warmup_jobs(w, jobs), "warmup")

    overheads, walls_a, walls_b, mismatches, generic = [], [], [], [], []

    def traced_round(workload, job_list, rnd):
        """An untraced and a traced pass of the same seeds. Both are
        calibrated, so that host drift between them does not read as a
        cost of tracing; returns their calibrated wall times."""
        calib = Calibration(PROBE_KIND[workload])
        wall_a, res_a, f_a = runner.run_pass(job_list, rnd, calib=calib)
        tracer.pass_label = f"{workload}/r{rnd}"
        first = len(tracer.spans)
        wall_b, res_b, f_b = runner.run_pass(job_list, rnd, traced=True, tag=workload + "/",
                                             calib=calib)
        tracer.pass_label = None
        for a, b in zip(res_a, res_b):
            if not isinstance(a.job, w.CliJob) and a.failures != b.failures:
                mismatches.append(f"{a.job.label} seed {a.seed}: untraced {a.failures} "
                                  f"failures, traced replay {b.failures}")
        general = [a for a in res_a if isinstance(a.job, w.McJob) and a.job.general]
        if general:
            decode = sum(end - start for name, start, end, *_ in tracer.spans[first:]
                         if name in ("decoder.closest_point", "symplectic_lattice.logical_class"))
            generic.append((sum(a.seconds for a in general) * f_a - decode * f_b)
                           / sum(a.job.trials for a in general))
        return wall_a * f_a, wall_b * f_b

    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < args.seconds:
        wall_a, wall_b = traced_round(args.workload, jobs, rnd)
        walls_a.append(wall_a)
        walls_b.append(wall_b)
        overheads.append(wall_b - wall_a)
        rnd += 1
    # every per-layer metric is reported by every traced run: one round of
    # the general-path job list and one in-process pass of the CLI job list
    if args.workload != "mc_general":
        general = w.mc_general_jobs(args.scale)
        runner.prepare(general)
        traced_round("mc_general", general, 0)
    runner.replay_cli(w.cli_tables_jobs(args.scale))

    metrics = layer_metrics(w, runner, tracer, generic, args)
    metrics["bench.trace_overhead_s"] = metric(median(overheads), "s")
    report["metrics"].update(metrics)
    report["rounds"] = rnd
    report["untraced_wall_s"] = walls_a
    report["traced_wall_s"] = walls_b
    report["replay_mismatches"] = mismatches
    runner.failed += len(mismatches)
    runner.errors += mismatches
    finish(runner, report)
    spans = runner.out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(spans)
    report["spans_file"] = str(spans.relative_to(ROOT))
    return metrics, runner


def timed(tracer, name, fn, *a) -> float:
    with tracer.span(name):
        t0 = time.perf_counter()
        fn(*a)
        return time.perf_counter() - t0


def layer_metrics(w, runner, tracer, generic, args) -> dict:
    from gkplat.channel_sim import NoiseModel, estimate_error_probability, make_generator
    from gkplat.concatenated import sample_qudit_errors, simulate_concatenated
    from gkplat.symplectic_lattice import coeff_transition, make_code

    tracer.job = "probes"
    seed = w.derive_seed(args.seed, "probes")
    m = {}

    lattices = {name: w.resolve_lattice(name) for name in ("D4", "E8x2", "grid_qudit:2")}
    make_ms = [sum(timed(tracer, "symplectic_lattice.make_code", make_code, lat)
                   for lat in lattices.values()) for _ in range(PROBE_REPS)]
    m["symplectic_lattice.make_code_ms"] = metric(1e3 * median(make_ms), "ms")

    lc = tracer.durations("symplectic_lattice.logical_class")
    m["symplectic_lattice.logical_class_us"] = metric(1e6 * statistics.fmean(lc), "us")
    m["symplectic_lattice.logical_class_calls"] = metric(
        tracer.counts.get(("mc_general/r0", "symplectic_lattice.logical_class_calls"), 0), "count")
    ct = [timed(tracer, "symplectic_lattice.coeff_transition", coeff_transition,
                runner.code(name).normalizer, runner.code(name).stabilizer)
          for name in ("D4", "E8x2") for _ in range(4 * PROBE_REPS)]
    m["symplectic_lattice.coeff_transition_us"] = metric(1e6 * statistics.fmean(ct), "us")

    for pair in GENERAL_PAIRS:
        cp = tracer.durations("decoder.closest_point", pair=pair)
        value, pct, n = tail(cp)
        m[f"decoder.closest_point_us_p50.{pair}"] = metric(1e6 * median(cp), "us", samples=n)
        m[f"decoder.closest_point_us_tail.{pair}"] = metric(1e6 * value, "us",
                                                             percentile=pct, samples=n)
    calls = tracer.total("decoder.closest_point_calls")
    m["decoder.tie_frac"] = metric(tracer.total("decoder.ties") / calls, "ratio",
                                   calls=calls)
    sv = tracer.durations("decoder.shortest_vector")
    m["decoder.shortest_vector_ms"] = metric(1e3 * statistics.fmean(sv), "ms")

    gen = make_generator(seed, 0)
    normals = [(1 << 19) / timed(tracer, "channel_sim.standard_normal",
                                 gen.standard_normal, (1 << 18, 2))
               for _ in range(PROBE_REPS)]
    m["channel_sim.rng_normals_per_s"] = metric(median(normals), "1/s")
    fixed = []
    for _ in range(PROBE_REPS):
        fixed.append(sum(
            timed(tracer, "channel_sim.estimate_error_probability", estimate_error_probability,
                  runner.code(name), NoiseModel(0.1), 1, seed, criterion, w.WORKERS)
            for name in lattices for criterion in w.CRITERIA))
    m["channel_sim.estimate_fixed_ms"] = metric(1e3 * median(fixed), "ms")
    m["channel_sim.generic_overhead_us"] = metric(1e6 * median(generic), "us")

    sim_ms = [sum(timed(tracer, "concatenated.simulate_concatenated", simulate_concatenated,
                        runner.css_code(d), NoiseModel(0.05), 1, seed, w.WORKERS)
                  for d in (3, 10)) for _ in range(PROBE_REPS)]
    m["concatenated.simulate_fixed_ms"] = metric(1e3 * median(sim_ms), "ms")
    code = runner.css_code(10)  # dense int64 correction table per sector: d^rows x n
    table_bytes = sum(code.d ** checks.shape[0] * code.n * 8 for checks in (code.hz, code.hx))
    m["concatenated.table_mb"] = metric(table_bytes / 1e6, "MB_computed")
    batch = (1 << 18) // 9
    errors = [batch * 9 / timed(tracer, "concatenated.sample_qudit_errors", sample_qudit_errors,
                                10, NoiseModel(0.05), gen, (batch, 9))
              for _ in range(PROBE_REPS)]
    m["concatenated.sample_qudit_errors_per_s"] = metric(median(errors), "1/s")
    m["concatenated.optimize_qudit_dimension_ms"] = metric(
        1e3 * sum(tracer.durations("concatenated.optimize_qudit_dimension")), "ms")
    m["concatenated.scan_points"] = metric(tracer.total("concatenated.scan_points"),
                                           "count_computed")
    m["classical_channel.optimize_classical_d_ms"] = metric(
        1e3 * sum(tracer.durations("classical_channel.optimize_classical_d")), "ms")
    m["classical_channel.scan_points"] = metric(tracer.total("classical_channel.scan_points"),
                                                "count_computed")
    rows = tracer.durations("rates.row")
    m["rates.rows_per_s"] = metric(len(rows) / sum(rows), "1/s")

    start = [run_child(runner, ["-c", "pass"]) for _ in range(PROBE_REPS)]
    imported = [run_child(runner, ["-c", "import gkplat.cli"]) for _ in range(PROBE_REPS)]
    m["cli.python_start_s"] = metric(median(start), "s")
    m["cli.import_s"] = metric(median(imported) - median(start), "s")
    tracer.job = None
    return m


def run_child(runner, argv) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=runner.env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    import workloads as w

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "why": why(args.workload),
              "environment": environment(), "metrics": {}}
    run = run_traced if args.trace else run_untraced
    metrics, runner = run(w, args, report)

    out = runner.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report, indent=1))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
