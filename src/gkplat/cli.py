"""Command-line front end: reproducible CSV/JSON artifacts for every module.

Numeric output is printed with 17 significant digits, grids are evaluated
deterministically, and Monte Carlo commands record their seed, worker
count, and RNG algorithm, so identical invocations reproduce identical
bytes. Every CSV carries a comment line with the checksum of its manifest;
writing to a file also drops a ``<out>.manifest.json`` sidecar. JSON
results embed the manifest directly.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .catalog import get as catalog_get
from .channel_sim import (
    RNG_ALGORITHM,
    NoiseModel,
    estimate_error_probability,
)
from .classical_channel import (
    ClassicalParams,
    debuda_rate,
    minkowski_lattice_rate,
    optimize_classical_d,
    shannon_capacity,
)
from .concatenated import optimize_qudit_dimension, shor9_code, simulate_concatenated
from .decoder import closest_point, packing_radius, shortest_vector
from .rates import (
    best_integer_lambda,
    coherent_information,
    hw_upper_bound,
    sphere_packing_rate,
)
from .symplectic_lattice import (
    code_dimension,
    is_symplectically_integral,
    load_lattice,
    make_code,
)


def _fmt(value) -> str:
    """17-significant-digit decimal for floats; plain repr for ints/str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _canonical_json(obj) -> str:
    """Deterministic JSON with .17g float literals and sorted keys."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ",".join(f"{_canonical_json(k)}:{_canonical_json(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical_json(v) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite number {obj!r}")
        return _fmt(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


@dataclass(frozen=True)
class RunManifest:
    """Provenance record emitted with every output artifact."""

    command: tuple[str, ...]
    artifact_version: str
    output_sha256: str
    seed: int | None = None
    grid: str | None = None
    rng_algorithm: str | None = None
    workers: int | None = None

    def to_dict(self) -> dict:
        fields = {
            "command": list(self.command),
            "artifact_version": self.artifact_version,
            "output_sha256": self.output_sha256,
            "seed": self.seed,
            "grid": self.grid,
            "rng_algorithm": self.rng_algorithm,
            "workers": self.workers,
        }
        return {k: v for k, v in fields.items() if v is not None}


def _manifest(args, payload_sha: str, *, seed=None, grid=None, rng=None, workers=None) -> dict:
    manifest = RunManifest(
        command=("gkplat", *args._argv),
        artifact_version=__version__,
        output_sha256=payload_sha,
        seed=seed,
        grid=grid,
        rng_algorithm=rng,
        workers=workers,
    )
    return manifest.to_dict()


def _emit_csv(args, header: list[str], rows: list[list], **manifest_kw) -> None:
    payload = ",".join(header) + "\n"
    payload += "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    payload_sha = hashlib.sha256(payload.encode()).hexdigest()
    man = _manifest(args, payload_sha, **manifest_kw)
    man_json = _canonical_json(man)
    man_sha = hashlib.sha256(man_json.encode()).hexdigest()
    text = f"# manifest-sha256: {man_sha}\n" + payload
    _write(args.out, text, man_json)


def _emit_json(args, result: dict, **manifest_kw) -> None:
    result_json = _canonical_json(result)
    payload_sha = hashlib.sha256(result_json.encode()).hexdigest()
    man = _manifest(args, payload_sha, **manifest_kw)
    text = _canonical_json({"manifest": man, "result": result}) + "\n"
    _write(args.out, text, _canonical_json(man))


def _write(out, text: str, man_json: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", newline="") as fh:
        fh.write(text)
    with open(f"{out}.manifest.json", "w", newline="") as fh:
        fh.write(man_json + "\n")


def _grid_spec(spec: str) -> str:
    """Validate a start:stop:points grid spec (log spacing); returns it."""
    try:
        start_s, stop_s, pts_s = spec.split(":")
        start, stop, pts = float(start_s), float(stop_s), int(pts_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:points, got {spec!r}")
    if start <= 0 or stop <= 0 or pts < 1:
        raise argparse.ArgumentTypeError("grid endpoints must be positive, points >= 1")
    return spec


def _grid_values(spec: str) -> np.ndarray:
    start_s, stop_s, pts_s = spec.split(":")
    return np.geomspace(float(start_s), float(stop_s), int(pts_s))


def _resolve_lattice(spec: str):
    if os.path.sep in spec or spec.endswith(".json"):
        return load_lattice(spec)
    return catalog_get(spec).lattice


def _workers() -> int:
    text = os.environ.get("GKPLAT_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"GKPLAT_WORKERS must be a positive integer, got {text!r}")
    return workers


# ---------------------------------------------------------------------------
# subcommands

def _cmd_rates(args) -> None:
    rows = []
    for s in _grid_values(args.sigma_sq_grid):
        noise = NoiseModel(float(s), args.hbar)
        rows.append([
            float(s),
            coherent_information(noise),
            hw_upper_bound(noise),
            sphere_packing_rate(noise),
            best_integer_lambda(noise)[1],
        ])
    header = ["sigma_sq", "coherent_info", "hw_upper", "sphere_packing",
              "integer_lambda_rate"]
    _emit_csv(args, header, rows, grid=args.sigma_sq_grid)


def _cmd_concat_rates(args) -> None:
    rows = []
    for sigma in _grid_values(args.sigma_grid):
        noise = NoiseModel(float(sigma) ** 2, args.hbar)
        design = optimize_qudit_dimension(noise, args.d_max)
        rows.append([
            noise.sigma_sq,
            design.d_opt,
            design.p,
            design.rate_qubits,
            design.c_sq,
            coherent_information(noise),
        ])
    header = ["sigma_sq", "d_opt", "p", "rate", "c_sq", "coherent_info"]
    _emit_csv(args, header, rows, grid=args.sigma_grid)


def _cmd_classical_rates(args) -> None:
    rows = []
    for snr in _grid_values(args.snr_grid):
        params = ClassicalParams(1.0, 1.0 / float(snr))
        d_opt, rate = optimize_classical_d(params, args.d_max)
        rows.append([
            float(snr),
            shannon_capacity(params),
            minkowski_lattice_rate(params),
            debuda_rate(params),
            d_opt,
            rate,
        ])
    header = ["snr", "capacity", "minkowski_rate", "debuda_rate", "d_opt",
              "concat_rate"]
    _emit_csv(args, header, rows, grid=args.snr_grid)


def _cmd_simulate(args) -> None:
    lattice = _resolve_lattice(args.lattice)
    code = make_code(lattice)
    noise = NoiseModel(args.sigma_sq, args.hbar)
    workers = _workers()
    est = estimate_error_probability(code, noise, args.trials, args.seed,
                                     criterion=args.criterion, workers=workers)
    result = {
        "p_hat": est.p_hat,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "trials": est.trials,
        "failures": est.failures,
        "seed": est.seed,
        "criterion": args.criterion,
        "lattice": args.lattice,
        "sigma_sq": args.sigma_sq,
        "hbar": args.hbar,
    }
    _emit_json(args, result, seed=args.seed, rng=RNG_ALGORITHM, workers=workers)


def _cmd_concat_sim(args) -> None:
    if args.code != "shor9":
        raise ValueError(f"unknown code family: {args.code!r}")
    code = shor9_code(args.d)
    noise = NoiseModel(args.sigma_sq, args.hbar)
    workers = _workers()
    est = simulate_concatenated(code, noise, args.trials, args.seed, workers=workers)
    result = {
        "p_hat": est.p_hat,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "trials": est.trials,
        "failures": est.failures,
        "seed": est.seed,
        "code": args.code,
        "d": args.d,
        "sigma_sq": args.sigma_sq,
        "hbar": args.hbar,
    }
    _emit_json(args, result, seed=args.seed, rng=RNG_ALGORITHM, workers=workers)


def _cmd_lattice_info(args) -> None:
    entry = catalog_get(args.name)
    lat = entry.lattice
    vec, length_sq = shortest_vector(lat)
    integral = is_symplectically_integral(lat)
    dimension = code_dimension(lat) if integral else None
    result = {
        "name": entry.name,
        "n": lat.n,
        "lambda": str(lat.scale_sq),
        "dimension": dimension,
        "shortest_vector": [float(v) for v in vec],
        "shortest_sq": length_sq,
        "packing_radius": packing_radius(lat),
        "symplectically_integral": integral,
        "symplectically_self_dual": integral and dimension == 1,
        "notes": entry.notes,
    }
    _emit_json(args, result)


def _cmd_decode(args) -> None:
    lattice = _resolve_lattice(args.lattice)
    point = [float(v) for v in args.point.split(",")]
    res = closest_point(lattice, point)
    result = {
        "closest": [float(v) for v in res.closest],
        "coeffs": [int(v) for v in res.coeffs],
        "dist_sq": res.dist_sq,
        "tie": res.tie,
    }
    _emit_json(args, result)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkplat",
        description="Lattice codes for continuous quantum variables: rate "
                    "tables and Monte Carlo channel simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None,
                       help="output file (default: stdout); files get a "
                            ".manifest.json sidecar")

    p = sub.add_parser("rates", help="quantum rate formulas on a sigma^2 grid")
    p.add_argument("--sigma-sq-grid", dest="sigma_sq_grid", type=_grid_spec,
                   required=True, metavar="START:STOP:POINTS",
                   help="log-spaced grid of sigma^2 values")
    p.add_argument("--hbar", type=float, default=1.0)
    add_out(p)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("concat-rates",
                       help="optimized concatenated-code rates on a sigma grid")
    p.add_argument("--sigma-grid", dest="sigma_grid", type=_grid_spec,
                   required=True, metavar="START:STOP:POINTS",
                   help="log-spaced grid of sigma (standard deviation) values")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--d-max", dest="d_max", type=int, default=None)
    add_out(p)
    p.set_defaults(func=_cmd_concat_rates)

    p = sub.add_parser("classical-rates",
                       help="classical channel rates on an SNR grid (P = 1)")
    p.add_argument("--snr-grid", dest="snr_grid", type=_grid_spec,
                   required=True, metavar="START:STOP:POINTS")
    p.add_argument("--d-max", dest="d_max", type=int, default=None)
    add_out(p)
    p.set_defaults(func=_cmd_classical_rates)

    p = sub.add_parser("simulate", help="Monte Carlo a lattice code")
    p.add_argument("--lattice", required=True,
                   help="catalog name (e.g. grid_qudit:2, E8) or lattice JSON path")
    p.add_argument("--sigma-sq", dest="sigma_sq", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--criterion", choices=["voronoi", "coset"], default="voronoi")
    p.add_argument("--hbar", type=float, default=1.0)
    add_out(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("concat-sim", help="Monte Carlo a concatenated block code")
    p.add_argument("--code", default="shor9")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sigma-sq", dest="sigma_sq", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--hbar", type=float, default=1.0)
    add_out(p)
    p.set_defaults(func=_cmd_concat_sim)

    p = sub.add_parser("lattice-info", help="constants of a catalog lattice")
    p.add_argument("name")
    add_out(p)
    p.set_defaults(func=_cmd_lattice_info)

    p = sub.add_parser("decode", help="closest lattice point to a target")
    p.add_argument("lattice")
    p.add_argument("point", help="comma-separated coordinates")
    add_out(p)
    p.set_defaults(func=_cmd_decode)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    args._argv = argv
    try:
        args.func(args)
    except (ValueError, KeyError, OSError, AssertionError, ArithmeticError) as exc:
        print(f"gkplat: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
