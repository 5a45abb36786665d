"""Command-line front end: reproducible CSV/JSON artifacts for every module.

Numeric output is printed with 17 significant digits, grids are evaluated
deterministically, and Monte Carlo commands record their seed, worker
count, and RNG algorithm, so identical invocations on one host reproduce
identical bytes. The rate tables (rates, concat-rates, classical-rates)
are plain Python floats from the math module, grid included, and load
neither numpy nor scipy: their bytes do not depend on numpy's SIMD level,
though they may differ between libm builds. Monte Carlo failure counts
depend on neither. Every CSV carries a comment line with
the checksum of its manifest; writing to a file also drops a
``<out>.manifest.json`` sidecar. JSON results embed the manifest directly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, astuple
from functools import partial

from . import __version__


def _canonical_json(obj) -> str:
    """The one formatter of JSON values and CSV cells: sorted keys,
    true/false, plain ints, .17g floats, numpy values through tolist().
    NaN and infinities are refused."""
    if hasattr(obj, "tolist"):
        return _canonical_json(obj.tolist())
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ",".join(f"{_canonical_json(k)}:{_canonical_json(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical_json(v) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite number {obj!r}")
        return format(obj, ".17g")
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(args, result, **fields) -> None:
    """Write one artifact, a JSON result dict or a CSV table (rows of strings,
    header first), with the manifest of its payload: embedded in JSON, by checksum
    in a CSV comment, and with --out also in a ``<out>.manifest.json``."""
    is_json = isinstance(result, dict)
    if is_json:
        payload = _canonical_json(result)
    else:
        payload = "".join(",".join(row) + "\n" for row in result)
    man_json = _canonical_json({"command": ["gkplat", *args._argv],
                                "artifact_version": __version__,
                                "output_sha256": hashlib.sha256(payload.encode()).hexdigest(),
                                **fields})
    if is_json:  # the bytes of _canonical_json({"manifest": ..., "result": ...})
        text = f'{{"manifest":{man_json},"result":{payload}}}\n'
    else:
        man_sha = hashlib.sha256(man_json.encode()).hexdigest()
        text = f"# manifest-sha256: {man_sha}\n{payload}"
    if args.out is None:
        sys.stdout.write(text)
        return
    with open(args.out, "w", newline="") as fh:
        fh.write(text)
    with open(f"{args.out}.manifest.json", "w", newline="") as fh:
        fh.write(man_json + "\n")


def _grid(spec: str) -> tuple:
    """Parse a start:stop:points grid spec; returns it with its log-spaced
    values as floats, by numpy's geomspace formula in libm's log10 and
    pow: y_i = i * step + log10(start), then 10.0 ** y_i, with the two
    endpoints restored exactly. Endpoints must be positive and finite,
    points at most 10**6."""
    try:
        start_s, stop_s, pts_s = spec.split(":")
        start, stop, pts = float(start_s), float(stop_s), int(pts_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:points, got {spec!r}")
    if not (0 < start < math.inf and 0 < stop < math.inf) or pts < 1:
        raise argparse.ArgumentTypeError(
            "grid endpoints must be positive and finite, points >= 1")
    if pts > 10 ** 6:
        raise argparse.ArgumentTypeError("grid points must be at most 10**6")
    log_start = math.log10(start)
    step = (math.log10(stop) - log_start) / (pts - 1) if pts > 1 else 0.0
    try:
        values = [10.0 ** (i * step + log_start) for i in range(pts)]
    except OverflowError:  # a point within rounding of DBL_MAX
        raise argparse.ArgumentTypeError(f"grid {spec!r} has a point beyond float64")
    values[0], values[-1] = start, stop if pts > 1 else start
    return spec, values


def _resolve_lattice(spec: str):
    if os.path.sep in spec or spec.endswith(".json"):
        from .decoder import MAX_DIM
        from .symplectic_lattice import lattice_from_dict
        with open(spec) as fh:
            data = json.load(fh)
        rows = data.get("basis") if isinstance(data, dict) else None
        if isinstance(rows, list) and len(rows) > MAX_DIM:  # before any exact algebra
            raise ValueError(f"lattice {spec}: the decoder supports dimensions up to "
                             f"{MAX_DIM}, got a basis of {len(rows)} rows")
        return lattice_from_dict(data)
    from .catalog import get as catalog_get
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

def _table(header, flag, grid, row) -> list:
    """``header``, then row(v) for each value v of a --*-grid flag as a
    float, its cells formatted by _canonical_json; an error on a value, a
    non-finite cell included, names the flag and the value."""
    table = [header]
    for value in grid:
        try:
            table.append([_canonical_json(cell) for cell in row(value)])
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"{flag} value {value!r}: {exc}") from exc
    return table


def _cmd_rates(args) -> None:
    from .rates import (NoiseModel, best_integer_lambda, coherent_information,
                        hw_upper_bound, sphere_packing_rate)
    spec, grid = args.sigma_sq_grid

    def row(s):
        noise = NoiseModel(s, args.hbar)
        return [s, coherent_information(noise), hw_upper_bound(noise),
                sphere_packing_rate(noise), best_integer_lambda(noise)[1]]
    _emit(args, _table(["sigma_sq", "coherent_info", "hw_upper", "sphere_packing",
                        "integer_lambda_rate"], "--sigma-sq-grid", grid, row), grid=spec)


def _check_d_max(args) -> None:
    """Refuse a --d-max outside the d-scan's range once, before any grid value."""
    from .dit_rates import D_LIMIT
    if args.d_max is not None and not 2 <= args.d_max <= D_LIMIT:
        raise ValueError(f"--d-max must lie in [2, 2**53], got {args.d_max}")


def _cmd_concat_rates(args) -> None:
    from .dit_rates import optimize_qudit_dimension
    from .rates import NoiseModel, coherent_information
    _check_d_max(args)
    spec, grid = args.sigma_grid

    def row(sigma):
        try:
            noise = NoiseModel(sigma ** 2, args.hbar)
        except OverflowError:  # Python's float power raises rather than give inf
            raise ValueError("sigma**2 overflows float64") from None
        if noise.sigma_sq == 0.0:
            raise ValueError("sigma**2 underflows float64 to 0")
        design = optimize_qudit_dimension(noise, args.d_max)
        return [*astuple(design), coherent_information(noise)]
    _emit(args, _table(["sigma_sq", "d_opt", "p", "rate", "c_sq", "coherent_info"],
                       "--sigma-grid", grid, row), grid=spec)


def _cmd_classical_rates(args) -> None:
    from .classical_channel import (ClassicalParams, debuda_rate, minkowski_lattice_rate,
                                    optimize_classical_d, shannon_capacity)
    _check_d_max(args)
    spec, grid = args.snr_grid

    def row(snr):
        params = ClassicalParams(1.0, 1.0 / snr)
        return [snr, shannon_capacity(params), minkowski_lattice_rate(params),
                debuda_rate(params), *optimize_classical_d(params, args.d_max)]
    _emit(args, _table(["snr", "capacity", "minkowski_rate", "debuda_rate", "d_opt",
                        "concat_rate"], "--snr-grid", grid, row), grid=spec)


def _emit_estimate(args, estimate, **labels) -> None:
    """Run a Monte Carlo estimate with the shared --sigma-sq, --hbar,
    --trials and --seed flags, and emit it with the run's labels."""
    from .channel_sim import RNG_ALGORITHM, NoiseModel
    if args.trials < 1:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    noise = NoiseModel(args.sigma_sq, args.hbar)
    workers = _workers()
    est = estimate(noise, args.trials, args.seed, workers=workers)
    result = {**asdict(est), "sigma_sq": args.sigma_sq, "hbar": args.hbar, **labels}
    _emit(args, result, seed=args.seed, rng_algorithm=RNG_ALGORITHM, workers=workers)


def _cmd_simulate(args) -> None:
    from .channel_sim import estimate_error_probability
    from .symplectic_lattice import make_code
    lattice = _resolve_lattice(args.lattice)

    def estimate(noise, trials, seed, workers):
        try:  # the lattice's code, and the noise against its scale, not one target
            code = make_code(lattice)
            return estimate_error_probability(code, noise, trials, seed, args.criterion, workers)
        except ValueError as exc:
            raise ValueError(f"lattice {args.lattice}: {exc}") from exc
    _emit_estimate(args, estimate, criterion=args.criterion, lattice=args.lattice)


def _cmd_concat_sim(args) -> None:
    from .concatenated import shor9_code, simulate_concatenated
    if args.code != "shor9":
        raise ValueError(f"unknown code family: {args.code!r}")
    estimate = partial(simulate_concatenated, shor9_code(args.d))
    _emit_estimate(args, estimate, code=args.code, d=args.d)


def _cmd_lattice_info(args) -> None:
    from .catalog import get as catalog_get
    from .decoder import packing_radius, shortest_vector
    from .symplectic_lattice import code_dimension, is_symplectically_integral
    entry = catalog_get(args.name)
    lat = entry.lattice
    vec, length_sq = shortest_vector(lat)
    integral = is_symplectically_integral(lat)
    dimension = code_dimension(lat) if integral else None
    _emit(args, {
        "name": entry.name,
        "n": lat.n,
        "lambda": str(lat.scale_sq),
        "dimension": dimension,
        "shortest_vector": vec,
        "shortest_sq": length_sq,
        "packing_radius": packing_radius(lat),
        "symplectically_integral": integral,
        "symplectically_self_dual": integral and dimension == 1,
        "notes": entry.notes,
    })


def _cmd_decode(args) -> None:
    from .decoder import closest_point
    lattice = _resolve_lattice(args.lattice)
    try:
        point = [float(v) for v in args.point.split(",")]
    except ValueError as exc:
        raise ValueError(f"point {args.point!r}: {exc}") from exc
    _emit(args, asdict(closest_point(lattice, point)))


_GRID = dict(type=_grid, required=True, metavar="START:STOP:POINTS")

# Every option and positional, declared once: its add_argument keywords.
_OPTIONS = {
    "--sigma-sq-grid": dict(_GRID, help="log-spaced grid of sigma^2 values"),
    "--sigma-grid": dict(_GRID, help="log-spaced grid of sigma (standard deviation) values"),
    "--snr-grid": _GRID,
    "--lattice": dict(required=True,
                      help="catalog name (e.g. grid_qudit:2, E8) or lattice JSON path"),
    "--code": dict(default="shor9"),
    "--d": dict(type=int, required=True),
    "--sigma-sq": dict(type=float, required=True),
    "--trials": dict(type=int, required=True),
    "--seed": dict(type=int, required=True),
    "--criterion": dict(choices=["voronoi", "coset"], default="voronoi"),
    "--hbar": dict(type=float, default=1.0),
    "--d-max": dict(type=int),
    "--out": dict(help="output file (default: stdout); files get a .manifest.json sidecar"),
    "name": {},
    "lattice": {},
    "point": dict(help="comma-separated coordinates"),
}

# One row per subcommand: name, handler, help, and its options in --help order.
_COMMANDS = [
    ("rates", _cmd_rates, "quantum rate formulas on a sigma^2 grid",
     ["--sigma-sq-grid", "--hbar", "--out"]),
    ("concat-rates", _cmd_concat_rates, "optimized concatenated-code rates on a sigma grid",
     ["--sigma-grid", "--hbar", "--d-max", "--out"]),
    ("classical-rates", _cmd_classical_rates, "classical channel rates on an SNR grid (P = 1)",
     ["--snr-grid", "--d-max", "--out"]),
    ("simulate", _cmd_simulate, "Monte Carlo a lattice code",
     ["--lattice", "--sigma-sq", "--trials", "--seed", "--criterion", "--hbar", "--out"]),
    ("concat-sim", _cmd_concat_sim, "Monte Carlo a concatenated block code",
     ["--code", "--d", "--sigma-sq", "--trials", "--seed", "--hbar", "--out"]),
    ("lattice-info", _cmd_lattice_info, "constants of a catalog lattice", ["name", "--out"]),
    ("decode", _cmd_decode, "closest lattice point to a target", ["lattice", "point", "--out"]),
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkplat",
        description="Lattice codes for continuous quantum variables: rate "
                    "tables and Monte Carlo channel simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    args._argv = argv
    try:
        args.func(args)
    except (ValueError, OSError, AssertionError, ArithmeticError, RecursionError) as exc:
        print(f"gkplat: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
