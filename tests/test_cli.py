"""Command-line interface: artifacts, determinism, exit codes."""

import argparse
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gkplat import channel_sim
from gkplat.cli import _build_parser, _canonical_json, _grid, main
from gkplat.concatenated import shor9_code

from oracles import square_lattice_failure_prob, trellis_sector_failure_prob, wilson_halfwidth

DATA = pathlib.Path(__file__).resolve().parent / "data"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_peak(args, capsys):
    """run_cli plus the peak of memory traced by tracemalloc during the call."""
    tracemalloc.start()
    try:
        return *run_cli(args, capsys), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest-sha256: ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


class TestRatesCommand:
    def test_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        code, _, _ = run_cli(["rates", "--sigma-sq-grid", "1e-4:1e0:100",
                              "--out", str(out)], capsys)
        assert code == 0
        comment, header, rows = read_csv(out)
        assert header == ["sigma_sq", "coherent_info", "hw_upper",
                          "sphere_packing", "integer_lambda_rate"]
        assert len(rows) == 100
        assert all(len(r) == 5 for r in rows)

    def test_grid_is_logarithmic(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        run_cli(["rates", "--sigma-sq-grid", "1e-2:1e2:5", "--out", str(out)], capsys)
        _, _, rows = read_csv(out)
        values = [float(r[0]) for r in rows]
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert all(r == pytest.approx(10.0, rel=1e-9) for r in ratios)

    def test_byte_determinism(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        args = ["rates", "--sigma-sq-grid", "1e-3:1e0:20", "--out", str(out)]
        run_cli(args, capsys)
        first = out.read_bytes()
        first_man = (tmp_path / "a.csv.manifest.json").read_bytes()
        run_cli(args, capsys)
        assert out.read_bytes() == first
        assert (tmp_path / "a.csv.manifest.json").read_bytes() == first_man
        # the data payload is path-independent
        other = tmp_path / "b.csv"
        run_cli(["rates", "--sigma-sq-grid", "1e-3:1e0:20", "--out", str(other)],
                capsys)
        assert other.read_bytes().split(b"\n", 1)[1] == first.split(b"\n", 1)[1]


class TestConcatRatesCommand:
    def test_dominance_rowwise(self, tmp_path, capsys):
        out = tmp_path / "concat.csv"
        code, _, _ = run_cli(["concat-rates", "--sigma-grid", "0.014:0.45:12",
                              "--out", str(out)], capsys)
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["sigma_sq", "d_opt", "p", "rate", "c_sq", "coherent_info"]
        for row in rows:
            assert float(row[3]) <= float(row[5])

    def test_rate_zero_where_the_error_bound_is_vacuous(self, tmp_path, capsys):
        # at sigma^2 = 900 the bound p at d = 2 is 0.98, past (d-1)/d
        out = tmp_path / "concat.csv"
        code, _, _ = run_cli(["concat-rates", "--sigma-grid", "3:30:3", "--out", str(out)],
                             capsys)
        assert code == 0
        _, _, rows = read_csv(out)
        for row in rows:
            assert float(row[3]) <= float(row[5])


def _point_args(command, flag, value):
    return [command, flag, f"{value!r}:{value!r}:1"]


def _sigma_at(hbar, where):
    """sigma log-uniformly from just inside the default ceiling's limit,
    8 hbar / sigma^2 = 2**53, up to 1e3."""
    low = 0.5 * math.log10(8.0 * hbar / 2.0**53) + 1e-9
    return 10.0 ** (low + where * (3.0 - low))


class TestRateScanTail:
    @pytest.mark.parametrize("command,column,d_opt", [
        (["concat-rates", "--sigma-grid", "0.1:0.1:1"], 1, 30),
        (["classical-rates", "--snr-grid", "10:10:1"], 4, 3),
        # every rate is 0: only the intervals holding d = 2 are split
        (["concat-rates", "--sigma-grid", "100:100:1"], 1, 2),
        (["classical-rates", "--snr-grid", "1e-3:1e-3:1"], 4, 2),
    ])
    def test_huge_d_max_costs_few_bound_calls(self, capsys, scan_bound_calls, command, column,
                                              d_opt):
        # 1.5e6 blocks above the optimum; a test per block would take minutes
        code, out, _ = run_cli(command + ["--d-max", "100000000000"], capsys)
        assert code == 0
        assert int(out.splitlines()[2].split(",")[column]) == d_opt
        assert len(scan_bound_calls) <= 32

    _ANCHOR = repr(math.sqrt(1.88e-4))

    @pytest.mark.parametrize("command,rates,bound_calls", [
        (["concat-rates", "--sigma-grid", "0.0137:0.45:60"], 1632, 886),
        (["concat-rates", "--sigma-grid", "1e-3:0.0137:3"], 96, 165),
        (["concat-rates", "--sigma-grid", f"{_ANCHOR}:{_ANCHOR}:1"], 32, 39),
        (["classical-rates", "--snr-grid", "1:1e10:50"], 1421, 1160),
        (["classical-rates", "--snr-grid", "0.6:0.6:1", "--d-max", str(2**53)], 528, 187),
    ], ids=["concat-grid", "concat-small-sigma", "concat-anchor", "classical-grid",
            "snr-0.6-at-2**53"])
    def test_scan_work_on_the_benchmark_grids(self, capsys, scan_evaluations, scan_bound_calls,
                                              command, rates, bound_calls):
        # the rate tables that the benchmark times, and SNR 0.6 at the top
        # ceiling: ceilings on the scan's rate evaluations and bound calls
        code, _, _ = run_cli(command, capsys)
        assert code == 0
        assert len(scan_evaluations) <= rates
        assert len(scan_bound_calls) <= bound_calls

    _LOG10_SNR_MAX = 100 * math.log10(2.0)  # 8 sqrt(snr) = 2**53

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.one_of(
        st.tuples(st.sampled_from([0.5, 1.0, 3.0]), st.floats(0.0, 1.0)).map(
            lambda t: _point_args("concat-rates", "--sigma-grid", _sigma_at(*t)) + [
                "--hbar", repr(t[0])]),
        st.floats(-300.0, _LOG10_SNR_MAX - 1e-9).map(
            lambda x: _point_args("classical-rates", "--snr-grid", 10.0 ** x))))
    @example(command=["concat-rates", "--sigma-grid", "3e-7:3e-7:1"])
    @example(command=["classical-rates", "--snr-grid", "1e26:1e26:1"])
    def test_scan_work_over_the_default_ceiling_domain(self, capsys, scan_evaluations,
                                                       scan_bound_calls, command):
        # sigma from the default ceiling's limit, 2.98e-8 at hbar = 1, to 1e3,
        # and SNR from 1e-300 to the limit, 1.27e30: the scan's work, counted
        scan_evaluations.clear()
        scan_bound_calls.clear()
        code, _, err = run_cli(command, capsys)
        assert code == 0, err
        assert 0 < len(scan_evaluations) <= 64
        assert len(scan_bound_calls) <= 256


class TestClassicalRatesCommand:
    def test_rates_below_capacity(self, tmp_path, capsys):
        out = tmp_path / "classical.csv"
        code, _, _ = run_cli(["classical-rates", "--snr-grid", "1:1e4:15",
                              "--out", str(out)], capsys)
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["snr", "capacity", "minkowski_rate", "debuda_rate",
                          "d_opt", "concat_rate"]
        for row in rows:
            cap = float(row[1])
            assert float(row[2]) <= cap
            assert float(row[3]) <= cap
            assert float(row[5]) <= cap

    def test_rates_below_capacity_at_low_snr(self, tmp_path, capsys):
        # at SNR 0.01 the bound p at d = 2 is 0.93, past (d-1)/d
        out = tmp_path / "classical.csv"
        code, _, _ = run_cli(["classical-rates", "--snr-grid", "1e-2:1e12:80",
                              "--out", str(out)], capsys)
        assert code == 0
        _, _, rows = read_csv(out)
        for row in rows:
            assert float(row[5]) <= float(row[1])


class TestSimulateCommand:
    def test_json_within_oracle_band(self, capsys):
        sigma_sq = 0.15 ** 2 * 2.0 * math.pi
        code, out, _ = run_cli(["simulate", "--lattice", "grid_qudit:2",
                                "--sigma-sq", repr(sigma_sq),
                                "--trials", "200000", "--seed", "7"], capsys)
        assert code == 0
        payload = json.loads(out)
        result = payload["result"]
        exact = square_lattice_failure_prob(2, 2, 0.15)
        half = wilson_halfwidth(result["p_hat"], result["trials"])
        assert abs(result["p_hat"] - exact) <= 3.0 * half
        assert payload["manifest"]["rng_algorithm"].startswith("philox4x64")
        assert payload["manifest"]["seed"] == 7

    def test_lattice_file_input(self, tmp_path, capsys):
        path = tmp_path / "gq3.json"  # grid_qudit(3)
        path.write_text('{"n": 2, "lambda": "3", "basis": [["1", "0"], ["0", "1"]]}')
        code, out, _ = run_cli(["simulate", "--lattice", str(path),
                                "--sigma-sq", "0.1", "--trials", "1000",
                                "--seed", "3"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["trials"] == 1000

    def test_worker_env_recorded_and_deterministic(self, tmp_path, capsys, monkeypatch):
        args = ["simulate", "--lattice", "grid_qudit:2", "--sigma-sq", "0.1",
                "--trials", "30000", "--seed", "5"]
        monkeypatch.setenv("GKPLAT_WORKERS", "3")
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2
        assert json.loads(out1)["manifest"]["workers"] == 3


class TestConcatSimCommand:
    def test_runs(self, capsys):
        code, out, _ = run_cli(["concat-sim", "--code", "shor9", "--d", "2",
                                "--sigma-sq", "0.05", "--trials", "20000",
                                "--seed", "11"], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["d"] == 2
        assert 0.0 <= result["p_hat"] <= 1.0

    def test_large_d(self, capsys):
        args = ["concat-sim", "--sigma-sq", "1e-4", "--trials", "10000", "--seed", "1"]
        code, out, _ = run_cli(args + ["--d", "1000"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["d"] == 1000
        code, out, err = run_cli(args + ["--d", "1449"], capsys)
        assert_one_error_line(code, out, err)

    def test_huge_d_refused_before_its_decode_table(self, capsys):
        # the table of 9 (d - 1) corrections would take over a gigabyte; from
        # d = 2**63 on, d itself does not fit int64
        for d in ["200000", "9223372036854775808"]:
            code, out, err, peak = run_cli_peak(["concat-sim", "--d", d, "--sigma-sq", "1e-4",
                                                 "--trials", "10", "--seed", "1"], capsys)
            assert_one_error_line(code, out, err)
            assert "d**6 overflow int64" in err
            assert peak < 4 * 2**20

    @pytest.mark.parametrize("sigma_sq", ["1e40", "1e300"])
    def test_shifts_beyond_float64_integers_refused(self, capsys, sigma_sq):
        # no longer refused: no shift is drawn, and a spread of about 1e20
        # or 1e150 spacings makes the exponents uniform on Z_3, whose exact
        # block failure probability the trellis gives
        code, out, _ = run_cli(["concat-sim", "--d", "3", "--sigma-sq", sigma_sq,
                                "--trials", "1000", "--seed", "1"], capsys)
        assert code == 0
        p_hat = json.loads(out)["result"]["p_hat"]
        p_x, p_z = (trellis_sector_failure_prob(shor9_code(3), np.full(3, 1.0 / 3.0), sector)
                    for sector in "XZ")
        exact = 1.0 - (1.0 - p_x) * (1.0 - p_z)
        assert abs(p_hat - exact) <= 3.0 * wilson_halfwidth(p_hat, 1000)

    def test_large_noise_runs(self, capsys):
        code, out, _ = run_cli(["concat-sim", "--d", "3", "--sigma-sq", "1e6",
                                "--trials", "1000", "--seed", "1"], capsys)
        assert code == 0
        assert 0.0 <= json.loads(out)["result"]["p_hat"] <= 1.0

    def test_unknown_code_family(self, capsys):
        code, _, err = run_cli(["concat-sim", "--code", "steane", "--d", "2",
                                "--sigma-sq", "0.05", "--trials", "10",
                                "--seed", "1"], capsys)
        assert code == 1
        assert "error" in err


class TestLatticeInfo:
    def test_e8(self, capsys):
        code, out, _ = run_cli(["lattice-info", "E8"], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["n"] == 8
        assert result["dimension"] == 1
        assert result["shortest_sq"] == pytest.approx(2.0)
        assert result["packing_radius"] == pytest.approx(math.sqrt(2.0) / 2.0)
        assert result["symplectically_integral"] is True
        assert result["symplectically_self_dual"] is True

    def test_unknown_name(self, capsys):
        for command in (["lattice-info", "Leech"], ["decode", "foo", "0,0"]):
            assert run_cli(command, capsys) == (
                1, "", f"gkplat: error: unknown lattice name: {command[1]!r}\n")

    @pytest.mark.parametrize("command", [["lattice-info", "Zn:1000"],
                                         ["simulate", "--lattice", "Zn:1000", "--sigma-sq",
                                          "0.1", "--trials", "10", "--seed", "1"]])
    def test_zn_above_the_decoder_limit_refused_before_its_basis(self, capsys, command):
        code, out, err, peak = run_cli_peak(command, capsys)
        assert_one_error_line(code, out, err)
        assert "up to 12" in err
        assert peak < 4 * 2**20


class TestDecode:
    def test_plane(self, capsys):
        code, out, _ = run_cli(["decode", "Zn:2", "0.4,-0.3"], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["closest"] == [0, 0]
        assert result["dist_sq"] == pytest.approx(0.25)
        assert result["tie"] is False

    def test_boundary_tie(self, capsys):
        _, out, _ = run_cli(["decode", "Zn:2", "0.5,0"], capsys)
        assert json.loads(out)["result"]["tie"] is True


class InlineThread:
    """Stands in for threading.Thread: runs its target inside start(), on
    the calling thread, and counts how many were built."""

    built = 0

    def __init__(self, target, args=()):
        InlineThread.built += 1
        self.target, self.args = target, args

    def start(self):
        self.target(*self.args)

    def join(self):
        pass


def assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gkplat: error: ")


class TestBadInput:
    @pytest.mark.parametrize("command", [
        ["simulate", "--lattice", "grid_qudit:2", "--trials", "1000", "--seed", "1"],
        ["concat-sim", "--d", "3", "--trials", "1000", "--seed", "1"],
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sigma_sq(self, capsys, command, value):
        assert_one_error_line(*run_cli(command + ["--sigma-sq", value], capsys))

    def test_coset_denominator_beyond_int64(self, capsys, monkeypatch):
        argv = ["simulate", "--lattice", "grid_qudit:99999999999999999999", "--sigma-sq",
                "1e-22", "--trials", "100", "--seed", "1", "--criterion"]
        with monkeypatch.context() as mp:
            mp.setattr(channel_sim, "_sample_cells", None)  # refused before any sampling
            code, out, err = run_cli(argv + ["coset"], capsys)
        assert_one_error_line(code, out, err)
        assert "the coset test's denominator 99999999999999999999 is beyond int64" in err
        assert run_cli(argv + ["voronoi"], capsys)[0] == 0

    def test_lattice_file_with_zero_denominator(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "lambda": "1/0", "basis": [["1", "0"], ["0", "1"]]}')
        assert_one_error_line(*run_cli(["decode", str(path), "0.1,0.2"], capsys))

    @pytest.mark.parametrize("record", [
        pytest.param('{"n": 2, "lambda": "1", "basis": [[1.0, 0], [0, 1]]}', id="float-entry"),
        pytest.param('{"n": 2, "lambda": 0.5, "basis": [[1, 0], [0, 1]]}', id="float-lambda"),
        pytest.param('{"n": 2, "lambda": "1", "basis": [[1e400, 0], [0, 1]]}', id="1e400"),
        pytest.param('{"n": 2, "lambda": "1", "basis": [[[1], 0], [0, 1]]}', id="nested-entry"),
        pytest.param('[[1, 0], [0, 1]]', id="top-level-array"),
        pytest.param('{"n": 2, "lambda": "1", "basis": [[true, 0], [0, 1]]}', id="bool-entry"),
        pytest.param('{"n": 2.0, "lambda": "1", "basis": [[1, 0], [0, 1]]}', id="float-n"),
        pytest.param("[" * 10 ** 5 + "]" * 10 ** 5, id="deep-nesting"),
    ])
    @pytest.mark.parametrize("command", [
        ["decode", "PATH", "0.1,0.2"],
        ["simulate", "--lattice", "PATH", "--sigma-sq", "0.1", "--trials", "10", "--seed", "1"],
    ], ids=["decode", "simulate"])
    def test_malformed_lattice_file(self, tmp_path, capsys, record, command):
        path = tmp_path / "bad.json"
        path.write_text(record)
        argv = [str(path) if arg == "PATH" else arg for arg in command]
        assert_one_error_line(*run_cli(argv, capsys))

    @pytest.mark.parametrize("n", [40, 200])
    @pytest.mark.parametrize("command", [
        ["decode", "PATH", "0.1,0.2"],
        ["simulate", "--lattice", "PATH", "--sigma-sq", "0.1", "--trials", "10", "--seed", "1"],
    ], ids=["decode", "simulate"])
    def test_lattice_file_beyond_the_decoder_limit_refused_first(self, tmp_path, capsys,
                                                                  command, n):
        # a random integer basis: its exact determinant alone would take seconds
        rng = np.random.default_rng(n)
        path = tmp_path / f"big{n}.json"
        path.write_text(json.dumps({"n": n, "lambda": "1",
                                    "basis": rng.integers(-9, 10, (n, n)).tolist()}))
        argv = [str(path) if arg == "PATH" else arg for arg in command]
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 2.0
        assert_one_error_line(code, out, err)
        assert err.startswith(f"gkplat: error: lattice {path}: ") and "up to 12" in err

    @pytest.mark.parametrize("record,field", [
        ('{"n": 2, "lambda": "1e400", "basis": [[1, 0], [0, 1]]}', "lambda"),
        ('{"n": 2, "lambda": "1e-400", "basis": [[1, 0], [0, 1]]}', "lambda"),
        ('{"n": 2, "lambda": "1", "basis": [["1e400", 0], [0, 1]]}', "basis"),
    ], ids=["huge-lambda", "tiny-lambda", "huge-basis-entry"])
    def test_lattice_file_beyond_float64(self, tmp_path, capsys, record, field):
        # exact rationals that float64 cannot hold: refused where M is formed
        path = tmp_path / "far.json"
        path.write_text(record)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code, out, err = run_cli(["decode", str(path), "0.1,0.2"], capsys)
        assert_one_error_line(code, out, err)
        assert f"lattice field {field!r} is beyond float64" in err

    def test_normalizer_beyond_float64_named(self, tmp_path, capsys):
        # the file's lambda is a float64; the derived normalizer's scale is not
        path = tmp_path / "far.json"
        path.write_text('{"n": 2, "lambda": "1e300", "basis": [["1e200", 0], [0, 1]]}')
        code, out, err = run_cli(["simulate", "--lattice", str(path), "--sigma-sq", "0.1",
                                  "--trials", "10", "--seed", "1"], capsys)
        assert_one_error_line(code, out, err)
        assert "the code's normalizer is beyond float64" in err
        code, out, err = run_cli(["decode", str(path), "0.1,0.2"], capsys)
        assert_one_error_line(code, out, err)
        assert "lattice field 'basis' is beyond float64" in err

    def test_coset_test_beyond_int64_named(self, tmp_path, capsys):
        # Z^3 x 1e12 Z in a skewed unimodular frame: A^-1 has denominator
        # 1e12, and den * A^-1 has entries near 1.1e19, beyond int64
        rows = [[74811640, -6232177, -706126867, -39735773], [-146132370, 12173537,
                1379304037, 77617326], [18266547, -1521692, -172413011, -9702165],
                [-9262366, 771600, 87424975, 4919649]]
        path = tmp_path / "skewed_code.json"
        path.write_text(json.dumps({"n": 4, "lambda": "1", "basis": [
            [str(v) for v in row[:3]] + [str(row[3] * 10**12)] for row in rows]}))
        code, out, err = run_cli(["simulate", "--lattice", str(path), "--sigma-sq", "0.01",
                                  "--trials", "10", "--seed", "1"], capsys)
        assert_one_error_line(code, out, err)
        assert err.startswith(f"gkplat: error: lattice {path}: ")
        assert "coset test den * A^-1 has entries beyond int64" in err

    def test_lll_that_cycles_refused(self, tmp_path, capsys):
        # Z^3 x 1e12 Z in another skewed unimodular frame: float rounding makes
        # the normalizer's LLL swap its first two rows back and forth
        rows = [[56286908, -4688977, -531276917, -29896475], [6, 1, -51, 6],
                [9004181, -750092, -84988036, -4782516], [-9262366, 771600, 87424975, 4919649]]
        path = tmp_path / "cycling_code.json"
        path.write_text(json.dumps({"n": 4, "lambda": "1", "basis": [
            [str(v) for v in row[:3]] + [str(row[3] * 10**12)] for row in rows]}))
        start = time.perf_counter()
        code, out, err = run_cli(["simulate", "--lattice", str(path), "--sigma-sq", "0.01",
                                  "--trials", "100", "--seed", "1"], capsys)
        assert time.perf_counter() - start < 10.0  # 0.3 s on a 2-core VM
        assert_one_error_line(code, out, err)
        assert err.startswith(f"gkplat: error: lattice {path}: ")
        assert "LLL reduction does not settle" in err

    def test_search_nodes_bounded(self, tmp_path, capsys):
        # one LLL level of diag(5, 2**31 - 1, 1, 1)'s normalizer is about 4e8
        # times finer than the others: 2000 targets would need 1.9e8 nodes there
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({"n": 4, "lambda": "1", "basis": [
            ["5", "0", "0", "0"], ["0", str(2**31 - 1), "0", "0"], ["0", "0", "1", "0"],
            ["0", "0", "0", "1"]]}))
        code, out, err, peak = run_cli_peak(["simulate", "--lattice", str(path), "--sigma-sq",
                                             "1e-30", "--trials", "2000", "--seed", "1"], capsys)
        assert_one_error_line(code, out, err)
        assert err.startswith(f"gkplat: error: lattice {path}: ")
        assert "nodes at one level, above 2**20" in err
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("command,named", [
        (["simulate", "--lattice", "D4", "--sigma-sq", "0.1", "--hbar", "1e-320",
          "--trials", "10", "--seed", "1"], ["sigma_sq = 0.1", "hbar = 1e-320"]),
        (["simulate", "--lattice", "D4", "--sigma-sq", "1e300", "--hbar", "1e-10",
          "--trials", "10", "--seed", "1"], ["sigma_sq = 1e+300", "hbar = 1e-10"]),
        (["concat-sim", "--d", "3", "--sigma-sq", "0.1", "--hbar", "1e-320",
          "--trials", "10", "--seed", "1"], ["sigma_sq = 0.1", "hbar = 1e-320"]),
        (["concat-rates", "--sigma-grid", "1e150:1e150:1", "--hbar", "1e-10"],
         ["--sigma-grid value 1e+150: ", "c_sq = 2**rate * sigma_sq / hbar overflows float64",
          "hbar = 1e-10"]),
        # hbar / sigma^2 overflows: sigma^2 = 1e-320
        (["concat-rates", "--sigma-grid", "1e-160:1e-160:1", "--d-max", "100"],
         ["--sigma-grid value 1e-160: ", "leaves float64",
          "erfc argument 3.141592653589793 / (4.0 * d**1 * 1e-320)"]),
        # hbar / sigma^2 = 1, but pi hbar overflows
        (["concat-rates", "--sigma-grid", "1e154:1e154:1", "--hbar", "1e308", "--d-max", "100"],
         ["--sigma-grid value 1e+154: ", "erfc argument inf / (4.0 * d**1 * 1e+308)"]),
        (["concat-rates", "--sigma-grid", "1e-200:1e-200:1"],
         ["--sigma-grid value 1e-200: ", "sigma**2 underflows float64 to 0"]),
        # 4 d sigma^2 overflows, but erfc(sqrt(pi hbar / DBL_MAX)) is about 0.55, not 1
        (["concat-rates", "--sigma-grid", "1e154:1e154:1", "--hbar", "1e307", "--d-max", "100"],
         ["--sigma-grid value 1e+154: ", "erfc argument 3.1415926535897933e+307 / (4.0 * d**1"]),
        # hbar / sigma^2 overflows in the rate formulas
        (["rates", "--sigma-sq-grid", "1e-310:1e-310:1"],
         ["--sigma-sq-grid value 1e-310: ", "hbar / sigma^2 = 1.0 / 1e-310 overflows float64"]),
        (["concat-rates", "--sigma-grid", "1e200:1e200:1"],
         ["--sigma-grid value 1e+200: ", "sigma**2 overflows float64"]),
    ])
    def test_noise_ratio_beyond_float64_named(self, capsys, command, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code, out, err = run_cli(command, capsys)
        assert_one_error_line(code, out, err)
        assert all(text in err for text in named)

    def test_huge_noise_ratio_with_all_zero_rates_is_valid(self, capsys):
        code, out, _ = run_cli(["rates", "--sigma-sq-grid", "1e300:1e300:1", "--hbar",
                                "1e-10"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "1.0000000000000001e+300,0,0,0,0"

    @pytest.mark.parametrize("command,last", [
        (["rates", "--sigma-sq-grid", "1e308:1e308:1"], "1e+308,0,0,0,0"),  # e sigma^2 is inf
        (["rates", "--sigma-sq-grid", "1e-300:1e300:3", "--hbar", "1e-300"],
         "1.0000000000000001e+300,0,0,0,0"),  # hbar / (e sigma^2) is 0
        # c d^j sigma^2 overflows where erfc of its argument is exactly 1: p = 1, rate 0
        (["classical-rates", "--snr-grid", "1e-308:1e-308:1"],
         "9.9999999999999991e-309,0,0,0,2,0"),
        (["classical-rates", "--snr-grid", "1e-300:1e-300:1"], "1e-300,0,0,0,2,0"),
        (["classical-rates", "--snr-grid", "1e-300:1e-300:1", "--d-max", "10000000000"],
         "1e-300,0,0,0,2,0"),
        (["concat-rates", "--sigma-grid", "1e154:1e154:1"], "1e+308,2,1,0,1e+308,0"),
    ])
    def test_noise_ratio_underflow_gives_zero_rates(self, capsys, command, last):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(command, capsys)
        assert code == 0
        assert out.splitlines()[-1] == last

    def test_decode_point_named(self, capsys):
        code, out, err = run_cli(["decode", "D4", "0.1,,0.3,0.1"], capsys)
        assert_one_error_line(code, out, err)
        assert "point '0.1,,0.3,0.1': " in err

    def test_decode_dimension_mismatch_sized(self, capsys):
        code, out, err = run_cli(["decode", "E8", "0.1,0.2"], capsys)
        assert_one_error_line(code, out, err)
        assert "points of shape (1, 2) for a lattice of dimension 8" in err

    def test_non_integral_lattice_file_named(self, tmp_path, capsys):
        path = tmp_path / "third.json"
        path.write_text('{"n": 2, "lambda": "1/3", "basis": [["1", "0"], ["0", "1"]]}')
        code, out, err = run_cli(["simulate", "--lattice", str(path), "--sigma-sq", "0.1",
                                  "--trials", "10", "--seed", "1"], capsys)
        assert_one_error_line(code, out, err)
        assert err == f"gkplat: error: lattice {path}: lattice is not symplectically integral\n"

    @pytest.mark.parametrize("grid", ["1e-170:1e-170:1", "1e-160:1e-160:1"])
    def test_sigma_grid_underflow(self, capsys, grid):
        # sigma^2 underflows to 0, or to a subnormal whose d-scan ceiling is inf
        assert_one_error_line(*run_cli(["concat-rates", "--sigma-grid", grid], capsys))

    @pytest.mark.parametrize("command,value", [
        (["rates", "--sigma-sq-grid", "1e300:1e-310:3"], 1e-310),  # rows before it print
        (["rates", "--sigma-sq-grid", "1e-320:1e-320:1"], 1e-320),
        (["concat-rates", "--sigma-grid", "1e-200:1e-200:1"], 1e-200),  # sigma^2 is 0
        (["concat-rates", "--sigma-grid", "1e200:1e200:1"], 1e200),     # sigma^2 overflows
    ])
    def test_grid_value_out_of_range_named(self, capsys, command, value):
        code, out, err = run_cli(command, capsys)
        assert_one_error_line(code, out, err)
        assert f"{command[1]} value {value!r}: " in err

    @pytest.mark.parametrize("command", [
        ["concat-rates", "--sigma-grid", "1e-10:1e-10:1"],  # default ceiling 8e20
        ["classical-rates", "--snr-grid", "1e31:1e31:1"],   # default ceiling 2.5e16
        ["concat-rates", "--sigma-grid", "0.1:0.1:1", "--d-max", str(2**53 + 1)],
        ["classical-rates", "--snr-grid", "10:10:1", "--d-max", str(2**53 + 1)],
    ])
    def test_d_ceiling_beyond_float64(self, capsys, command):
        assert_one_error_line(*run_cli(command, capsys))

    @pytest.mark.parametrize("command", [
        ["concat-rates", "--sigma-grid", "1:1:1"],
        ["classical-rates", "--snr-grid", "1:1:1"],
    ], ids=["concat-rates", "classical-rates"])
    @pytest.mark.parametrize("d_max", ["0", "1", str(2**53 + 1)])
    def test_d_max_out_of_range_named(self, capsys, command, d_max):
        code, out, err = run_cli(command + ["--d-max", d_max], capsys)
        assert_one_error_line(code, out, err)
        assert err == f"gkplat: error: --d-max must lie in [2, 2**53], got {d_max}\n"

    @pytest.mark.parametrize("command", [
        ["simulate", "--lattice", "Zn:2"],
        ["concat-sim", "--d", "3"],
    ], ids=["simulate", "concat-sim"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_named(self, capsys, command, trials):
        code, out, err = run_cli(command + ["--sigma-sq", "0.1", "--trials", trials,
                                            "--seed", "1"], capsys)
        assert_one_error_line(code, out, err)
        assert err == f"gkplat: error: --trials must be positive, got {trials}\n"

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_bad_worker_count(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GKPLAT_WORKERS", value)
        code, out, err = run_cli(["simulate", "--lattice", "grid_qudit:2", "--sigma-sq", "0.1",
                                  "--trials", "10", "--seed", "1"], capsys)
        assert_one_error_line(code, out, err)
        assert "GKPLAT_WORKERS" in err

    @pytest.mark.parametrize("command", [
        ["decode", "D4", "1e300,1e300,0,0"],
        ["decode", "Zn:2", "1e300,0"],
        ["decode", "D4", "1.7e308,1.7e308,0,0"],  # x @ M^-1 overflows
        ["decode", "E8", "1e308,1e308,1e308,1e308,1e308,1e308,-1e308,1e308"],  # inf - inf
        ["decode", "D4", "nan,0,0,0"],
        ["simulate", "--lattice", "D4", "--sigma-sq", "1e30", "--trials", "10", "--seed", "1"],
    ])
    def test_undecodable_target(self, capsys, command):
        # float64 cannot decode coefficients this large (or non-finite ones)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            assert_one_error_line(*run_cli(command, capsys))

    @pytest.mark.parametrize("noise", [["--sigma-sq", "1e40"],
                                       ["--sigma-sq", "1.7e308", "--hbar", "0.16"]],
                             ids=["1e40", "t_sq_overflows"])
    def test_uniform_limit_on_an_orthogonal_frame(self, capsys, noise):
        # grid_qudit(2) decodes nothing: a spread of 1e20 cells, or one whose
        # t^2 overflows to inf, makes the normalizer coefficients uniform mod 2,
        # so the four logical classes are equally likely and coset fails 3/4
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code, out, err = run_cli(["simulate", "--lattice", "grid_qudit:2", *noise,
                                      "--trials", "10000", "--seed", "1", "--criterion",
                                      "coset"], capsys)
        assert code == 0, err
        result = json.loads(out)["result"]
        assert result["ci_low"] <= 0.75 <= result["ci_high"]

    def test_lattice_too_fine_for_the_noise_named(self, capsys):
        # the sampled displacements are ordinary; the normalizer's cells are
        # tiny, about 1e-9 of a standard deviation, so every trial fails
        lattice = "grid_qudit:99999999999999999999"
        code, out, err = run_cli(["simulate", "--lattice", lattice, "--sigma-sq", "0.1",
                                  "--trials", "10", "--seed", "1"], capsys)
        assert code == 0, err
        result = json.loads(out)["result"]
        assert result["failures"] == result["trials"] == 10

    def test_huge_grid_qudit_has_no_ties(self, capsys):
        # c^2 = 1e-12 on the normalizer, and sigma^2 far below it: no cell is drawn
        code, out, _ = run_cli(["simulate", "--lattice", "grid_qudit:1000000000000",
                                "--sigma-sq", "1e-40", "--trials", "1000", "--seed", "1"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["failures"] == 0

    def test_fine_normalizer_decodes_in_bounded_memory(self, tmp_path, capsys):
        # E8 at lambda = 1e12: the search margin is relative to the cells of
        # size 1e-12, so the enumeration stays as small as at lambda = 1
        basis = ([["2"] + ["0"] * 7]
                 + [["0"] * i + ["-1", "1"] + ["0"] * (6 - i) for i in range(6)]
                 + [["1/2"] * 8])
        path = tmp_path / "e8_fine.json"
        path.write_text(json.dumps({"n": 8, "lambda": "1000000000000", "basis": basis}))
        code, out, err, peak = run_cli_peak(["simulate", "--lattice", str(path), "--sigma-sq",
                                             "1e-14", "--trials", "2000", "--seed", "1"], capsys)
        assert code == 0, err
        assert json.loads(out)["result"]["failures"] == 0
        assert peak < 16 * 2**20

    def test_undecodable_target_on_threaded_streams(self, capsys, monkeypatch, on_cpus):
        # two streams of a full block each: both raise on their own thread
        monkeypatch.setenv("GKPLAT_WORKERS", "2")
        result, built = on_cpus(2, lambda: run_cli(
            ["simulate", "--lattice", "D4", "--sigma-sq", "1e30", "--trials", "70000",
             "--seed", "1"], capsys))
        assert built == 1
        assert_one_error_line(*result)

    def test_huge_worker_count_bounded_by_cpus(self, capsys, monkeypatch):
        # GKPLAT_WORKERS=10**9 with one-row blocks, so each of the 1000
        # streams holds a full block; InlineThread starts no thread
        monkeypatch.setenv("GKPLAT_WORKERS", str(10**9))
        monkeypatch.setattr(channel_sim, "_BATCH", 1)
        monkeypatch.setattr(threading, "Thread", InlineThread)
        args = ["simulate", "--lattice", "grid_qudit:2", "--sigma-sq", "0.3",
                "--trials", "1000", "--seed", "1"]
        outputs = []
        for cpus in (1, 3):
            monkeypatch.setattr(channel_sim, "_usable_cpus", lambda: cpus)
            InlineThread.built = 0
            code, out, _ = run_cli(args, capsys)
            assert code == 0
            assert InlineThread.built == cpus - 1  # the calling thread is the last
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["manifest"]["workers"] == 10**9

    def test_undecodable_basis(self, tmp_path, capsys):
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps({"n": 4, "lambda": "1", "basis": [
            ["1", "0", "0", "0"], [str(10**15), "1", "0", "0"], ["3", str(10**12), "1", "0"],
            ["7", "5", str(10**9), "1"]]}))
        code, out, err = run_cli(["decode", str(path), "0,0,0,0"], capsys)
        assert_one_error_line(code, out, err)
        assert "int64/float64" in err

    def test_large_noise_still_decodes(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(["simulate", "--lattice", "E8", "--sigma-sq", "1e6",
                                    "--trials", "50", "--seed", "1"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["failures"] == 50

    def test_json_refuses_non_finite(self):
        for value in (math.nan, math.inf, np.float64(-math.inf)):
            with pytest.raises(ValueError):
                _canonical_json({"x": [1.0, value]})

    def test_scalar_refuses_non_finite(self):
        # the one formatter behind CSV cells and JSON numbers
        for value in (math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf)):
            with pytest.raises(ValueError):
                _canonical_json(value)
        values = (True, np.bool_(False), np.int64(7), 0.1, np.float64(1 / 3), "d_opt")
        assert [_canonical_json(v) for v in values] == [
            "true", "false", "7", "0.10000000000000001", "0.33333333333333331", '"d_opt"']
        with pytest.raises(TypeError):
            _canonical_json(object())


def _with_neighbours(values):
    """The values and their floating-point neighbours, negated too."""
    near = {float(y) for x in values for y in (np.nextafter(x, -math.inf), x,
                                               np.nextafter(x, math.inf))}
    return sorted(near | {-x for x in near})


# ROADMAP item 7's boundary values; nan has no neighbours
_COORDINATES = _with_neighbours([0.0, 5e-324, 1e-308, 1e-200, 1e200, 1e308, 2.0 ** 53,
                                 2.0 ** 63, math.inf]) + [math.nan]
_POSITIVE = [x for x in _COORDINATES if 0 < x < math.inf]  # so that more draws run
# the same boundary values as integers, for --d and --seed
_INTEGERS = sorted({sign * (n + step) for n in (0, 2 ** 53, 2 ** 63, 10 ** 200, 10 ** 308)
                    for step in (-1, 0, 1) for sign in (1, -1)})
_DECODE_DIMS = {"Zn:2": 2, "Zn:12": 12, "D4": 4, "E8": 8, "grid_qudit:3": 2}
_SIZES = sorted({n + step for n in (0, 1, 2, 12, 13, 2 ** 31, 2 ** 53, 2 ** 63, 10 ** 20)
                 for step in (-1, 0, 1)})


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def assert_domain_outcome(command, capsys):
    """An exit of 0, 1 or 2 in bounded memory: one error line for 1, and
    for 0 strict JSON, or a CSV table whose cells below the header are
    strict JSON scalars, with no NaN or inf."""
    code, out, err, peak = run_cli_peak(command, capsys)
    assert code in (0, 1, 2), (command, err)
    if code == 1:
        assert_one_error_line(code, out, err)
    elif code == 0 and out.startswith("# manifest-sha256: "):
        rows = out.splitlines()[2:]
        assert rows
        for row in rows:
            for cell in row.split(","):
                json.loads(cell, parse_constant=_reject_constant)
    elif code == 0:
        json.loads(out, parse_constant=_reject_constant)
    assert peak < 64 * 2**20


class TestDomain:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(args=st.sampled_from(sorted(_DECODE_DIMS)).flatmap(
        lambda name: st.lists(st.sampled_from(_COORDINATES), min_size=_DECODE_DIMS[name],
                              max_size=_DECODE_DIMS[name]).map(lambda xs: (name, xs))))
    @example(args=("E8", [2.0 ** 63] * 8))
    @example(args=("Zn:12", [5e-324] * 12))
    @example(args=("grid_qudit:3", [math.nan, 0.0]))
    def test_decode(self, capsys, args):
        name, xs = args
        # "--" keeps a leading minus sign off argparse's option parsing
        assert_domain_outcome(["decode", name, "--", ",".join(map(repr, xs))], capsys)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(family=st.sampled_from(["Zn", "grid_qudit"]), size=st.sampled_from(_SIZES))
    @example(family="grid_qudit", size=10 ** 20)
    @example(family="Zn", size=12)
    def test_lattice_info(self, capsys, family, size):
        assert_domain_outcome(["lattice-info", f"{family}:{size}"], capsys)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(d=st.one_of(st.sampled_from([2, 3, 10, 1448, 1449]), st.sampled_from(_INTEGERS)),
           sigma_sq=st.one_of(st.sampled_from(_POSITIVE), st.sampled_from(_COORDINATES)),
           hbar=st.one_of(st.sampled_from(_POSITIVE), st.sampled_from(_COORDINATES)),
           seed=st.sampled_from(_INTEGERS), trials=st.sampled_from([1, 3, 100]))
    @example(d=10, sigma_sq=1e308, hbar=1e308, seed=2 ** 63, trials=100)  # every row decoded
    @example(d=1448, sigma_sq=5e-324, hbar=1e-308, seed=-1, trials=100)
    @example(d=2, sigma_sq=1e200, hbar=1e-200, seed=0, trials=1)        # sigma^2 d / hbar = inf
    @example(d=2 ** 63, sigma_sq=0.05, hbar=1.0, seed=10 ** 308, trials=3)
    def test_concat_sim(self, capsys, d, sigma_sq, hbar, seed, trials):
        # "--flag=value" keeps a leading minus sign off argparse's option parsing
        values = {"--d": d, "--sigma-sq": repr(sigma_sq), "--hbar": repr(hbar),
                  "--seed": seed, "--trials": trials}
        assert_domain_outcome(["concat-sim"] + [f"{k}={v}" for k, v in values.items()], capsys)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lattice=st.sampled_from(["D4", "E8", "Zn:2", "Zn:12", "grid_qudit:2",
                                    "grid_qudit:3"]),
           criterion=st.sampled_from(["voronoi", "coset"]),
           sigma_sq=st.one_of(st.sampled_from(_POSITIVE), st.sampled_from(_COORDINATES)),
           hbar=st.one_of(st.sampled_from(_POSITIVE), st.sampled_from(_COORDINATES)),
           seed=st.sampled_from(_INTEGERS), trials=st.sampled_from([1, 3, 100]))
    @example(lattice="E8", criterion="coset", sigma_sq=1e308, hbar=5e-324, seed=2 ** 63,
             trials=100)
    @example(lattice="Zn:12", criterion="voronoi", sigma_sq=5e-324, hbar=1e308, seed=-1,
             trials=100)
    @example(lattice="grid_qudit:3", criterion="coset", sigma_sq=1.0, hbar=2.0 ** 53,
             seed=10 ** 308, trials=100)
    def test_simulate(self, capsys, lattice, criterion, sigma_sq, hbar, seed, trials):
        # --trials stays small: 2**63 - 1 trials run, in bounded memory, without end
        values = {"--lattice": lattice, "--criterion": criterion, "--sigma-sq": repr(sigma_sq),
                  "--hbar": repr(hbar), "--seed": seed, "--trials": trials}
        assert_domain_outcome(["simulate"] + [f"{k}={v}" for k, v in values.items()], capsys)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["rates", "concat-rates", "classical-rates"]),
           start=st.one_of(st.sampled_from(_POSITIVE), st.sampled_from(_COORDINATES)),
           stop=st.one_of(st.sampled_from(_POSITIVE), st.sampled_from(_COORDINATES)),
           points=st.integers(1, 3),
           hbar=st.one_of(st.sampled_from(_POSITIVE), st.sampled_from(_COORDINATES)),
           d_max=st.one_of(st.none(), st.sampled_from([2, 3, 10]), st.sampled_from(_INTEGERS)))
    @example(command="concat-rates", start=1e-154, stop=1e154, points=3, hbar=5e-324,
             d_max=2 ** 53)
    @example(command="classical-rates", start=5e-324, stop=1e200, points=3, hbar=1.0,
             d_max=2 ** 53)
    @example(command="rates", start=1e-308, stop=2.0 ** 63, points=3, hbar=1e308, d_max=None)
    def test_rate_tables(self, capsys, command, start, stop, points, hbar, d_max):
        flag = {"rates": "--sigma-sq-grid", "concat-rates": "--sigma-grid",
                "classical-rates": "--snr-grid"}[command]
        values = {flag: f"{start!r}:{stop!r}:{points}"}
        if command != "classical-rates":
            values["--hbar"] = repr(hbar)
        if command != "rates" and d_max is not None:
            values["--d-max"] = d_max
        assert_domain_outcome([command] + [f"{k}={v}" for k, v in values.items()], capsys)


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["rates", "--sigma-sq-grid", "nonsense"]) == 2
        capsys.readouterr()
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_runtime_error_is_1(self, capsys):
        assert main(["simulate", "--lattice", "Leech", "--sigma-sq", "0.1",
                     "--trials", "10", "--seed", "1"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ["rates", "--sigma-sq-grid", "1e-4:inf:10"],
        ["rates", "--sigma-sq-grid", "nan:1:3"],
        ["classical-rates", "--snr-grid", "1:1e400:3"],
        ["concat-rates", "--sigma-grid", "1e-3:inf:3"],
    ])
    def test_non_finite_grid_is_usage_error(self, capsys, command):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code, out, err = run_cli(command, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: gkplat {command[0]} ")
        assert err.splitlines()[-1] == (
            f"gkplat {command[0]}: error: argument {command[1]}: "
            "grid endpoints must be positive and finite, points >= 1")

    def test_grid_point_beyond_float64_is_usage_error(self, capsys):
        # 10 ** log10(DBL_MAX) rounds past DBL_MAX at the middle point
        spec = "1.7976931348623157e308:1.7976931348623157e308:3"
        code, out, err = run_cli(["rates", "--sigma-sq-grid", spec], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"grid {spec!r} has a point beyond float64")

    @pytest.mark.parametrize("points", [10 ** 6 + 1, 10 ** 15])
    def test_grid_points_bounded(self, capsys, points):
        code, out, err = run_cli(["rates", "--sigma-sq-grid", f"1e-4:1:{points}"], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "gkplat rates: error: argument --sigma-sq-grid: grid points must be at most 10**6")
        assert len(_grid("1e-4:1:1000000")[1]) == 10 ** 6

    def test_success_is_0(self, capsys):
        assert main(["rates", "--sigma-sq-grid", "1e-2:1e0:3"]) == 0
        capsys.readouterr()


class TestManifest:
    def test_checksum_links_manifest_to_payload(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        run_cli(["rates", "--sigma-sq-grid", "1e-2:1e0:4", "--out", str(out)], capsys)
        text = out.read_text()
        comment, payload = text.split("\n", 1)
        man_text = (tmp_path / "r.csv.manifest.json").read_text().strip()
        man_sha = hashlib.sha256(man_text.encode()).hexdigest()
        assert comment == f"# manifest-sha256: {man_sha}"
        manifest = json.loads(man_text)
        assert manifest["output_sha256"] == hashlib.sha256(payload.encode()).hexdigest()
        assert manifest["artifact_version"]
        assert manifest["command"][0] == "gkplat"

    BASE_KEYS = {"command", "artifact_version", "output_sha256"}

    @pytest.mark.parametrize("args,extra_keys", [
        (["rates", "--sigma-sq-grid", "1e-2:1e0:3"], {"grid"}),
        (["concat-rates", "--sigma-grid", "0.1:0.2:2"], {"grid"}),
        (["classical-rates", "--snr-grid", "1:100:3"], {"grid"}),
        (["simulate", "--lattice", "grid_qudit:2", "--sigma-sq", "0.1", "--trials", "100",
          "--seed", "1"], {"seed", "rng_algorithm", "workers"}),
        (["concat-sim", "--d", "3", "--sigma-sq", "0.05", "--trials", "100", "--seed", "1"],
         {"seed", "rng_algorithm", "workers"}),
        (["lattice-info", "D4"], set()),
        (["decode", "Zn:2", "0.4,-0.3"], set()),
    ])
    def test_sidecar_is_the_manifest(self, tmp_path, capsys, args, extra_keys):
        out = tmp_path / "artifact"
        argv = args + ["--out", str(out)]
        assert run_cli(argv, capsys)[0] == 0
        text = out.read_text()
        sidecar = (tmp_path / "artifact.manifest.json").read_text()
        assert sidecar.endswith("\n")
        man_json = sidecar[:-1]
        if "grid" in extra_keys:
            comment, payload = text.split("\n", 1)
            assert comment == "# manifest-sha256: " + hashlib.sha256(man_json.encode()).hexdigest()
        else:
            prefix = '{"manifest":' + man_json + ',"result":'
            assert text.startswith(prefix) and text.endswith("}\n")
            payload = text[len(prefix):-2]
        manifest = json.loads(man_json)
        assert set(manifest) == self.BASE_KEYS | extra_keys
        assert manifest["command"] == ["gkplat", *argv]
        assert manifest["output_sha256"] == hashlib.sha256(payload.encode()).hexdigest()
        if "grid" in extra_keys:
            assert manifest["grid"] == args[2]
        if "seed" in extra_keys:
            assert (manifest["seed"], manifest["workers"]) == (1, 1)

    def test_control_characters_escaped(self, tmp_path, capsys):
        out = tmp_path / "a\tb.json"
        assert run_cli(["lattice-info", "D4", "--out", str(out)], capsys)[0] == 0
        artifact = json.loads(out.read_text())
        sidecar = json.loads((tmp_path / "a\tb.json.manifest.json").read_text())
        assert artifact["manifest"] == sidecar
        assert sidecar["command"][-1] == str(out)
        text = 'q"\\\t\n\0'
        assert json.loads(_canonical_json({text: [text]})) == {text: [text]}
        assert _canonical_json("σ²") == '"σ²"'  # non-ASCII stays raw UTF-8

    def test_numbers_have_17_significant_digits(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        run_cli(["rates", "--sigma-sq-grid", "1e-1:1e0:3", "--out", str(out)], capsys)
        _, _, rows = read_csv(out)
        # a third of a decade is irrational: needs all 17 digits
        assert len(rows[1][0].replace(".", "").replace("-", "").lstrip("0")) == 17


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "gkplat.cli", "rates",
                           "--sigma-sq-grid", "1e-2:1e0:3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("# manifest-sha256: ")


_IMPORT_PROBE = """
import contextlib, io, json, sys
loaded = {"import": ["scipy" in sys.modules, "numpy" in sys.modules]}
from gkplat.cli import main
loaded["import gkplat.cli"] = ["scipy" in sys.modules, "numpy" in sys.modules]
startup = {name: name in sys.modules for name in ("concurrent.futures", "logging")}
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0, args
    loaded[" ".join(args)] = ["scipy" in sys.modules, "numpy" in sys.modules]
print(json.dumps([loaded, startup]))
"""


def test_no_subcommand_loads_scipy():
    # the tests import numpy and scipy themselves, so this runs in a fresh
    # interpreter: the rate tables come first and load neither, and no
    # subcommand loads scipy
    calls = [["rates", "--sigma-sq-grid", "1e-2:1e0:3"],
             ["concat-rates", "--sigma-grid", "0.1:0.1:1"],
             ["classical-rates", "--snr-grid", "10:10:1"],
             ["lattice-info", "D4"],
             ["decode", "Zn:2", "0.4,-0.3"],
             ["simulate", "--lattice", "D4", "--sigma-sq", "0.2", "--trials", "10", "--seed", "1"],
             ["concat-sim", "--d", "3", "--sigma-sq", "0.05", "--trials", "100", "--seed", "1"]]
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(calls)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, startup = json.loads(proc.stdout)
    assert list(loaded) == ["import", "import gkplat.cli"] + [" ".join(a) for a in calls]
    # [scipy, numpy] after each step, in order
    assert list(loaded.values()) == [[False, False]] * 5 + [[False, True]] * 4
    # the stream threads need neither: both would add to every CLI start-up
    assert startup == {"concurrent.futures": False, "logging": False}


_MODULE_PROBE = """
import contextlib, io, json, sys
call = json.loads(sys.argv[1])
if call == ["import gkplat"]:
    import gkplat
else:
    from gkplat.cli import main
    if call != ["import gkplat.cli"]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(call) == 0, call
print(json.dumps([sorted(name for name in sys.modules if name.startswith("gkplat.")),
                  "numpy" in sys.modules]))
"""

_LATTICE_MODULES = ["catalog", "decoder", "exact", "symplectic_lattice"]

# each call and the gkplat modules, besides cli, that it loads
_MODULES_LOADED = [
    (["import gkplat"], []),
    (["import gkplat.cli"], []),
    (["--help"], []),
    (["rates", "--sigma-sq-grid", "1e-2:1e0:3"], ["rates"]),
    (["concat-rates", "--sigma-grid", "0.1:0.1:1"], ["dit_rates", "rates"]),
    (["classical-rates", "--snr-grid", "10:10:1"], ["classical_channel", "dit_rates", "rates"]),
    (["lattice-info", "D4"], _LATTICE_MODULES),
    (["decode", "Zn:2", "0.4,-0.3"], _LATTICE_MODULES),
    (["simulate", "--lattice", "D4", "--sigma-sq", "0.2", "--trials", "10", "--seed", "1"],
     _LATTICE_MODULES + ["channel_sim", "rates"]),
    (["concat-sim", "--d", "3", "--sigma-sq", "0.05", "--trials", "100", "--seed", "1"],
     ["channel_sim", "concatenated", "dit_rates", "rates"]),
]

# calls that load no numpy: besides import and --help, the three rate tables
_WITHOUT_NUMPY = ("import gkplat", "import gkplat.cli", "--help", "rates", "concat-rates",
                  "classical-rates")


@pytest.mark.parametrize("call,modules", _MODULES_LOADED,
                         ids=[call[0] for call, _ in _MODULES_LOADED])
def test_subcommand_loads_only_its_modules(call, modules):
    # each call pays only for the gkplat modules its handler runs, so it
    # runs in a fresh interpreter; `import gkplat`, `import gkplat.cli` and
    # `--help` load none, and they and the rate tables load no numpy
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, json.dumps(call)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    cli = [] if call == ["import gkplat"] else ["cli"]
    loaded, numpy_loaded = json.loads(proc.stdout)
    assert loaded == sorted(f"gkplat.{name}" for name in modules + cli)
    assert numpy_loaded == (call[0] not in _WITHOUT_NUMPY)


# The 13 acceptance commands and the first 16 hex digits of the sha256 of
# their stdout with GKPLAT_WORKERS=2: any change to a number, a label or
# the JSON and CSV layout shows here.
ACCEPTANCE_HASHES = [
    ("rates --sigma-sq-grid 1e-4:1e0:100", "3da8ec801f3ac206"),
    ("concat-rates --sigma-grid 0.0137:0.45:60", "5674073c0cc12bef"),
    ("concat-rates --sigma-grid 1e-3:0.0137:3", "d0469ee5f719a82c"),
    ("classical-rates --snr-grid 1:1e10:50", "9fb424702e689068"),
    ("simulate --lattice D4 --sigma-sq 0.2 --trials 2000 --seed 5 --criterion voronoi",
     "eabb4959b30f8300"),
    ("simulate --lattice D4 --sigma-sq 0.2 --trials 2000 --seed 5 --criterion coset",
     "2dc03dcf269501f1"),
    ("simulate --lattice grid_qudit:2 --sigma-sq 0.1 --trials 1000000 --seed 5 --criterion coset",
     "b930e5d7b276e191"),
    ("concat-sim --d 3 --sigma-sq 0.05 --trials 1000000 --seed 5", "776f996064fcd982"),
    ("concat-sim --d 10 --sigma-sq 0.05 --trials 1000000 --seed 5", "5c8c097e4edced18"),
    ("lattice-info D4", "ef8a4c13ceab6c3c"),
    ("lattice-info E8", "d619e39728fd401b"),
    ("decode E8 0.3,-0.2,0.1,0.7,-0.4,0.25,0.05,-0.6", "704dd7b8cbc95535"),
    ("decode Zn:2 0.4,-0.3", "eb82cae8373d90a4"),
]


@pytest.mark.parametrize("command,digest", ACCEPTANCE_HASHES,
                         ids=[command for command, _ in ACCEPTANCE_HASHES])
def test_acceptance_output_hash(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("GKPLAT_WORKERS", "2")
    code, out, err = run_cli(command.split(), capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


_RATE_TABLES = ACCEPTANCE_HASHES[:4]


@pytest.mark.parametrize("command,digest", _RATE_TABLES, ids=[c for c, _ in _RATE_TABLES])
def test_rate_table_bytes_do_not_depend_on_numpy_simd(command, digest):
    # the rate tables are computed without numpy, so turning off numpy's
    # AVX-512 kernels changes none of their bytes
    for cpu_features in [None, "AVX512_SPR AVX512_ICL X86_V4"]:
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        if cpu_features is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = cpu_features
        proc = subprocess.run([sys.executable, "-m", "gkplat.cli", *command.split()],
                              capture_output=True, text=True, timeout=120, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] == digest


_ULP_BOUND = 8  # each float cell of a rate table within 8 ulp of the reference


@pytest.mark.parametrize("command", [c for c, _ in _RATE_TABLES])
def test_rate_tables_match_the_numpy_scipy_reference(capsys, command):
    # tests/data holds these tables as a numpy and scipy evaluation printed
    # them (np.geomspace grids, scipy's erfc, numpy's log): every row keeps
    # its d_opt, and every float cell is within a few ulp
    reference = (DATA / (re.sub(r"[^\w.]+", "_", command) + ".csv")).read_text().splitlines()
    code, out, _ = run_cli(command.split(), capsys)
    assert code == 0
    lines = out.splitlines()[1:]
    assert lines[0] == reference[0] and len(lines) == len(reference)
    for got_row, want_row in zip(lines[1:], reference[1:]):
        for got, want in zip(got_row.split(","), want_row.split(",")):
            if want.lstrip("-").isdigit():  # d_opt, and integral zeros
                assert got == want
            else:
                got_f, want_f = float(got), float(want)
                assert abs(got_f - want_f) <= _ULP_BOUND * math.ulp(want_f), (got, want)


# Every subcommand with its help and, per action in parser order: option
# strings, dest, default, required, choices, metavar, help and the name of
# type. Structure rather than --help text, whose layout varies between
# Python versions.
_OUT = (["--out"], "out", None, False, None, None,
        "output file (default: stdout); files get a .manifest.json sidecar", None)
_HBAR = (["--hbar"], "hbar", 1.0, False, None, None, None, "float")
_D_MAX = (["--d-max"], "d_max", None, False, None, None, None, "int")
_MONTE_CARLO = [
    (["--sigma-sq"], "sigma_sq", None, True, None, None, None, "float"),
    (["--trials"], "trials", None, True, None, None, None, "int"),
    (["--seed"], "seed", None, True, None, None, None, "int"),
]
CLI_SURFACE = {
    "rates": ("quantum rate formulas on a sigma^2 grid", [
        (["--sigma-sq-grid"], "sigma_sq_grid", None, True, None, "START:STOP:POINTS",
         "log-spaced grid of sigma^2 values", "_grid"),
        _HBAR, _OUT]),
    "concat-rates": ("optimized concatenated-code rates on a sigma grid", [
        (["--sigma-grid"], "sigma_grid", None, True, None, "START:STOP:POINTS",
         "log-spaced grid of sigma (standard deviation) values", "_grid"),
        _HBAR, _D_MAX, _OUT]),
    "classical-rates": ("classical channel rates on an SNR grid (P = 1)", [
        (["--snr-grid"], "snr_grid", None, True, None, "START:STOP:POINTS", None, "_grid"),
        _D_MAX, _OUT]),
    "simulate": ("Monte Carlo a lattice code", [
        (["--lattice"], "lattice", None, True, None, None,
         "catalog name (e.g. grid_qudit:2, E8) or lattice JSON path", None),
        *_MONTE_CARLO,
        (["--criterion"], "criterion", "voronoi", False, ["voronoi", "coset"], None, None, None),
        _HBAR, _OUT]),
    "concat-sim": ("Monte Carlo a concatenated block code", [
        (["--code"], "code", "shor9", False, None, None, None, None),
        (["--d"], "d", None, True, None, None, None, "int"),
        *_MONTE_CARLO, _HBAR, _OUT]),
    "lattice-info": ("constants of a catalog lattice", [
        ([], "name", None, True, None, None, None, None),
        _OUT]),
    "decode": ("closest lattice point to a target", [
        ([], "lattice", None, True, None, None, None, None),
        ([], "point", None, True, None, None, "comma-separated coordinates", None),
        _OUT]),
}


def test_cli_surface():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}
    surface = {
        name: (helps[name], [
            (a.option_strings, a.dest, a.default, a.required, a.choices, a.metavar, a.help,
             getattr(a.type, "__name__", None))
            for a in p._actions if not isinstance(a, argparse._HelpAction)])
        for name, p in sub.choices.items()
    }
    assert list(surface.items()) == list(CLI_SURFACE.items())
