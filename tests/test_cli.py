import csv
import json
import math
import os
import subprocess
import sys

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import zvortex
from zvortex import cli as cli_mod
from zvortex import ensemble
from zvortex import vortex as vx
from zvortex import wavecore as wc
from zvortex.cli import cli


@pytest.fixture
def runner():
    return CliRunner()


def write_params(tmp_path, data, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli_process(*args, env=None):
    """Run the CLI in a fresh interpreter, so an uncaught exception would
    print its traceback."""
    src = os.path.dirname(os.path.dirname(zvortex.__file__))
    env = {**os.environ, **(env or {}), "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "zvortex.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=60)


def test_package_exports_no_names_and_loads_no_numpy():
    # Each name has one import path, its module; ``import zvortex`` alone
    # loads no submodule.
    src = os.path.dirname(os.path.dirname(zvortex.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, zvortex; print(sorted(n for n in "
         "vars(zvortex) if not n.startswith('_')), 'numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "[] False\n", proc.stdout + proc.stderr


class TestVerify:
    def test_default_grid_passes(self, runner):
        result = runner.invoke(cli, ["verify", "--format", "json"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["all_pass"]
        names = {c["name"] for c in payload["checks"]}
        assert {"cauchy_riemann", "laplace", "contour_integral",
                "cauchy_formula", "real_solution_R", "one_vortex_I",
                "zero_vortex_I"} <= names

    def test_one_contour_evaluation_per_contour(self, runner, monkeypatch):
        # The three contour z values share one call per contour and sum.
        calls = []
        for name in ("contour_integral", "cauchy_formula"):
            def counted(z, *args, _f=getattr(wc, name)):
                calls.append(len(z))
                return _f(z, *args)
            monkeypatch.setattr(wc, name, counted)
        result = runner.invoke(cli, ["verify"])
        assert result.exit_code == 0, result.output
        assert calls == [3, 3, 3, 3]

    def test_csv_output(self, runner):
        result = runner.invoke(cli, ["verify"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "check,max_residual,tolerance,pass"
        assert all(line.endswith(",true") for line in lines[1:])

    def test_zero_in_grid_is_usage_error(self, runner, tmp_path):
        params = write_params(tmp_path, {"grid": {"z": [0.0, 1.0]}})
        result = runner.invoke(cli, ["verify", "--params", params])
        assert result.exit_code == 2

    def test_perturbed_field_fails(self, runner, tmp_path):
        params = write_params(tmp_path, {"perturb": 0.1})
        result = runner.invoke(cli, ["verify", "--params", params,
                                     "--format", "json"])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert not payload["all_pass"]
        failing = [c for c in payload["checks"] if not c["pass"]]
        assert failing and all(c["max_residual"] > 0 for c in failing)

    def test_missing_params_file(self, runner):
        result = runner.invoke(cli, ["verify", "--params", "/nonexistent.json"])
        assert result.exit_code == 2


class TestTrajectory:
    def test_collapse_endpoint(self, runner, tmp_path):
        params = write_params(tmp_path, {
            "branch": "one_vortex", "k": 1.0, "s": 1.0,
            "t_max": 1.0 / 3.0, "steps": 100})
        result = runner.invoke(cli, ["trajectory", "--params", params])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "t,u,v,radius,gradient_radius"
        last_data = lines[-2].split(",")
        assert float(last_data[3]) == pytest.approx(1.0, rel=1e-12)
        footer = json.loads(lines[-1].lstrip("# "))
        assert footer["collapse_time"] == pytest.approx(1.0 / 3.0)

    def test_zero_vortex_radius_decreasing(self, runner, tmp_path):
        params = write_params(tmp_path, {
            "branch": "zero_vortex", "k": 1.0, "s": 1.0,
            "t_max": 2.0, "steps": 50})
        result = runner.invoke(cli, ["trajectory", "--params", params,
                                     "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        radii = [p["radius"] for p in payload["points"]]
        assert all(a > b for a, b in zip(radii, radii[1:]))
        assert payload["collapse_time"] is None

    def test_empty_grid_gives_header_only(self, runner, tmp_path):
        params = write_params(tmp_path, {"branch": "one_vortex", "k": 1.0,
                                         "s": 1.0, "steps": 0})
        result = runner.invoke(cli, ["trajectory", "--params", params])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "t,u,v,radius,gradient_radius"
        assert len(lines) == 2  # header + footer

    def test_degenerate_k_rejected(self, runner, tmp_path):
        params = write_params(tmp_path, {"branch": "one_vortex", "u_f": 0.0})
        result = runner.invoke(cli, ["trajectory", "--params", params])
        assert result.exit_code == 1

    def test_byte_identical_reruns(self, runner, tmp_path):
        params = write_params(tmp_path, {"branch": "one_vortex", "k": 1.0,
                                         "s": 1.0, "t_max": 1.0, "steps": 20})
        a = runner.invoke(cli, ["trajectory", "--params", params])
        b = runner.invoke(cli, ["trajectory", "--params", params])
        assert a.output == b.output


class TestLadder:
    def test_trace(self, runner, tmp_path):
        params = write_params(tmp_path, {
            "eigenvalues": [1.0, 3.0, 7.0],
            "schedule": [2.0, 2.5, 3.5, 8.0]})
        result = runner.invoke(cli, ["ladder", "--params", params])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "step,E,j,k"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[2]) for r in rows] == [0, 0, 1, 2]

    def test_below_ladder_fails(self, runner, tmp_path):
        params = write_params(tmp_path, {"eigenvalues": [1.0, 3.0],
                                         "schedule": [0.5]})
        result = runner.invoke(cli, ["ladder", "--params", params])
        assert result.exit_code == 1

    def test_missing_keys_usage_error(self, runner, tmp_path):
        params = write_params(tmp_path, {"eigenvalues": [1.0]})
        result = runner.invoke(cli, ["ladder", "--params", params])
        assert result.exit_code == 2


class TestEnsemble:
    def config(self):
        return {"pair_production_rate": 200.0, "ratio_zero_to_one": 1.0,
                "k": 1.0, "s": 1.0, "beta": 1.0, "horizon": 10.0,
                "epsilon": 1e-6, "seed": 3}

    def test_report_and_bits(self, runner, tmp_path):
        params = write_params(tmp_path, self.config())
        bits_path = tmp_path / "bits.txt"
        result = runner.invoke(cli, ["ensemble", "--params", params,
                                     "--bits-out", str(bits_path)])
        assert result.exit_code == 0
        report = json.loads(result.output)
        total = (report["emitted_zero"] + report["emitted_one"]
                 + report["live_zero"] + report["live_one"])
        assert total == report["produced_zero"] + report["produced_one"]
        stream = bits_path.read_text().strip()
        assert set(stream) <= {"0", "1"}
        assert len(stream) == report["emitted_zero"] + report["emitted_one"]

    def test_bits_file_is_the_stream(self, runner, tmp_path):
        params = write_params(tmp_path, self.config())
        bits_path = tmp_path / "bits.txt"
        result = runner.invoke(cli, ["ensemble", "--params", params,
                                     "--bits-out", str(bits_path)])
        assert result.exit_code == 0
        kept = ensemble.simulate(ensemble.EnsembleConfig(**self.config()))
        assert bits_path.read_bytes() == (kept.bit_stream + "\n").encode()
        assert json.loads(result.output) == kept.report.to_dict()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_ratio_defaults_to_the_papers(self, runner, tmp_path, fmt):
        config = {**self.config(), "k": 0.6, "s": 0.9}
        del config["ratio_zero_to_one"]
        given = {**config, "ratio_zero_to_one": vx.vortex_ratio(0.6, 0.9)}
        outputs = [runner.invoke(cli, ["ensemble", "--format", fmt, "--params",
                                       write_params(tmp_path, c, f"{i}.json")])
                   for i, c in enumerate((config, given))]
        assert [r.exit_code for r in outputs] == [0, 0]
        assert outputs[0].output == outputs[1].output

    def test_invalid_config_writes_no_bits_file(self, runner, tmp_path):
        params = write_params(tmp_path, {**self.config(), "epsilon": 0.9})
        bits_path = tmp_path / "bits.txt"
        result = runner.invoke(cli, ["ensemble", "--params", params,
                                     "--bits-out", str(bits_path)])
        assert result.exit_code == 1
        assert not bits_path.exists()

    def test_csv_round_trips_json(self, runner, tmp_path):
        params = write_params(tmp_path, self.config())
        as_json = runner.invoke(cli, ["ensemble", "--params", params,
                                      "--format", "json"])
        as_csv = runner.invoke(cli, ["ensemble", "--params", params,
                                     "--format", "csv"])
        assert as_json.exit_code == as_csv.exit_code == 0
        report = json.loads(as_json.output)
        lines = as_csv.output.splitlines()
        assert len(lines) == 2
        assert lines[0].split(",") == sorted(report)
        row = next(csv.DictReader(lines))
        for key, value in report.items():
            if isinstance(value, str):
                assert row[key] == value
            elif isinstance(value, int):
                assert row[key] == str(value)
            else:
                assert row[key] == f"{value:.17g}"
                assert float(row[key]) == value

    def test_default_format_is_json(self, runner, tmp_path):
        params = write_params(tmp_path, self.config())
        default = runner.invoke(cli, ["ensemble", "--params", params])
        as_json = runner.invoke(cli, ["ensemble", "--params", params,
                                      "--format", "json"])
        assert default.exit_code == 0
        assert default.output == as_json.output

    def test_seed_flag_overrides_file(self, runner, tmp_path):
        params = write_params(tmp_path, self.config())
        a = runner.invoke(cli, ["ensemble", "--params", params, "--seed", "11"])
        b = runner.invoke(cli, ["ensemble", "--params", params, "--seed", "12"])
        assert a.exit_code == b.exit_code == 0
        assert a.output != b.output

    def test_invalid_epsilon(self, runner, tmp_path):
        cfg = self.config()
        cfg["epsilon"] = 0.9
        params = write_params(tmp_path, cfg)
        result = runner.invoke(cli, ["ensemble", "--params", params])
        assert result.exit_code == 1

    def test_nan_horizon_is_domain_error(self, tmp_path):
        cfg = self.config()
        cfg["horizon"] = math.nan
        params = write_params(tmp_path, cfg)
        proc = run_cli_process("ensemble", "--params", params)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stderr.startswith("error: horizon must be positive and finite")

    @pytest.mark.parametrize("key,value", [("pair_production_rate", math.inf),
                                           ("k", math.nan)])
    def test_non_finite_values_fail_cleanly(self, runner, tmp_path, key, value):
        cfg = self.config()
        cfg[key] = value
        params = write_params(tmp_path, cfg)
        result = runner.invoke(cli, ["ensemble", "--params", params])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.output

    def test_unopenable_out_runs_no_simulation(self, tmp_path):
        # --out is opened before the simulation, so no bits file is written.
        params = write_params(tmp_path, self.config())
        bits_path = tmp_path / "bits.txt"
        proc = run_cli_process("ensemble", "--params", params,
                               "--bits-out", str(bits_path),
                               "--out", os.path.join(os.devnull, "r.json"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "cannot open output file" in proc.stderr
        assert not bits_path.exists()

    def test_no_one_bits_gives_null_ratio(self, runner, tmp_path):
        # No 1-bit is emitted, so the ratio is infinite: null in JSON, inf
        # in CSV and in the Python report.
        config = {**self.config(), "pair_production_rate": 50.0, "horizon": 0.2}
        params = write_params(tmp_path, config)
        as_json = runner.invoke(cli, ["ensemble", "--params", params])
        as_csv = runner.invoke(cli, ["ensemble", "--params", params,
                                     "--format", "csv"])
        assert as_json.exit_code == as_csv.exit_code == 0
        report = json.loads(as_json.output, parse_constant=pytest.fail)
        assert report["emitted_one"] == 0
        assert report["empirical_ratio"] is None
        assert next(csv.DictReader(as_csv.output.splitlines()))[
            "empirical_ratio"] == "inf"
        rep = ensemble.simulate(ensemble.EnsembleConfig(**config)).report
        assert rep.empirical_ratio == math.inf

    def test_unknown_key_usage_error(self, runner, tmp_path):
        cfg = self.config()
        cfg["bogus"] = 1
        params = write_params(tmp_path, cfg)
        result = runner.invoke(cli, ["ensemble", "--params", params])
        assert result.exit_code == 2


class TestGeometry:
    def test_rows_and_endpoints(self, runner, tmp_path):
        params = write_params(tmp_path, {"k": 1.0, "n": 5, "z_max": 2.0})
        result = runner.invoke(cli, ["geometry", "--params", params])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "kind,z,px,py,pz"
        rows = [line.split(",") for line in lines[1:]]
        seg_one = [r for r in rows if r[0] == "segment_one"]
        seg_zero = [r for r in rows if r[0] == "segment_zero"]
        assert [float(v) for v in seg_one[0][2:]] == [1.0, 1.0, 1.0]
        assert [float(v) for v in seg_zero[-1][2:]] == [-1.0, -1.0, 1.0]
        kinds = {r[0] for r in rows}
        assert kinds == {"segment_one", "segment_zero", "involution", "squared"}

    def test_involution_rows_on_zero_line(self, runner, tmp_path):
        params = write_params(tmp_path, {"k": 2.0, "n": 6, "z_max": 3.0})
        result = runner.invoke(cli, ["geometry", "--params", params,
                                     "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        for p in payload["points"]:
            if p["kind"] == "involution":
                assert p["px"] == pytest.approx(-2.0 * p["pz"], rel=1e-12)

    @pytest.mark.parametrize("n", [1, 0, -3, 2.5, 724.0, "5", True, None])
    def test_bad_n_is_usage_error(self, runner, tmp_path, n):
        params = write_params(tmp_path, {"k": 1.0, "n": n, "z_max": 4.0})
        result = runner.invoke(cli, ["geometry", "--params", params])
        assert result.exit_code == 2
        assert "n must be an integer >= 2" in result.output

    def test_n_one_prints_no_traceback(self, tmp_path):
        params = write_params(tmp_path, {"k": 1.0, "n": 1, "z_max": 4.0})
        proc = run_cli_process("geometry", "--params", params)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stdout + proc.stderr

    # With the default z_min = 1/z_max and n = 724, the grid formula rounds
    # the last 0-vortex point above 1 for z_max = 5.9003 and 3.4303. 5.9242
    # is the failing request as first reported, with z_max shown to four
    # places; at exactly 5.9242 the formula already gives 1.
    @pytest.mark.parametrize("z_max", [5.9242, 5.9003, 3.4303])
    def test_last_zero_point_is_exactly_one(self, runner, tmp_path, z_max):
        params = write_params(tmp_path, {"k": 0.5715, "n": 724,
                                         "z_max": z_max})
        result = runner.invoke(cli, ["geometry", "--params", params,
                                     "--format", "json"])
        assert result.exit_code == 0, result.output
        points = json.loads(result.output)["points"]
        seg_zero = [p for p in points if p["kind"] == "segment_zero"]
        assert len(seg_zero) == 724
        assert seg_zero[-1]["z"] == 1.0
        assert all(p["z"] <= 1.0 for p in seg_zero)

    def test_bad_range_fails(self, runner, tmp_path):
        params = write_params(tmp_path, {"k": 1.0, "n": 5, "z_max": 0.5})
        result = runner.invoke(cli, ["geometry", "--params", params])
        assert result.exit_code == 1


TRAJ = {"branch": "one_vortex", "k": 1.0, "s": 1.0, "t_max": 0.3, "steps": 10}
ENSEMBLE = {"pair_production_rate": 200.0, "ratio_zero_to_one": 1.0, "k": 1.0,
            "s": 1.0, "beta": 1.0, "horizon": 10.0, "seed": 3}


class TestBadInput:
    """Every bad input ends with exit 1 (domain) or 2 (usage), an error line
    and no traceback, also in a fresh interpreter."""

    @pytest.mark.parametrize("command,params,args,env,code", [
        pytest.param("trajectory", {**TRAJ, "steps": 2.5}, [], None, 2,
                     id="trajectory-steps-float"),
        pytest.param("trajectory", {**TRAJ, "steps": True}, [], None, 2,
                     id="trajectory-steps-bool"),
        pytest.param("trajectory", {**TRAJ, "steps": -1}, [], None, 2,
                     id="trajectory-steps-negative"),
        pytest.param("trajectory", {**TRAJ, "hbar": math.nan}, [], None, 2,
                     id="trajectory-hbar-nan-in-file"),
        pytest.param("trajectory", {**TRAJ, "steps": cli_mod.MAX_STEPS + 1},
                     [], None, 1, id="trajectory-steps-above-limit"),
        pytest.param("geometry", {"k": 1.0, "n": cli_mod.MAX_POINTS + 1}, [],
                     None, 1, id="geometry-n-above-limit"),
        pytest.param("trajectory", TRAJ, ["--hbar", "nan"], None, 1,
                     id="trajectory-hbar-nan-flag"),
        pytest.param("ladder", {"eigenvalues": [1.0, "abc", 7.0],
                                "schedule": [2.0]}, [], None, 2,
                     id="ladder-eigenvalue-text"),
        pytest.param("ladder", {"eigenvalues": [1.0, 3.0],
                                "schedule": [2.0, "abc"]}, [], None, 2,
                     id="ladder-schedule-text"),
        pytest.param("ladder", {"eigenvalues": [-2.0, 1.0],
                                "schedule": [-1.0]}, [], None, 1,
                     id="ladder-negative-potential"),
        pytest.param("ladder", {"eigenvalues": [1.0],
                                "schedule": [2.0] * (cli_mod.MAX_STEPS + 1)},
                     [], None, 1, id="ladder-schedule-above-limit"),
        pytest.param("ladder", {"eigenvalues": list(range(cli_mod.MAX_STEPS + 1)),
                                "schedule": [2.0]}, [], None, 1,
                     id="ladder-eigenvalues-above-limit"),
        pytest.param("verify", {}, [], {"ZVORTEX_TOLERANCE": "abc"}, 2,
                     id="verify-tolerance-env-text"),
        *(pytest.param("verify", {}, [], {"ZVORTEX_TOLERANCE": text}, 2,
                       id=f"verify-tolerance-env-{text}")
          for text in ("nan", "inf", "-inf")),
        pytest.param("verify", {}, [], {"ZVORTEX_TOLERANCE": "-1"}, 2,
                     id="verify-tolerance-env-negative"),
        *(pytest.param("verify", {key: -1}, [], None, 2, id=f"verify-{key}-negative")
          for key in ("cr_tolerance", "laplace_tolerance", "residual_tolerance")),
        *(pytest.param("verify", {"grid": {axis: []}}, [], None, 2,
                       id=f"verify-grid-{axis}-empty") for axis in "zxy"),
        # 10^12 points, which numpy would try to allocate.
        pytest.param("verify", {"grid": {axis: [1.0] * 10 ** 4 for axis in "zxy"}},
                     [], None, 1, id="verify-grid-above-limit"),
        pytest.param("ensemble", {**ENSEMBLE, "k": True}, [], None, 2,
                     id="ensemble-k-bool"),
        pytest.param("verify", {}, ["--hbar", "-1"], None, 1,
                     id="verify-hbar-negative-flag"),
        pytest.param("verify", {"h_second": -279448}, [], None, 1,
                     id="verify-h_second-negative"),
        pytest.param("verify", {"h_second": 0}, [], None, 1,
                     id="verify-h_second-zero"),
        pytest.param("geometry", {"k": "abc", "n": 5}, [], None, 2,
                     id="geometry-k-text"),
        pytest.param("geometry", {"k": math.nan, "n": 5}, [], None, 2,
                     id="geometry-k-nan"),
        pytest.param("geometry", {"k": 1.0, "n": 5, "z_max": 0}, [], None, 2,
                     id="geometry-z_max-zero"),
        pytest.param("geometry", {"k": 1.0, "n": 5, "z_max": "abc"}, [], None, 2,
                     id="geometry-z_max-text"),
        pytest.param("geometry", {"k": 1.0, "n": 5, "z_min": math.inf}, [],
                     None, 2, id="geometry-z_min-inf"),
        pytest.param("geometry", {"k": 1e200, "n": 3, "z_max": 1e200}, [], None, 1,
                     id="geometry-point-overflow"),
        pytest.param("geometry", {"k": 1e200, "n": 3, "z_max": 1e200},
                     ["--format", "json"], None, 1, id="geometry-point-overflow-json"),
        pytest.param("trajectory", {"k": 1000.0, "s": 1.0, "t_max": 0.1, "steps": 3},
                     [], None, 1, id="trajectory-radius-overflow"),
        # Past the float range every command exits 1: psi overflows at x 1100;
        # at x 1023 psi is finite and the Laplace stencil's sum overflows.
        pytest.param("verify", {"grid": {"z": [2.0], "x": [1100.0]}}, [], None, 1,
                     id="verify-psi-overflow"),
        pytest.param("verify", {"grid": {"z": [2.0], "x": [1023.0]}}, [], None, 1,
                     id="verify-stencil-overflow"),
        pytest.param("verify", {"u_f": 1e300}, [], None, 1, id="verify-u_f-huge"),
        pytest.param("ladder", {"eigenvalues": [1.0, 3.0], "schedule": [2.0],
                                "hbar": 1e-200}, [], None, 1, id="ladder-hbar-tiny"),
        pytest.param("ensemble", {**ENSEMBLE, "k": 1e-200}, [], None, 1,
                     id="ensemble-k-tiny"),
        pytest.param("ensemble", {**ENSEMBLE, "digest_bits": -3}, [], None, 1,
                     id="ensemble-digest_bits-negative"),
        pytest.param("ensemble", {**ENSEMBLE, "digest_bits": 2.5}, [], None, 2,
                     id="ensemble-digest_bits-float"),
        pytest.param("ensemble", {**ENSEMBLE, "pair_production_rate": 1e200,
                                  "horizon": 1e200}, [], None, 1,
                     id="ensemble-expected-events-overflow"),
        # A path under a file cannot be opened.
        pytest.param("trajectory", TRAJ, ["--out", os.path.join(os.devnull, "t.csv")],
                     None, 2, id="trajectory-out-unopenable"),
        pytest.param("ensemble", ENSEMBLE,
                     ["--bits-out", os.path.join(os.devnull, "b.txt")], None, 2,
                     id="ensemble-bits-out-unopenable"),
    ])
    def test_fresh_interpreter(self, tmp_path, command, params, args, env, code):
        path = write_params(tmp_path, params)
        proc = run_cli_process(command, "--params", path, *args, env=env)
        output = proc.stdout + proc.stderr
        assert proc.returncode == code, output
        assert "Traceback" not in output and "Warning" not in output
        assert any(line.lower().startswith("error:")
                   for line in proc.stderr.splitlines()), output

    @pytest.mark.parametrize("command,raw", [
        pytest.param("verify", b"\xff\xfe{}", id="verify-not-utf8"),
        pytest.param("ensemble", b"[" * 10 ** 5 + b"]" * 10 ** 5,
                     id="ensemble-nested-too-deep"),
        pytest.param("geometry", b'{"k": ' + b"1" * 5000 + b"}",
                     id="geometry-integer-too-long"),
    ])
    def test_unreadable_params_file(self, tmp_path, command, raw):
        path = tmp_path / "params.json"
        path.write_bytes(raw)
        proc = run_cli_process(command, "--params", str(path))
        output = proc.stdout + proc.stderr
        assert proc.returncode == 2, output
        assert "Traceback" not in output
        assert any(line.lower().startswith("error: cannot read params file:")
                   for line in proc.stderr.splitlines()), output

    @pytest.mark.parametrize("command,params,key", [
        pytest.param("trajectory", {"k": 1.0, "stpes": 5}, "stpes",
                     id="trajectory"),
        pytest.param("geometry", {"zmax": 9}, "zmax", id="geometry"),
        pytest.param("ladder", {"eigenvalues": [1.0], "schedule": [1.0],
                                "eigenvalue": [2.0]}, "eigenvalue", id="ladder"),
        pytest.param("verify", {"cr_tol": 1e-3}, "cr_tol", id="verify"),
        pytest.param("verify", {"grid": {"z": [1.0], "w": [1.0]}}, "w",
                     id="verify-grid"),
    ])
    def test_unknown_key_is_a_usage_error(self, runner, tmp_path, command,
                                          params, key):
        result = runner.invoke(cli, [command, "--params",
                                     write_params(tmp_path, params)])
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines()
                  if line.startswith("Error:")]
        assert len(errors) == 1 and f"unknown key {key!r}" in errors[0]

    def test_ensemble_gap_sum_overflow_is_one_error_line(self, tmp_path):
        # The arrival times pass the float range before the horizon.
        path = write_params(tmp_path, {**ENSEMBLE, "pair_production_rate": 1e-302,
                                       "horizon": 1.79e308, "seed": 1})
        proc = run_cli_process("ensemble", "--params", path)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: a value computed by ensemble overflows the float range; "
            "it is not finite"]

    @pytest.mark.parametrize("value", ["1", None])
    def test_ensemble_non_number_names_the_field(self, runner, tmp_path, value):
        params = write_params(tmp_path, {**ENSEMBLE, "pair_production_rate": value})
        result = runner.invoke(cli, ["ensemble", "--params", params])
        assert result.exit_code == 2
        assert (f"bad ensemble config: pair_production_rate must be a number, "
                f"got {value!r}") in result.output


class TestTolerance:
    """A tolerance is a finite number >= 0; zero is a valid tolerance."""

    @pytest.mark.parametrize("key", ["cr_tolerance", "laplace_tolerance",
                                     "residual_tolerance"])
    def test_zero_accepted_and_negative_rejected(self, key):
        assert cli_mod._tolerance({key: 0}, key, 1.0) == 0
        with pytest.raises(click.UsageError, match=f"{key} must be >= 0"):
            cli_mod._tolerance({key: -1e-300}, key, 1.0)

    def test_zero_tolerance_is_a_failed_check(self, runner, tmp_path):
        # A residual above a zero tolerance fails the check (exit 1); the
        # input is not a usage error.
        path = write_params(tmp_path, {"cr_tolerance": 0})
        result = runner.invoke(cli, ["verify", "--params", path])
        assert result.exit_code == 1
        assert result.output.splitlines()[1].endswith(",0,false")

    def test_environment_overrides(self, monkeypatch):
        env = cli_mod.TOLERANCE_ENV
        monkeypatch.setenv(env, "0")
        assert cli_mod._tolerance({}, "cr_tolerance", 1e-8, env) == 0.0
        monkeypatch.setenv(env, "-1")
        with pytest.raises(click.UsageError, match=f"{env} must be >= 0"):
            cli_mod._tolerance({}, "cr_tolerance", 1e-8, env)
        # Only the check the variable is named for reads it.
        assert cli_mod._tolerance({}, "laplace_tolerance", 1e-6) == 1e-6


class TestSizeLimits:
    @pytest.mark.parametrize("key,limit", [("steps", cli_mod.MAX_STEPS),
                                           ("n", cli_mod.MAX_POINTS)])
    def test_limit_accepted_and_one_past_rejected(self, key, limit):
        assert cli_mod._count({key: limit}, key, 1, 0, limit) == limit
        with pytest.raises(wc.DomainError, match=f"at most {limit}"):
            cli_mod._count({key: limit + 1}, key, 1, 0, limit)

    def test_verify_grid_limit_accepted_and_one_past_rejected(self):
        limit = cli_mod.MAX_GRID_POINTS
        assert limit == 100 ** 3
        axis = [-2.0 + 0.04 * i for i in range(100)]
        grid = {"z": [0.5 + 0.015 * i for i in range(100)], "x": axis, "y": axis}
        phys = cli_mod._physical({}, None, None)
        assert all(c["pass"] for c in cli_mod._verify_checks({"grid": grid}, phys))
        past = {"z": [1.0], "x": [0.0], "y": [0.0] * (limit + 1)}
        with pytest.raises(wc.DomainError,
                           match=f"at most {limit} points, got {limit + 1}$"):
            cli_mod._verify_checks({"grid": past}, phys)


    @pytest.mark.parametrize("key", ["eigenvalues", "schedule"])
    def test_ladder_list_limit_accepted_and_one_past_rejected(self, key):
        limit = cli_mod.MAX_STEPS
        values = [1.0] * limit
        assert cli_mod._numbers({key: values}, key, maximum=limit) == values
        with pytest.raises(wc.DomainError, match=f"^{key} must hold at most {limit} "
                                                 f"values, got {limit + 1}$"):
            cli_mod._numbers({key: values + [1.0]}, key, maximum=limit)

    @pytest.mark.parametrize("params,key", [
        # Not numbers and not increasing: the length is checked before the
        # values are scanned and before the ladder is built.
        ({"eigenvalues": ["abc"] * (cli_mod.MAX_STEPS + 1), "schedule": [1.0]},
         "eigenvalues"),
        ({"eigenvalues": [3.0, 1.0], "schedule": ["abc"] * (cli_mod.MAX_STEPS + 1)},
         "schedule"),
    ])
    def test_ladder_one_past_the_limit_is_one_error_line(self, runner, tmp_path,
                                                         params, key):
        path = write_params(tmp_path, params)
        result = runner.invoke(cli, ["ladder", "--params", path])
        assert result.exit_code == 1
        limit = cli_mod.MAX_STEPS
        assert result.output == (f"error: {key} must hold at most {limit} values, "
                                 f"got {limit + 1}\n")

    def test_ladder_at_the_limit(self, runner, tmp_path):
        limit = cli_mod.MAX_STEPS
        schedule = [1.0 + 9.0 * i / limit for i in range(limit)]
        path = write_params(tmp_path, {"eigenvalues": [float(e) for e in range(1, 11)],
                                       "schedule": schedule})
        out = tmp_path / "trace.csv"
        result = runner.invoke(cli, ["ladder", "--params", path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        with open(out) as fh:
            lines = fh.readlines()
        assert len(lines) == limit + 1
        assert lines[-1] == f"{limit - 1},{schedule[-1]:.17g},8,{math.sqrt(1.5):.17g}\n"


class TestFlags:
    """A flag is accepted only by the commands that use it."""

    @pytest.mark.parametrize("command,flag,value", [
        ("verify", "--seed", "3"),
        ("trajectory", "--seed", "3"),
        ("ladder", "--seed", "3"),
        ("ensemble", "--hbar", "2.0"),
        ("ensemble", "--mass", "2.0"),
        ("geometry", "--hbar", "2.0"),
        ("geometry", "--mass", "2.0"),
        ("geometry", "--seed", "3"),
    ])
    def test_unused_flag_is_usage_error(self, runner, command, flag, value):
        result = runner.invoke(cli, [command, flag, value])
        assert result.exit_code == 2
        assert "No such option" in result.output and flag in result.output


# ------------------------------------------------------- params-file fuzz

# Values a params file may hold where a number, list or object is expected.
# Where a count or a list feeds the work, the good values are small, so an
# example does at most about 1e4 units (steps, points, events).
BAD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 0, -1, -2.5]),
    st.floats(-1e3, -1e-3), st.integers(-10 ** 30, -1),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)
_unit = st.floats(0.5, 2.0)
_small_lists = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=1, max_size=3)
GOOD_VALUES = {
    "verify": {
        "hbar": _unit, "mass": _unit, "u_f": st.floats(0.1, 5.0),
        "grid": st.fixed_dictionaries({}, optional={
            "z": _small_lists(0.5, 2.0), "x": _small_lists(-2.0, 2.0),
            "y": _small_lists(-2.0, 2.0)}),
        "h_first": st.floats(1e-6, 1e-3), "h_second": st.floats(1e-5, 1e-2),
        "perturb": st.floats(-1.0, 1.0), "cr_tolerance": st.floats(1e-12, 1.0),
        "laplace_tolerance": st.floats(1e-12, 1.0),
        "residual_tolerance": st.floats(1e-12, 1.0),
    },
    "trajectory": {
        "hbar": _unit, "mass": _unit,
        "branch": st.sampled_from(["one_vortex", "zero_vortex"]),
        "k": st.floats(0.01, 3.0), "u_f": st.floats(0.01, 5.0),
        "s": st.floats(-3.0, 3.0), "t_max": st.floats(0.0, 1.0),
        "steps": st.integers(0, 200),
    },
    "ladder": {
        "hbar": _unit, "mass": _unit,
        "eigenvalues": st.lists(st.floats(0.1, 50.0), min_size=1, max_size=5),
        "schedule": st.lists(st.floats(0.0, 60.0), max_size=5),
    },
    "ensemble": {
        "pair_production_rate": st.floats(0.1, 100.0),
        "ratio_zero_to_one": st.floats(0.0, 5.0), "k": st.floats(0.1, 3.0),
        "s": st.floats(0.1, 3.0), "beta": st.floats(0.1, 3.0),
        "horizon": st.floats(0.1, 100.0), "epsilon": st.floats(1e-9, 0.5),
        "seed": st.integers(0, 100), "digest_bits": st.integers(0, 100),
    },
    "geometry": {
        "k": st.floats(0.1, 3.0), "n": st.integers(2, 500),
        "z_max": st.floats(0.5, 10.0), "z_min": st.floats(0.01, 1.0),
    },
}


# Keys that set the amount of work (or are not numbers) keep their good
# values; any other key may instead hold magnitudes from 1e-300 to 1e300, of
# either sign, in lists no longer than the good ones.
WORK_KEYS = {"branch", "steps", "n", "pair_production_rate", "horizon", "seed",
             "digest_bits"}
MAGNITUDE = st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                      st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0))
_magnitude_lists = st.lists(MAGNITUDE, min_size=1, max_size=3)
MAGNITUDES = {
    "eigenvalues": _magnitude_lists, "schedule": _magnitude_lists,
    "grid": st.fixed_dictionaries({}, optional={
        "z": _magnitude_lists, "x": _magnitude_lists, "y": _magnitude_lists}),
}

_MISSING = object()


@st.composite
def command_and_params(draw):
    """A command and a params file for it: every key of the command with a
    good value, up to two keys that do not set the work given magnitudes
    from 1e-300 to 1e300, then up to three keys (an unknown one among them)
    set to a bad value or dropped. One file in ten is not an object at all."""
    command = draw(st.sampled_from(sorted(GOOD_VALUES)))
    good = GOOD_VALUES[command]
    params = {key: draw(value) for key, value in good.items()}
    for key in draw(st.lists(st.sampled_from(sorted(set(good) - WORK_KEYS)),
                             max_size=2, unique=True)):
        params[key] = draw(MAGNITUDES.get(key, MAGNITUDE))
    for key in draw(st.lists(st.sampled_from([*good, "unknown_key"]),
                             max_size=3, unique=True)):
        value = draw(st.one_of(st.just(_MISSING), BAD_VALUES))
        if value is _MISSING:
            params.pop(key, None)
        else:
            params[key] = value
    if draw(st.integers(0, 9)) == 0:
        params = draw(BAD_VALUES)
    return command, params


class TestParamsFuzz:
    """Whatever a params file holds, each command ends with exit 0, 1 or 2
    and raises nothing but SystemExit."""

    @given(case=command_and_params(), fmt=st.sampled_from(["csv", "json"]))
    @settings(max_examples=400, deadline=None)
    def test_exit_code_and_no_exception(self, tmp_path_factory, case, fmt):
        command, params = case
        path = tmp_path_factory.getbasetemp() / "fuzz-params.json"
        path.write_text(json.dumps(params))
        result = CliRunner().invoke(cli, [command, "--params", str(path),
                                          "--format", fmt])
        assert result.exit_code in (0, 1, 2), (params, result.output)
        assert result.exception is None or isinstance(
            result.exception, SystemExit), (params, result.exception)
