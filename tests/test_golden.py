"""Golden outputs: every command, in both formats, on fixed params, writes
the same bytes on stdout and through ``--out``, and they hash to the sha256
recorded before the unused API was deleted and the output was streamed.

The hashes are of floating-point text, so they hold for a numpy and libm
that round as the recording host's did (Python 3.11, numpy 2.4, glibc), at
any of numpy's x86-64 SIMD dispatch targets.
The ensemble hashes are of the argsort oracle's output in
``tests/test_ensemble.py``.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from click.testing import CliRunner

import zvortex
from zvortex.cli import cli
from zvortex.tables import BLOCK_ROWS

LADDER = {"eigenvalues": [1.0, 3.0, 7.0, 15.0],
          "schedule": [1.0, 2.5, 3.0, 8.0, 14.999, 15.0, 40.0, 2.0]}
ENSEMBLE = {"pair_production_rate": 200.0, "ratio_zero_to_one": 1.5, "k": 1.0,
            "s": 1.0, "beta": 1.0, "horizon": 10.0, "seed": 3}
# More than BLOCK_ROWS + 1 rows, so that several blocks are written (each
# geometry section is formatted on its own).
TRAJ = {"branch": "one_vortex", "k": 1.0, "s": 1.0, "t_max": 0.3, "steps": 5000}
GEOMETRY = {"k": 1.3, "n": 5000, "z_max": 4.0}
assert TRAJ["steps"] > BLOCK_ROWS + 1 and GEOMETRY["n"] > BLOCK_ROWS + 1

CASES = {
    "verify": None,
    "trajectory": TRAJ,
    "ladder": LADDER,
    "ensemble": ENSEMBLE,
    "geometry": GEOMETRY,
}

GOLDEN = {
    ("ensemble", "csv"): "ddfe4778b31cbb7ad875c2d098d520d9f89f9e2e2c7697138f8fe53d5f0a817c",
    ("ensemble", "json"): "70f3dc142e3f08367a4df6c56915c04d8839a1901f0fc158d5668bfcc083e456",
    ("geometry", "csv"): "2eb555c92c4a5dc5b305c1ec5b49a5c8668ef2b69dcac66e1f999962e16f4750",
    ("geometry", "json"): "bbc214e184f3b51aa7c7dcd7adbe542d8fc89c4fe037ed362ba5c2e6fe0daaaa",
    ("ladder", "csv"): "38b3442f5e7877c3df1b9c761480602770ded94cef131fbbe9d95d6b1b157e4e",
    ("ladder", "json"): "62dc51952aea7c5b4187d7a281760f67923e677a898fba9423f9f65d72997beb",
    ("trajectory", "csv"): "87a5709a9a14319e0c52d9d8eded7d6bd281dd765d8524de3392f09cf04793e3",
    ("trajectory", "json"): "b02fefb21d3c3637936b5ea95de16a0b0a05f2e5733ab2b6ab1f2891f7a3e4e7",
    ("verify", "csv"): "3f12a23fad4c5f88f01ece0df07048c025fbb008b0deb345ebae831abd7989a4",
    ("verify", "json"): "106bebf2adefadcf7b18b2595ba05ed48592426e1fc808c2d0869d5087c7d101",
    "bits": "38da82b993495ac220ff179d5d567c8d14d74bfc6272fb0087a8157307041fd4",
}


def write_params(tmp_path, data):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(data))
    return str(path)


def run(tmp_path, command, params, fmt, out=None):
    args = [command, "--format", fmt]
    if params is not None:
        args += ["--params", write_params(tmp_path, params)]
    if out is not None:
        args += ["--out", str(out)]
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(CASES))
def test_same_bytes_on_stdout_and_out(tmp_path, command, fmt):
    stdout = run(tmp_path, command, CASES[command], fmt)
    out = tmp_path / "out.txt"
    assert run(tmp_path, command, CASES[command], fmt, out) == b""
    assert out.read_bytes() == stdout
    assert hashlib.sha256(stdout).hexdigest() == GOLDEN[command, fmt]


def test_bits_file(tmp_path):
    bits = tmp_path / "bits.txt"
    result = CliRunner().invoke(cli, ["ensemble", "--params",
                                      write_params(tmp_path, ENSEMBLE),
                                      "--bits-out", str(bits)])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(bits.read_bytes()).hexdigest() == GOLDEN["bits"]


def test_ensemble_bytes_at_baseline_simd_dispatch(tmp_path):
    """The verify and ensemble outputs and the bits hash the same when
    numpy runs its baseline code: a child process disables every SIMD
    dispatch target the host has (on x86-64 with numpy 2.4, X86_V3, X86_V4
    and the AVX-512 groups) and checks that none is left enabled."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    targets = [name for name in umath.__cpu_dispatch__
               if umath.__cpu_features__.get(name)]
    if not targets:
        pytest.skip("the host has no SIMD dispatch target to disable")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
           "PYTHONPATH": os.path.dirname(os.path.dirname(zvortex.__file__))}
    child = ("from numpy._core._multiarray_umath import __cpu_dispatch__, "
             "__cpu_features__ as f\n"
             "assert not any(f.get(name) for name in __cpu_dispatch__)\n"
             "from zvortex.cli import main\n"
             "main()\n")
    params, bits = write_params(tmp_path, ENSEMBLE), tmp_path / "bits.txt"
    cases = [("verify", fmt, []) for fmt in ("csv", "json")] + [
        ("ensemble", "csv", ["--params", params]),
        ("ensemble", "json", ["--params", params, "--bits-out", str(bits)])]
    for command, fmt, extra in cases:
        proc = subprocess.run(
            [sys.executable, "-c", child, command, "--format", fmt, *extra],
            capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[command, fmt]
    assert hashlib.sha256(bits.read_bytes()).hexdigest() == GOLDEN["bits"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_geometry_is_written_as_it_is_formatted(tmp_path, fmt):
    """Written with --out, a 5e4-point geometry (about 250,000 rows) peaks
    below half its output size in Python allocations: the blocks are
    written as they are formatted, not gathered first."""
    out = tmp_path / "geometry.txt"
    params = write_params(tmp_path, {"k": 1.0, "n": 50_000, "z_max": 4.0})
    tracemalloc.start()
    try:
        result = CliRunner().invoke(cli, ["geometry", "--format", fmt,
                                          "--params", params, "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert peak < out.stat().st_size / 2, (peak, out.stat().st_size)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trajectory_holds_its_columns_only(tmp_path, fmt):
    """Written with --out, a 2e5-step trajectory peaks below 80 bytes a step
    in Python allocations: its float columns, with no list of the time grid
    and no full-size list for math.exp, cos and sin."""
    steps = 200_000
    out = tmp_path / "trajectory.txt"
    params = write_params(tmp_path, {**TRAJ, "steps": steps})
    tracemalloc.start()
    try:
        result = CliRunner().invoke(cli, ["trajectory", "--format", fmt,
                                          "--params", params, "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert peak < 80 * steps, peak / steps
