"""Golden outputs: every command, in both formats, on fixed params, writes
the same bytes on stdout and through ``--out``, and they hash to the sha256
recorded before the unused API was deleted and the output was streamed.

The hashes are of floating-point text, so they hold for a numpy and libm
that round as the recording host's did (Python 3.11, numpy 2.4, glibc).
"""

import hashlib
import json
import tracemalloc

import pytest
from click.testing import CliRunner

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
    ("ensemble", "csv"): "b0f5d20dc387b9cba9594d393e5d70823c812fbea508cebcf8bbf3d33110cd3c",
    ("ensemble", "json"): "57c92ceb7853902d431b18d4ecdc23bbd6854987c6653e9f85e7d6079b94ac7a",
    ("geometry", "csv"): "2eb555c92c4a5dc5b305c1ec5b49a5c8668ef2b69dcac66e1f999962e16f4750",
    ("geometry", "json"): "bbc214e184f3b51aa7c7dcd7adbe542d8fc89c4fe037ed362ba5c2e6fe0daaaa",
    ("ladder", "csv"): "38b3442f5e7877c3df1b9c761480602770ded94cef131fbbe9d95d6b1b157e4e",
    ("ladder", "json"): "62dc51952aea7c5b4187d7a281760f67923e677a898fba9423f9f65d72997beb",
    ("trajectory", "csv"): "87a5709a9a14319e0c52d9d8eded7d6bd281dd765d8524de3392f09cf04793e3",
    ("trajectory", "json"): "b02fefb21d3c3637936b5ea95de16a0b0a05f2e5733ab2b6ab1f2891f7a3e4e7",
    ("verify", "csv"): "c4afeab712b735a5077dc1448e38d80aa5e1dfa6d1b9aaa417adb463712d02eb",
    ("verify", "json"): "3632516868a11d5d150376655b773f8f332e562fe95482964cac3764185154a0",
    "bits": "3d3d286b84bb6a98cbb528be2cc5b7e814e1ca5561502cf591abce1771302fa7",
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
