#!/usr/bin/env python3
"""Self-test of the output checkers: each accepts a real output of the
program and rejects a corrupted copy of it.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Prints one line per case and exits
non-zero if any checker accepts a corrupted output or rejects a good one.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from click.testing import CliRunner  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from zvortex import cli as cli_mod  # noqa: E402
from zvortex import ensemble as en  # noqa: E402
from zvortex import schrodinger_field as sf  # noqa: E402
from zvortex import wavecore as wc  # noqa: E402

failures = 0


def case(name: str, problems: list[str], expect_ok: bool) -> None:
    global failures
    good = (not problems) == expect_ok
    failures += not good
    verdict = "accepts" if not problems else f"rejects ({problems[0][:90]})"
    print(f"{'PASS' if good else 'FAIL'}  {name}: {verdict}")


def edit_csv(text: str, row: int, column: str, fn) -> str:
    """Apply ``fn`` to one cell of a CSV output (row 0 is the first data row)."""
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(column)
    cells[i] = fn(cells[i])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def scale(factor: float):
    return lambda cell: repr(float(cell) * factor)


def cli_output(tmp: Path, kind: str, params: dict, fmt: str = "csv",
               extra=()) -> str:
    p, out = tmp / f"{kind}.json", tmp / f"{kind}.{fmt}"
    p.write_text(json.dumps(params))
    result = CliRunner().invoke(cli_mod.cli, [kind, "--params", str(p), "--out", str(out),
                                              "--format", fmt, *extra])
    assert result.exit_code == 0, (kind, result.exception)
    return out.read_text()


def main() -> int:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="selftest-") as d:
        tmp = Path(d)

        # verify
        text = cli_output(tmp, "verify", {"u_f": 2.5})
        case("verify", checks.check_verify(text), True)
        case("verify, a check marked failed",
             checks.check_verify(text.replace("true", "false", 1)), False)
        case("verify, a residual above tolerance",
             checks.check_verify(edit_csv(text, 1, "max_residual", lambda _: "1.0")), False)

        # eval_psi against mpmath
        samples = [(0.7, 1.0, 2.0), (1.9, -1.5, 0.25)]
        values = [wc.eval_psi(z, wc.CParam(x, y)).as_complex() for z, x, y in samples]
        case("eval_psi", checks.check_eval_psi(samples, values), True)
        case("eval_psi, one value off by 1e-12 relative",
             checks.check_eval_psi(samples, [values[0] * (1 + 1e-12), values[1]]), False)

        # grid CSV, analytic and finite-difference partials
        axes = [[0.1, 0.4, 0.9], [0.2, 0.5], [0.0, 0.1, 0.3]]
        phys, u_f = sf.PhysicalParams(0.9, 1.1), 2.0
        field = {"name": "exp", "a_x": 0.7, "a_y": -0.4, "a_t": 0.5}
        texts = {}
        for label, zf in (("analytic", sf.exponential_field(0.7, -0.4, 0.5)),
                          ("fd", sf.ZField(value=sf.exponential_field(0.7, -0.4, 0.5).value))):
            rep = sf.evaluate_grid(zf, wc.CParam(1.0, 2.0), phys, sf.Potential.fixed(u_f),
                                   *axes)
            path = tmp / f"grid_{label}.csv"
            with open(path, "w") as fh:
                rep.write_csv(fh)
            texts[label] = path.read_text()
        args = (axes, field, workloads.C12, phys.hbar, phys.mass, u_f)
        case("grid, analytic", checks.check_grid_csv(texts["analytic"], *args, 1e-12), True)
        case("grid, finite differences", checks.check_grid_csv(texts["fd"], *args, 1e-6), True)
        case("grid, a residual off by 1e-9 relative", checks.check_grid_csv(
            edit_csv(texts["analytic"], 5, "residual_imag", scale(1 + 1e-9)), *args, 1e-12),
            False)
        case("grid, finite differences judged at the analytic tolerance",
             checks.check_grid_csv(texts["fd"], *args, 1e-12), False)
        case("grid, a row missing", checks.check_grid_csv(
            "\n".join(texts["analytic"].splitlines()[:-1]), *args, 1e-12), False)
        case("grid, a point moved", checks.check_grid_csv(
            edit_csv(texts["analytic"], 3, "t", lambda _: "0.2"), *args, 1e-12), False)
        vortex = {"name": "vortex", "a_x": 1.0, "a_y": 1.0, "a_t": -1.0}
        case("grid, |I| bound", checks.check_grid_csv(
            texts["analytic"], axes, vortex, workloads.C12, 1.0, 1.0, 2.5, 1.0, 1e-10), False)

        # ensemble report and bit file
        cfg = workloads.ensemble_config(np.random.default_rng(3), 2e5, 0.35, 3.0)
        result = en.simulate(en.EnsembleConfig(**cfg))
        rep = result.report.to_dict()
        bits = (result.bit_stream + "\n").encode()
        case("ensemble", checks.check_ensemble(cfg, rep, bits), True)
        i = bits.index(b"1", 100)
        flipped = bits[:i] + b"0" + bits[i + 1:]
        case("ensemble, one bit flipped", checks.check_ensemble(cfg, rep, flipped), False)
        case("ensemble, live count off by one",
             checks.check_ensemble(cfg, {**rep, "live_one": rep["live_one"] + 1}, bits), False)
        digest = rep["bit_sequence_digest"]
        wrong = digest[:10] + "10"[int(digest[10])] + digest[11:]
        case("ensemble, digest not the prefix", checks.check_ensemble(
            cfg, {**rep, "bit_sequence_digest": wrong}, bits), False)
        swapped = {**rep, "emitted_zero": rep["emitted_one"], "emitted_one": rep["emitted_zero"],
                   "live_zero": rep["produced_zero"] - rep["emitted_one"],
                   "live_one": rep["produced_one"] - rep["emitted_zero"]}
        case("ensemble, branch counts swapped",
             checks.check_ensemble(cfg, swapped, None), False)
        case("ensemble, ratio not the paper's", checks.check_ensemble(
            {**cfg, "ratio_zero_to_one": 1.0}, rep, bits), False)

        # trajectory, ladder, geometry
        traj = {"branch": "one_vortex", "k": 1.3, "s": 0.8, "t_max": 0.5, "steps": 50,
                "hbar": 0.9, "mass": 1.1}
        for fmt in ("csv", "json"):
            text = cli_output(tmp, "trajectory", traj, fmt)
            case(f"trajectory {fmt}", checks.check_trajectory(traj, text, fmt), True)
        text = cli_output(tmp, "trajectory", traj)
        case("trajectory, radius off by 1e-9 relative", checks.check_trajectory(
            traj, edit_csv(text, 7, "radius", scale(1 + 1e-9)), "csv"), False)
        case("trajectory, u off by 1e-9 relative", checks.check_trajectory(
            traj, edit_csv(text, 7, "u", scale(1 + 1e-9)), "csv"), False)
        case("trajectory, wrong collapse time", checks.check_trajectory(
            traj, text.replace('"collapse_time": ', '"collapse_time": 1', 1), "csv"), False)
        zero = {**traj, "branch": "zero_vortex", "u_f": 2.0}
        del zero["k"]
        case("trajectory, 0-vortex from u_f", checks.check_trajectory(
            zero, cli_output(tmp, "trajectory", zero), "csv"), True)

        ladder = {"eigenvalues": [1.0, 3.0, 7.0, 12.0], "schedule": [1.0, 2.5, 3.0, 8.0, 20.0],
                  "hbar": 1.2, "mass": 0.8}
        text = cli_output(tmp, "ladder", ladder)
        case("ladder", checks.check_ladder(ladder, text, "csv"), True)
        case("ladder, wrong level index", checks.check_ladder(
            ladder, edit_csv(text, 2, "j", lambda j: str(int(j) - 1)), "csv"), False)
        case("ladder, k off by 1e-9 relative", checks.check_ladder(
            ladder, edit_csv(text, 3, "k", scale(1 + 1e-9)), "csv"), False)

        geo = {"k": 1.5, "n": 20, "z_max": 3.0, "z_min": 0.2}
        for fmt in ("csv", "json"):
            text = cli_output(tmp, "geometry", geo, fmt)
            case(f"geometry {fmt}", checks.check_geometry(geo, text, fmt), True)
        text = cli_output(tmp, "geometry", geo)
        case("geometry, a row missing", checks.check_geometry(
            geo, "\n".join(text.splitlines()[:-1]), "csv"), False)
        case("geometry, involution image off", checks.check_geometry(
            geo, edit_csv(text, 2 * geo["n"] + 3, "px", scale(1 + 1e-9)), "csv"), False)

        # cli_mix: a well-formed request that writes nothing
        mix = workloads.CliMix(1, str(tmp))
        mix.run_round()
        case("cli_mix round", mix.check(), True)
        Path(mix.outputs[0]).unlink()
        case("cli_mix, an output file missing", mix.check(), False)

        # malformed-request verdict
        class Fake:
            def __init__(self, code, exc, err):
                self.exit_code, self.exception, self.stderr, self.output = code, exc, err, ""
        case("malformed, usage error", [] if workloads.malformed_ok(
            Fake(2, SystemExit(2), "Usage: x\n\nError: bad steps\n")) else ["rejected"], True)
        case("malformed, exception escaped", [] if workloads.malformed_ok(
            Fake(1, ZeroDivisionError("x"), "")) else ["rejected"], False)
        case("malformed, exit 0", [] if workloads.malformed_ok(
            Fake(0, None, "")) else ["rejected"], False)
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
