"""Command-line driver: verification suites, trajectories, energy ladders,
ensemble runs, and line-segment geometry, with deterministic CSV/JSON output.

Exit codes: 0 success, 1 check or domain failure, 2 usage error. All floats
are printed with 17 significant digits so identical configs give
byte-identical output.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import TextIO

import click

from . import energy as energy_mod
from . import ensemble as ensemble_mod
from . import schrodinger_field as sf
from . import vortex as vx
from . import wavecore as wc
from .wavecore import CParam, DomainError

TOLERANCE_ENV = "ZVORTEX_TOLERANCE"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_params(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read params file: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError("params file must hold a JSON object")
    return data


def _open_out(path: str | None) -> TextIO:
    return open(path, "w") if path else sys.stdout


def _default_tolerance(fallback: float) -> float:
    override = os.environ.get(TOLERANCE_ENV)
    return float(override) if override else fallback


@click.group()
def cli():
    """Numerical checks and simulators for complex-power vortex waves."""


_common = [
    click.option("--params", "params_path", type=click.Path(), default=None,
                 help="JSON parameter file; flags override file values."),
    click.option("--out", "out_path", type=click.Path(), default=None,
                 help="Output file (default: stdout)."),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                 default="csv", help="Output format."),
    click.option("--hbar", type=float, default=None),
    click.option("--mass", type=float, default=None),
    click.option("--seed", type=int, default=None),
]


def common_options(f):
    for opt in reversed(_common):
        f = opt(f)
    return f


def _physical(params: dict, hbar: float | None, mass: float | None) -> sf.PhysicalParams:
    return sf.PhysicalParams(
        hbar=hbar if hbar is not None else params.get("hbar", 1.0),
        mass=mass if mass is not None else params.get("mass", 1.0),
    )


# ---------------------------------------------------------------- verify


def _verify_checks(params: dict, phys: sf.PhysicalParams) -> list[dict]:
    grid = params.get("grid", {})
    z_values = grid.get("z", [0.5, 0.8, 1.0, 1.5, 2.0])
    x_values = grid.get("x", [-2.0, -1.0, 0.0, 1.0, 2.0])
    y_values = grid.get("y", [-2.0, -1.0, 0.0, 1.0, 2.0])
    if any(z <= 0.0 for z in z_values):
        raise click.UsageError("grid z values must be positive")
    h1 = params.get("h_first", 1e-5)
    h2 = params.get("h_second", 1e-4)
    perturb = params.get("perturb", 0.0)
    u_f = params.get("u_f", 2.5)

    checks = []

    cr_max = 0.0
    for z in z_values:
        for x in x_values:
            for y in y_values:
                r1, r2 = wc.check_cauchy_riemann(z, CParam(x, y), h1)
                cr_max = max(cr_max, r1, r2)
    cr_tol = _default_tolerance(params.get("cr_tolerance", 1e-8))
    checks.append({"name": "cauchy_riemann", "max_residual": cr_max,
                   "tolerance": cr_tol, "pass": cr_max <= cr_tol})

    lap_max = 0.0
    for z in z_values:
        for x in x_values:
            for y in y_values:
                ru, rv = wc.laplace_residual(z, CParam(x, y), h2)
                scale = z ** x
                lap_max = max(lap_max, ru / scale, rv / scale)
    lap_tol = params.get("laplace_tolerance", 1e-6)
    checks.append({"name": "laplace", "max_residual": lap_max,
                   "tolerance": lap_tol, "pass": lap_max <= lap_tol})

    ct_max = 0.0
    cf_max = 0.0
    for z in (0.7, 1.3, 2.0):
        for cx, cy, radius in ((1.0, 2.0, 1.0), (0.0, 0.0, 1.5)):
            center = CParam(cx, cy)
            res = wc.contour_integral(z, center, radius, 1024)
            max_psi = max(abs(z ** (cx + radius)), abs(z ** (cx - radius)))
            ct_max = max(ct_max, res.value.magnitude() / max_psi)
            a = CParam(cx + 0.3 * radius, cy - 0.2 * radius)
            rec = wc.cauchy_formula(z, a, center, radius, 2048)
            exact = wc.eval_psi(z, a)
            cf_max = max(cf_max, abs(rec.as_complex() - exact.as_complex())
                         / abs(exact.as_complex()))
    checks.append({"name": "contour_integral", "max_residual": ct_max,
                   "tolerance": 1e-10, "pass": ct_max <= 1e-10})
    checks.append({"name": "cauchy_formula", "max_residual": cf_max,
                   "tolerance": 1e-8, "pass": cf_max <= 1e-8})

    c12 = CParam(1.0, 2.0)
    pot = sf.Potential.fixed(u_f)
    r_grid = [0.2, 0.6, 1.0]
    t_grid = [0.0, 0.1, 0.3]
    fields = {
        "real_solution_R": (vx.real_solution(u_f, phys, sign=1), "real"),
        "one_vortex_I": (vx.imag_solution(vx.Branch.ONE_VORTEX, u_f, phys).to_field(),
                         "imag"),
        "zero_vortex_I": (vx.imag_solution(vx.Branch.ZERO_VORTEX, u_f, phys).to_field(),
                          "imag"),
    }
    res_tol = params.get("residual_tolerance", 1e-10)
    for name, (field, kind) in fields.items():
        if perturb:
            field = sf.ZField(value=(lambda f: lambda rx, ry, t:
                                     f(rx, ry, t) + perturb * t)(field.value))
        worst = 0.0
        for rx in r_grid:
            for ry in r_grid:
                for t in t_grid:
                    p = (rx, ry, t)
                    if kind == "real":
                        r = sf.real_residual(field, c12, phys, pot, p)
                    else:
                        r = sf.imag_residual(field, c12, phys, pot, p)
                    worst = max(worst, abs(r))
        tol = res_tol if field.has_analytic_partials() else 1e-5
        checks.append({"name": name, "max_residual": worst,
                       "tolerance": tol, "pass": worst <= tol})
    return checks


@cli.command("verify")
@common_options
def cmd_verify(params_path, out_path, fmt, hbar, mass, seed):
    """Run the full analyticity and residual property grid."""
    params = _load_params(params_path)
    phys = _physical(params, hbar, mass)
    checks = _verify_checks(params, phys)
    out = _open_out(out_path)
    try:
        if fmt == "json":
            out.write(json.dumps({"checks": checks,
                                  "all_pass": all(c["pass"] for c in checks)},
                                 sort_keys=True))
            out.write("\n")
        else:
            out.write("check,max_residual,tolerance,pass\n")
            for c in checks:
                out.write(f"{c['name']},{_fmt(c['max_residual'])},"
                          f"{_fmt(c['tolerance'])},{str(c['pass']).lower()}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if not all(c["pass"] for c in checks):
        raise SystemExit(1)


# ------------------------------------------------------------ trajectory


@cli.command("trajectory")
@common_options
def cmd_trajectory(params_path, out_path, fmt, hbar, mass, seed):
    """Sample the (u, v)-plane vortex trajectory."""
    params = _load_params(params_path)
    phys = _physical(params, hbar, mass)
    try:
        branch = vx.Branch(params.get("branch", "one_vortex"))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    s = params.get("s", 1.0)
    try:
        if "k" in params:
            sol = vx.VortexSolution(branch=branch, k=params["k"], s=s,
                                    beta=phys.beta)
        elif "u_f" in params:
            sol = vx.imag_solution(branch, params["u_f"], phys, s=s)
        else:
            raise click.UsageError("params must provide k or u_f")
        t_max = params.get("t_max", 1.0)
        steps = params.get("steps", 100)
        t_grid = [t_max * i / (steps - 1) for i in range(steps)] if steps > 1 \
            else ([0.0] if steps == 1 else [])
        points = vx.trajectory(sol, t_grid=t_grid)
        t_star = vx.collapse_time(sol)
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    out = _open_out(out_path)
    try:
        footer = {"collapse_time": None if math.isinf(t_star) else t_star,
                  "branch": sol.branch.value, "k": sol.k, "s": sol.s,
                  "beta": sol.beta}
        if fmt == "json":
            out.write(json.dumps({
                "points": [{"t": p.t, "u": p.u, "v": p.v, "radius": p.radius,
                            "gradient_radius": p.gradient_radius}
                           for p in points],
                **footer}, sort_keys=True))
            out.write("\n")
        else:
            out.write("t,u,v,radius,gradient_radius\n")
            for p in points:
                out.write(f"{_fmt(p.t)},{_fmt(p.u)},{_fmt(p.v)},"
                          f"{_fmt(p.radius)},{_fmt(p.gradient_radius)}\n")
            out.write("# " + json.dumps(footer, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------- ladder


@cli.command("ladder")
@common_options
def cmd_ladder(params_path, out_path, fmt, hbar, mass, seed):
    """Trace the quantized k along an energy schedule."""
    params = _load_params(params_path)
    phys = _physical(params, hbar, mass)
    if "eigenvalues" not in params or "schedule" not in params:
        raise click.UsageError("params must provide eigenvalues and schedule")
    try:
        ladder = energy_mod.EnergyLadder(tuple(params["eigenvalues"]))
        trace = energy_mod.k_jump_trace(ladder, params["schedule"], phys)
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    out = _open_out(out_path)
    try:
        if fmt == "json":
            out.write(json.dumps({"trace": [
                {"step": r.step, "E": r.E, "j": r.j, "k": r.k} for r in trace
            ]}, sort_keys=True))
            out.write("\n")
        else:
            out.write("step,E,j,k\n")
            for r in trace:
                out.write(f"{r.step},{_fmt(r.E)},{r.j},{_fmt(r.k)}\n")
    finally:
        if out is not sys.stdout:
            out.close()


# -------------------------------------------------------------- ensemble


@cli.command("ensemble")
@common_options
@click.option("--bits-out", type=click.Path(), default=None,
              help="Write the emitted bit stream to this file.")
def cmd_ensemble(params_path, out_path, fmt, hbar, mass, seed, bits_out):
    """Simulate a population of vortex pairs and report bit statistics."""
    params = _load_params(params_path)
    if seed is not None:
        params["seed"] = seed
    try:
        config = ensemble_mod.EnsembleConfig(**params)
        result = ensemble_mod.simulate(config)
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    except TypeError as exc:
        raise click.UsageError(f"bad ensemble config: {exc}")
    if bits_out:
        with open(bits_out, "w") as fh:
            fh.write(result.bit_stream)
            fh.write("\n")
    out = _open_out(out_path)
    try:
        out.write(result.report.to_json())
        out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()


# -------------------------------------------------------------- geometry


@cli.command("geometry")
@common_options
def cmd_geometry(params_path, out_path, fmt, hbar, mass, seed):
    """Sample the gradient-map segments, involution images, and squared ray."""
    params = _load_params(params_path)
    k = params.get("k", 1.0)
    n = params.get("n", 50)
    z_max = params.get("z_max", 4.0)
    z_min = params.get("z_min", 1.0 / z_max)
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise click.UsageError(f"n must be an integer >= 2, got {n!r}")
    rows: list[tuple[str, float, float, float, float]] = []
    try:
        one_z = [1.0 + (z_max - 1.0) * i / (n - 1) for i in range(n)]
        zero_z = [z_min + (1.0 - z_min) * i / (n - 1) for i in range(n)]
        # Rounding can put the formula's last point just above 1, off the
        # 0-vortex segment; the segment's end is exactly z = 1.
        zero_z[-1] = 1.0
        for z, p in zip(one_z, vx.gradient_map_segment(vx.Branch.ONE_VORTEX, k, one_z)):
            rows.append(("segment_one", z, *p))
        for z, p in zip(zero_z, vx.gradient_map_segment(vx.Branch.ZERO_VORTEX, k, zero_z)):
            rows.append(("segment_zero", z, *p))
        for z in one_z:
            if z > 1.0:
                img = vx.segment_involution((k * z, k * z, z), k)
                rows.append(("involution", z, *img))
        for z in zero_z:
            rows.append(("squared", z, *vx.squared_map(vx.Branch.ZERO_VORTEX, k, z)))
        for z in one_z:
            rows.append(("squared", z, *vx.squared_map(vx.Branch.ONE_VORTEX, k, z)))
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    out = _open_out(out_path)
    try:
        if fmt == "json":
            out.write(json.dumps({"points": [
                {"kind": kind, "z": z, "px": px, "py": py, "pz": pz}
                for kind, z, px, py, pz in rows]}, sort_keys=True))
            out.write("\n")
        else:
            out.write("kind,z,px,py,pz\n")
            for kind, z, px, py, pz in rows:
                out.write(f"{kind},{_fmt(z)},{_fmt(px)},{_fmt(py)},{_fmt(pz)}\n")
    finally:
        if out is not sys.stdout:
            out.close()


def main():
    cli()


if __name__ == "__main__":
    main()
