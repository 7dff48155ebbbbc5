"""Command-line driver: verification suites, trajectories, energy ladders,
ensemble runs, and line-segment geometry, with deterministic CSV/JSON output.

Exit codes: 0 success, 1 check or domain failure, 2 usage error. CSV prints
floats with %.17g and JSON prints their repr, as json does; both read back
as the same double, so identical configs give byte-identical output.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from typing import Iterable, Iterator

import click
import numpy as np

from . import energy as energy_mod
from . import ensemble as ensemble_mod
from . import schrodinger_field as sf
from . import vortex as vx
from . import wavecore as wc
from .tables import format_rows
from .wavecore import CParam, DomainError

TOLERANCE_ENV = "ZVORTEX_TOLERANCE"
# The most trajectory or ladder steps, ladder levels and geometry points a
# command accepts: any output is then at most about 150 MB (a trajectory
# writes 100-150 bytes a step, a ladder 45-80, the geometry 450-650 a
# point). Memory holds the columns; the text is written block by block.
MAX_STEPS = 10 ** 6
MAX_POINTS = 2 * 10 ** 5
# The most (z, x, y) points a verify grid holds: 10^6 take about 0.7 s and
# 170 MB, since every check's stencil holds a few arrays of the grid's size.
MAX_GRID_POINTS = 10 ** 6


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_params(path: str | None, keys: Iterable[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    # Bytes that are not UTF-8, bad JSON and an integer past Python's digit
    # limit are ValueErrors; JSON nested too deep is a RecursionError.
    except (OSError, ValueError, RecursionError) as exc:
        raise click.UsageError(f"cannot read params file: {exc}")
    return _json_object(data, keys, "params file")


def _json_object(value, keys: Iterable[str], what: str) -> dict:
    """``value``, which must be a dict with no key outside ``keys``."""
    if not isinstance(value, dict):
        raise click.UsageError(f"{what} must be a JSON object")
    if unknown := sorted(set(value) - set(keys)):
        raise click.UsageError(
            f"{what} has an unknown key {unknown[0]!r}, not one of {sorted(keys)}")
    return value


def _open_output(path: str, mode: str):
    """``open(path, mode)``, with an unopenable path as a usage error."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise click.UsageError(f"cannot open output file: {exc}")


def _emit(path: str | None, *parts: Iterable[str]) -> None:
    """Write the strings of each iterable in turn, as they are produced, to
    the file at ``path``, or to stdout."""
    with (_open_output(path, "w") if path else contextlib.nullcontext(sys.stdout)) as fh:
        for part in parts:
            fh.writelines(part)


def _emit_table(out_path: str | None, fmt: str, key: str, sections: list[dict],
                doc: dict | None = None) -> None:
    """Write the rows of each section in turn. A section maps each field
    name, in CSV order, to a column, or to a str without ``%`` that every
    row of the section holds; every section has the same names.

    CSV is a header of the names, the rows with each column as %.17g and
    ``doc``, if given, as a ``# {json}`` footer. JSON is
    ``json.dumps({**doc, key: rows}, sort_keys=True)`` and a newline, with
    each column as %r."""
    csv = fmt == "csv"

    def rows(section: dict) -> Iterator[str]:
        fields = section.items() if csv else sorted(section.items())
        columns = [v for _, v in fields if not isinstance(v, str)]
        if csv:
            return format_rows(",".join(v if isinstance(v, str) else "%.17g"
                                        for _, v in fields) + "\n", columns)
        return format_rows("{" + ", ".join(
            f"{json.dumps(name)}: " + (json.dumps(v) if isinstance(v, str) else "%r")
            for name, v in fields) + "}", columns, ", ")

    blocks = (block for section in sections for block in rows(section))
    if csv:
        _emit(out_path, [",".join(sections[0]) + "\n"], blocks,
              [] if doc is None else ["# " + json.dumps(doc, sort_keys=True) + "\n"])
        return
    head, tail = json.dumps({**(doc or {}), key: []}, sort_keys=True).split(f'"{key}": []')
    _emit(out_path, [head + f'"{key}": ['],
          (t for i, block in enumerate(blocks) for t in ((", ", block) if i else (block,))),
          ["]" + tail + "\n"])


def _finite(value) -> bool:
    """True for a number, not a bool, that is finite as a float."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _number(params: dict, key: str, default: float | None = None) -> float:
    """``params[key]`` (or the default), which must be a finite number."""
    value = params.get(key, default)
    if not _finite(value):
        raise click.UsageError(f"{key} must be a finite number, got {value!r}")
    return value


def _numbers(params: dict, key: str, default: list | None = None,
             maximum: float = math.inf) -> list:
    """``params[key]`` (or the default), which must be a list of finite
    numbers. A list longer than maximum is a domain error."""
    values = params.get(key, default)
    if isinstance(values, list) and len(values) > maximum:
        raise DomainError(f"{key} must hold at most {maximum} values, got {len(values)}")
    if not isinstance(values, list) or not all(_finite(v) for v in values):
        raise click.UsageError(f"{key} must be a list of finite numbers")
    return values


def _count(params: dict, key: str, default: int, minimum: int,
           maximum: int) -> int:
    """``params[key]`` (or the default), which must be an integer >= minimum.
    A count above maximum is a domain error."""
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise click.UsageError(
            f"{key} must be an integer >= {minimum}, got {value!r}")
    if value > maximum:
        raise DomainError(f"{key} must be at most {maximum}, got {value}")
    return value


def _tolerance(params: dict, key: str, default: float, env: str = "") -> float:
    """``params[key]`` (or the default), or the value of the environment
    variable ``env`` when that is set and not empty: a finite number >= 0."""
    value = _number(params, key, default)
    if override := env and os.environ.get(env):
        key, value = env, override
        with contextlib.suppress(ValueError):
            value = float(override)
        if not _finite(value):
            raise click.UsageError(f"{env} must be a finite number, got {override!r}")
    if value < 0.0:
        raise click.UsageError(f"{key} must be >= 0, got {value!r}")
    return value


class _Command(click.Command):
    """Runs the command under ``wavecore.float_range``, so that a value past
    the float range is a DomainError naming the command, and turns any
    DomainError into an ``error:`` line on stderr and exit code 1."""

    def invoke(self, ctx):
        try:
            with wc.float_range(f"a value computed by {self.name}"):
                return super().invoke(ctx)
        except DomainError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(1)


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
def cli():
    """Numerical checks and simulators for complex-power vortex waves."""


def _options(*options):
    """Decorator that adds the given click options in order."""
    def decorate(f):
        for opt in reversed(options):
            f = opt(f)
        return f
    return decorate


def _io_options(default_format: str):
    """--params, --out and --format, which every command takes."""
    return (
        click.option("--params", "params_path", type=click.Path(), default=None,
                     help="JSON parameter file; flags override file values."),
        click.option("--out", "out_path", type=click.Path(), default=None,
                     help="Output file (default: stdout)."),
        click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                     default=default_format, help="Output format."),
    )


# Only the commands that use hbar and mass (or the seed) accept the flag.
_hbar_mass = (
    click.option("--hbar", type=float, default=None, help="Overrides hbar."),
    click.option("--mass", type=float, default=None, help="Overrides mass."),
)
_seed = click.option("--seed", type=int, default=None, help="Overrides seed.")


def _physical(params: dict, hbar: float | None, mass: float | None) -> sf.PhysicalParams:
    return sf.PhysicalParams(
        hbar=hbar if hbar is not None else _number(params, "hbar", 1.0),
        mass=mass if mass is not None else _number(params, "mass", 1.0),
    )


# ---------------------------------------------------------------- verify


def _verify_checks(params: dict, phys: sf.PhysicalParams) -> list[dict]:
    grid = _json_object(params.get("grid", {}), "zxy", "grid")
    z_values = _numbers(grid, "z", [0.5, 0.8, 1.0, 1.5, 2.0])
    x_values = _numbers(grid, "x", [-2.0, -1.0, 0.0, 1.0, 2.0])
    y_values = _numbers(grid, "y", [-2.0, -1.0, 0.0, 1.0, 2.0])
    if not (z_values and x_values and y_values):
        raise click.UsageError("grid z, x and y must each hold a value")
    points = len(z_values) * len(x_values) * len(y_values)
    if points > MAX_GRID_POINTS:
        raise DomainError(
            f"grid must hold at most {MAX_GRID_POINTS} points, got {points}")
    if any(z <= 0.0 for z in z_values):
        raise click.UsageError("grid z values must be positive")
    h1 = _number(params, "h_first", wc.STEP_FIRST)
    h2 = _number(params, "h_second", wc.STEP_SECOND)
    perturb = _number(params, "perturb", 0.0)
    u_f = _number(params, "u_f", 2.5)
    cr_tol = _tolerance(params, "cr_tolerance", 1e-8, TOLERANCE_ENV)
    lap_tol = _tolerance(params, "laplace_tolerance", 1e-6)
    res_tol = _tolerance(params, "residual_tolerance", 1e-10)

    checks = []

    def check(name: str, worst: float, tol: float) -> None:
        checks.append({"name": name, "max_residual": worst,
                       "tolerance": tol, "pass": worst <= tol})

    z, x, y = np.meshgrid(z_values, x_values, y_values, indexing="ij")
    c = CParam(x, y)
    check("cauchy_riemann",
          float(np.max(wc.check_cauchy_riemann(z, c, h1), initial=0.0)), cr_tol)
    check("laplace", float(np.max(np.divide(wc.laplace_residual(z, c, h2), z ** x),
                                  initial=0.0)), lap_tol)

    ct_max = 0.0
    cf_max = 0.0
    zs = np.array([0.7, 1.3, 2.0])
    for cx, cy, radius in ((1.0, 2.0, 1.0), (0.0, 0.0, 1.5)):
        # One evaluation per contour for all three z; the rest is per z.
        center = CParam(cx, cy)
        a = CParam(cx + 0.3 * radius, cy - 0.2 * radius)
        res = wc.contour_integral(zs, center, radius)
        rec = wc.cauchy_formula(zs, a, center, radius)
        for i, z in enumerate(zs.tolist()):
            max_psi = max(abs(z ** (cx + radius)), abs(z ** (cx - radius)))
            ct_max = max(ct_max, math.hypot(res.u[i], res.v[i]) / max_psi)
            exact = wc.eval_psi(z, a)
            cf_max = max(cf_max, abs(complex(rec.u[i], rec.v[i]) - exact.as_complex())
                         / abs(exact.as_complex()))
    check("contour_integral", ct_max, 1e-10)
    check("cauchy_formula", cf_max, 1e-8)

    c12 = CParam(vx.C_X, vx.C_Y)
    r_grid = [0.2, 0.6, 1.0]
    t_grid = [0.0, 0.1, 0.3]
    fields = {
        "real_solution_R": (vx.real_solution(u_f, phys, sign=1), "max_abs_real"),
        "one_vortex_I": (vx.imag_solution(vx.Branch.ONE_VORTEX, u_f, phys).to_field(),
                         "max_abs_imag"),
        "zero_vortex_I": (vx.imag_solution(vx.Branch.ZERO_VORTEX, u_f, phys).to_field(),
                          "max_abs_imag"),
    }
    for name, (field, part) in fields.items():
        if perturb:
            field = sf.sum_field(field, sf.ZField(value=lambda rx, ry, t: perturb * t))
        report = sf.evaluate_grid(field, c12, phys, u_f, r_grid, r_grid, t_grid)
        check(name, getattr(report, part),
              res_tol if field.derivatives is not None else 1e-5)
    return checks


@cli.command("verify")
@_options(*_io_options("csv"), *_hbar_mass)
def cmd_verify(params_path, out_path, fmt, hbar, mass):
    """Run the full analyticity and residual property grid."""
    params = _load_params(params_path, (
        "hbar", "mass", "grid", "h_first", "h_second", "perturb", "u_f",
        "cr_tolerance", "laplace_tolerance", "residual_tolerance"))
    checks = _verify_checks(params, _physical(params, hbar, mass))
    all_pass = all(c["pass"] for c in checks)
    if fmt == "json":
        _emit(out_path, [json.dumps({"checks": checks, "all_pass": all_pass},
                                    sort_keys=True), "\n"])
    else:
        _emit(out_path, ["check,max_residual,tolerance,pass\n"],
              (f"{c['name']},{_fmt(c['max_residual'])},"
               f"{_fmt(c['tolerance'])},{str(c['pass']).lower()}\n"
               for c in checks))
    if not all_pass:
        raise SystemExit(1)


# ------------------------------------------------------------ trajectory


@cli.command("trajectory")
@_options(*_io_options("csv"), *_hbar_mass)
def cmd_trajectory(params_path, out_path, fmt, hbar, mass):
    """Sample the (u, v)-plane vortex trajectory.

    ``steps`` (default 100) is at most MAX_STEPS, 10^6."""
    params = _load_params(params_path, ("hbar", "mass", "branch", "k",
                                        "u_f", "s", "t_max", "steps"))
    phys = _physical(params, hbar, mass)
    try:
        branch = vx.Branch(params.get("branch", "one_vortex"))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    s = _number(params, "s", 1.0)
    if "k" in params:
        sol = vx.VortexSolution(branch=branch, k=_number(params, "k"), s=s,
                                beta=phys.beta)
    elif "u_f" in params:
        sol = vx.imag_solution(branch, _number(params, "u_f"), phys, s=s)
    else:
        raise click.UsageError("params must provide k or u_f")
    t_max = _number(params, "t_max", 1.0)
    steps = _count(params, "steps", 100, minimum=0, maximum=MAX_STEPS)
    t_grid = t_max * np.arange(steps) / (steps - 1) if steps > 1 else np.zeros(steps)
    traj = vx.trajectory(sol, t_grid=t_grid)
    t_star = vx.collapse_time(sol)
    footer = {"collapse_time": None if math.isinf(t_star) else t_star,
              "branch": sol.branch.value, "k": sol.k, "s": sol.s,
              "beta": sol.beta}
    _emit_table(out_path, fmt, "points", [vars(traj)], footer)


# ---------------------------------------------------------------- ladder


@cli.command("ladder")
@_options(*_io_options("csv"), *_hbar_mass)
def cmd_ladder(params_path, out_path, fmt, hbar, mass):
    """Trace the quantized k along an energy schedule.

    ``eigenvalues`` and ``schedule`` each hold at most MAX_STEPS, 10^6,
    values."""
    params = _load_params(params_path, ("hbar", "mass", "eigenvalues", "schedule"))
    phys = _physical(params, hbar, mass)
    eigenvalues = _numbers(params, "eigenvalues", maximum=MAX_STEPS)
    schedule = _numbers(params, "schedule", maximum=MAX_STEPS)
    trace = energy_mod.k_jump_trace(energy_mod.EnergyLadder(tuple(eigenvalues)),
                                    schedule, phys)
    _emit_table(out_path, fmt, "trace", [vars(trace)])


# -------------------------------------------------------------- ensemble


@cli.command("ensemble")
@_options(*_io_options("json"), _seed,
          click.option("--bits-out", type=click.Path(), default=None,
                       help="Write the emitted bit stream to this file."))
def cmd_ensemble(params_path, out_path, fmt, seed, bits_out):
    """Simulate a population of vortex pairs and report bit statistics.

    ``ratio_zero_to_one``, the 0- to 1-vortex production ratio, defaults to
    the paper's e^{4ks} - e^{2ks}. The report is JSON by default; ``--format
    csv`` gives a header row and one value row, with the report's keys in
    sorted order."""
    params = _load_params(params_path, ensemble_mod.EnsembleConfig.__dataclass_fields__)
    if seed is not None:
        params["seed"] = seed
    try:
        config = ensemble_mod.EnsembleConfig(**params)
    except TypeError as exc:
        raise click.UsageError(f"bad ensemble config: {exc}")

    def report() -> Iterator[str]:
        # Runs once _emit has opened --out. The bits are written as they
        # are merged; without --bits-out they are discarded.
        with _open_output(bits_out or os.devnull, "wb") as bits:
            rep = ensemble_mod.simulate(config, bits).report
            bits.write(b"\n")
        if fmt == "json":
            yield rep.to_json() + "\n"
        else:
            row = rep.to_dict()
            keys = sorted(row)
            yield ",".join(keys) + "\n" + ",".join(
                _fmt(row[k]) if isinstance(row[k], float) else str(row[k])
                for k in keys) + "\n"

    _emit(out_path, report())


# -------------------------------------------------------------- geometry


@cli.command("geometry")
@_options(*_io_options("csv"))
def cmd_geometry(params_path, out_path, fmt):
    """Sample the gradient-map segments, involution images, and squared ray.

    ``n`` (default 50) is at most MAX_POINTS, 2 x 10^5."""
    params = _load_params(params_path, ("k", "n", "z_max", "z_min"))
    k = _number(params, "k", 1.0)
    n = _count(params, "n", 50, minimum=2, maximum=MAX_POINTS)
    z_max = _number(params, "z_max", 4.0)
    if z_max <= 0.0:
        raise click.UsageError(f"z_max must be positive, got {z_max!r}")
    z_min = _number(params, "z_min", 1.0 / z_max)
    i = np.arange(n)
    one_z = 1.0 + (z_max - 1.0) * i / (n - 1)
    zero_z = z_min + (1.0 - z_min) * i / (n - 1)
    # Rounding can put the formula's last point just above 1, off the
    # 0-vortex segment; the segment's end is exactly z = 1.
    zero_z[-1] = 1.0
    one, zero = vx.Branch.ONE_VORTEX, vx.Branch.ZERO_VORTEX
    inv_z = one_z[one_z > 1.0]
    # One vortex call per section of rows, in output order, all made before
    # anything is written. A segment's pz holds its z values: z itself goes
    # in its place, so that the writer formats the column once.
    sections = [{"kind": kind, "z": z, **dict(zip(("px", "py", "pz"), p))}
                for kind, z, p in (
        ("segment_one", one_z, (*vx.gradient_map_segment(one, k, one_z)[:2], one_z)),
        ("segment_zero", zero_z,
         (*vx.gradient_map_segment(zero, k, zero_z)[:2], zero_z)),
        ("involution", inv_z, vx.segment_involution((k * inv_z, k * inv_z, inv_z), k)),
        ("squared", zero_z, vx.squared_map(zero, k, zero_z)),
        ("squared", one_z, vx.squared_map(one, k, one_z)),
    )]
    _emit_table(out_path, fmt, "points", sections)


def main():
    cli()


if __name__ == "__main__":
    main()
