"""Byte-equality of the column-wise table writers with the row-by-row writers
they replaced.

The row-by-row ``GridReport.write_csv``, the per-point ``trajectory`` and
the scalar gradient-map functions with ``cmd_geometry``'s row loop are kept
here verbatim as oracles. Only the names differ, and each oracle's output
lines are returned as one string instead of being written.
"""

import io
import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from zvortex import (
    Branch,
    CParam,
    DomainError,
    PhysicalParams,
    Potential,
    VortexSolution,
    collapse_time,
    constant_field,
    evaluate_grid,
    exponential_field,
    imag_solution,
    trajectory,
)
from zvortex import vortex as vx
from zvortex.cli import cli
from zvortex.tables import BLOCK_ROWS, format_rows


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ------------------------------------------------- oracle: grid residual CSV


def oracle_write_csv(self, out) -> None:
    out.write("r_x,r_y,t,residual_real,residual_imag\n")
    # Row by row: formatting the whole report into one string fragments
    # the heap and grows a long-running process.
    row = "{0[0]:.17g},{0[1]:.17g},{0[2]:.17g},{1:.17g},{2:.17g}\n".format
    out.writelines(map(row, self.points.tolist(), self.residual_real.tolist(),
                       self.residual_imag.tolist()))


# ----------------------------------------------------- oracle: trajectory


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    u: float
    v: float
    radius: float
    gradient_radius: float


def oracle_trajectory(sol: VortexSolution, s: float | None = None,
                      t_grid: Iterable[float] = ()) -> list[TrajectoryPoint]:
    """Sample the (u, v)-plane motion of the vortex at the given times."""
    if s is not None and s != sol.s:
        sol = replace(sol, s=s)
    points = []
    for t in t_grid:
        z = sol.z(t)
        phase = vx.C_Y * sol.log_z(t)
        points.append(TrajectoryPoint(
            t=t,
            u=z * math.cos(phase),
            v=z * math.sin(phase),
            radius=z,
            gradient_radius=sol.k * z * math.sqrt(2.0),
        ))
    return points


def oracle_trajectory_text(sol, t_max, steps, fmt):
    """``zvortex trajectory`` output, or None where the oracle raises or
    prints a value that is not finite."""
    t_grid = [t_max * i / (steps - 1) for i in range(steps)] if steps > 1 \
        else ([0.0] if steps == 1 else [])
    try:
        points = oracle_trajectory(sol, t_grid=t_grid)
    except (OverflowError, ValueError):
        return None
    if not all(math.isfinite(x) for p in points
               for x in (p.t, p.u, p.v, p.radius, p.gradient_radius)):
        return None
    t_star = collapse_time(sol)
    footer = {"collapse_time": None if math.isinf(t_star) else t_star,
              "branch": sol.branch.value, "k": sol.k, "s": sol.s,
              "beta": sol.beta}
    if fmt == "json":
        return "".join((json.dumps({
            "points": [{"t": p.t, "u": p.u, "v": p.v, "radius": p.radius,
                        "gradient_radius": p.gradient_radius}
                       for p in points],
            **footer}, sort_keys=True), "\n"))
    else:
        return "".join(("t,u,v,radius,gradient_radius\n",
              *(f"{_fmt(p.t)},{_fmt(p.u)},{_fmt(p.v)},"
                f"{_fmt(p.radius)},{_fmt(p.gradient_radius)}\n" for p in points),
              "# " + json.dumps(footer, sort_keys=True) + "\n"))


# ------------------------------------------------------- oracle: geometry

Point3 = tuple[float, float, float]


def _check_branch_z(branch: Branch, z: float) -> None:
    if z <= 0.0:
        raise DomainError(f"z must be positive, got {z}")
    if branch is Branch.ONE_VORTEX and z < 1.0:
        raise DomainError("1-vortex segment lives on z >= 1")
    if branch is Branch.ZERO_VORTEX and z > 1.0:
        raise DomainError("0-vortex segment lives on 0 < z <= 1")


def oracle_gradient_map_segment(branch: Branch, k: float,
                                z_values: Sequence[float]) -> list[Point3]:
    if k <= 0.0:
        raise DomainError(f"k must be positive, got {k}")
    points = []
    for z in z_values:
        _check_branch_z(branch, z)
        g = branch.sign * k * z
        points.append((g, g, z))
    return points


def oracle_segment_involution(point: Point3, k: float) -> Point3:
    _, _, z = point
    if z <= 1.0:
        raise DomainError("involution input must have z > 1")
    return (-k / z, -k / z, 1.0 / z)


def oracle_squared_map(branch: Branch, k: float, z: float) -> Point3:
    _check_branch_z(branch, z)
    q = k * k * z * z
    return (q, q, z * z)


def oracle_geometry_text(k, n, z_max, z_min, fmt):
    """``zvortex geometry`` output, or None where the oracle raises or
    prints a value that is not finite."""
    rows: list[tuple[str, float, float, float, float]] = []
    one_z = [1.0 + (z_max - 1.0) * i / (n - 1) for i in range(n)]
    zero_z = [z_min + (1.0 - z_min) * i / (n - 1) for i in range(n)]
    # Rounding can put the formula's last point just above 1, off the
    # 0-vortex segment; the segment's end is exactly z = 1.
    zero_z[-1] = 1.0
    try:
        for z, p in zip(one_z, oracle_gradient_map_segment(Branch.ONE_VORTEX, k, one_z)):
            rows.append(("segment_one", z, *p))
        for z, p in zip(zero_z, oracle_gradient_map_segment(Branch.ZERO_VORTEX, k, zero_z)):
            rows.append(("segment_zero", z, *p))
        for z in one_z:
            if z > 1.0:
                img = oracle_segment_involution((k * z, k * z, z), k)
                rows.append(("involution", z, *img))
        for z in zero_z:
            rows.append(("squared", z, *oracle_squared_map(Branch.ZERO_VORTEX, k, z)))
        for z in one_z:
            rows.append(("squared", z, *oracle_squared_map(Branch.ONE_VORTEX, k, z)))
    except DomainError:
        return None
    if not all(math.isfinite(x) for row in rows for x in row[1:]):
        return None
    if fmt == "json":
        return "".join((json.dumps({"points": [
            {"kind": kind, "z": z, "px": px, "py": py, "pz": pz}
            for kind, z, px, py, pz in rows]}, sort_keys=True), "\n"))
    else:
        return "".join(("kind,z,px,py,pz\n",
              *(f"{kind},{_fmt(z)},{_fmt(px)},{_fmt(py)},{_fmt(pz)}\n"
                for kind, z, px, py, pz in rows)))


# ------------------------------------------------------------- helpers


@pytest.fixture(scope="module")
def params_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("tables") / "params.json")


def run(command, params, path, fmt):
    with open(path, "w") as fh:
        json.dump(params, fh)
    return CliRunner().invoke(cli, [command, "--params", path, "--format", fmt])


def assert_same_or_rejected(result, want):
    """Byte-equal output, or exit 1 with an error line where the oracle
    raised or printed a value that is not finite."""
    if want is None:
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error:")
    else:
        assert result.exit_code == 0, result.output
        assert result.output == want


def grid_csv(report, writer) -> str:
    buf = io.StringIO()
    writer(report, buf)
    return buf.getvalue()


# ------------------------------------------------------------------ tests


class TestFormatRows:
    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                   BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3])
    def test_blocks_are_bounded_and_complete(self, n):
        x = np.arange(n) * 0.5
        blocks = list(format_rows("%r|", [x]))
        assert len(blocks) == -(-n // BLOCK_ROWS)
        assert all(b.count("|") <= BLOCK_ROWS for b in blocks)
        assert "".join(blocks) == "".join(f"{v!r}|" for v in x.tolist())

    def test_separator_within_blocks_only(self):
        x = np.arange(BLOCK_ROWS + 2, dtype=float)
        blocks = list(format_rows("%r", [x], ", "))
        assert ", ".join(blocks) == ", ".join(repr(v) for v in x.tolist())

    def test_values_print_as_python_floats(self):
        (text,) = format_rows("%r %s %.17g;", [np.array([0.1, -0.0])] * 3)
        assert text == "0.1 0.1 0.10000000000000001;-0.0 -0.0 -0;"
        assert "np." not in text


class TestGridCsv:
    # -0.0 next to 0.0, repeated values and unsorted axes: the writer must
    # print each axis value as given, never merged or reordered.
    axis = st.lists(st.sampled_from([-0.0, 0.0, 0.25]) | st.floats(-2.0, 2.0),
                    min_size=1, max_size=6)

    @given(rx=axis, ry=axis, t=axis,
           a=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
                       st.floats(-1.5, 1.5)),
           u_f=st.floats(-5.0, 5.0), constant=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_row_writer(self, rx, ry, t, a, u_f, constant):
        fld = constant_field(1.7) if constant else exponential_field(*a)
        report = evaluate_grid(fld, CParam(1.0, 2.0), PhysicalParams(),
                               Potential.fixed(u_f), rx, ry, t)
        assert grid_csv(report, type(report).write_csv) == \
            grid_csv(report, oracle_write_csv)

    @pytest.mark.parametrize("shape", [(5, 819, 1), (16, 16, 16), (17, 1, 241)])
    def test_block_edges(self, shape):
        # 4095, 4096 and 4097 rows
        axes = [np.linspace(-0.5, 0.5, m) for m in shape]
        report = evaluate_grid(exponential_field(0.3, -0.7, 0.2), CParam(1.0, 2.0),
                               PhysicalParams(), Potential.fixed(1.0), *axes)
        assert len(report.residual_real) in (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1)
        assert grid_csv(report, type(report).write_csv) == \
            grid_csv(report, oracle_write_csv)

    def test_axes_derive_points_and_spec(self):
        report = evaluate_grid(constant_field(2.0), CParam(1.0, 2.0), PhysicalParams(),
                               Potential.fixed(1.0), [0.5, -0.0], [0.0], [0.1, 0.3])
        assert [a.tolist() for a in report.axes] == [[0.5, -0.0], [0.0], [0.1, 0.3]]
        assert report.points.tolist() == [[0.5, 0.0, 0.1], [0.5, 0.0, 0.3],
                                          [-0.0, 0.0, 0.1], [-0.0, 0.0, 0.3]]
        assert math.copysign(1.0, report.points[2, 0]) == -1.0

    def test_empty_axis_gives_an_empty_report(self):
        report = evaluate_grid(constant_field(2.0), CParam(1.0, 2.0), PhysicalParams(),
                               Potential.fixed(1.0), [], [0.1], [0.2, 0.3])
        assert report.points.shape == (0, 3)
        assert grid_csv(report, type(report).write_csv) == \
            "r_x,r_y,t,residual_real,residual_imag\n"


branches = st.sampled_from(["one_vortex", "zero_vortex"])
fmts = st.sampled_from(["csv", "json"])


class TestTrajectoryOutput:
    @given(branch=branches, k=st.floats(0.05, 40.0), s=st.floats(-30.0, 30.0),
           hbar=st.floats(0.5, 2.0), mass=st.floats(0.5, 2.0),
           t_max=st.floats(0.0, 5.0) | st.integers(0, 5),
           steps=st.sampled_from([0, 1, 2]) | st.integers(0, 60),
           fmt=fmts, use_u_f=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_point_writer(self, params_path, branch, k, s, hbar, mass,
                                      t_max, steps, fmt, use_u_f):
        if s == 0.0:
            return
        params = {"branch": branch, "s": s, "t_max": t_max, "steps": steps,
                  "hbar": hbar, "mass": mass}
        phys = PhysicalParams(hbar, mass)
        if use_u_f:
            params["u_f"] = k
            sol = imag_solution(Branch(branch), k, phys, s=s)
        else:
            params["k"] = k
            sol = VortexSolution(Branch(branch), k=k, s=s, beta=phys.beta)
        assert_same_or_rejected(run("trajectory", params, params_path, fmt),
                                oracle_trajectory_text(sol, t_max, steps, fmt))

    @pytest.mark.parametrize("steps", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_block_edges(self, params_path, steps, fmt):
        params = {"branch": "one_vortex", "k": 1.3, "s": 0.7, "t_max": 0.9,
                  "steps": steps}
        sol = VortexSolution(Branch.ONE_VORTEX, k=1.3, s=0.7)
        assert_same_or_rejected(run("trajectory", params, params_path, fmt),
                                oracle_trajectory_text(sol, 0.9, steps, fmt))

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_length_is_the_grid_length(self, n):
        sol = VortexSolution(Branch.ZERO_VORTEX, k=0.8, s=1.2)
        grid = [0.1 * i for i in range(n)]
        traj = trajectory(sol, t_grid=grid)
        assert len(traj) == len(grid)
        points = oracle_trajectory(sol, t_grid=grid)
        for name in ("t", "u", "v", "radius", "gradient_radius"):
            assert getattr(traj, name).tolist() == [getattr(p, name) for p in points]


class TestGeometryArrays:
    zs = st.lists(st.floats(1e-3, 1e3), min_size=0, max_size=20)

    @given(k=st.floats(0.01, 10.0), z=zs, branch=st.sampled_from(list(Branch)))
    @settings(max_examples=100, deadline=None)
    def test_elementwise_equal_to_scalar_functions(self, k, z, branch):
        lo, hi = (1.0, math.inf) if branch is Branch.ONE_VORTEX else (0.0, 1.0)
        z = np.array([v for v in z if lo <= v <= hi] or [1.0])
        cols = [c.tolist() for c in vx.gradient_map_segment(branch, k, z)]
        assert list(zip(*cols)) == oracle_gradient_map_segment(branch, k, z.tolist())
        cols = [c.tolist() for c in vx.squared_map(branch, k, z)]
        assert list(zip(*cols)) == [oracle_squared_map(branch, k, v) for v in z.tolist()]
        if branch is Branch.ONE_VORTEX:
            z = z[z > 1.0]
            cols = [c.tolist() for c in vx.segment_involution((k * z, k * z, z), k)]
            assert list(zip(*cols)) == [oracle_segment_involution((k * v, k * v, v), k)
                                        for v in z.tolist()]

    def test_one_point_off_the_segment_rejects_the_array(self):
        z = np.array([1.0, 2.0, 0.5, 3.0])
        with pytest.raises(DomainError, match="1-vortex"):
            vx.gradient_map_segment(Branch.ONE_VORTEX, 1.0, z)
        with pytest.raises(DomainError, match="0-vortex"):
            vx.squared_map(Branch.ZERO_VORTEX, 1.0, z)
        with pytest.raises(DomainError, match="z must be positive and finite, got -0.5"):
            vx.squared_map(Branch.ZERO_VORTEX, 1.0, np.array([0.5, -0.5]))
        with pytest.raises(DomainError, match="z > 1"):
            vx.segment_involution((z, z, z), 1.0)


class TestGeometryOutput:
    @given(k=st.floats(0.01, 10.0) | st.sampled_from([1e200, 1e160]),
           n=st.sampled_from([2, 3]) | st.integers(2, 80),
           z_max=st.floats(0.5, 12.0) | st.sampled_from([1.0, 1e200]),
           z_min=st.none() | st.floats(-0.5, 1.0) | st.integers(3, 58).map(lambda i: i / 64),
           fmt=fmts)
    @settings(max_examples=200, deadline=None)
    def test_matches_row_loop(self, params_path, k, n, z_max, z_min, fmt):
        params = {"k": k, "n": n, "z_max": z_max}
        if z_min is not None:
            params["z_min"] = z_min
        want = oracle_geometry_text(k, n, z_max, 1.0 / z_max if z_min is None else z_min,
                                    fmt)
        assert_same_or_rejected(run("geometry", params, params_path, fmt), want)

    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_block_edges(self, params_path, n, fmt):
        params = {"k": 0.9, "n": n, "z_max": 4.0}
        want = oracle_geometry_text(0.9, n, 4.0, 0.25, fmt)
        assert want is not None
        assert_same_or_rejected(run("geometry", params, params_path, fmt), want)

    @pytest.mark.parametrize("n", [3, 300])
    def test_one_vortex_call_per_section(self, params_path, monkeypatch, n):
        # The tracer of the benchmark times geometry through these module
        # functions: the command still calls them, once per section of rows
        # rather than once per point.
        calls = {"gradient_map_segment": 0, "segment_involution": 0, "squared_map": 0}
        for name in calls:
            def counted(*args, _f=getattr(vx, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(vx, name, counted)
        result = run("geometry", {"k": 1.1, "n": n, "z_max": 3.0}, params_path, "csv")
        assert result.exit_code == 0, result.output
        assert len(result.output.splitlines()) == 1 + 5 * n - 1
        assert calls == {"gradient_map_segment": 2, "segment_involution": 1,
                         "squared_map": 2}
