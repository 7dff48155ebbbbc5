"""Byte-equality of the column-wise table writers with the row-by-row writers
they replaced.

The row-by-row ``GridReport.write_csv``, the per-point ``trajectory``, the
scalar gradient-map functions with ``cmd_geometry``'s row loop, the
per-step ``k_jump_trace`` with ``cmd_ladder``'s row loops, and the
``%``-operator ``format_rows`` that the byte-matrix writer replaced are kept
here verbatim as oracles. Only the names differ, and each oracle's output lines
are returned as one string instead of being written.
"""

import bisect
import io
import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zvortex import energy, tables
from zvortex import vortex as vx
from zvortex.cli import cli
from zvortex.energy import BelowLadderError, EnergyLadder
from zvortex.schrodinger_field import (PhysicalParams, Potential,
                                       constant_field, evaluate_grid,
                                       exponential_field)
from zvortex.tables import BLOCK_ROWS, format_rows
from zvortex.vortex import (Branch, VortexSolution, collapse_time,
                            imag_solution, trajectory)
from zvortex.wavecore import CParam, DomainError, float_range


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


# ------------------------------------------------- oracle: ladder trace


def _oracle_require_potential(u_f: float) -> None:
    if not u_f >= 0.0:  # also rejects NaN
        raise DomainError(f"potential must be non-negative, got {u_f}")


def oracle_k_from_potential(u_f: float, params: PhysicalParams) -> float:
    """k = sqrt(2 m U_f / (5 hbar^2))."""
    _oracle_require_potential(u_f)
    # In numpy, so that past the float range it raises under float_range.
    return math.sqrt(np.float64(2.0) * params.mass * u_f / (5.0 * params.hbar ** 2))


def oracle_level_index(ladder: EnergyLadder, E: float) -> int:
    """Index j of the highest eigenvalue reached by E (lambda(0) = 1).

    That is the number of eigenvalues E_i with unit_step(E - E_i) = 1, less
    one, found by bisection.
    """
    if not E >= ladder.eigenvalues[0]:  # also rejects NaN
        raise BelowLadderError(
            f"E = {E} lies below the ground eigenvalue {ladder.eigenvalues[0]}")
    return bisect.bisect_right(ladder.eigenvalues, E) - 1


def _oracle_level_potential(ladder: EnergyLadder, j: int) -> float:
    return 5.0 / 12.0 * ladder.eigenvalues[j]


@dataclass(frozen=True)
class TraceStep:
    step: int
    E: float
    j: int
    k: float


@float_range("k")
def oracle_k_jump_trace(ladder: EnergyLadder, energy_schedule: Iterable[float],
                        params: PhysicalParams) -> list[TraceStep]:
    """Piecewise-constant k along an energy schedule.

    k changes only when the level index changes; each jump magnitude equals
    delta_k for the levels crossed.
    """
    trace = []
    for i, E in enumerate(energy_schedule):
        j = oracle_level_index(ladder, E)
        k = oracle_k_from_potential(_oracle_level_potential(ladder, j), params)
        trace.append(TraceStep(step=i, E=E, j=j, k=k))
    return trace


def oracle_ladder_text(eigenvalues, schedule, hbar, mass, fmt):
    """``zvortex ladder`` output, or the DomainError the oracle raises."""
    try:
        trace = oracle_k_jump_trace(EnergyLadder(tuple(eigenvalues)), schedule,
                                    PhysicalParams(hbar, mass))
    except DomainError as exc:
        return exc
    if fmt == "json":
        return "".join([json.dumps({"trace": [
            {"step": r.step, "E": r.E, "j": r.j, "k": r.k} for r in trace
        ]}, sort_keys=True), "\n"])
    else:
        return "".join(["step,E,j,k\n",
              *(f"{r.step},{_fmt(r.E)},{r.j},{_fmt(r.k)}\n" for r in trace)])


# ------------------------------------------------------ oracle: row writer


def oracle_format_rows(template: str, columns: Sequence[np.ndarray],
                       sep: str = "") -> Iterator[str]:
    """Yield the rows ``template % (c0[i], c1[i], ...)``, joined by ``sep``,
    in blocks of at most ``BLOCK_ROWS`` rows.

    The columns are numpy arrays of one length; object arrays of strings
    fill ``%s`` fields. Values pass through ``tolist()``, so ``%r`` of a
    float column prints the Python float's repr, as ``json`` does, and not
    ``np.float64(...)``. No separator is put between blocks.
    """
    width = len(columns)
    n = len(columns[0])
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        values = [None] * ((stop - start) * width)
        for j, column in enumerate(columns):
            values[j::width] = column[start:stop].tolist()
        yield sep.join([template] * (stop - start)) % tuple(values)


# ------------------------------------------------------------- helpers


@pytest.fixture(scope="module")
def params_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("tables") / "params.json")


@pytest.fixture
def kernel_calls(monkeypatch):
    """(values, shortest) of each float-kernel call the row writer makes."""
    calls = []

    def counted(x, shortest, _real=tables._float_text):
        calls.append((x.size, shortest))
        return _real(x, shortest)
    monkeypatch.setattr(tables, "_float_text", counted)
    return calls


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


def assert_same_as_oracle(result, want):
    """Byte-equal output, or exit 1 with the oracle's error as the one line."""
    if isinstance(want, DomainError):
        assert result.exit_code == 1, result.output
        assert result.output == f"error: {want}\n"
    else:
        assert result.exit_code == 0, result.output
        assert result.output == want


def trace_or_error(trace_fn, eigenvalues, schedule, params):
    try:
        return trace_fn(EnergyLadder(tuple(eigenvalues)), schedule, params)
    except DomainError as exc:
        return exc


@st.composite
def ladder_cases(draw):
    """A ladder of 1-8 levels (some below 0), integer or float, and a
    schedule of up to 30 steps: exact eigenvalue hits (E_0 among them),
    integers, floats about the ladder and a few below it."""
    number = lambda lo, hi: st.integers(lo, hi) | st.floats(lo, hi)
    eigenvalues = draw(st.lists(number(-5, 60), min_size=1, max_size=8,
                                unique_by=float).map(lambda v: sorted(v, key=float)))
    top = int(max(eigenvalues)) + 10
    step = (st.sampled_from(eigenvalues) | st.sampled_from(eigenvalues[:1])
            | number(int(min(eigenvalues)) - 2, top) | number(0, top))
    return eigenvalues, draw(st.lists(step, max_size=30))


# hbar and mass near 1, and values at which 2 m U / (5 hbar^2) or hbar^2 or
# 2 m alone passes the float range.
units = st.floats(0.3, 3.0) | st.just(1.0)
extreme_units = st.sampled_from([1e-160, 1e-200, 1e160, 1e308])


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

    @pytest.mark.parametrize("template", ["%f", "%.3g|%r", "%%%r", "a\0b%r", "%r%r"])
    def test_template_outside_the_four_fields_is_rejected(self, template):
        with pytest.raises(ValueError):
            list(format_rows(template, [np.zeros(2)]))

    def test_values_print_as_python_floats(self):
        (text,) = format_rows("%r %s %.17g;", [np.array([0.1, -0.0])] * 3)
        assert text == "0.1 0.1 0.10000000000000001;-0.0 -0.0 -0;"
        assert "np." not in text

    @pytest.mark.parametrize("lengths", [(3, 1), (1, 3)])
    def test_columns_of_unequal_length_are_rejected(self, lengths):
        # A length-1 column was once repeated on every row.
        columns = [np.arange(k) + 7.5 for k in lengths]
        with pytest.raises(ValueError, match="%d and %d" % lengths):
            list(format_rows("%.17g,%.17g\n", columns))


class TestKernelCalls:
    """How a block's fields reach the float kernel: each distinct column
    once, and a short block's fields of one mode in shared calls."""

    @pytest.mark.parametrize("n", [10, BLOCK_ROWS + 5])
    def test_a_column_named_twice_is_formatted_once(self, kernel_calls, n):
        x = np.arange(n) / 3.0
        assert_same_blocks("%r,%r;%s\n", [x, x, x])
        assert kernel_calls == [(len(x[i:i + BLOCK_ROWS]), True)
                                for i in range(0, n, BLOCK_ROWS)]

    def test_a_column_in_both_modes_is_formatted_in_both(self, kernel_calls):
        x = np.arange(10) / 3.0
        assert_same_blocks("%.17g,%r\n", [x, x])
        assert sorted(kernel_calls) == [(10, False), (10, True)]

    @pytest.mark.parametrize("n, sizes", [
        (1000, [4000]),
        (3000, [BLOCK_ROWS, BLOCK_ROWS, 4 * 3000 - 2 * BLOCK_ROWS]),
        (BLOCK_ROWS, [BLOCK_ROWS] * 4),
        (BLOCK_ROWS + 1000, [BLOCK_ROWS] * 4 + [4000])])
    def test_short_blocks_share_calls(self, kernel_calls, n, sizes):
        rng = np.random.default_rng(n)
        columns = [rng.standard_normal(n) * 10.0 ** k for k in (-3, 0, 5, 20)]
        assert_same_blocks("%.17g,%.17g,%.17g,%.17g\n", columns)
        assert kernel_calls == [(size, False) for size in sizes]

    def test_integers_within_2_53_join_the_float_call(self, kernel_calls):
        x = np.arange(100) / 7.0
        for top, sizes in ((2 ** 53, [200]), (2 ** 53 + 1, [100])):
            kernel_calls.clear()
            v = np.arange(100, dtype=np.int64) - 50
            v[7] = top
            assert_same_blocks("%d,%.17g\n", [v, x])
            assert kernel_calls == [(size, False) for size in sizes]

    def test_the_2_53_bound_holds_for_the_whole_column(self, kernel_calls):
        """An integer past 2^53 in the second block keeps the column out of
        the kernel in the first block too."""
        n = BLOCK_ROWS + 100
        v = np.arange(n, dtype=np.int64) - 50
        v[-1] = 2 ** 53 + 1
        x = np.arange(n) / 7.0
        assert_same_blocks("%d,%.17g\n", [v, x])
        assert kernel_calls == [(BLOCK_ROWS, False), (100, False)]


def bits_to_floats(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


def ulps(values) -> np.ndarray:
    """Each value and its two neighbours, both signs."""
    x = np.asarray(values, dtype=float)
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


def halfway_dyadics() -> np.ndarray:
    """Odd multiples of 2^-j: m / 2^18 for odd m in [26215, 262143] is
    exactly halfway between two 17-digit decimals, with 10^q a double."""
    m = np.arange(26215, 262144, 2 * 97, dtype=float)
    j = np.arange(1, 64, dtype=float)
    return np.concatenate([m / 2.0 ** 18, ((2 * np.arange(40) + 1)[:, None]
                                           / 2.0 ** j).ravel()])


FIXED_FLOATS = {
    "zeros-subnormals-inf-nan": np.array(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
         1e-310, 1.7976931348623157e308, math.inf, -math.inf, math.nan, -math.nan]),
    "kernel-range-edges": ulps([1e-30, 1e17]),
    "powers-of-ten": ulps([10.0 ** k for k in range(-32, 19)]
                          + [float(f"1e{k}") for k in range(-32, 19)]),
    "powers-of-two": np.concatenate([2.0 ** np.arange(-1074, 1024),
                                     -(2.0 ** np.arange(-120, 70))]),
    "halfway-dyadics": np.concatenate([halfway_dyadics(), -halfway_dyadics()]),
    "integers-about-2-53": ulps([2.0 ** 53 + k for k in range(-6, 7)]
                                + [2.0 ** 54 + 4 * k for k in range(-3, 4)]),
    "rounding-carries": ulps([9.99999999999999999e-5, 9.9999999999999995e-5,
                              0.99999999999999999, 99999999999999999.0,
                              9999999999999999.5, 999999999999999.94,
                              9.9999999999999999e-31]),
}

float_values = st.lists(st.floats() | st.integers(0, 2 ** 64 - 1).map(
    lambda b: bits_to_floats([b])[0]), min_size=1, max_size=40)
# The writer's one rule on its input: no NUL in the template or the values.
literal_chars = st.characters(blacklist_characters="\0", blacklist_categories=("Cs",))
literal = st.text(st.characters(blacklist_characters="%\0",
                                blacklist_categories=("Cs",)), max_size=3)


@st.composite
def templates_and_columns(draw):
    """A template of 1-4 fields between random literals and one column per
    field: floats for %.17g and %r; int64 for %d; floats, or integers,
    floats and strings in an object column, for %s."""
    n = draw(st.integers(1, 30))
    template, columns = draw(literal), []
    for _ in range(draw(st.integers(1, 4))):
        spec = draw(st.sampled_from(["%.17g", "%r", "%d", "%s"]))
        if spec == "%d":
            column = np.array(draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                            min_size=n, max_size=n)), dtype=np.int64)
        elif spec == "%s" and draw(st.booleans()):
            column = np.array(draw(st.lists(st.text(literal_chars, max_size=4) | st.integers()
                                            | st.floats(), min_size=n, max_size=n))
                              + [None], dtype=object)[:n]
        else:
            column = np.resize(np.array(draw(float_values)), n)
        template += spec + draw(literal)
        columns.append(column)
    return template, columns


@st.composite
def shared_columns(draw):
    """1-6 fields over 1-3 column objects, each named by any number of
    fields under mixed specs, with row counts on either side of a full
    block: float columns under %.17g, %r and %s; int64 columns, some past
    2^53, under any of the four."""
    n = draw(st.sampled_from([BLOCK_ROWS // 3, BLOCK_ROWS - 1, BLOCK_ROWS,
                              BLOCK_ROWS + 1, 2 * BLOCK_ROWS - 1]) | st.integers(1, 40))
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            pool.append(np.resize(np.array(draw(float_values)), n))
        else:
            ints = st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(-2 ** 53 - 2, 2 ** 53 + 2)
            pool.append(np.resize(np.array(draw(st.lists(ints, min_size=1, max_size=20)),
                                           dtype=np.int64), n))
    template, columns = draw(literal), []
    for _ in range(draw(st.integers(1, 6))):
        column = draw(st.sampled_from(pool))
        specs = ["%.17g", "%r", "%s"] + (["%d"] if column.dtype.kind == "i" else [])
        template += draw(st.sampled_from(specs)) + draw(literal)
        columns.append(column)
    return template, columns


def assert_same_blocks(template, columns, sep=""):
    assert list(format_rows(template, columns, sep)) == \
        list(oracle_format_rows(template, columns, sep))


class TestFormatRowsOracle:
    """Byte for byte the %-operator writer, however the values are drawn."""

    @given(values=float_values, sep=st.sampled_from(["", ", ", "\n", "é;"]))
    @settings(max_examples=400, deadline=None)
    def test_floats(self, values, sep):
        x = np.array(values)
        assert_same_blocks("%.17g|%r|%s", [x, x, x], sep)

    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_float_bit_patterns(self, bits):
        x = bits_to_floats(bits)
        assert_same_blocks("%.17g,%r\n", [x, x])

    @given(case=templates_and_columns(), sep=st.sampled_from(["", ", ", "\n"]))
    @settings(max_examples=400, deadline=None)
    def test_mixed_fields(self, case, sep):
        template, columns = case
        assert_same_blocks(template, columns, sep)

    @given(case=shared_columns(), sep=st.sampled_from(["", ", "]))
    @settings(max_examples=60, deadline=None)
    def test_shared_columns(self, case, sep):
        template, columns = case
        assert_same_blocks(template, columns, sep)

    @given(v=st.lists(st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(-12, 12),
                      min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_integers(self, v):
        column = np.array(v, dtype=np.int64)
        assert_same_blocks("%d %r %s\n", [column] * 3)

    @pytest.mark.parametrize("name", sorted(FIXED_FLOATS))
    def test_fixed_floats(self, name):
        x = FIXED_FLOATS[name]
        with float_range("fixed floats"):
            assert_same_blocks("%.17g,%r,%s\n", [x, x, x])
            assert_same_blocks('{"x": %r}', [x], ", ")

    def test_integer_edges(self):
        # Columns up to 2^53 print through the float digits, and one holding
        # 2^53 + 1 must not: a bound checked after a cast would print it
        # as 9007199254740992.
        e = 2 ** 53
        v = np.array([0, 1, -1, 9, -9, 10, -10, e - 1, 1 - e, e, -e, e + 1, -e - 1,
                      10 ** 18, 10 ** 18 - 1, 2 ** 63 - 1, -2 ** 63], dtype=np.int64)
        for column in (v[:7], v[:11], v[:12], v[:13], v[-1:], v):
            assert_same_blocks("%d;", [column])
            assert_same_blocks("%d;%.17g;%r\n", [column] * 3)

    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_block_edges(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-40, 40, n)
        x[::7] = 0.0
        x[::11] = np.round(x[::11], 3)
        step = np.arange(n) - 7
        labels = np.array([b"%d" % i for i in range(n)], dtype="S8")
        assert_same_blocks("%d,%.17g,%r\n", [step, x, x])
        assert_same_blocks('{"i": %d, "x": %r}', [step, x], ", ")
        assert "".join(format_rows("%s|%r\n", [labels, x])) == \
            "".join(oracle_format_rows("%s|%r\n", [labels.astype(str).astype(object), x]))


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

    @pytest.mark.parametrize("n", [3, 300, 2000])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_value_is_formatted_once(self, params_path, kernel_calls, n, fmt):
        # z, px (= py) for each segment, where pz is z; z, px (= py) and pz
        # for the n - 1 involution points and each squared section.
        result = run("geometry", {"k": 1.1, "n": n, "z_max": 3.0}, params_path, fmt)
        assert result.exit_code == 0, result.output
        assert sum(size for size, _ in kernel_calls) == 13 * n - 3
        calls = lambda values: -(-values // BLOCK_ROWS)
        assert len(kernel_calls) == 2 * calls(2 * n) + calls(3 * n - 3) + 2 * calls(3 * n)


class TestLadderOutput:
    # A negative eigenvalue whose potential rounds to -0.0 is a usable level.
    @given(case=ladder_cases(), hbar=units | extreme_units,
           mass=units | extreme_units, fmt=fmts)
    @example(case=([-5e-324, 1], [-5e-324, 0.5, 2]), hbar=1.0, mass=1.0, fmt="json")
    @settings(max_examples=300, deadline=None)
    def test_matches_per_step_writer(self, params_path, case, hbar, mass, fmt):
        eigenvalues, schedule = case
        params = {"eigenvalues": eigenvalues, "schedule": schedule,
                  "hbar": hbar, "mass": mass}
        assert_same_as_oracle(run("ladder", params, params_path, fmt),
                              oracle_ladder_text(eigenvalues, schedule, hbar, mass, fmt))

    @given(case=ladder_cases(), hbar=units | extreme_units,
           mass=units | extreme_units)
    @example(case=([-5e-324, 1], [-5e-324, 0.5, 2]), hbar=1.0, mass=1.0)
    @settings(max_examples=300, deadline=None)
    def test_columns_match_per_step_trace(self, case, hbar, mass):
        eigenvalues, schedule = case
        phys = PhysicalParams(hbar, mass)
        got = trace_or_error(energy.k_jump_trace, eigenvalues, schedule, phys)
        want = trace_or_error(oracle_k_jump_trace, eigenvalues, schedule, phys)
        if isinstance(want, DomainError):
            assert type(got) is type(want) and str(got) == str(want)
            return
        assert len(got) == len(want) == len(schedule)
        assert got.step.tolist() == [r.step for r in want]
        assert [(type(e), e) for e in got.E.tolist()] == [(type(r.E), r.E) for r in want]
        assert got.j.tolist() == [r.j for r in want]
        assert got.k.tolist() == [r.k for r in want]

    @pytest.mark.parametrize("steps", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_block_edges(self, params_path, steps, fmt):
        eigenvalues = [0.5 + 0.75 * i for i in range(40)]
        schedule = np.linspace(0.5, 40.0, steps).tolist()
        schedule[::7] = [eigenvalues[i % 40] for i in range(len(schedule[::7]))]
        schedule[3::11] = [i % 35 + 1 for i in range(len(schedule[3::11]))]
        params = {"eigenvalues": eigenvalues, "schedule": schedule,
                  "hbar": 1.3, "mass": 0.7}
        want = oracle_ladder_text(eigenvalues, schedule, 1.3, 0.7, fmt)
        assert isinstance(want, str)
        assert_same_as_oracle(run("ladder", params, params_path, fmt), want)

    @pytest.mark.parametrize("eigenvalues,schedule,error", [
        pytest.param([-2.0, 1.0], [2.0, -1.0, -3.0], "potential must be non-negative",
                     id="potential-before-below"),
        pytest.param([-2.0, 1.0], [2.0, -3.0, -1.0], "lies below",
                     id="below-before-potential"),
        pytest.param([-2, 1], [2, -1, -3], "got -0.8333333333333334",
                     id="integers-potential-before-below"),
        pytest.param([-2, 1], [2, -3, -1], "E = -3 lies below", id="integers-below"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_first_failing_step_raises(self, params_path, eigenvalues, schedule,
                                       error, fmt):
        want = oracle_ladder_text(eigenvalues, schedule, 1.0, 1.0, fmt)
        assert isinstance(want, DomainError) and error in str(want)
        assert_same_as_oracle(run("ladder", {"eigenvalues": eigenvalues,
                                             "schedule": schedule}, params_path, fmt),
                              want)

    @pytest.mark.parametrize("schedule,error", [
        pytest.param([2.0, 0.5], "k overflows", id="overflow-before-below"),
        pytest.param([0.5, 2.0], "lies below", id="below-before-overflow"),
        pytest.param([], None, id="empty"),
    ])
    def test_overflow_in_schedule_order(self, schedule, error):
        # hbar^2 is subnormal, so 2 m U / (5 hbar^2) passes the float range.
        phys = PhysicalParams(1e-160, 1.0)
        got = trace_or_error(energy.k_jump_trace, [1.0, 3.0], schedule, phys)
        want = trace_or_error(oracle_k_jump_trace, [1.0, 3.0], schedule, phys)
        if error is None:
            assert len(got) == len(want) == 0
        else:
            assert error in str(want)
            assert type(got) is type(want) and str(got) == str(want)

    def test_scalar_arguments_give_python_numbers(self):
        ladder = EnergyLadder((1.0, 3.0, 7.0))
        j = energy.level_index(ladder, 3.0)
        assert type(j) is int and j == oracle_level_index(ladder, 3.0) == 1
        k = vx.k_from_potential(2.5, PhysicalParams(1.3, 0.7))
        assert type(k) is float
        assert k == oracle_k_from_potential(2.5, PhysicalParams(1.3, 0.7))
        u = energy.potential_of_energy(ladder, 8)
        assert type(u) is float and u == 5.0 / 12.0 * 7.0

    def test_integer_past_2_53_is_compared_as_a_float(self):
        # The one behaviour the columns dropped: 2^53 + 3 rounds to the
        # eigenvalue 2^53 + 4, which the per-step trace compared exactly.
        ladder = EnergyLadder((2.0 ** 53, 2.0 ** 53 + 4))
        assert oracle_level_index(ladder, 2 ** 53 + 3) == 0
        assert energy.level_index(ladder, 2 ** 53 + 3) == 1
        schedule = [2 ** 53 + 3, 2 ** 53 + 2]
        trace = energy.k_jump_trace(ladder, schedule, PhysicalParams())
        assert trace.j.tolist() == [1, 0] and trace.E.tolist() == schedule
