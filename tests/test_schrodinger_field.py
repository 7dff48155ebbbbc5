import cmath
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zvortex import (
    Branch,
    CParam,
    DomainError,
    PhysicalParams,
    Potential,
    VortexSolution,
    ZField,
    complex_residual,
    constant_field,
    evaluate_grid,
    exponential_field,
    imag_residual,
    psi_partials,
    real_residual,
    real_solution,
    sum_field,
)

NAT = PhysicalParams()
C12 = CParam(1.0, 2.0)
FREE = Potential.fixed(0.0)


def fd_psi_partials(field, c, point, h1=1e-6, h2=1e-4):
    """Independent oracle: finite differences of psi = z**c composed with
    the field, never of the chain-rule formulas."""
    cc = c.as_complex()

    def psi(rx, ry, t):
        return cmath.exp(cc * math.log(field.value(rx, ry, t)))

    rx, ry, t = point
    p_t = (psi(rx, ry, t + h1) - psi(rx, ry, t - h1)) / (2 * h1)
    p_x = (psi(rx + h1, ry, t) - psi(rx - h1, ry, t)) / (2 * h1)
    p_y = (psi(rx, ry + h1, t) - psi(rx, ry - h1, t)) / (2 * h1)
    p_xx = (psi(rx + h2, ry, t) - 2 * psi(rx, ry, t) + psi(rx - h2, ry, t)) / h2 ** 2
    p_yy = (psi(rx, ry + h2, t) - 2 * psi(rx, ry, t) + psi(rx, ry - h2, t)) / h2 ** 2
    return p_t, p_x, p_y, p_xx, p_yy


# The (R) and (I) residuals written out term by term, as the package had
# them before they became the real and imaginary parts of complex_residual.
# Kept verbatim as an oracle.
def written_out_real_residual(field: ZField, c: CParam, params: PhysicalParams,
                              u_f: float, point, scaled: bool = False) -> float:
    mod2 = c.modulus_sq()
    if mod2 == 0.0:
        raise DomainError("c must be nonzero")
    z, _, zx, zy, zxx, zyy = field.partials(point)
    r = (params.hbar ** 2 / (2.0 * params.mass)) * (
        zxx + zyy + (c.x - 1.0) / z * (zx * zx + zy * zy)
    ) - z * c.x / mod2 * u_f
    if scaled:
        r *= 2.0 * params.mass / params.hbar ** 2
    return r


def written_out_imag_residual(field: ZField, c: CParam, params: PhysicalParams,
                              u_f: float, point, scaled: bool = False) -> float:
    mod2 = c.modulus_sq()
    if mod2 == 0.0:
        raise DomainError("c must be nonzero")
    z, zt, zx, zy, _, _ = field.partials(point)
    r = (params.hbar * zt
         + (params.hbar ** 2 / (2.0 * params.mass)) * c.y / z * (zx * zx + zy * zy)
         + z * c.y / mod2 * u_f)
    if scaled:
        r *= params.mass / params.hbar ** 2
    return r


def one_vortex_field(k=1.0, beta=1.0):
    return exponential_field(k, k, -3.0 * k * k * beta)


def zero_vortex_field(k=1.0, beta=1.0):
    return exponential_field(-k, -k, -3.0 * k * k * beta)


def real_eq_field(k=1.0, sign=1):
    a = sign * k / math.sqrt(2.0)
    return exponential_field(a, a, 0.0)


class TestPhysicalParams:
    @pytest.mark.parametrize("kw", [{"hbar": math.nan}, {"mass": math.nan},
                                    {"hbar": math.inf}, {"mass": -math.inf},
                                    {"hbar": 0.0}, {"mass": -1.0}])
    def test_rejects_non_positive_and_non_finite(self, kw):
        with pytest.raises(DomainError, match="positive and finite"):
            PhysicalParams(**kw)

    @pytest.mark.parametrize("name,other", [("hbar", "mass"), ("mass", "hbar")])
    def test_names_only_the_bad_value(self, name, other):
        with pytest.raises(DomainError) as info:
            PhysicalParams(**{name: 0})
        assert str(info.value) == f"{name} must be positive and finite, got 0"
        assert other not in str(info.value)


class TestPsiPartials:
    def test_constant_field_all_zero(self):
        out = psi_partials(constant_field(1.0), C12, (0.3, -0.2, 1.0))
        assert all(p == 0 for p in out)

    def test_exp_rx_field_at_origin(self):
        field = exponential_field(1.0, 0.0, 0.0)
        _, p_x, _, _, _ = psi_partials(field, C12, (0.0, 0.0, 0.0))
        assert p_x == pytest.approx(complex(1.0, 2.0), abs=1e-12)

    def test_time_derivative_of_vortex_field(self):
        field = one_vortex_field(k=1.0, beta=1.0)
        point = (0.5, 0.5, 0.0)
        p_t, *_ = psi_partials(field, C12, point)
        psi = cmath.exp(C12.as_complex() * math.log(field(*point)))
        assert p_t == pytest.approx(-3.0 * C12.as_complex() * psi, rel=1e-12)

    @pytest.mark.parametrize("point", [(0.1, 0.2, 0.0), (0.5, 0.5, 0.3),
                                       (-0.4, 0.9, 1.0)])
    def test_against_fd_oracle(self, point):
        field = one_vortex_field(k=0.7, beta=1.0)
        got = psi_partials(field, C12, point)
        want = fd_psi_partials(field, C12, point)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-5 * max(1.0, abs(w))

    def test_rejects_nonpositive_field(self):
        bad = ZField(value=lambda rx, ry, t: -1.0)
        with pytest.raises(DomainError):
            psi_partials(bad, C12, (0.0, 0.0, 0.0))


class TestResiduals:
    def test_constant_free_field_solves_everything(self):
        field = constant_field(1.0)
        p = (0.2, 0.4, 0.1)
        assert complex_residual(field, C12, NAT, FREE, p) == 0
        assert real_residual(field, C12, NAT, FREE, p) == 0
        assert imag_residual(field, C12, NAT, FREE, p) == 0

    def test_complex_is_real_plus_i_imag(self):
        field = one_vortex_field(k=1.3)
        pot = Potential.fixed(0.7)
        for p in [(0.2, 0.3, 0.0), (1.0, -0.5, 0.4)]:
            w = complex_residual(field, C12, NAT, pot, p)
            r = real_residual(field, C12, NAT, pot, p)
            i = imag_residual(field, C12, NAT, pot, p)
            assert abs(w - complex(r, i)) < 1e-14 * max(1.0, abs(w))

    def test_real_solution_zeroes_r(self):
        u_f = 2.5
        field = real_eq_field(k=1.0, sign=1)
        pot = Potential.fixed(u_f)
        for p in [(0.1, 0.2, 0.0), (0.8, 0.4, 2.0)]:
            assert abs(real_residual(field, C12, NAT, pot, p)) < 1e-10

    def test_real_solution_i_residual_nonzero(self):
        # for the static field: I = (hbar^2/2m)(y/z)|grad z|^2 + z y U/5
        u_f, k = 2.5, 1.0
        field = real_eq_field(k=k, sign=1)
        pot = Potential.fixed(u_f)
        p = (0.3, 0.5, 0.0)
        z = field(*p)
        expect = 0.5 * 2.0 / z * (k * k * z * z) + z * 2.0 * u_f / 5.0
        assert imag_residual(field, C12, NAT, pot, p) == pytest.approx(expect,
                                                                       rel=1e-10)

    @pytest.mark.parametrize("factory", [one_vortex_field, zero_vortex_field])
    def test_vortex_fields_zero_i(self, factory):
        k = 1.0
        u_f = 5.0 * k * k / 2.0  # inverts k = sqrt(2 U_f / 5) in natural units
        field = factory(k=k)
        pot = Potential.fixed(u_f)
        for p in [(0.1, 0.9, 0.0), (0.5, 0.5, 0.7), (1.5, -0.2, 0.2)]:
            assert abs(imag_residual(field, C12, NAT, pot, p)) < 1e-10

    def test_vortex_field_r_residual(self):
        # R residual of the I-solution is (hbar^2/2m) k^2 z
        k = 1.0
        field = one_vortex_field(k=k)
        pot = Potential.fixed(2.5)
        p = (0.4, 0.6, 0.1)
        z = field(*p)
        assert real_residual(field, C12, NAT, pot, p) == pytest.approx(
            0.5 * k * k * z, rel=1e-10)

    def test_scaled_presentation(self):
        params = PhysicalParams(hbar=2.0, mass=3.0)
        field = one_vortex_field(k=0.8, beta=params.beta)
        pot = Potential.fixed(1.1)
        p = (0.3, 0.2, 0.4)
        r = real_residual(field, C12, params, pot, p)
        i = imag_residual(field, C12, params, pot, p)
        assert real_residual(field, C12, params, pot, p, scaled=True) == (
            pytest.approx(r * 2 * params.mass / params.hbar ** 2, rel=1e-12))
        assert imag_residual(field, C12, params, pot, p, scaled=True) == (
            pytest.approx(i * params.mass / params.hbar ** 2, rel=1e-12))

    def test_rejects_zero_c(self):
        with pytest.raises(DomainError):
            real_residual(constant_field(), CParam(0.0, 0.0), NAT, FREE,
                          (0.0, 0.0, 0.0))

    def test_fd_partials_agree_with_analytic(self):
        k = 0.9
        analytic = one_vortex_field(k=k)
        fd_only = ZField(value=analytic.value)
        pot = Potential.fixed(5.0 * k * k / 2.0)
        p = (0.4, 0.3, 0.2)
        assert abs(imag_residual(fd_only, C12, NAT, pot, p)) < 1e-5
        assert imag_residual(analytic, C12, NAT, pot, p) == pytest.approx(
            imag_residual(fd_only, C12, NAT, pot, p), abs=1e-5)

    def test_hbar_mass_common_scaling_preserves_zeros(self):
        k = 1.0
        pot = Potential.fixed(2.5)
        for factor in (2.0, 10.0):
            params = PhysicalParams(hbar=factor, mass=factor)
            assert params.beta == 1.0
            field = one_vortex_field(k=k, beta=params.beta)
            # potential scales with hbar^2/m = factor in these units
            scaled_pot = Potential.fixed(2.5 * factor)
            r = imag_residual(field, C12, params, scaled_pot, (0.5, 0.5, 0.1))
            assert abs(r) < 1e-9

    def test_sum_with_a_value_only_field_uses_finite_differences(self):
        # One summand has no analytic partials, so the sum has none either:
        # its residual is the finite-difference residual of the summed value.
        analytic = one_vortex_field(k=1.0)
        bump = lambda rx, ry, t: 0.1 * rx * ry + 0.2 * t
        total = sum_field(analytic, ZField(value=bump))
        assert total.derivatives is None
        summed = ZField(value=lambda rx, ry, t: analytic.value(rx, ry, t)
                        + bump(rx, ry, t))
        for p in [(0.5, 0.5, 0.1), (0.2, -0.3, 0.4)]:
            got = complex_residual(total, C12, NAT, 2.5, p)
            assert got == complex_residual(summed, C12, NAT, 2.5, p)
            assert abs(got.imag) > 1e-3  # the bump is not a solution

    def test_z_level_equations_are_nonlinear(self):
        # two individual (I) solutions whose sum is not a solution
        k = 1.0
        pot = Potential.fixed(2.5)
        z1 = one_vortex_field(k=k)
        z2 = zero_vortex_field(k=k)
        total = sum_field(z1, z2)
        p = (0.5, 0.5, 0.1)
        assert abs(imag_residual(z1, C12, NAT, pot, p)) < 1e-10
        assert abs(imag_residual(z2, C12, NAT, pot, p)) < 1e-10
        assert abs(imag_residual(total, C12, NAT, pot, p)) > 1e-3

    def test_psi_level_equation_is_linear(self):
        # superposing psi-solutions keeps the psi-equation residual zero
        k = 1.0
        u_f = 2.5
        hbar, m = 1.0, 1.0

        def schrodinger_residual_of_psi(psi, point, h1=1e-5, h2=1e-4):
            rx, ry, t = point
            p_t = (psi(rx, ry, t + h1) - psi(rx, ry, t - h1)) / (2 * h1)
            p_xx = (psi(rx + h2, ry, t) - 2 * psi(rx, ry, t)
                    + psi(rx - h2, ry, t)) / h2 ** 2
            p_yy = (psi(rx, ry + h2, t) - 2 * psi(rx, ry, t)
                    + psi(rx, ry - h2, t)) / h2 ** 2
            return (1j * hbar * p_t + hbar ** 2 / (2 * m) * (p_xx + p_yy)
                    - u_f * psi(rx, ry, t))

        # plane-wave solutions of the psi equation itself
        def plane(kx, ky):
            omega = (hbar * (kx ** 2 + ky ** 2) / (2 * m)) + u_f / hbar
            return lambda rx, ry, t: cmath.exp(
                1j * (kx * rx + ky * ry - omega * t))

        psi1, psi2 = plane(1.0, 0.5), plane(-0.3, 0.8)
        combo = lambda rx, ry, t: psi1(rx, ry, t) + 2.5 * psi2(rx, ry, t)
        p = (0.3, 0.4, 0.2)
        assert abs(schrodinger_residual_of_psi(psi1, p)) < 1e-5
        assert abs(schrodinger_residual_of_psi(psi2, p)) < 1e-5
        assert abs(schrodinger_residual_of_psi(combo, p)) < 1e-5


coef = st.floats(min_value=-2.0, max_value=2.0)
unit = st.floats(min_value=0.1, max_value=10.0)


class TestResidualParts:
    @given(a_x=coef, a_y=coef, a_t=coef, scale=unit,
           cx=st.floats(min_value=-3.0, max_value=3.0),
           cy=st.floats(min_value=-3.0, max_value=3.0),
           hbar=unit, mass=unit, u_f=st.floats(min_value=-10.0, max_value=10.0),
           point=st.tuples(coef, coef, coef), scaled=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_parts_match_written_out_residuals(self, a_x, a_y, a_t, scale, cx,
                                               cy, hbar, mass, u_f, point, scaled):
        c = CParam(cx, cy)
        if c.modulus_sq() < 1e-6:
            return
        fld = exponential_field(a_x, a_y, a_t, scale)
        params = PhysicalParams(hbar, mass)
        pot = Potential.fixed(u_f)
        r = real_residual(fld, c, params, pot, point, scaled=scaled)
        i = imag_residual(fld, c, params, pot, point, scaled=scaled)
        assert r == written_out_real_residual(fld, c, params, pot, point, scaled)
        z, zt, zx, zy, _, _ = fld.partials(point)
        term_scale = (abs(hbar * zt)
                      + abs(hbar ** 2 / (2 * mass) * cy / z * (zx * zx + zy * zy))
                      + abs(z * cy / c.modulus_sq() * u_f))
        if scaled:
            term_scale *= mass / hbar ** 2
        want = written_out_imag_residual(fld, c, params, pot, point, scaled)
        assert abs(i - want) <= 1e-13 * term_scale


@dataclass(frozen=True)
class CountingField(ZField):
    """A field that records every point its partials are taken at."""

    seen: list = field(default_factory=list)

    def partials(self, point):
        self.seen.append(point)
        return super().partials(point)


axis = st.lists(coef, min_size=1, max_size=4)
FIELD_KINDS = ("analytic", "finite_difference", "sum", "sum_finite_difference")


def make_field(kind, a, b):
    """An exponential field (or a sum of two), with analytic partials or
    with finite differences only."""
    fld = exponential_field(*a)
    if kind.startswith("sum"):
        fld = sum_field(fld, exponential_field(*b))
    return ZField(value=fld.value) if kind.endswith("finite_difference") else fld


class TestAnalyticPartials:
    """An analytic field's partials are one derivatives call, which also
    gives z."""

    FIELDS = {
        "exponential": lambda: exponential_field(0.7, -0.4, 0.5, 1.3),
        "one_vortex": lambda: VortexSolution(Branch.ONE_VORTEX, k=1.2).to_field(),
        "real_solution": lambda: real_solution(2.5, NAT),
        "constant": lambda: constant_field(2.0),
        "sum": lambda: sum_field(exponential_field(0.7, -0.4, 0.5),
                                 constant_field(1.0)),
    }

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_one_derivatives_call_and_no_value_call(self, name):
        base = self.FIELDS[name]()
        calls = []

        def counting(kind, f):
            def wrapped(*args):
                calls.append(kind)
                return f(*args)
            return wrapped

        fld = ZField(value=counting("value", base.value),
                     derivatives=counting("derivatives", base.derivatives))
        point = (np.array([0.1, 0.5]), np.array([0.2, 0.3]), np.array([0.0, 0.4]))
        parts = fld.partials(point)
        assert calls == ["derivatives"]
        assert len(parts) == 6
        assert np.array_equal(*np.broadcast_arrays(parts[0], base.value(*point)))

    def test_one_exponential_per_point(self, monkeypatch):
        fld = exponential_field(0.7, -0.4, 0.5)
        exp, calls = np.exp, []

        def counting(x, *args, **kw):
            calls.append(np.size(x))
            return exp(x, *args, **kw)

        monkeypatch.setattr(np, "exp", counting)
        fld.partials((np.linspace(0.0, 1.0, 5), 0.3, 0.2))
        assert calls == [5]


class TestGridReport:
    @pytest.mark.parametrize("analytic", [True, False])
    def test_one_partials_call_per_grid(self, analytic):
        # The partials are taken once for the whole lattice, at exactly the
        # report's points, each once and in the report's row order.
        base = one_vortex_field(k=1.0)
        fld = (CountingField(value=base.value, derivatives=base.derivatives)
               if analytic else CountingField(value=base.value))
        report = evaluate_grid(fld, C12, NAT, Potential.fixed(2.5),
                               [0.1, 0.5], [0.2, 0.3, 0.4], [0.0, 0.1])
        assert len(report.points) == 12
        assert len(fld.seen) == 1
        seen = np.stack(np.broadcast_arrays(*fld.seen[0]), axis=1)
        assert np.array_equal(seen, report.points)

    def test_rows_are_rx_major_t_minor(self):
        report = evaluate_grid(one_vortex_field(k=1.0), C12, NAT, FREE,
                               [0.1, 0.5], [0.2, 0.3, 0.4], [0.0, 0.1])
        rows = [(rx, ry, t) for rx in [0.1, 0.5] for ry in [0.2, 0.3, 0.4]
                for t in [0.0, 0.1]]
        assert report.points.shape == (12, 3)
        assert report.residual_real.shape == report.residual_imag.shape == (12,)
        assert report.points.tolist() == [list(p) for p in rows]

    def test_constant_field_broadcasts_to_the_lattice(self):
        report = evaluate_grid(constant_field(1.0), C12, NAT, FREE,
                               [0.1, 0.5], [0.2], [0.0, 0.1, 0.2])
        assert report.residual_real.shape == report.residual_imag.shape == (6,)
        assert report.max_abs_real == report.max_abs_imag == 0.0

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan])
    def test_rejects_bad_field_value_and_names_the_point(self, bad):
        # z = bad only at r_x = 0.5, t = 0.1
        value = lambda rx, ry, t: np.where((rx == 0.5) & (t == 0.1), bad, 1.0 + rx)
        with pytest.raises(DomainError, match=r"at \(0\.5, 0\.2, 0\.1\)"):
            evaluate_grid(ZField(value=value), C12, NAT, FREE,
                          [0.1, 0.5], [0.2], [0.0, 0.1])

    @given(kind=st.sampled_from(FIELD_KINDS),
           a=st.tuples(coef, coef, coef, unit), b=st.tuples(coef, coef, coef, unit),
           cx=st.floats(min_value=-3.0, max_value=3.0),
           cy=st.floats(min_value=-3.0, max_value=3.0),
           hbar=unit, mass=unit, u_f=st.floats(min_value=-10.0, max_value=10.0),
           rx=axis, ry=axis, t=axis)
    @settings(max_examples=200, deadline=None)
    def test_grid_matches_pointwise_residuals(self, kind, a, b, cx, cy, hbar,
                                              mass, u_f, rx, ry, t):
        c = CParam(cx, cy)
        if c.modulus_sq() < 1e-6:
            return
        fld = make_field(kind, a, b)
        params = PhysicalParams(hbar, mass)
        pot = Potential.fixed(u_f)
        report = evaluate_grid(fld, c, params, pot, rx, ry, t)
        rows = [(x, y, s) for x in rx for y in ry for s in t]
        assert report.points.tolist() == [list(p) for p in rows]
        for p, r, i in zip(rows, report.residual_real, report.residual_imag):
            want = complex_residual(fld, c, params, pot, p)
            assert r == want.real
            z, zt, zx, zy, _, _ = fld.partials(p)
            term_scale = (abs(hbar * zt)
                          + abs(hbar ** 2 / (2 * mass) * cy / z * (zx * zx + zy * zy))
                          + abs(z * cy / c.modulus_sq() * u_f))
            assert abs(i - want.imag) <= 1e-13 * term_scale

    def test_potential_is_a_float(self):
        # Potential.fixed(u_f) is float(u_f): the same residuals either way.
        grid = [0.1, 0.5, 1.0]
        args = (one_vortex_field(k=1.0), C12, PhysicalParams(1.3, 0.7))
        plain = evaluate_grid(*args, 2.5, grid, grid, grid)
        fixed = evaluate_grid(*args, Potential.fixed(2.5), grid, grid, grid)
        assert Potential.fixed(2.5) == 2.5
        assert np.array_equal(plain.residual_real, fixed.residual_real)
        assert np.array_equal(plain.residual_imag, fixed.residual_imag)

    def test_solution_grid_is_clean(self):
        field = one_vortex_field(k=1.0)
        pot = Potential.fixed(2.5)
        grid = [0.1, 0.5, 1.0]
        report = evaluate_grid(field, C12, NAT, pot, grid, grid, grid)
        assert report.max_abs_imag < 1e-10
        assert len(report.points) == 27

    def test_csv_and_summary(self, tmp_path):
        field = one_vortex_field(k=1.0)
        pot = Potential.fixed(2.5)
        report = evaluate_grid(field, C12, NAT, pot, [0.1, 0.5], [0.2], [0.0])
        path = tmp_path / "grid.csv"
        with open(path, "w") as fh:
            report.write_csv(fh)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "r_x,r_y,t,residual_real,residual_imag"
        assert len(lines) == 3
        assert report.residual_imag.size == 2
        assert report.max_abs_imag < 1e-10
