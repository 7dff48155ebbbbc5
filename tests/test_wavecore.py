import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zvortex.wavecore import (
    CParam,
    DomainError,
    NormalizabilityKind,
    WaveValue,
    _require_positive,
    cauchy_formula,
    check_cauchy_riemann,
    contour_integral,
    d2psi_dc2,
    dpsi_dc,
    eval_psi,
    float_range,
    laplace_residual,
    normalizability,
    partials_uv,
    psi_values,
)

E = math.e

z_values = st.floats(min_value=0.5, max_value=2.0)
xy_values = st.floats(min_value=-2.0, max_value=2.0)


def fd_dpsi_dc(z, c, h=1e-6):
    # independent central difference over the complex exponent
    px = eval_psi(z, CParam(c.x + h, c.y)).as_complex()
    mx = eval_psi(z, CParam(c.x - h, c.y)).as_complex()
    return (px - mx) / (2 * h)


# The scalar kernels as the package had them before they worked on numpy
# arrays, kept verbatim (scalar_ prefixed) as oracles for the array ones.
def scalar_eval_psi(z: float, c: CParam) -> WaveValue:
    """Evaluate psi = z**c = z**x * (cos(y ln z) + i sin(y ln z))."""
    return WaveValue.from_complex(cmath.exp(c.as_complex() * math.log(z)))


def scalar_check_cauchy_riemann(z: float, c: CParam, h: float = 1e-5) -> tuple[float, float]:
    px = scalar_eval_psi(z, CParam(c.x + h, c.y))
    mx = scalar_eval_psi(z, CParam(c.x - h, c.y))
    py = scalar_eval_psi(z, CParam(c.x, c.y + h))
    my = scalar_eval_psi(z, CParam(c.x, c.y - h))
    du_dx = (px.u - mx.u) / (2.0 * h)
    dv_dx = (px.v - mx.v) / (2.0 * h)
    du_dy = (py.u - my.u) / (2.0 * h)
    dv_dy = (py.v - my.v) / (2.0 * h)
    return abs(du_dx - dv_dy), abs(du_dy + dv_dx)


def scalar_laplace_residual(z0: float, c0: CParam, h: float = 1e-4) -> tuple[float, float]:
    center = scalar_eval_psi(z0, c0)
    px = scalar_eval_psi(z0, CParam(c0.x + h, c0.y))
    mx = scalar_eval_psi(z0, CParam(c0.x - h, c0.y))
    py = scalar_eval_psi(z0, CParam(c0.x, c0.y + h))
    my = scalar_eval_psi(z0, CParam(c0.x, c0.y - h))
    inv_h2 = 1.0 / (h * h)
    lap_u = (px.u + mx.u + py.u + my.u - 4.0 * center.u) * inv_h2
    lap_v = (px.v + mx.v + py.v + my.v - 4.0 * center.v) * inv_h2
    return abs(lap_u), abs(lap_v)


def scalar_contour_integral(
    z: float, center: CParam, radius: float, n_points: int = 1024
) -> WaveValue:
    lnz = math.log(z)
    c0 = center.as_complex()
    total = 0j
    dtheta = 2.0 * math.pi / n_points
    for j in range(n_points):
        theta = j * dtheta
        offset = radius * cmath.exp(1j * theta)
        total += cmath.exp((c0 + offset) * lnz) * (1j * offset)
    total *= dtheta
    return WaveValue.from_complex(total)


def scalar_cauchy_formula(
    z: float, a: CParam, center: CParam, radius: float, n_points: int = 2048
) -> WaveValue:
    ac = a.as_complex()
    c0 = center.as_complex()
    lnz = math.log(z)
    total = 0j
    dtheta = 2.0 * math.pi / n_points
    for j in range(n_points):
        theta = j * dtheta
        offset = radius * cmath.exp(1j * theta)
        cj = c0 + offset
        total += cmath.exp(cj * lnz) / (cj - ac) * (1j * offset)
    total *= dtheta / (2j * math.pi)
    return WaveValue.from_complex(total)


EPS = np.finfo(float).eps


def random_points(n=2000, seed=5):
    """Seeded (z, x, y) arrays over the verify ranges, plus the special
    points z = 1 and y = 0."""
    rng = np.random.default_rng(seed)
    z = np.r_[rng.uniform(0.5, 2.0, n), 1.0, 1.7]
    x = np.r_[rng.uniform(-2.0, 2.0, n), 1.0, -0.5]
    y = np.r_[rng.uniform(-2.0, 2.0, n), 2.0, 0.0]
    return z, x, y


class TestArrayKernels:
    """The array kernels against the scalar ones above. Each psi value may
    differ from the scalar one by a few ulp; a stencil divides that by its
    step, so the bounds are 8 eps / h (Cauchy-Riemann) and 8 eps / h**2
    (Laplace) of the scale z**x. The contour sums also add their terms in
    another order: they are held to 1e-13 of the largest |psi| on the
    contour, times the radius for the closed integral."""

    def test_psi_values(self):
        z, x, y = random_points()
        got = psi_values(z, x, y)
        want = np.array([scalar_eval_psi(a, CParam(b, d)).as_complex()
                         for a, b, d in zip(z, x, y)])
        assert np.all(np.abs(got - want) <= 4 * EPS * np.abs(want))
        w = eval_psi(z, CParam(x, y))
        assert np.array_equal(w.u, got.real) and np.array_equal(w.v, got.imag)

    def test_broadcast_axes_match_full_lattice(self):
        z, x, y = np.array([0.5, 1.3]), np.array([-1.0, 0.0, 2.0]), np.array([0.5, -2.0])
        lattice = np.meshgrid(z, x, y, indexing="ij")
        broadcast = psi_values(z[:, None, None], x[None, :, None], y[None, None, :])
        assert np.array_equal(broadcast, psi_values(*lattice))

    @pytest.mark.parametrize("h", [1e-5, 1e-3])
    def test_cauchy_riemann(self, h):
        z, x, y = random_points()
        got = np.array(check_cauchy_riemann(z, CParam(x, y), h))
        want = np.array([scalar_check_cauchy_riemann(a, CParam(b, d), h)
                         for a, b, d in zip(z, x, y)]).T
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 8 * EPS / h * z ** x)

    @pytest.mark.parametrize("h", [1e-4, 1e-3])
    def test_laplace(self, h):
        z, x, y = random_points()
        got = np.array(laplace_residual(z, CParam(x, y), h))
        want = np.array([scalar_laplace_residual(a, CParam(b, d), h)
                         for a, b, d in zip(z, x, y)]).T
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 8 * EPS / h ** 2 * z ** x)

    @given(z=st.floats(min_value=0.3, max_value=3.0), cx=xy_values, cy=xy_values,
           radius=st.floats(min_value=0.2, max_value=2.0),
           n_points=st.integers(min_value=4, max_value=3000),
           ax=st.floats(min_value=-0.5, max_value=0.5),
           ay=st.floats(min_value=-0.5, max_value=0.5))
    @settings(max_examples=100, deadline=None)
    def test_contour_sums(self, z, cx, cy, radius, n_points, ax, ay):
        center = CParam(cx, cy)
        max_psi = max(z ** (cx + radius), z ** (cx - radius))
        got = contour_integral(z, center, radius, n_points)
        want = scalar_contour_integral(z, center, radius, n_points)
        assert (abs(got.as_complex() - want.as_complex())
                <= 1e-13 * max_psi * radius)
        a = CParam(cx + ax * radius, cy + ay * radius)
        got = cauchy_formula(z, a, center, radius, n_points).as_complex()
        want = scalar_cauchy_formula(z, a, center, radius, n_points).as_complex()
        assert abs(got - want) <= 1e-13 * max_psi

    @pytest.mark.parametrize("bad", [0.0, -1.5, math.nan])
    def test_array_rejects_non_positive_z(self, bad):
        z = np.array([0.5, bad, 2.0])
        with pytest.raises(DomainError, match="got " + str(bad)):
            check_cauchy_riemann(z, CParam(np.zeros(3), np.ones(3)))
        with pytest.raises(DomainError):
            laplace_residual(z, CParam(np.zeros(3), np.ones(3)))


class TestEvalPsi:
    def test_z_one_is_unity(self):
        w = eval_psi(1.0, CParam(3.7, -1.2))
        assert w.u == 1.0 and w.v == 0.0

    def test_real_square_root(self):
        w = eval_psi(4.0, CParam(0.5, 0.0))
        assert w.u == pytest.approx(2.0, abs=1e-14)
        assert w.v == 0.0

    def test_e_to_one_plus_two_i(self):
        # frozen from an arbitrary-precision exp(c ln z) oracle
        w = eval_psi(E, CParam(1.0, 2.0))
        assert w.u == pytest.approx(-1.13120438376, abs=1e-10)
        assert w.v == pytest.approx(2.47172667200, abs=1e-10)

    def test_rejects_nonpositive_z(self):
        with pytest.raises(DomainError):
            eval_psi(0.0, CParam(1.0, 0.0))
        with pytest.raises(DomainError):
            eval_psi(-2.0, CParam(1.0, 0.0))

    @given(z=z_values, x=xy_values, y=xy_values)
    def test_magnitude_is_z_to_x(self, z, x, y):
        w = eval_psi(z, CParam(x, y))
        assert math.hypot(w.u, w.v) == pytest.approx(z ** x, rel=1e-12)

    @given(z=z_values, x=xy_values)
    def test_real_exponent_gives_real_value(self, z, x):
        assert eval_psi(z, CParam(x, 0.0)).v == 0.0


class TestPartials:
    def test_vanish_at_z_one(self):
        assert partials_uv(1.0, CParam(1.0, 2.0)) == (0.0, 0.0, 0.0, 0.0)

    def test_against_finite_differences(self):
        # frozen from a central-difference oracle of eval_psi, step 1e-6
        du_dx, dv_dy, du_dy, dv_dx = partials_uv(E, CParam(1.0, 2.0))
        assert du_dx == pytest.approx(-1.131204, abs=1e-6)
        assert dv_dx == pytest.approx(2.471727, abs=1e-6)
        fd = fd_dpsi_dc(E, CParam(1.0, 2.0))
        assert du_dx == pytest.approx(fd.real, abs=1e-9)
        assert dv_dx == pytest.approx(fd.imag, abs=1e-9)

    @given(z=z_values, x=xy_values, y=xy_values)
    def test_cauchy_riemann_exact(self, z, x, y):
        du_dx, dv_dy, du_dy, dv_dx = partials_uv(z, CParam(x, y))
        assert du_dx == dv_dy
        assert du_dy == -dv_dx


class TestCauchyRiemann:
    def test_trivial_at_z_one(self):
        r1, r2 = check_cauchy_riemann(1.0, CParam(1.0, 2.0), 1e-5)
        assert r1 < 1e-10 and r2 < 1e-10

    @pytest.mark.parametrize("z,c", [(2.0, CParam(1.0, 2.0)),
                                     (0.5, CParam(-1.0, 3.0))])
    def test_residual_is_discretization_noise(self, z, c):
        r1, r2 = check_cauchy_riemann(z, c, 1e-5)
        assert r1 < 1e-8 and r2 < 1e-8

    def test_second_order_in_h(self):
        # residual should drop ~4x when h halves
        for z in (0.5, 2.0):
            c = CParam(1.5, -1.0)
            coarse = max(check_cauchy_riemann(z, c, 2e-3))
            fine = max(check_cauchy_riemann(z, c, 1e-3))
            assert coarse / fine >= 3.5

    def test_step_bounds(self):
        with pytest.raises(DomainError):
            check_cauchy_riemann(2.0, CParam(1.0, 2.0), 0.5)


class TestDerivativesInC:
    def test_zero_at_z_one(self):
        assert dpsi_dc(1.0, CParam(1.0, 2.0)) == d2psi_dc2(1.0, CParam(0.3, 0.4))

    def test_identity_at_z_e(self):
        c = CParam(1.0, 2.0)
        psi = eval_psi(E, c)
        assert dpsi_dc(E, c).u == pytest.approx(psi.u, rel=1e-12)
        assert d2psi_dc2(E, c).v == pytest.approx(psi.v, rel=1e-12)

    def test_matches_finite_difference(self):
        c = CParam(1.0, 2.0)
        d = dpsi_dc(2.0, c).as_complex()
        assert abs(d - fd_dpsi_dc(2.0, c)) < 1e-9
        # second derivative vs second-order stencil
        h = 1e-4
        pp = eval_psi(2.0, CParam(c.x + h, c.y)).as_complex()
        mm = eval_psi(2.0, CParam(c.x - h, c.y)).as_complex()
        mid = eval_psi(2.0, c).as_complex()
        fd2 = (pp - 2 * mid + mm) / h ** 2
        assert abs(d2psi_dc2(2.0, c).as_complex() - fd2) < 1e-6

    @given(z=z_values, x=xy_values, y=xy_values)
    @settings(max_examples=50)
    def test_first_derivative_scaling(self, z, x, y):
        c = CParam(x, y)
        expect = math.log(z) * eval_psi(z, c).as_complex()
        got = dpsi_dc(z, c).as_complex()
        assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


class TestLaplace:
    def test_trivial_at_z_one(self):
        ru, rv = laplace_residual(1.0, CParam(1.0, 2.0), 1e-4)
        assert ru < 1e-12 and rv < 1e-12

    @pytest.mark.parametrize("z,c", [(2.0, CParam(1.0, 2.0)),
                                     (0.5, CParam(2.0, -1.0))])
    def test_harmonic_components(self, z, c):
        ru, rv = laplace_residual(z, c, 1e-4)
        scale = z ** c.x
        assert ru < 1e-6 * scale and rv < 1e-6 * scale

    @pytest.mark.parametrize("h", [0.0, -1e-4, 0.1, -279448.0, math.nan])
    def test_step_bounds(self, h):
        with pytest.raises(DomainError, match="step size"):
            laplace_residual(2.0, CParam(1.0, 2.0), h)


class TestContour:
    def test_entire_function_integrates_to_zero(self):
        res = contour_integral(2.0, CParam(1.0, 2.0), 1.0, 1024)
        max_psi = 2.0 ** 2.0  # |psi| = z^x maxes at x = center.x + radius
        assert math.hypot(res.u, res.v) < 1e-10 * max_psi

    def test_z_one_constant_integrand(self):
        res = contour_integral(1.0, CParam(0.0, 0.0), 2.0, 256)
        assert math.hypot(res.u, res.v) < 1e-13

    def test_large_contour(self):
        res = contour_integral(0.7, CParam(0.0, 0.0), 2.0, 2048)
        max_psi = 0.7 ** -2.0
        assert math.hypot(res.u, res.v) < 1e-10 * max_psi

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(DomainError, match="radius must be positive"):
            contour_integral(2.0, CParam(0.0, 0.0), radius, 64)
        with pytest.raises(DomainError, match="radius must be positive"):
            cauchy_formula(2.0, CParam(0.0, 0.0), CParam(0.0, 0.0), radius, 64)

    def test_quadratic_convergence_or_better(self):
        # spectrally accurate before hitting the machine floor
        coarse = contour_integral(3.0, CParam(0.0, 0.0), 2.0, 8)
        fine = contour_integral(3.0, CParam(0.0, 0.0), 2.0, 16)
        assert math.hypot(fine.u, fine.v) < math.hypot(coarse.u, coarse.v) / 4.0

    def test_array_z_is_each_scalar_sum(self):
        # One evaluation over the nodes for every z, with the bits of the
        # scalar calls, the division by 2 pi i included.
        z = np.array([[0.3, 0.7], [1.3, 2.0]])
        center, a = CParam(0.4, -1.1), CParam(0.5, -1.0)
        for got, one in ((contour_integral(z, center, 1.2, 512),
                          lambda w: contour_integral(w, center, 1.2, 512)),
                         (cauchy_formula(z, a, center, 1.2, 1024),
                          lambda w: cauchy_formula(w, a, center, 1.2, 1024))):
            want = [one(w) for w in z.ravel().tolist()]
            assert got.u.shape == got.v.shape == z.shape
            assert got.u.ravel().tolist() == [w.u for w in want]
            assert got.v.ravel().tolist() == [w.v for w in want]
            assert all(type(w.u) is float for w in want)


class TestCauchyFormula:
    def test_reproduces_eval_psi(self):
        a = CParam(1.0, 2.0)
        got = cauchy_formula(2.0, a, CParam(1.0, 2.0), 1.0, 2048).as_complex()
        want = eval_psi(2.0, a).as_complex()
        assert abs(got - want) / abs(want) < 1e-8

    def test_z_one_gives_unity(self):
        got = cauchy_formula(1.0, CParam(0.3, 0.1), CParam(0.0, 0.0), 1.0, 512)
        assert got.u == pytest.approx(1.0, abs=1e-10)
        assert got.v == pytest.approx(0.0, abs=1e-10)

    def test_origin_value_of_any_z(self):
        got = cauchy_formula(E, CParam(0.0, 0.0), CParam(0.0, 0.0), 1.5, 4096)
        assert got.u == pytest.approx(1.0, abs=1e-10)
        assert got.v == pytest.approx(0.0, abs=1e-10)

    def test_point_outside_contour_rejected(self):
        with pytest.raises(DomainError):
            cauchy_formula(2.0, CParam(2.0, 0.0), CParam(0.0, 0.0), 1.0, 512)
        with pytest.raises(DomainError):
            cauchy_formula(2.0, CParam(1.0, 0.0), CParam(0.0, 0.0), 1.0, 512)


class TestNormalizability:
    @pytest.mark.parametrize("z,x,kind", [
        (0.5, 1.0, NormalizabilityKind.HALF_LINE_CONVERGENT),
        (2.0, -1.0, NormalizabilityKind.HALF_LINE_CONVERGENT),
        (2.0, 1.0, NormalizabilityKind.RESTRICTED),
        (0.5, -1.0, NormalizabilityKind.RESTRICTED),
        (1.0, 1.0, NormalizabilityKind.RESTRICTED),
    ])
    def test_classification(self, z, x, kind):
        assert normalizability(z, x) is kind

    def test_rejects_nonpositive_z(self):
        with pytest.raises(DomainError):
            normalizability(-1.0, 1.0)


class TestRequirePositive:
    # -10**30 is an int beyond int64, which is taken as a float.
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0, -1.0,
                                     -10 ** 30])
    def test_rejects_what_is_not_positive_and_finite(self, bad):
        with pytest.raises(DomainError,
                           match=f"^radius must be positive and finite, got {bad}$"):
            _require_positive(bad, "radius")

    def test_names_the_first_bad_value_and_its_point(self):
        z = np.array([1.0, 2.0, math.inf, -1.0])
        with pytest.raises(DomainError, match=r"^z must be positive and finite, "
                                              r"got inf at \(2\.0, 0\.5\)$"):
            _require_positive(z, "z", (np.arange(4.0), 0.5))

    def test_accepts_positive_finite_values(self):
        _require_positive(np.array([1e-300, 1.0, 1e300]))
        _require_positive(5e-324)


class TestFloatRange:
    @pytest.mark.parametrize("overflow", [
        lambda: np.float64(1e308) * 10.0,          # overflow
        lambda: np.zeros(2) / 0.0,                 # invalid value
        lambda: np.ones(2) / 0.0,                  # divide by zero
        lambda: math.exp(1000.0),                  # OverflowError
        lambda: 1.0 / (1e-200 * 1e-200),           # ZeroDivisionError
    ])
    def test_block_past_the_float_range_is_a_domain_error(self, overflow):
        with pytest.raises(DomainError,
                           match="^psi overflows the float range; it is not finite$"):
            with float_range("psi"):
                overflow()

    def test_decorator_and_passthrough(self):
        @float_range("value")
        def f(x):
            if x < 0:
                raise DomainError("x must be non-negative")
            return np.float64(x) * x

        assert f(3.0) == 9.0
        with pytest.raises(DomainError, match="value overflows"):
            f(1e200)
        with pytest.raises(DomainError, match="non-negative"):
            f(-1.0)

    def test_flags_raise_only_inside(self):
        before = np.geterr()
        with float_range("value"):
            assert np.geterr() == {**before, "over": "raise", "invalid": "raise",
                                   "divide": "raise"}
        assert np.geterr() == before

