import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from zvortex.schrodinger_field import (PhysicalParams, Potential,
                                       imag_residual, real_residual)
from zvortex.vortex import (
    Branch,
    VortexSolution,
    collapse_bit,
    collapse_time,
    gradient_map_segment,
    imag_solution,
    k_from_potential,
    normalization_constant,
    real_solution,
    segment_involution,
    segment_involution_inverse,
    squared_map,
    trajectory,
    vortex_ratio,
    zero_vortex_lifetime,
)
from zvortex.wavecore import CParam, DomainError

NAT = PhysicalParams()
C12 = CParam(1.0, 2.0)

ks_values = st.floats(min_value=0.1, max_value=2.0)


def quad_norm_constant(sol):
    """Quadrature oracle: A = 1/sqrt(integral of z(t)^2 dt) over the
    branch's lifetime."""
    upper = collapse_time(sol)
    integral, _ = quad(lambda t: sol.z(t) ** 2, 0.0, upper, limit=200)
    return 1.0 / math.sqrt(integral)


class TestKFromPotential:
    def test_zero_potential(self):
        assert k_from_potential(0.0, NAT) == 0.0

    def test_unit_k(self):
        assert k_from_potential(2.5, NAT) == pytest.approx(1.0, rel=1e-15)

    def test_k_two(self):
        assert k_from_potential(10.0, NAT) == pytest.approx(2.0, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            k_from_potential(-1.0, NAT)

    @pytest.mark.parametrize("u_f", [-1e-300, math.nan])
    def test_negative_or_nan_potential_rejected(self, u_f):
        with pytest.raises(DomainError, match="potential must be non-negative"):
            k_from_potential(u_f, NAT)


class TestSolutions:
    def test_real_solution_zero_potential_is_unity(self):
        field = real_solution(0.0, NAT, sign=1)
        assert field(0.7, -0.3, 2.0) == 1.0

    def test_real_solution_solves_r(self):
        field = real_solution(2.5, NAT, sign=1)
        pot = Potential.fixed(2.5)
        for p in [(0.1, 0.3, 0.0), (1.0, 0.5, 0.2)]:
            assert abs(real_residual(field, C12, NAT, pot, p)) < 1e-10
            assert abs(imag_residual(field, C12, NAT, pot, p)) > 1e-3

    def test_imag_solution_k(self):
        sol = imag_solution(Branch.ONE_VORTEX, 2.5, NAT)
        assert sol.k == pytest.approx(1.0)
        sol0 = imag_solution(Branch.ZERO_VORTEX, 2.5, NAT)
        assert sol0.k == pytest.approx(1.0)
        assert sol0.branch is Branch.ZERO_VORTEX

    def test_imag_solution_solves_i(self):
        pot = Potential.fixed(2.5)
        for branch in Branch:
            field = imag_solution(branch, 2.5, NAT).to_field()
            for p in [(0.2, 0.5, 0.0), (0.9, 0.1, 0.4)]:
                assert abs(imag_residual(field, C12, NAT, pot, p)) < 1e-10

    def test_degenerate_potential_rejected(self):
        with pytest.raises(DomainError):
            imag_solution(Branch.ONE_VORTEX, 0.0, NAT)

    def test_negative_s_canonicalized(self):
        sol = VortexSolution(Branch.ONE_VORTEX, k=1.0, s=-1.0, beta=1.0)
        assert sol.branch is Branch.ZERO_VORTEX
        assert sol.s == 1.0

    @pytest.mark.parametrize("name", ["k", "s", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        kw = {"k": 1.0, "s": 1.0, "beta": 1.0, name: value}
        with pytest.raises(DomainError, match="finite"):
            VortexSolution(Branch.ONE_VORTEX, **kw)


class TestTrajectory:
    def test_initial_radius(self):
        sol = VortexSolution(Branch.ONE_VORTEX, k=1.0, s=1.0, beta=1.0)
        traj = trajectory(sol, t_grid=[0.0])
        assert traj.radius[0] == pytest.approx(math.e, rel=1e-12)
        assert traj.gradient_radius[0] == pytest.approx(math.e * math.sqrt(2), rel=1e-12)

    def test_collapse_point(self):
        sol = VortexSolution(Branch.ONE_VORTEX, k=1.0, s=1.0, beta=1.0)
        traj = trajectory(sol, t_grid=[1.0 / 3.0])
        assert traj.radius[0] == pytest.approx(1.0, rel=1e-12)
        assert traj.u[0] == pytest.approx(1.0, abs=1e-12)
        assert traj.v[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_vortex_radius_decreasing(self):
        sol = VortexSolution(Branch.ZERO_VORTEX, k=1.0, s=1.0, beta=1.0)
        radii = trajectory(sol, t_grid=[0.1 * i for i in range(30)]).radius.tolist()
        assert all(a > b for a, b in zip(radii, radii[1:]))
        assert radii[-1] < 1e-3

    @given(k=ks_values, s=ks_values)
    @settings(max_examples=30)
    def test_radius_and_gradient_radius_identities(self, k, s):
        sol = VortexSolution(Branch.ONE_VORTEX, k=k, s=s, beta=1.0)
        traj = trajectory(sol, t_grid=[0.0, 0.2, 0.8])
        for t, u, v, radius, gradient_radius in zip(
                traj.t, traj.u, traj.v, traj.radius, traj.gradient_radius):
            z = sol.z(t)
            assert radius == pytest.approx(z, rel=1e-12)
            assert gradient_radius == pytest.approx(k * z * math.sqrt(2), rel=1e-12)
            assert math.hypot(u, v) == pytest.approx(z, rel=1e-12)

    @pytest.mark.parametrize("k,s,beta", [
        (1000.0, 1.0, 1.0),    # exp(1000) overflows
        (1e200, 1.0, 1.0),     # k**2 overflows
        (1e150, 1.0, 1e10),    # 3 k^2 beta is inf, and inf * 0 is NaN at t = 0
        (2.0, 354.5, 1e-300),  # z finite, k z sqrt(2) overflows
    ])
    def test_radius_beyond_float_range_rejected(self, k, s, beta):
        sol = VortexSolution(Branch.ONE_VORTEX, k=k, s=s, beta=beta)
        with pytest.raises(DomainError, match="not finite"):
            trajectory(sol, t_grid=[0.0, 0.05, 0.1])


class TestCollapse:
    def test_one_vortex_time(self):
        sol = VortexSolution(Branch.ONE_VORTEX, k=1.0, s=1.0, beta=1.0)
        assert collapse_time(sol) == pytest.approx(1.0 / 3.0, rel=1e-15)
        sol2 = VortexSolution(Branch.ONE_VORTEX, k=2.0, s=3.0, beta=1.0)
        assert collapse_time(sol2) == pytest.approx(0.5, rel=1e-15)

    def test_zero_vortex_never_collapses(self):
        sol = VortexSolution(Branch.ZERO_VORTEX, k=1.0, s=1.0, beta=1.0)
        assert collapse_time(sol) == math.inf

    def test_psi_at_collapse_is_unity(self):
        sol = VortexSolution(Branch.ONE_VORTEX, k=1.0, s=1.0, beta=1.0)
        assert abs(sol.psi(collapse_time(sol)) - 1.0) < 1e-12

    def test_bits(self):
        assert collapse_bit(VortexSolution(Branch.ONE_VORTEX, 1.0)) == 1
        assert collapse_bit(VortexSolution(Branch.ZERO_VORTEX, 1.0)) == 0

    def test_one_vortex_crosses_one_exactly_once(self):
        sol = VortexSolution(Branch.ONE_VORTEX, k=1.3, s=0.7, beta=1.0)
        ts = [0.05 * i for i in range(40)]
        zs = [sol.z(t) for t in ts]
        assert all(a > b for a, b in zip(zs, zs[1:]))
        crossings = sum(1 for a, b in zip(zs, zs[1:]) if a >= 1.0 > b)
        assert crossings == 1

    def test_zero_vortex_lifetime(self):
        sol = VortexSolution(Branch.ZERO_VORTEX, k=1.0, s=1.0, beta=1.0)
        # frozen: (ln 1e6 - 1)/3
        assert zero_vortex_lifetime(sol, 1e-6) == pytest.approx(4.27183685265,
                                                                rel=1e-10)
        with pytest.raises(DomainError):
            zero_vortex_lifetime(sol, 0.9)  # above e^{-ks}


class TestNormalization:
    def test_a0_closed_form(self):
        sol = VortexSolution(Branch.ZERO_VORTEX, k=1.0, s=1.0, beta=1.0)
        # frozen from the quadrature oracle
        assert normalization_constant(sol) == pytest.approx(6.6584034568,
                                                            rel=1e-9)

    def test_a1_closed_form(self):
        sol = VortexSolution(Branch.ONE_VORTEX, k=1.0, s=1.0, beta=1.0)
        assert normalization_constant(sol) == pytest.approx(0.969074742472,
                                                            rel=1e-9)

    def test_a0_small_s_limit(self):
        sol = VortexSolution(Branch.ZERO_VORTEX, k=1.0, s=1e-12, beta=1.0)
        assert normalization_constant(sol) == pytest.approx(math.sqrt(6.0),
                                                            rel=1e-9)

    @given(k=ks_values, s=ks_values)
    @settings(max_examples=20, deadline=None)
    def test_against_quadrature(self, k, s):
        for branch in Branch:
            sol = VortexSolution(branch, k=k, s=s, beta=1.0)
            assert normalization_constant(sol) == pytest.approx(
                quad_norm_constant(sol), rel=1e-6)

    @given(k=ks_values, s=ks_values)
    @settings(max_examples=30)
    def test_ratio_identity(self, k, s):
        a0 = normalization_constant(VortexSolution(Branch.ZERO_VORTEX, k, s, 1.0))
        a1 = normalization_constant(VortexSolution(Branch.ONE_VORTEX, k, s, 1.0))
        assert (a0 / a1) ** 2 == pytest.approx(vortex_ratio(k, s), rel=1e-9)

    @pytest.mark.parametrize("k,s", [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0),
                                     (1.0, math.nan)])
    def test_ratio_rejects_bad_ks(self, k, s):
        with pytest.raises(DomainError, match=r"k\*s must be positive"):
            vortex_ratio(k, s)

    def test_ratio_values(self):
        assert vortex_ratio(1.0, 1.0) == pytest.approx(47.2090939342, rel=1e-10)
        assert vortex_ratio(0.5, 1.0) == pytest.approx(4.67077427047, rel=1e-10)
        assert vortex_ratio(1.0, 1e-9) == pytest.approx(0.0, abs=1e-6)


class TestOverflow:
    """Past k s of about 709 the closed forms leave the float range; each
    says so with a DomainError, at k 1000 and s 1."""

    def test_z(self):
        with pytest.raises(DomainError, match="z overflows"):
            VortexSolution(Branch.ONE_VORTEX, k=1000.0, s=1.0).z(0.0)

    def test_psi(self):
        with pytest.raises(DomainError, match="psi overflows"):
            VortexSolution(Branch.ONE_VORTEX, k=1000.0, s=1.0).psi(0.0)

    @pytest.mark.parametrize("branch", list(Branch))
    def test_normalization_constant(self, branch):
        with pytest.raises(DomainError, match="normalization constant"):
            normalization_constant(VortexSolution(branch, k=1000.0, s=1.0))

    def test_vortex_ratio(self):
        with pytest.raises(DomainError, match="vortex ratio"):
            vortex_ratio(1000.0, 1.0)


class TestSilentOverflow:
    """Python float * and + overflow to inf without raising; at k 1e154 and
    s 1e155 the product k s is inf, and each closed form still says so with
    a DomainError instead of returning inf or nan."""

    K, S = 1e154, 1e155

    def test_z(self):
        with pytest.raises(DomainError, match="z overflows"):
            VortexSolution(Branch.ONE_VORTEX, k=self.K, s=self.S).z(0.0)

    def test_psi(self):
        with pytest.raises(DomainError, match="psi overflows"):
            VortexSolution(Branch.ONE_VORTEX, k=self.K, s=self.S).psi(0.0)

    def test_normalization_constant(self):
        sol = VortexSolution(Branch.ZERO_VORTEX, k=self.K, s=self.S)
        with pytest.raises(DomainError, match="normalization constant"):
            normalization_constant(sol)

    def test_vortex_ratio(self):
        with pytest.raises(DomainError, match="vortex ratio"):
            vortex_ratio(self.K, self.S)

    def test_collapse_time(self):
        # 3 k beta underflows to 0.
        sol = VortexSolution(Branch.ONE_VORTEX, k=1e-200, s=1e200, beta=1e-200)
        with pytest.raises(DomainError, match="collapse time"):
            collapse_time(sol)

    def test_values_stay_python_floats(self):
        sol = VortexSolution(Branch.ONE_VORTEX, k=1.3, s=0.7, beta=0.9)
        assert type(sol.z(0.1)) is float and type(sol.psi(0.1)) is complex
        assert type(collapse_time(sol)) is float
        assert type(vortex_ratio(1.3, 0.7)) is float
        for branch in Branch:
            assert type(normalization_constant(VortexSolution(branch, 1.3, 0.7))) is float
        zero = VortexSolution(Branch.ZERO_VORTEX, k=1.3, s=0.7)
        assert type(zero_vortex_lifetime(zero, 1e-6)) is float


class TestGeometry:
    def test_segment_endpoints(self):
        assert gradient_map_segment(Branch.ONE_VORTEX, 1.0, 1.0) == (1.0, 1.0, 1.0)
        assert gradient_map_segment(Branch.ZERO_VORTEX, 1.0, 1.0) == (-1.0, -1.0, 1.0)

    def test_zero_branch_tends_to_origin(self):
        p = gradient_map_segment(Branch.ZERO_VORTEX, 1.0, 1e-9)
        assert max(abs(v) for v in p) < 1e-8

    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan])
    def test_bad_k_rejected(self, k):
        with pytest.raises(DomainError, match="k must be positive"):
            gradient_map_segment(Branch.ONE_VORTEX, k, [1.0, 2.0])

    def test_branch_domains_enforced(self):
        with pytest.raises(DomainError):
            gradient_map_segment(Branch.ONE_VORTEX, 1.0, [0.5])
        with pytest.raises(DomainError):
            gradient_map_segment(Branch.ZERO_VORTEX, 1.0, [2.0])

    def test_points_beyond_float_range_rejected(self):
        with pytest.raises(DomainError, match="not finite"):
            gradient_map_segment(Branch.ONE_VORTEX, 1e200, [1.0, 1e200])
        with pytest.raises(DomainError, match="not finite"):
            squared_map(Branch.ONE_VORTEX, 1e200, 2.0)
        with pytest.raises(DomainError, match="not finite"):
            segment_involution_inverse((0.0, 0.0, 1e-310), 1e10)
        with pytest.raises(DomainError):
            gradient_map_segment(Branch.ONE_VORTEX, 1.0, [1.0, math.nan])

    def test_involution_example(self):
        assert segment_involution((2.0, 2.0, 2.0), 1.0) == (-0.5, -0.5, 0.5)

    def test_involution_image_on_zero_line(self):
        k = 1.7
        for z in [1.01, 2.0, 5.0, 50.0]:
            px, py, pz = segment_involution((k * z, k * z, z), k)
            assert px == pytest.approx(-k * pz, rel=1e-12)
            assert py == pytest.approx(-k * pz, rel=1e-12)
            assert 0.0 < pz < 1.0

    def test_involution_round_trip(self):
        k = 0.8
        for z in [1.5, 3.0, 10.0]:
            start = (k * z, k * z, z)
            back = segment_involution_inverse(segment_involution(start, k), k)
            for a, b in zip(back, start):
                assert a == pytest.approx(b, rel=1e-12)

    def test_involution_domain(self):
        with pytest.raises(DomainError):
            segment_involution((1.0, 1.0, 1.0), 1.0)

    def test_squared_map_unites_branches(self):
        k = 1.0
        # images from both branches lie on the single ray (k^2 w, k^2 w, w)
        for branch, z in [(Branch.ZERO_VORTEX, 0.5), (Branch.ONE_VORTEX, 2.0)]:
            px, py, pz = squared_map(branch, k, z)
            assert px == pytest.approx(k * k * pz, rel=1e-12)
            assert py == px

    def test_squared_map_fixed_point_and_values(self):
        assert squared_map(Branch.ONE_VORTEX, 1.0, 1.0) == (1.0, 1.0, 1.0)
        assert squared_map(Branch.ONE_VORTEX, 2.0, 1.5) == (9.0, 9.0, 2.25)

    def test_squared_map_continuous_at_seam(self):
        k = 1.3
        eps = 1e-8
        below = squared_map(Branch.ZERO_VORTEX, k, 1.0 - eps)
        above = squared_map(Branch.ONE_VORTEX, k, 1.0 + eps)
        for b, a in zip(below, above):
            assert abs(a - b) < 1e-6

    def test_involution_composed_with_squared_map(self):
        # the squared image of a point and of its involution partner lie on
        # the same ray through the origin
        k, z = 1.0, 2.0
        direct = squared_map(Branch.ONE_VORTEX, k, z)
        _, _, zp = segment_involution((k * z, k * z, z), k)
        partner = squared_map(Branch.ZERO_VORTEX, k, zp)
        assert direct[0] / direct[2] == pytest.approx(partner[0] / partner[2],
                                                      rel=1e-12)
