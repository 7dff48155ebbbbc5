"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import zvortex as zv
from zvortex import Branch, CParam, PhysicalParams, Potential

NAT = PhysicalParams()
C12 = CParam(1.0, 2.0)

GRID_Z = [0.5, 0.8, 1.0, 1.5, 2.0]
GRID_XY = [-2.0, -1.0, 0.0, 1.0, 2.0]


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def cr_max(h):
    worst = 0.0
    for z in GRID_Z:
        for x in GRID_XY:
            for y in GRID_XY:
                worst = max(worst, *zv.check_cauchy_riemann(z, CParam(x, y), h))
    return worst


def test_criterion_1_cauchy_riemann():
    start = time.perf_counter()
    worst = cr_max(1e-5)
    # O(h^2) convergence is checked in the truncation-dominated regime;
    # at h = 1e-5 the residual is already round-off noise.
    coarse = cr_max(1e-3)
    fine = cr_max(5e-4)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and coarse / fine >= 3.5 and elapsed < 1.0
    report("criterion 1 (Cauchy-Riemann suite)", ok,
           f"max={worst:.3e}, halving ratio={coarse / fine:.2f}, {elapsed:.2f}s")


def test_criterion_2_laplace():
    start = time.perf_counter()
    worst = 0.0
    for z in GRID_Z:
        for x in GRID_XY:
            for y in GRID_XY:
                ru, rv = zv.laplace_residual(z, CParam(x, y), 1e-4)
                scale = z ** x
                worst = max(worst, ru / scale, rv / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 1.0
    report("criterion 2 (Laplace suite)", ok,
           f"max relative={worst:.3e}, {elapsed:.2f}s")


def test_criterion_3_cauchy_theorem_and_formula():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_theorem = 0.0
    worst_formula = 0.0
    for _ in range(20):
        z = float(rng.uniform(0.5, 2.0))
        center = CParam(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        radius = float(rng.uniform(0.5, 2.0))
        max_psi = max(z ** (center.x + radius), z ** (center.x - radius))
        res = zv.contour_integral(z, center, radius, 1024)
        worst_theorem = max(worst_theorem, res.value.magnitude() / max_psi)
        # random point strictly inside the contour
        rho = radius * float(rng.uniform(0.0, 0.8))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        a = CParam(center.x + rho * math.cos(phi), center.y + rho * math.sin(phi))
        got = zv.cauchy_formula(z, a, center, radius, 2048).as_complex()
        want = zv.eval_psi(z, a).as_complex()
        worst_formula = max(worst_formula, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - start
    ok = worst_theorem < 1e-10 and worst_formula < 1e-8 and elapsed < 1.0
    report("criterion 3 (Cauchy theorem/formula)", ok,
           f"theorem={worst_theorem:.3e}, formula={worst_formula:.3e}, "
           f"{elapsed:.2f}s")


def test_criterion_4_solution_residuals():
    start = time.perf_counter()
    u_f = 2.5
    k = zv.k_from_potential(u_f, NAT)
    pot = Potential.fixed(u_f)
    axis = [0.05 + 0.1 * i for i in range(10)]

    real_field = zv.real_solution(u_f, NAT, sign=1)
    one = zv.imag_solution(Branch.ONE_VORTEX, u_f, NAT).to_field()
    zero = zv.imag_solution(Branch.ZERO_VORTEX, u_f, NAT).to_field()

    worst_analytic = 0.0
    worst_fd = 0.0
    worst_cross = 0.0
    for field, kind in ((real_field, "R"), (one, "I"), (zero, "I")):
        fd_field = zv.ZField(value=field.value)
        for rx in axis:
            for ry in axis:
                for t in axis:
                    p = (rx, ry, t)
                    if kind == "R":
                        res = zv.real_residual(field, C12, NAT, pot, p)
                        res_fd = zv.real_residual(fd_field, C12, NAT, pot, p)
                    else:
                        res = zv.imag_residual(field, C12, NAT, pot, p)
                        res_fd = zv.imag_residual(fd_field, C12, NAT, pot, p)
                    worst_analytic = max(worst_analytic, abs(res))
                    worst_fd = max(worst_fd, abs(res_fd))

    # cross residuals: I of the R-solution, R of the I-solution
    for rx in axis[::3]:
        for ry in axis[::3]:
            for t in axis[::3]:
                p = (rx, ry, t)
                z1 = one(*p)
                got_r = zv.real_residual(one, C12, NAT, pot, p)
                worst_cross = max(worst_cross,
                                  abs(got_r - 0.5 * k * k * z1) / (0.5 * k * k * z1))
                zr = real_field(*p)
                want_i = 0.5 * (2.0 / zr) * (k * k * zr * zr) + zr * 2.0 * u_f / 5.0
                got_i = zv.imag_residual(real_field, C12, NAT, pot, p)
                worst_cross = max(worst_cross, abs(got_i - want_i) / want_i)
    elapsed = time.perf_counter() - start
    ok = (worst_analytic < 1e-10 and worst_fd < 1e-5
          and worst_cross < 1e-8 and elapsed < 5.0)
    report("criterion 4 (solution residuals)", ok,
           f"analytic={worst_analytic:.3e}, fd={worst_fd:.3e}, "
           f"cross rel={worst_cross:.3e}, {elapsed:.2f}s")


def test_criterion_5_collapse():
    sol = zv.VortexSolution(Branch.ONE_VORTEX, k=1.0, s=1.0, beta=1.0)
    t_star = zv.collapse_time(sol)
    psi_err = abs(sol.psi(t_star) - 1.0)
    traj = zv.trajectory(sol, t_grid=[0.0])
    radius_err = abs(traj.radius[0] - math.e) / math.e
    ok = t_star == 1.0 / 3.0 and psi_err < 1e-12 and radius_err < 1e-12
    report("criterion 5 (collapse)", ok,
           f"t*={t_star}, |psi(t*)-1|={psi_err:.2e}, radius rel err={radius_err:.2e}")


def test_criterion_6_normalization():
    rng = np.random.default_rng(7)
    worst_norm = 0.0
    worst_ratio = 0.0
    for _ in range(20):
        k = float(rng.uniform(0.2, 2.0))
        s = float(rng.uniform(0.2, 2.0))
        for branch in Branch:
            sol = zv.VortexSolution(branch, k=k, s=s, beta=1.0)
            a = zv.normalization_constant(sol)
            upper = zv.collapse_time(sol)
            integral, _ = quad(lambda t: abs(sol.psi(t)) ** 2, 0.0, upper,
                               limit=200)
            worst_norm = max(worst_norm, abs(a * a * integral - 1.0))
        a0 = zv.normalization_constant(zv.VortexSolution(Branch.ZERO_VORTEX, k, s, 1.0))
        a1 = zv.normalization_constant(zv.VortexSolution(Branch.ONE_VORTEX, k, s, 1.0))
        ratio = zv.vortex_ratio(k, s)
        worst_ratio = max(worst_ratio, abs((a0 / a1) ** 2 - ratio) / ratio)
    ok = worst_norm < 1e-6 and worst_ratio < 1e-9
    report("criterion 6 (normalization)", ok,
           f"norm err={worst_norm:.3e}, ratio rel err={worst_ratio:.3e}")


def test_criterion_7_energy_ladder():
    ok1 = (zv.energy_of_potential(2.5, NAT) == pytest.approx(6.0, abs=1e-12)
           and zv.k_from_potential(2.5, NAT) == pytest.approx(1.0, abs=1e-12))
    lad = zv.EnergyLadder((1.0, 3.0, 7.0))
    ok2 = abs(zv.potential_of_energy(lad, 5.0) - 1.25) < 1e-12
    ok3 = abs(zv.delta_k(lad, 1, NAT)
              - math.sqrt(1.0 / 6.0) * (math.sqrt(3.0) - 1.0)) < 1e-12
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        ev = np.sort(rng.uniform(0.1, 50.0, size=n))
        if np.any(np.diff(ev) <= 0):
            continue
        ladder = zv.EnergyLadder(tuple(ev))
        E = float(rng.uniform(ev[0], 60.0))
        j = zv.level_index(ladder, E)
        literal = zv.potential_of_energy(ladder, E)
        worst = max(worst, abs(literal - 5.0 / 12.0 * ev[j]))
    ok = ok1 and ok2 and ok3 and worst < 1e-12
    report("criterion 7 (energy ladder)", ok,
           f"literal-vs-telescoped max err={worst:.3e}")


def test_criterion_8_jump_trace():
    lad = zv.EnergyLadder((1.0, 3.0, 7.0, 12.0))
    schedule = [1.0 + 0.05 * i for i in range(260)]
    trace = zv.k_jump_trace(lad, schedule, NAT)
    ks = [r.k for r in trace]
    monotone = all(b >= a for a, b in zip(ks, ks[1:]))
    piecewise = len(set(ks)) == len(lad.eigenvalues)
    worst = 0.0
    for a, b in zip(trace, trace[1:]):
        if b.k != a.k:
            worst = max(worst, abs((b.k - a.k) - zv.delta_k(lad, b.j, NAT)))
    ok = monotone and piecewise and worst < 1e-12
    report("criterion 8 (jump trace)", ok,
           f"monotone={monotone}, jump err={worst:.3e}")


def test_criterion_9_ensemble():
    start = time.perf_counter()
    config = zv.EnsembleConfig(
        pair_production_rate=10000.0, ratio_zero_to_one=1.0,
        k=1.0, s=1.0, beta=1.0, horizon=10.0, epsilon=1e-6, seed=42)
    result = zv.simulate(config)
    rep = result.report
    conservation = (rep.emitted_zero + rep.emitted_one
                    + rep.live_zero + rep.live_one == rep.produced)
    # per-branch emitted counts vs flow conservation (Poisson 3 sigma);
    # equivalent to the emission-rate ratio matching the production ratio
    mu_zero, mu_one = zv.expected_emissions(config)
    within = (abs(rep.emitted_zero - mu_zero) <= 3.0 * math.sqrt(mu_zero)
              and abs(rep.emitted_one - mu_one) <= 3.0 * math.sqrt(mu_one))
    live_ratio = rep.live_zero / rep.live_one
    target = config.zero_lifetime / config.one_lifetime
    ratio_ok = abs(live_ratio - target) / target < 0.05
    elapsed = time.perf_counter() - start
    ok = (conservation and within and ratio_ok and rep.produced >= 9e4
          and elapsed < 60.0)
    report("criterion 9 (ensemble)", ok,
           f"produced={rep.produced}, conservation={conservation}, "
           f"emission within 3sigma={within}, "
           f"live ratio={live_ratio:.4f} vs {target:.4f}, {elapsed:.2f}s")


def test_criterion_10_geometry():
    k = 1.3
    p1 = zv.gradient_map_segment(Branch.ONE_VORTEX, k, 1.0)
    p0 = zv.gradient_map_segment(Branch.ZERO_VORTEX, k, 1.0)
    endpoints = p1 == (k, k, 1.0) and p0 == (-k, -k, 1.0)
    worst = 0.0
    for i in range(100):
        z = 1.0 + 0.1 * (i + 1)
        px, py, pz = zv.segment_involution((k * z, k * z, z), k)
        worst = max(worst, abs(px - (-k * pz)), abs(py - (-k * pz)))
    left = zv.squared_map(Branch.ZERO_VORTEX, k, 1.0 - 1e-9)
    right = zv.squared_map(Branch.ONE_VORTEX, k, 1.0 + 1e-9)
    continuous = max(abs(a - b) for a, b in zip(left, right)) < 1e-7
    ok = endpoints and worst < 1e-12 and continuous
    report("criterion 10 (geometry)", ok,
           f"endpoints={endpoints}, involution err={worst:.3e}, "
           f"seam continuous={continuous}")
