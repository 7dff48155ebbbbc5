"""Closed-form vortex solutions of the imaginary (I) equation.

For a fixed potential U_f the (I) equation with exponent c = 1 + 2i admits
the exponential family

    z(t) = exp(+/- k s - 3 k^2 beta t),    k = sqrt(2 m U_f / (5 hbar^2)),

with s = r_x + r_y and beta = hbar/m. The plus branch ("1-vortex") reaches
z = 1 at t* = s / (3 k beta), where psi collapses to 1; the minus branch
("0-vortex") decays to 0 asymptotically. This module provides those
solutions, their (u, v)-plane trajectories as columns, collapse classification,
normalization constants, the predicted 0-to-1 population ratio, and the
gradient-map line-segment geometry.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .schrodinger_field import PhysicalParams, ZField, exponential_field
from .tables import BLOCK_ROWS
from .wavecore import DomainError, _require_positive, float_range

# The closed forms below hold for the paper-default exponent x=1, y=2.
C_X = 1.0
C_Y = 2.0


class Branch(Enum):
    ONE_VORTEX = "one_vortex"    # +k branch, collapses to psi = 1
    ZERO_VORTEX = "zero_vortex"  # -k branch, collapses to the origin

    @property
    def sign(self) -> int:
        return 1 if self is Branch.ONE_VORTEX else -1

    @property
    def other(self) -> "Branch":
        return Branch.ZERO_VORTEX if self is Branch.ONE_VORTEX else Branch.ONE_VORTEX


def _require_potential(u_f) -> None:
    if (bad := np.flatnonzero(~(np.asarray(u_f, dtype=float) >= 0.0))).size:  # or NaN
        raise DomainError(f"potential must be non-negative, got {np.ravel(u_f)[bad[0]]}")


def k_from_potential(u_f, params: PhysicalParams):
    """k = sqrt(2 m U_f / (5 hbar^2)), elementwise; a float U_f gives a float."""
    _require_potential(u_f)
    # In numpy, so that past the float range it raises under float_range.
    k = np.sqrt(np.float64(2.0) * params.mass * np.asarray(u_f, dtype=float)
                / (5.0 * params.hbar ** 2))
    return k if k.ndim else float(k)


@dataclass(frozen=True)
class VortexSolution:
    """One member of the exponential solution family.

    Negative s is canonicalized by negating s and flipping the branch,
    which leaves the field z(t) unchanged.
    """

    branch: Branch
    k: float
    s: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        _require_positive(self.k, "k")
        _require_positive(self.beta, "beta")
        if not math.isfinite(self.s):
            raise DomainError(f"s must be finite, got {self.s}")
        if self.s == 0.0:
            raise DomainError("s = r_x + r_y must be nonzero")
        if self.s < 0.0:
            object.__setattr__(self, "s", -self.s)
            object.__setattr__(self, "branch", self.branch.other)

    def log_z(self, t: float) -> float:
        """ln z at t (elementwise over an array t); an np.float64 for a
        float t. In numpy, so that it raises under float_range."""
        return (self.branch.sign * np.float64(self.k) * self.s
                - 3.0 * np.float64(self.k ** 2) * self.beta * t)

    @float_range("z")
    def z(self, t: float) -> float:
        return math.exp(self.log_z(t))

    @float_range("psi")
    def psi(self, t: float) -> complex:
        """psi = z**(1+2i) = z * exp(2i ln z)."""
        return cmath.exp(self.log_z(t) * complex(C_X, C_Y))

    def to_field(self) -> ZField:
        """Full z(r_x, r_y, t) field with analytic partials.

        The exponent splits s = r_x + r_y symmetrically, matching the
        closed-form family.
        """
        sk = self.branch.sign * self.k
        return exponential_field(sk, sk, -3.0 * self.k ** 2 * self.beta)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The (u, v)-plane motion sampled at the times ``t``: five float arrays
    of one length, one entry per sample."""

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    radius: np.ndarray
    gradient_radius: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


def real_solution(u_f: float, params: PhysicalParams, sign: int = 1) -> ZField:
    """Static solution of the real (R) equation for a fixed potential.

    z = exp(+/- (1/sqrt(2)) (r_x + r_y) k), time independent.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    a = sign * k_from_potential(u_f, params) / math.sqrt(2.0)
    return exponential_field(a, a, 0.0)


def imag_solution(branch: Branch, u_f: float, params: PhysicalParams,
                  s: float = 1.0) -> VortexSolution:
    """Exponential solution of the imaginary (I) equation for a fixed U_f."""
    if u_f <= 0.0:
        raise DomainError("potential must be positive; U_f = 0 gives a static "
                          "degenerate field with k = 0")
    return VortexSolution(branch=branch, k=k_from_potential(u_f, params),
                          s=s, beta=params.beta)


def _mapped(f, x: np.ndarray) -> np.ndarray:
    """``f`` applied to each value of the 1-d array, as Python floats, a
    block of ``BLOCK_ROWS`` values at a time.

    ``math.exp``, ``cos`` and ``sin`` keep the bits of the scalar formulas;
    numpy's versions differ from them in the last place on some arguments.
    """
    return np.fromiter(itertools.chain.from_iterable(
        map(f, x[i:i + BLOCK_ROWS].tolist()) for i in range(0, x.size, BLOCK_ROWS)),
        float, x.size)


@float_range("vortex radius")
def trajectory(sol: VortexSolution, t_grid: Sequence[float] = ()) -> Trajectory:
    """Sample the (u, v)-plane motion of the vortex at the given times.

    A radius or gradient radius beyond the float range is a DomainError.
    """
    t = np.asarray(t_grid, dtype=float)
    log_z = sol.log_z(t)
    radius = _mapped(math.exp, log_z)
    phase = C_Y * log_z
    return Trajectory(t=t, u=radius * _mapped(math.cos, phase),
                      v=radius * _mapped(math.sin, phase), radius=radius,
                      gradient_radius=sol.k * radius * math.sqrt(2.0))


@float_range("collapse time")
def collapse_time(sol: VortexSolution) -> float:
    """Time at which z reaches 1 (1-vortex), or +inf for a 0-vortex."""
    if sol.branch is Branch.ZERO_VORTEX:
        return math.inf
    return float(np.float64(sol.s) / (3.0 * sol.k * sol.beta))


def collapse_bit(sol: VortexSolution) -> int:
    """The bit a collapsing vortex emits: 1-vortex -> 1, 0-vortex -> 0."""
    return 1 if sol.branch is Branch.ONE_VORTEX else 0


@float_range("0-vortex lifetime")
def zero_vortex_lifetime(sol: VortexSolution, epsilon: float) -> float:
    """Time for a 0-vortex to shrink below threshold z = epsilon.

    Collapse to the origin is only asymptotic, so a finite lifetime needs a
    threshold: t0 = (ln(1/eps) - k s) / (3 k^2 beta).
    """
    if sol.branch is not Branch.ZERO_VORTEX:
        raise DomainError("threshold lifetime applies to 0-vortices only")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    t0 = (math.log(1.0 / epsilon) - sol.k * sol.s) / (
        3.0 * np.float64(sol.k ** 2) * sol.beta)
    if t0 <= 0.0:
        raise DomainError("epsilon >= e^{-ks}: threshold crossed at creation")
    return float(t0)


@float_range("normalization constant")
def normalization_constant(sol: VortexSolution) -> float:
    """Constant A making A^2 * integral of |psi|^2 dt equal 1.

    A0 = e^{ks} k sqrt(6 beta) over [0, inf); A1 = k sqrt(6 beta)
    (e^{2ks} - 1)^{-1/2} over [0, t*].
    """
    k = np.float64(sol.k)
    ks = k * sol.s
    root = k * math.sqrt(6.0 * np.float64(sol.beta))
    if sol.branch is Branch.ZERO_VORTEX:
        return float(math.exp(ks) * root)
    em1 = math.expm1(2.0 * ks)
    if em1 <= 0.0:
        raise DomainError("e^{2ks} - 1 underflows; ks too small to normalize")
    return float(root / math.sqrt(em1))


@float_range("vortex ratio")
def vortex_ratio(k: float, s: float) -> float:
    """Predicted 0-vortex to 1-vortex ratio e^{4ks} - e^{2ks} = (A0/A1)^2."""
    ks = np.float64(k) * s
    _require_positive(ks, "k*s")
    return math.exp(4.0 * ks) - math.exp(2.0 * ks)


Point3 = tuple  # (p_x, p_y, p_z): floats, or arrays of one shape


def _check_branch_z(branch: Branch, z: np.ndarray) -> None:
    _require_positive(z)
    if branch is Branch.ONE_VORTEX and (z < 1.0).any():
        raise DomainError("1-vortex segment lives on z >= 1")
    if branch is Branch.ZERO_VORTEX and (z > 1.0).any():
        raise DomainError("0-vortex segment lives on 0 < z <= 1")


@float_range("gradient-map point")
def gradient_map_segment(branch: Branch, k: float, z) -> Point3:
    """The gradient map (z_x, z_y, z) on a branch's line segment, elementwise
    over ``z`` (a float or an array).

    1-vortex: (kz, kz, z) for z >= 1; 0-vortex: (-kz, -kz, z) for z <= 1.
    Both meet the plane z = 1 at the boundary points (+/-k, +/-k, 1).
    """
    _require_positive(k, "k")
    z = np.asarray(z, dtype=float)
    _check_branch_z(branch, z)
    g = branch.sign * k * z
    return g, g, z[()]


def segment_involution(point: Point3, k: float) -> Point3:
    """Map 1-vortex line points (kz, kz, z), z > 1, onto the 0-vortex line,
    elementwise over the coordinates.

    Image is (-k/z, -k/z, 1/z), which lies on (-kz', -kz', z') at z' = 1/z.
    """
    z = np.asarray(point[2], dtype=float)
    if not (z > 1.0).all():
        raise DomainError("involution input must have z > 1")
    g = -k / z
    return g, g, 1.0 / z


@float_range("gradient-map point")
def segment_involution_inverse(point: Point3, k: float) -> Point3:
    """Inverse direction: 0-vortex line points (-kz, -kz, z), 0 < z < 1, back
    to the 1-vortex line, elementwise over the coordinates."""
    z = np.asarray(point[2], dtype=float)
    if not ((0.0 < z) & (z < 1.0)).all():
        raise DomainError("inverse involution input must have 0 < z < 1")
    g = k / z
    return g, g, 1.0 / z


@float_range("gradient-map point")
def squared_map(branch: Branch, k: float, z) -> Point3:
    """Quadratic map (k^2 z^2, k^2 z^2, z^2), identical for both branches,
    elementwise over ``z`` (a float or an array)."""
    z = np.asarray(z, dtype=float)
    _check_branch_z(branch, z)
    q = np.float64(k) * k * z * z
    return q, q, z * z
