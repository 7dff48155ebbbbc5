"""Complex-power calculus for wave functions of the form psi = z**c.

The field value z is a positive real; the exponent c = x + iy is complex.
All operations here are pure functions over immutable values: pointwise
evaluation, analytic partial derivatives in (x, y), finite-difference
Cauchy-Riemann and Laplace checks, and contour quadrature over circles in
the c-plane.

``psi_values`` is the one kernel that evaluates psi = exp(c ln z). It works
elementwise on numpy arrays, and so do ``eval_psi`` and the two stencil
checks built on it: z and the components of c may be scalars or arrays of
one broadcast shape, so a whole (z, x, y) lattice is checked in one call.
Each contour quadrature is one numpy sum over its nodes.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class DomainError(ValueError):
    """Raised when an argument leaves the domain of an operation."""


@dataclass(frozen=True)
class CParam:
    """Complex exponent c = x + iy (x and y may be arrays of one shape,
    where an operation says so)."""

    x: float
    y: float

    def as_complex(self) -> complex:
        return complex(self.x, self.y)

    def modulus_sq(self) -> float:
        return self.x * self.x + self.y * self.y


@dataclass(frozen=True)
class WaveValue:
    """Point value psi = u + iv (u and v are arrays for array inputs)."""

    u: float
    v: float

    @classmethod
    def from_complex(cls, w: complex) -> "WaveValue":
        return cls(w.real, w.imag)

    def as_complex(self) -> complex:
        return complex(self.u, self.v)

    def magnitude(self) -> float:
        return math.hypot(self.u, self.v)


class NormalizabilityKind(Enum):
    HALF_LINE_CONVERGENT = "half_line_convergent"
    RESTRICTED = "restricted"


# Finite-difference steps balancing truncation against round-off at
# double precision.
STEP_FIRST = 1e-5
STEP_SECOND = 1e-4


@contextlib.contextmanager
def float_range(what: str):
    """Context manager and decorator: in its block numpy's overflow,
    invalid-value and divide-by-zero flags raise, and any ArithmeticError
    (FloatingPointError, OverflowError, ZeroDivisionError) is a DomainError
    naming ``what``. Python float ``*`` and ``+`` overflow to inf silently;
    a product taken as ``np.float64(a) * b`` raises, with the same bits."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except ArithmeticError:
        raise DomainError(
            f"{what} overflows the float range; it is not finite") from None


def _require_positive(z, what: str = "z", at: tuple = ()) -> None:
    """The one positive-and-finite rule: reject any z that is <= 0, NaN or
    inf, naming the first, and its point when given the coordinates ``at``."""
    za = np.asarray(z, dtype=float)
    bad = ~(np.isfinite(za) & (za > 0.0))
    if bad.any():
        zb, *coords = np.broadcast_arrays(z, *at)
        i = np.flatnonzero(np.broadcast_to(bad, zb.shape))[0]
        where = f" at {tuple(float(c.flat[i]) for c in coords)}" if at else ""
        raise DomainError(f"{what} must be positive and finite, got {zb.flat[i]}{where}")


def psi_values(z, x, y):
    """psi = exp((x + iy) ln z), elementwise over broadcastable z, x, y.

    The one evaluation kernel of the module: the exponent's real and
    imaginary parts are x ln z and y ln z, as in the scalar product
    c * ln z.
    """
    _require_positive(z)
    lnz = np.log(z)
    return np.exp(x * lnz + 1j * (y * lnz))


def eval_psi(z, c: CParam) -> WaveValue:
    """Evaluate psi = z**c = z**x * (cos(y ln z) + i sin(y ln z)).

    z, c.x and c.y may be numpy arrays; u and v then hold psi elementwise.
    """
    return WaveValue.from_complex(psi_values(z, c.x, c.y))


def partials_uv(z: float, c: CParam) -> tuple[float, float, float, float]:
    """Analytic partials (du/dx, dv/dy, du/dy, dv/dx) of psi in the exponent.

    psi is analytic in c, so u_x + i v_x = dpsi/dc = (ln z) psi, v_y = u_x
    and u_y = -v_x: the Cauchy-Riemann equations hold identically.
    """
    w = dpsi_dc(z, c)
    return w.u, w.u, -w.v, w.v


def _shifted(z, c: CParam, h: float) -> tuple:
    """psi at c + h, c - h, c + ih and c - ih, the stencils' outer points."""
    if not 0.0 < h < 0.1:
        raise DomainError(f"step size must lie in (0, 0.1), got {h}")
    return (eval_psi(z, CParam(c.x + h, c.y)), eval_psi(z, CParam(c.x - h, c.y)),
            eval_psi(z, CParam(c.x, c.y + h)), eval_psi(z, CParam(c.x, c.y - h)))


def check_cauchy_riemann(z, c: CParam, h: float = STEP_FIRST) -> tuple:
    """Finite-difference Cauchy-Riemann residuals (|u_x - v_y|, |u_y + v_x|).

    Central differences of eval_psi over the exponent components; both
    residuals are pure discretization error, O(h**2). Elementwise over
    array z, c.x and c.y.
    """
    px, mx, py, my = _shifted(z, c, h)
    du_dx = (px.u - mx.u) / (2.0 * h)
    dv_dx = (px.v - mx.v) / (2.0 * h)
    du_dy = (py.u - my.u) / (2.0 * h)
    dv_dy = (py.v - my.v) / (2.0 * h)
    return abs(du_dx - dv_dy), abs(du_dy + dv_dx)


def dpsi_dc(z, c: CParam) -> WaveValue:
    """First derivative of psi with respect to c: (ln z) * psi."""
    return WaveValue.from_complex(psi_values(z, c.x, c.y) * np.log(z))


def d2psi_dc2(z, c: CParam) -> WaveValue:
    """Second derivative of psi with respect to c: (ln z)**2 * psi."""
    return WaveValue.from_complex(psi_values(z, c.x, c.y) * np.log(z) ** 2)


def laplace_residual(z0, c0: CParam, h: float = STEP_SECOND) -> tuple:
    """Five-point-stencil Laplacian residuals of u and v over (x, y).

    Both components of an analytic function are harmonic, so the residuals
    vanish up to discretization error. Elementwise over array z0, c0.x and
    c0.y. The step h must lie in (0, 0.1), as for check_cauchy_riemann.
    """
    px, mx, py, my = _shifted(z0, c0, h)
    center = eval_psi(z0, c0)
    inv_h2 = 1.0 / (np.float64(h) * h)
    lap_u = (px.u + mx.u + py.u + my.u - 4.0 * center.u) * inv_h2
    lap_v = (px.v + mx.v + py.v + my.v - 4.0 * center.v) * inv_h2
    return abs(lap_u), abs(lap_v)


def _contour_nodes(center: CParam, radius: float, n_points: int):
    """Nodes c_j = center + radius e^{i theta_j} of the n-point trapezoid
    rule on a circle, and the weights i (c_j - center) dtheta of dc."""
    _require_positive(radius, "radius")
    dtheta = 2.0 * math.pi / n_points
    offset = radius * np.exp(1j * (np.arange(n_points) * dtheta))
    return center.x + offset.real, center.y + offset.imag, 1j * offset * dtheta


def _contour_sums(re, im, dc) -> list:
    """sum((re + i im) * dc) over the nodes, the last axis, in real
    arithmetic, so that no complex kernel, which numpy picks by the host's
    SIMD features, sets a digit: one Python complex per leading index, in
    C order."""
    return [complex(a, b) for a, b in zip(
        np.sum(re * dc.real - im * dc.imag, axis=-1).ravel().tolist(),
        np.sum(re * dc.imag + im * dc.real, axis=-1).ravel().tolist())]


def _wave_value(sums: list, shape: tuple) -> WaveValue:
    """The contour results as one WaveValue: floats for a scalar z, arrays
    of z's shape for an array z."""
    if not shape:
        return WaveValue.from_complex(sums[0])
    return WaveValue.from_complex(np.array(sums, complex).reshape(shape))


def contour_integral(
    z, center: CParam, radius: float, n_points: int = 1024
) -> WaveValue:
    """Trapezoidal quadrature of the closed contour integral of psi(c) dc.

    The contour is the circle of given radius around ``center`` in the
    c-plane. psi is entire in c for fixed z > 0, so the exact value is 0;
    the returned magnitude is quadrature error only. Uniform sampling of a
    periodic integrand makes the trapezoid rule spectrally accurate. An
    array z gives one sum per value, from one evaluation over the nodes.
    """
    x, y, dc = _contour_nodes(center, radius, n_points)
    psi = psi_values(np.expand_dims(z, -1), x, y)
    return _wave_value(_contour_sums(psi.real, psi.imag, dc), np.shape(z))


def cauchy_formula(
    z, a: CParam, center: CParam, radius: float, n_points: int = 2048
) -> WaveValue:
    """Reconstruct psi(a) from the Cauchy integral formula over a circle.

    ``a`` must lie strictly inside the contour. An array z gives one value
    per z, as ``contour_integral`` does; each sum is divided by 2 pi i as a
    Python complex.
    """
    x, y, dc = _contour_nodes(center, radius, n_points)
    if math.hypot(a.x - center.x, a.y - center.y) >= radius:
        raise DomainError("evaluation point must lie strictly inside the contour")
    # psi / (dx + i dy) = psi (dx - i dy) / (dx^2 + dy^2).
    psi, dx, dy = psi_values(np.expand_dims(z, -1), x, y), x - a.x, y - a.y
    d2 = dx * dx + dy * dy
    sums = _contour_sums((psi.real * dx + psi.imag * dy) / d2,
                         (psi.imag * dx - psi.real * dy) / d2, dc)
    return _wave_value([w / (2j * math.pi) for w in sums], np.shape(z))


def normalizability(z: float, x: float) -> NormalizabilityKind:
    """Classify convergence of the squared-magnitude integral over x.

    The integral of exp(2 x ln z) converges on a half-line when
    (z < 1 and x > 0) or (z > 1 and x < 0); otherwise x must be restricted
    to a finite domain supplied by the caller. z = 1 makes the integrand
    constant and is treated as restricted.
    """
    _require_positive(z)
    if z != 1.0 and ((z < 1.0 and x > 0.0) or (z > 1.0 and x < 0.0)):
        return NormalizabilityKind.HALF_LINE_CONVERGENT
    return NormalizabilityKind.RESTRICTED
