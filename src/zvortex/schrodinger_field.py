"""Residuals of the Schrodinger equation for psi = z(r_x, r_y, t)**c.

Substituting psi = z**c into the time-dependent Schrodinger equation with
potential U yields a single complex residual in z,

    i hbar z_t + (hbar^2/2m) [z_xx + z_yy + ((c-1)/z) (z_x^2 + z_y^2)]
        - (z/c) U = 0,

whose real and imaginary parts separate into the (R) and (I) equations.
The residual functions here evaluate those expressions for any candidate
field; a field solves an equation exactly when the corresponding residual
vanishes.

Everything works elementwise on numpy arrays. A ``ZField`` callable takes
r_x, r_y and t as scalars or as arrays of one broadcast shape and returns
z (or z with its partials) elementwise; a scalar result stands for a constant.
``ZField.partials`` and ``complex_residual`` take a point whose
coordinates are scalars or such arrays. ``evaluate_grid`` takes the
partials once for a whole lattice, and ``GridReport`` holds its axes and
residuals as numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np

from .tables import format_rows
from .wavecore import (CParam, DomainError, STEP_FIRST, STEP_SECOND,
                       _require_positive, psi_values)

# Callables and points take floats or numpy arrays of one broadcast shape.
ScalarField = Callable[..., "float | np.ndarray"]
Point = tuple  # (r_x, r_y, t)


@dataclass(frozen=True)
class PhysicalParams:
    """hbar and mass; defaults are natural units hbar = m = 1."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        _require_positive(self.hbar, "hbar")
        _require_positive(self.mass, "mass")

    @property
    def beta(self) -> float:
        return self.hbar / self.mass


NATURAL_UNITS = PhysicalParams()


@dataclass(frozen=True)
class ZField:
    """Positive scalar field z(r_x, r_y, t) with optional analytic partials.

    ``value(r_x, r_y, t)`` returns z and ``derivatives(r_x, r_y, t)``, when
    given, returns (z, z_t, z_x, z_y, z_xx, z_yy); both work elementwise on
    numpy arrays. Without ``derivatives`` the partials are central finite
    differences of ``value`` (second order, steps STEP_FIRST/STEP_SECOND).
    """

    value: ScalarField
    derivatives: Callable[..., tuple] | None = None

    def __call__(self, rx, ry, t):
        return self.value(rx, ry, t)

    def partials(self, point: Point) -> tuple:
        """Return (z, z_t, z_x, z_y, z_xx, z_yy) at the point.

        The coordinates of ``point`` may be arrays; the partials are then
        taken at every point of their broadcast shape at once.
        """
        rx, ry, t = point
        if self.derivatives is not None:
            parts = self.derivatives(rx, ry, t)
            _require_positive(parts[0], "field value", point)
            return parts
        z = self.value(rx, ry, t)
        _require_positive(z, "field value", point)
        f, h1, h2 = self.value, STEP_FIRST, STEP_SECOND
        return (z,
                (f(rx, ry, t + h1) - f(rx, ry, t - h1)) / (2.0 * h1),
                (f(rx + h1, ry, t) - f(rx - h1, ry, t)) / (2.0 * h1),
                (f(rx, ry + h1, t) - f(rx, ry - h1, t)) / (2.0 * h1),
                (f(rx + h2, ry, t) - 2.0 * z + f(rx - h2, ry, t)) / (h2 * h2),
                (f(rx, ry + h2, t) - 2.0 * z + f(rx, ry - h2, t)) / (h2 * h2))


def constant_field(z0: float = 1.0) -> ZField:
    """z = z0 everywhere; the callables return scalars, which broadcast."""
    return ZField(value=lambda rx, ry, t: z0,
                  derivatives=lambda rx, ry, t: (z0,) + (0.0,) * 5)


def exponential_field(a_x: float, a_y: float, a_t: float, scale: float = 1.0) -> ZField:
    """z = scale * exp(a_x r_x + a_y r_y + a_t t) with analytic partials."""
    val = lambda rx, ry, t: scale * np.exp(a_x * rx + a_y * ry + a_t * t)

    def derivatives(rx, ry, t):
        z = val(rx, ry, t)
        return z, a_t * z, a_x * z, a_y * z, a_x * a_x * z, a_y * a_y * z

    return ZField(value=val, derivatives=derivatives)


def sum_field(a: ZField, b: ZField) -> ZField:
    """Pointwise sum of two fields (partials add when both are analytic)."""
    value = lambda rx, ry, t: a.value(rx, ry, t) + b.value(rx, ry, t)
    if a.derivatives is None or b.derivatives is None:
        return ZField(value=value)
    return ZField(value=value, derivatives=lambda rx, ry, t: tuple(
        da + db for da, db in zip(a.derivatives(rx, ry, t),
                                  b.derivatives(rx, ry, t))))


class Potential:
    """The residuals take the constant potential U_f as the float ``u_f``;
    ``Potential.fixed(u_f)``, which is ``float(u_f)``, is kept only because
    the benchmark workloads, their self-test and baselines still call it."""

    fixed = staticmethod(float)


def psi_partials(field: ZField, c: CParam, point: Point
                 ) -> tuple[complex, complex, complex, complex, complex]:
    """Chain-rule partials of psi = z**c at a point.

    Returns (psi_t, psi_x, psi_y, psi_xx, psi_yy) where, e.g.,
    psi_t = (c/z) psi z_t and
    psi_xx = (c/z) psi z_xx + c(c-1)/z^2 psi z_x^2.
    """
    z, zt, zx, zy, zxx, zyy = field.partials(point)
    cc = c.as_complex()
    psi = psi_values(z, c.x, c.y)
    over_z = cc / z
    quad = cc * (cc - 1.0) / (z * z)
    return (
        over_z * psi * zt,
        over_z * psi * zx,
        over_z * psi * zy,
        over_z * psi * zxx + quad * psi * zx * zx,
        over_z * psi * zyy + quad * psi * zy * zy,
    )


def complex_residual(field: ZField, c: CParam, params: PhysicalParams,
                     u_f: float, point: Point):
    """Complex Schrodinger residual in z at a point, or elementwise at the
    points of array coordinates.

    ``u_f`` is the constant potential U_f. Its multiplier z/c is evaluated
    as z c* / (x^2 + y^2) to keep the real/imaginary split explicit. Each
    part is computed in real arithmetic, so (R) is exactly the written-out
    real equation.
    """
    mod2 = c.modulus_sq()
    if mod2 == 0.0:
        raise DomainError("c must be nonzero")
    z, zt, zx, zy, zxx, zyy = field.partials(point)
    kin = params.hbar ** 2 / (2.0 * np.float64(params.mass))
    grad2 = zx * zx + zy * zy
    re = kin * (zxx + zyy + (c.x - 1.0) / z * grad2) - z * c.x / mod2 * u_f
    im = params.hbar * zt + kin * c.y / z * grad2 + z * c.y / mod2 * u_f
    res = np.empty(np.broadcast(re, im).shape, complex)
    res.real, res.imag = re, im
    return res if res.ndim else complex(res)


def real_residual(field: ZField, c: CParam, params: PhysicalParams,
                  u_f: float, point: Point, scaled: bool = False) -> float:
    """Real part (R) of the complex residual.

    With ``scaled`` the residual is multiplied by 2m/hbar^2, the
    presentation used for the x=1, y=2 specialization.
    """
    r = complex_residual(field, c, params, u_f, point).real
    return r * (2.0 * params.mass / params.hbar ** 2) if scaled else r


def imag_residual(field: ZField, c: CParam, params: PhysicalParams,
                  u_f: float, point: Point, scaled: bool = False) -> float:
    """Imaginary part (I) of the complex residual.

    With ``scaled`` the residual is multiplied by m/hbar^2.
    """
    r = complex_residual(field, c, params, u_f, point).imag
    return r * (params.mass / params.hbar ** 2) if scaled else r


@dataclass(frozen=True, eq=False)
class GridReport:
    """Residuals sampled on a rectangular (r_x, r_y, t) lattice.

    ``axes`` holds the r_x, r_y and t values of the lattice as float
    arrays. ``residual_real`` and ``residual_imag`` are float arrays with
    one entry per lattice point, r_x-major and t-minor. ``points`` is
    derived from the axes.
    """

    axes: tuple[np.ndarray, np.ndarray, np.ndarray]
    residual_real: np.ndarray
    residual_imag: np.ndarray

    @property
    def points(self) -> np.ndarray:
        """(n, 3) float array of the (r_x, r_y, t) rows, in residual order."""
        return np.stack([a.ravel() for a in np.meshgrid(*self.axes, indexing="ij")],
                        axis=1)

    @property
    def max_abs_real(self) -> float:
        return float(np.max(np.abs(self.residual_real), initial=0.0))

    @property
    def max_abs_imag(self) -> float:
        return float(np.max(np.abs(self.residual_imag), initial=0.0))

    def write_csv(self, out: TextIO) -> None:
        out.write("r_x,r_y,t,residual_real,residual_imag\n")
        # Each axis value is formatted once, as a bytes label; the rows take
        # it by index.
        labels = [np.array(["%.17g" % v for v in axis.tolist()], dtype="S24")
                  for axis in self.axes]
        columns = [c.ravel() for c in np.meshgrid(*labels, indexing="ij")]
        out.writelines(format_rows("%s,%s,%s,%.17g,%.17g\n",
                                   [*columns, self.residual_real, self.residual_imag]))


def evaluate_grid(field_: ZField, c: CParam, params: PhysicalParams, u_f: float,
                  rx_values: Sequence[float], ry_values: Sequence[float],
                  t_values: Sequence[float]) -> GridReport:
    """Evaluate the complex residual on the product grid and aggregate its
    real (R) and imaginary (I) parts.

    The lattice is one array per coordinate, r_x-major and t-minor, and the
    partials of the field are taken once for all of its points.
    """
    axes = tuple(np.array(v, dtype=float).ravel()
                 for v in (rx_values, ry_values, t_values))
    lattice = tuple(a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    res = complex_residual(field_, c, params, u_f, lattice)
    res = np.broadcast_to(res, lattice[0].shape)
    return GridReport(axes=axes, residual_real=np.ascontiguousarray(res.real),
                      residual_imag=np.ascontiguousarray(res.imag))
