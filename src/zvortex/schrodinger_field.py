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
z (or a partial) elementwise; a scalar result stands for a constant.
``ZField.partials`` and ``complex_residual`` take a point whose
coordinates are scalars or such arrays. ``evaluate_grid`` takes the
partials once for a whole lattice, and ``GridReport`` holds its axes and
residuals as numpy arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np

from .tables import format_rows
from .wavecore import CParam, DomainError, STEP_FIRST, STEP_SECOND, psi_values

# Callables and points take floats or numpy arrays of one broadcast shape.
ScalarField = Callable[..., "float | np.ndarray"]
Point = tuple  # (r_x, r_y, t)


@dataclass(frozen=True)
class PhysicalParams:
    """hbar and mass; defaults are natural units hbar = m = 1."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.hbar < math.inf and 0.0 < self.mass < math.inf):
            raise DomainError(f"hbar and mass must be positive and finite, "
                              f"got hbar={self.hbar}, mass={self.mass}")

    @property
    def beta(self) -> float:
        return self.hbar / self.mass


NATURAL_UNITS = PhysicalParams()


@dataclass(frozen=True)
class ZField:
    """Positive scalar field z(r_x, r_y, t) with optional analytic partials.

    Every callable must work elementwise on numpy arrays. When a partial
    derivative callable is absent it is computed by central finite
    differences of ``value`` (second order, steps ``h1``/``h2``).
    """

    value: ScalarField
    z_t: ScalarField | None = None
    z_x: ScalarField | None = None
    z_y: ScalarField | None = None
    z_xx: ScalarField | None = None
    z_yy: ScalarField | None = None
    h1: float = STEP_FIRST
    h2: float = STEP_SECOND

    def __call__(self, rx, ry, t):
        return self.value(rx, ry, t)

    def partials(self, point: Point) -> tuple:
        """Return (z, z_t, z_x, z_y, z_xx, z_yy) at the point.

        The coordinates of ``point`` may be arrays; the partials are then
        taken at every point of their broadcast shape at once.
        """
        rx, ry, t = point
        z = self.value(rx, ry, t)
        _require_positive_field(z, point)
        f = self.value
        h1, h2 = self.h1, self.h2
        zt = self.z_t(rx, ry, t) if self.z_t else (
            (f(rx, ry, t + h1) - f(rx, ry, t - h1)) / (2.0 * h1))
        zx = self.z_x(rx, ry, t) if self.z_x else (
            (f(rx + h1, ry, t) - f(rx - h1, ry, t)) / (2.0 * h1))
        zy = self.z_y(rx, ry, t) if self.z_y else (
            (f(rx, ry + h1, t) - f(rx, ry - h1, t)) / (2.0 * h1))
        zxx = self.z_xx(rx, ry, t) if self.z_xx else (
            (f(rx + h2, ry, t) - 2.0 * z + f(rx - h2, ry, t)) / (h2 * h2))
        zyy = self.z_yy(rx, ry, t) if self.z_yy else (
            (f(rx, ry + h2, t) - 2.0 * z + f(rx, ry - h2, t)) / (h2 * h2))
        return z, zt, zx, zy, zxx, zyy

    def has_analytic_partials(self) -> bool:
        return all(p is not None
                   for p in (self.z_t, self.z_x, self.z_y, self.z_xx, self.z_yy))


def _require_positive_field(z, point: Point) -> None:
    """Reject a z that is not positive (NaN included), naming the first
    offending point."""
    bad = ~(np.asarray(z) > 0.0)
    if bad.any():
        zb, *pb = np.broadcast_arrays(z, *point)
        i = np.flatnonzero(np.broadcast_to(bad, zb.shape))[0]
        where = tuple(float(c.flat[i]) for c in pb)
        raise DomainError(f"field must be positive, got z={float(zb.flat[i])} "
                          f"at {where}")


def constant_field(z0: float = 1.0) -> ZField:
    """z = z0 everywhere; the callables return scalars, which broadcast."""
    zero = lambda rx, ry, t: 0.0
    return ZField(value=lambda rx, ry, t: z0,
                  z_t=zero, z_x=zero, z_y=zero, z_xx=zero, z_yy=zero)


def exponential_field(a_x: float, a_y: float, a_t: float, scale: float = 1.0) -> ZField:
    """z = scale * exp(a_x r_x + a_y r_y + a_t t) with analytic partials."""
    val = lambda rx, ry, t: scale * np.exp(a_x * rx + a_y * ry + a_t * t)
    return ZField(
        value=val,
        z_t=lambda rx, ry, t: a_t * val(rx, ry, t),
        z_x=lambda rx, ry, t: a_x * val(rx, ry, t),
        z_y=lambda rx, ry, t: a_y * val(rx, ry, t),
        z_xx=lambda rx, ry, t: a_x * a_x * val(rx, ry, t),
        z_yy=lambda rx, ry, t: a_y * a_y * val(rx, ry, t),
    )


def sum_field(a: ZField, b: ZField) -> ZField:
    """Pointwise sum of two fields (partials add when both are analytic)."""
    both = a.has_analytic_partials() and b.has_analytic_partials()
    add = lambda fa, fb: (lambda rx, ry, t: fa(rx, ry, t) + fb(rx, ry, t))
    return ZField(
        value=add(a.value, b.value),
        z_t=add(a.z_t, b.z_t) if both else None,
        z_x=add(a.z_x, b.z_x) if both else None,
        z_y=add(a.z_y, b.z_y) if both else None,
        z_xx=add(a.z_xx, b.z_xx) if both else None,
        z_yy=add(a.z_yy, b.z_yy) if both else None,
    )


@dataclass(frozen=True)
class Potential:
    """Potential energy term; only constant-in-space potentials are built in."""

    value_fixed: float

    @classmethod
    def fixed(cls, u_f: float) -> "Potential":
        return cls(value_fixed=u_f)

    def at(self, rx: float, ry: float) -> float:
        return self.value_fixed


FREE = Potential.fixed(0.0)


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
                     potential: Potential, point: Point):
    """Complex Schrodinger residual in z at a point, or elementwise at the
    points of array coordinates.

    The potential multiplier z/c is evaluated as z c* / (x^2 + y^2) to keep
    the real/imaginary split explicit. Each part is computed in real
    arithmetic, so (R) is exactly the written-out real equation.
    """
    mod2 = c.modulus_sq()
    if mod2 == 0.0:
        raise DomainError("c must be nonzero")
    rx, ry, _ = point
    z, zt, zx, zy, zxx, zyy = field.partials(point)
    kin = params.hbar ** 2 / (2.0 * params.mass)
    grad2 = zx * zx + zy * zy
    u = potential.at(rx, ry)
    re = kin * (zxx + zyy + (c.x - 1.0) / z * grad2) - z * c.x / mod2 * u
    im = params.hbar * zt + kin * c.y / z * grad2 + z * c.y / mod2 * u
    res = np.empty(np.broadcast(re, im).shape, complex)
    res.real, res.imag = re, im
    return res if res.ndim else complex(res)


def real_residual(field: ZField, c: CParam, params: PhysicalParams,
                  potential: Potential, point: Point, scaled: bool = False) -> float:
    """Real part (R) of the complex residual.

    With ``scaled`` the residual is multiplied by 2m/hbar^2, the
    presentation used for the x=1, y=2 specialization.
    """
    r = complex_residual(field, c, params, potential, point).real
    return r * (2.0 * params.mass / params.hbar ** 2) if scaled else r


def imag_residual(field: ZField, c: CParam, params: PhysicalParams,
                  potential: Potential, point: Point, scaled: bool = False) -> float:
    """Imaginary part (I) of the complex residual.

    With ``scaled`` the residual is multiplied by m/hbar^2.
    """
    r = complex_residual(field, c, params, potential, point).imag
    return r * (params.mass / params.hbar ** 2) if scaled else r


@dataclass(frozen=True, eq=False)
class GridReport:
    """Residuals sampled on a rectangular (r_x, r_y, t) lattice.

    ``axes`` holds the r_x, r_y and t values of the lattice as float
    arrays. ``residual_real`` and ``residual_imag`` are float arrays with
    one entry per lattice point, r_x-major and t-minor. ``points`` and
    ``grid_spec`` are derived from the axes.
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
    def grid_spec(self) -> dict:
        """[min, max, count] of each axis; min and max are None for an
        empty axis."""
        spec = {}
        for name, axis in zip(("r_x", "r_y", "t"), self.axes):
            values = axis.tolist()
            spec[name] = [min(values, default=None), max(values, default=None),
                          len(values)]
        return spec

    @property
    def max_abs_real(self) -> float:
        return float(np.max(np.abs(self.residual_real), initial=0.0))

    @property
    def max_abs_imag(self) -> float:
        return float(np.max(np.abs(self.residual_imag), initial=0.0))

    @property
    def mean_abs_real(self) -> float:
        return float(np.mean(np.abs(self.residual_real))) if self.residual_real.size else 0.0

    @property
    def mean_abs_imag(self) -> float:
        return float(np.mean(np.abs(self.residual_imag))) if self.residual_imag.size else 0.0

    def write_csv(self, out: TextIO) -> None:
        out.write("r_x,r_y,t,residual_real,residual_imag\n")
        # Each axis value is formatted once; the rows take its string by index.
        labels = [np.array(["%.17g" % v for v in axis.tolist()], dtype=object)
                  for axis in self.axes]
        columns = [c.ravel() for c in np.meshgrid(*labels, indexing="ij")]
        out.writelines(format_rows("%s,%s,%s,%.17g,%.17g\n",
                                   [*columns, self.residual_real, self.residual_imag]))

    def summary(self) -> dict:
        return {
            "grid": self.grid_spec,
            "n_points": self.residual_real.size,
            "max_abs_real": self.max_abs_real,
            "max_abs_imag": self.max_abs_imag,
            "mean_abs_real": self.mean_abs_real,
            "mean_abs_imag": self.mean_abs_imag,
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True)


def evaluate_grid(field_: ZField, c: CParam, params: PhysicalParams,
                  potential: Potential,
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
    res = complex_residual(field_, c, params, potential, lattice)
    res = np.broadcast_to(res, lattice[0].shape)
    return GridReport(axes=axes, residual_real=np.ascontiguousarray(res.real),
                      residual_imag=np.ascontiguousarray(res.imag))
