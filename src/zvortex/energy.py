"""Energy relation and the quantized step-function potential U(E).

The vortex solutions tie total energy to the fixed potential through
E = (12/5) U_f (equivalently E = 6 k^2 hbar^2 / m). Replacing U_f by a
step potential over an eigenvalue ladder {E_j} quantizes k: U(E) is (5/12)
times the largest eigenvalue reached by E, and k jumps by
sqrt(m / 6 hbar^2) (sqrt(E_j) - sqrt(E_{j-1})) at each level transition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .schrodinger_field import PhysicalParams
from .vortex import Branch, VortexSolution, _require_potential, k_from_potential
from .wavecore import DomainError, float_range


class BelowLadderError(DomainError):
    """E lies below the ground eigenvalue E_0."""


@dataclass(frozen=True)
class EnergyLadder:
    """Strictly increasing, non-empty eigenvalue list E_0 < E_1 < ..."""

    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        ev = tuple(float(e) for e in self.eigenvalues)
        if not ev:
            raise DomainError("ladder must be non-empty")
        bad = next((i for i, e in enumerate(ev) if not math.isfinite(e)), None)
        if bad is not None:
            raise DomainError(f"eigenvalues must be finite, got {ev[bad]} at index {bad}")
        if any(b <= a for a, b in zip(ev, ev[1:])):
            raise DomainError("eigenvalues must be strictly increasing")
        object.__setattr__(self, "eigenvalues", ev)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def unit_step(x: float) -> float:
    """Heaviside step with the closed convention lambda(0) = 1."""
    return 1.0 if x >= 0.0 else 0.0


def energy_of_potential(u_f: float) -> float:
    """Total energy for a fixed potential: E = (12/5) U_f."""
    _require_potential(u_f)
    return 12.0 / 5.0 * u_f


def level_index(ladder: EnergyLadder, E):
    """Index j of the highest eigenvalue reached by E (lambda(0) = 1).

    That is the number of eigenvalues E_i with unit_step(E - E_i) = 1, less
    one, found by bisection. It works elementwise on E, taken as a float; a
    float E gives an int.
    """
    e = np.asarray(E, dtype=float)
    if (below := np.flatnonzero(~(e >= ladder.eigenvalues[0]))).size:  # or NaN
        raise BelowLadderError(f"E = {np.ravel(E)[below[0]]} lies below the "
                               f"ground eigenvalue {ladder.eigenvalues[0]}")
    j = np.searchsorted(ladder.eigenvalues, e, "right") - 1
    return j if j.ndim else int(j)


def _level_potential(ladder: EnergyLadder, j):
    return 5.0 / 12.0 * np.asarray(ladder.eigenvalues)[j]


def potential_of_energy(ladder: EnergyLadder, E: float) -> float:
    """Step potential U(E) = (5/12) E_j for the level j reached by E."""
    return float(_level_potential(ladder, level_index(ladder, E)))


def quantized_k(ladder: EnergyLadder, E: float, params: PhysicalParams) -> float:
    """k = sqrt(2 m U(E) / 5 hbar^2) = sqrt(m E_j / 6 hbar^2)."""
    return k_from_potential(potential_of_energy(ladder, E), params)


def quantized_solution(ladder: EnergyLadder, E: float, branch: Branch,
                       params: PhysicalParams, s: float = 1.0) -> VortexSolution:
    """Vortex solution at the quantized k selected by E.

    The time exponent keeps the hbar/m factor of the fixed-potential
    solution family.
    """
    return VortexSolution(branch=branch, k=quantized_k(ladder, E, params),
                          s=s, beta=params.beta)


def delta_k(ladder: EnergyLadder, j: int, params: PhysicalParams) -> float:
    """Jump in k for the transition E_{j-1} -> E_j."""
    if not 1 <= j < len(ladder):
        raise IndexError(f"transition index must lie in [1, {len(ladder)}), got {j}")
    ev = ladder.eigenvalues
    return math.sqrt(params.mass / (6.0 * params.hbar ** 2)) * (
        math.sqrt(ev[j]) - math.sqrt(ev[j - 1]))


@dataclass(frozen=True)
class JumpTrace:
    """k along an energy schedule: four arrays of one length, one entry per
    step. ``E`` holds the schedule's entries as given, in an object array."""

    step: np.ndarray
    E: np.ndarray
    j: np.ndarray
    k: np.ndarray

    def __len__(self) -> int:
        return len(self.step)


@float_range("k")
def k_jump_trace(ladder: EnergyLadder, energy_schedule: Iterable[float],
                 params: PhysicalParams) -> JumpTrace:
    """Piecewise-constant k along an energy schedule.

    k changes only when the level index changes; each jump magnitude equals
    delta_k for the levels crossed. The first failing step raises its error.
    """
    E = np.array(list(energy_schedule), dtype=object)
    e = E.astype(float)
    # The steps before n, the first one below the ladder or at a negative
    # potential, go first: a k past the float range among them raises before
    # step n raises its own error. No k is taken when no step precedes n, as
    # 2 m or hbar^2 alone can pass the float range.
    usable = np.asarray(ladder.eigenvalues)[_level_potential(ladder, slice(None)) >= 0.0]
    n = np.argmin(np.r_[e >= usable.min(initial=np.inf), False])
    j = level_index(ladder, e[:n])
    k = k_from_potential(_level_potential(ladder, j), params) if n else np.zeros(0)
    if n < len(E):
        quantized_k(ladder, E[n], params)
    return JumpTrace(np.arange(n), E, j, k)
