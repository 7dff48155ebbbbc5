"""Energy relation and the quantized step-function potential U(E).

The vortex solutions tie total energy to the fixed potential through
E = (12/5) U_f (equivalently E = 6 k^2 hbar^2 / m). Replacing U_f by a
step potential over an eigenvalue ladder {E_j} quantizes k: U(E) is (5/12)
times the largest eigenvalue reached by E, and k jumps by
sqrt(m / 6 hbar^2) (sqrt(E_j) - sqrt(E_{j-1})) at each level transition.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable

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
        if not all(math.isfinite(e) for e in ev):
            raise DomainError(f"eigenvalues must be finite, got {ev}")
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


def level_index(ladder: EnergyLadder, E: float) -> int:
    """Index j of the highest eigenvalue reached by E (lambda(0) = 1).

    That is the number of eigenvalues E_i with unit_step(E - E_i) = 1, less
    one, found by bisection.
    """
    if not E >= ladder.eigenvalues[0]:  # also rejects NaN
        raise BelowLadderError(
            f"E = {E} lies below the ground eigenvalue {ladder.eigenvalues[0]}")
    return bisect.bisect_right(ladder.eigenvalues, E) - 1


def _level_potential(ladder: EnergyLadder, j: int) -> float:
    return 5.0 / 12.0 * ladder.eigenvalues[j]


def potential_of_energy(ladder: EnergyLadder, E: float) -> float:
    """Step potential U(E) = (5/12) E_j for the level j reached by E."""
    return _level_potential(ladder, level_index(ladder, E))


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
class TraceStep:
    step: int
    E: float
    j: int
    k: float


@float_range("k")
def k_jump_trace(ladder: EnergyLadder, energy_schedule: Iterable[float],
                 params: PhysicalParams) -> list[TraceStep]:
    """Piecewise-constant k along an energy schedule.

    k changes only when the level index changes; each jump magnitude equals
    delta_k for the levels crossed.
    """
    trace = []
    for i, E in enumerate(energy_schedule):
        j = level_index(ladder, E)
        k = k_from_potential(_level_potential(ladder, j), params)
        trace.append(TraceStep(step=i, E=E, j=j, k=k))
    return trace
