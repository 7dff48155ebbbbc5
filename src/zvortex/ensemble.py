"""Discrete-event simulation of 0-/1-vortex pair populations.

Vortices are produced by a Poisson process at a fixed rate and assigned a
branch independently: a 0-vortex with probability r/(1+r) for production
ratio r. A 1-vortex emits bit 1 when it collapses at creation time +
s/(3 k beta); a 0-vortex emits bit 0 when its field first drops below the
threshold epsilon, at creation time + (ln(1/eps) - k s)/(3 k^2 beta).
Everything is deterministic given the seed.

The bit stream lists the emitted bits in emission-time order; bits emitted
at the same instant keep the order in which their vortices were produced
(arrival index). With only two lifetimes, each branch's emission times
inherit the arrival order, so the stream is a merge of two sorted runs.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .vortex import (Branch, VortexSolution, collapse_time,
                     zero_vortex_lifetime)
from .wavecore import DomainError


@dataclass(frozen=True)
class EnsembleConfig:
    pair_production_rate: float
    ratio_zero_to_one: float
    k: float
    s: float
    beta: float
    horizon: float
    epsilon: float = 1e-6
    seed: int = 0
    digest_bits: int = 64

    def __post_init__(self):
        for name in ("pair_production_rate", "ratio_zero_to_one", "k", "s",
                     "beta", "horizon", "epsilon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.pair_production_rate <= 0.0:
            raise DomainError("production rate must be positive")
        if self.ratio_zero_to_one < 0.0:
            raise DomainError("production ratio must be non-negative")
        if self.k <= 0.0 or self.s <= 0.0 or self.beta <= 0.0:
            raise DomainError("k, s and beta must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.horizon <= 0.0:
            raise DomainError("horizon must be positive")
        for name in ("seed", "digest_bits"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise DomainError(f"{name} must be >= 0, got {value}")
        self.zero_lifetime  # raises DomainError when epsilon >= e^{-ks}

    @property
    def prob_zero(self) -> float:
        r = self.ratio_zero_to_one
        return r / (1.0 + r)

    @property
    def one_lifetime(self) -> float:
        return collapse_time(VortexSolution(
            Branch.ONE_VORTEX, k=self.k, s=self.s, beta=self.beta))

    @property
    def zero_lifetime(self) -> float:
        return zero_vortex_lifetime(VortexSolution(
            Branch.ZERO_VORTEX, k=self.k, s=self.s, beta=self.beta),
            self.epsilon)

    @classmethod
    def from_json(cls, text: str) -> "EnsembleConfig":
        data = json.loads(text)
        return cls(**data)


@dataclass(frozen=True)
class EnsembleReport:
    produced_zero: int
    produced_one: int
    emitted_zero: int
    emitted_one: int
    live_zero: int
    live_one: int
    bit_sequence_digest: str
    empirical_ratio: float

    @property
    def produced(self) -> int:
        return self.produced_zero + self.produced_one

    @property
    def emitted(self) -> int:
        return self.emitted_zero + self.emitted_one

    def to_dict(self) -> dict:
        return {
            "produced_zero": self.produced_zero,
            "produced_one": self.produced_one,
            "emitted_zero": self.emitted_zero,
            "emitted_one": self.emitted_one,
            "live_zero": self.live_zero,
            "live_one": self.live_one,
            "bit_sequence_digest": self.bit_sequence_digest,
            "empirical_ratio": self.empirical_ratio,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class SimulationResult:
    """Report plus the full emission record for downstream analysis."""

    report: EnsembleReport
    bit_stream: str = field(repr=False, default="")


def _arrival_times(rng: np.random.Generator, rate: float,
                   horizon: float) -> np.ndarray:
    """Poisson arrival times on [0, horizon), batched exponential gaps."""
    batch = max(int(rate * horizon * 0.1) + 64, 1024)
    times: list[np.ndarray] = []
    t_last = 0.0
    while True:
        arr = rng.exponential(1.0 / rate, size=batch)
        np.cumsum(arr, out=arr)
        arr += t_last
        t_last = arr[-1]
        if t_last >= horizon:
            # Earlier batches end below the horizon; only this one is cut.
            times.append(arr[:np.searchsorted(arr, horizon, "left")])
            return np.concatenate(times)
        times.append(arr)


def _bit_stream(t0: np.ndarray, t1: np.ndarray, is_zero: np.ndarray) -> str:
    """Merge the emitted runs of both branches into the ordered bit string.

    ``t0`` and ``t1`` are the sorted emission times of the emitted 0- and
    1-vortices, each a prefix of its branch in arrival order; ``is_zero``
    marks the branch of every arrival. A 1-bit lands after every earlier
    0-bit and every earlier 1-bit; a 0-bit emitted at the same instant goes
    first when its vortex arrived first.
    """
    n0, n1 = t0.size, t1.size
    zeros_before = np.searchsorted(t0, t1, "left")
    if n0 and n1:
        tied = np.flatnonzero(t0[np.minimum(zeros_before, n0 - 1)] == t1)
        if tied.size:
            hi = np.searchsorted(t0, t1[tied], "right")
            idx0 = np.flatnonzero(is_zero)[:n0]
            idx1 = np.flatnonzero(~is_zero)[tied]
            zeros_before[tied] = np.clip(np.searchsorted(idx0, idx1),
                                         zeros_before[tied], hi)
    zeros_before += np.arange(n1)
    buf = np.full(n0 + n1, ord("0"), dtype=np.uint8)
    buf[zeros_before] = ord("1")
    return buf.tobytes().decode("ascii")


def simulate(config: EnsembleConfig) -> SimulationResult:
    """Run the production/collapse process to the horizon."""
    rng = np.random.default_rng(config.seed)
    arrivals = _arrival_times(rng, config.pair_production_rate, config.horizon)
    is_zero = rng.random(arrivals.size) < config.prob_zero
    t0 = arrivals[is_zero]
    t0 += config.zero_lifetime
    t1 = arrivals[~is_zero]
    t1 += config.one_lifetime
    del arrivals
    emitted_zero = int(np.searchsorted(t0, config.horizon, "right"))
    emitted_one = int(np.searchsorted(t1, config.horizon, "right"))
    bit_stream = _bit_stream(t0[:emitted_zero], t1[:emitted_one], is_zero)

    produced_zero = t0.size
    produced_one = t1.size
    ratio = (emitted_zero / emitted_one) if emitted_one else math.inf

    report = EnsembleReport(
        produced_zero=produced_zero,
        produced_one=produced_one,
        emitted_zero=emitted_zero,
        emitted_one=emitted_one,
        live_zero=produced_zero - emitted_zero,
        live_one=produced_one - emitted_one,
        bit_sequence_digest=bit_stream[:config.digest_bits],
        empirical_ratio=ratio,
    )
    return SimulationResult(report=report, bit_stream=bit_stream)


def steady_state_counts(config: EnsembleConfig) -> tuple[float, float]:
    """Expected live populations: per-branch production rate x lifetime."""
    rate_zero = config.pair_production_rate * config.prob_zero
    rate_one = config.pair_production_rate * (1.0 - config.prob_zero)
    return rate_zero * config.zero_lifetime, rate_one * config.one_lifetime


def expected_emissions(config: EnsembleConfig) -> tuple[float, float]:
    """Expected emitted counts by the horizon under flow conservation.

    Every vortex born before horizon - lifetime has emitted its bit, so
    E[emitted_b] = rate_b * (horizon - lifetime_b). The later-born ones are
    still live; that truncation is what biases the raw emitted-bit ratio
    away from the production ratio on short horizons.
    """
    rate_zero = config.pair_production_rate * config.prob_zero
    rate_one = config.pair_production_rate * (1.0 - config.prob_zero)
    return (
        rate_zero * max(config.horizon - config.zero_lifetime, 0.0),
        rate_one * max(config.horizon - config.one_lifetime, 0.0),
    )


@dataclass(frozen=True)
class EqualizationReport:
    """Emission rates vs production rates, and the live-population ratio.

    In a stationary flow the per-branch bit emission rate equals the
    production rate regardless of lifetimes, so the rate-corrected emission
    ratio tracks the production ratio; only the live populations reflect
    the lifetime asymmetry. Both numbers are reported so the two effects
    stay separate.
    """

    production_ratio: float
    emitted_ratio: float
    emission_rate_ratio: float
    live_ratio: float
    expected_live_ratio: float
    within_three_sigma: bool
    stationarity_warning: bool
    report: EnsembleReport

    def to_dict(self) -> dict:
        return {
            "production_ratio": self.production_ratio,
            "emitted_ratio": self.emitted_ratio,
            "emission_rate_ratio": self.emission_rate_ratio,
            "live_ratio": self.live_ratio,
            "expected_live_ratio": self.expected_live_ratio,
            "within_three_sigma": self.within_three_sigma,
            "stationarity_warning": self.stationarity_warning,
            "report": self.report.to_dict(),
        }


def equalization_check(config: EnsembleConfig) -> EqualizationReport:
    """Check each branch's emitted count against flow conservation.

    Each count is Poisson with mean rate_b * (horizon - lifetime_b);
    within_three_sigma holds when both counts sit inside their 3 sigma
    bands, which is equivalent to the emission-rate ratio matching the
    production ratio.
    """
    result = simulate(config)
    rep = result.report
    mu_zero, mu_one = expected_emissions(config)
    within = True
    for count, mu in ((rep.emitted_zero, mu_zero), (rep.emitted_one, mu_one)):
        if mu > 0.0:
            within = within and abs(count - mu) <= 3.0 * math.sqrt(mu)
        else:
            within = within and count == 0
    window_zero = max(config.horizon - config.zero_lifetime, 0.0)
    window_one = max(config.horizon - config.one_lifetime, 0.0)
    if window_zero > 0.0 and window_one > 0.0 and rep.emitted_one:
        rate_ratio = (rep.emitted_zero / window_zero) / (
            rep.emitted_one / window_one)
    else:
        rate_ratio = math.inf if rep.emitted_zero else math.nan
    live_ratio = (rep.live_zero / rep.live_one) if rep.live_one else math.inf
    exp_zero, exp_one = steady_state_counts(config)
    max_lifetime = max(config.zero_lifetime, config.one_lifetime)
    return EqualizationReport(
        production_ratio=config.ratio_zero_to_one,
        emitted_ratio=rep.empirical_ratio,
        emission_rate_ratio=rate_ratio,
        live_ratio=live_ratio,
        expected_live_ratio=(exp_zero / exp_one) if exp_one else math.inf,
        within_three_sigma=within,
        stationarity_warning=config.horizon < 10.0 * max_lifetime,
        report=rep,
    )
