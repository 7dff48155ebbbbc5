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

# The largest expected number of productions, pair_production_rate * horizon,
# that a run accepts. simulate holds about 14 bytes per produced event, so
# this cap is about 14 GB.
MAX_EXPECTED_EVENTS = 1e9


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
        expected = self.pair_production_rate * self.horizon
        if expected > MAX_EXPECTED_EVENTS:
            raise DomainError(
                f"pair_production_rate * horizon must be at most "
                f"{MAX_EXPECTED_EVENTS:.0e} expected events, got {expected}")
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


# Each branch split covers this many arrivals, with one uniform draw.
_SPLIT = 1 << 16
# Each merge window places this many 1-bits among the 0-bits around them.
_WINDOW = 1 << 14
# Batches of room past the expected arrival count. Pages never written are
# never resident, so the spare costs address space, not memory.
_SPARE_BATCHES = 2


def _arrival_times(rng: np.random.Generator, rate: float,
                   horizon: float) -> np.ndarray:
    """Poisson arrival times on [0, horizon), batched exponential gaps.

    Every batch is drawn into one buffer. The returned view of it is the
    buffer the branch split compacts the 0-vortices into.
    """
    batch = max(int(rate * horizon * 0.1) + 64, 1024)
    scale = 1.0 / rate
    times = np.empty(batch * (int(rate * horizon) // batch + _SPARE_BATCHES))
    stop, t_last = 0, 0.0
    while True:
        if stop + batch > times.size:
            grown = np.empty(2 * times.size + batch)
            grown[:stop] = times[:stop]
            times = grown
        arr = times[stop:stop + batch]
        # The same bits as rng.exponential(scale, batch).
        rng.standard_exponential(out=arr)
        arr *= scale
        np.cumsum(arr, out=arr)
        arr += t_last
        t_last = arr[-1]
        if t_last >= horizon:
            # Earlier batches end below the horizon; only this one is cut.
            return times[:stop + int(np.searchsorted(arr, horizon, "left"))]
        stop += batch


def _split_branches(rng: np.random.Generator, arrivals: np.ndarray,
                    config: EnsembleConfig):
    """Draw each arrival's branch and turn arrivals into emission times.

    Returns ``(t0, t1, is_zero)``: the emission times of all 0- and
    1-vortices in arrival order, and the branch of every arrival. ``t0``
    overwrites the front of ``arrivals``; a sub-chunk's 0-vortices never
    land beyond the sub-chunk they came from.
    """
    n = arrivals.size
    is_zero = np.empty(n, dtype=bool)
    t1 = np.empty(n)  # only the pages the 1-vortices fill become resident
    uniforms = np.empty(min(n, _SPLIT))
    prob_zero = config.prob_zero
    life0, life1 = config.zero_lifetime, config.one_lifetime
    n0 = n1 = 0
    for lo in range(0, n, _SPLIT):
        hi = min(lo + _SPLIT, n)
        mask = is_zero[lo:hi]
        np.less(rng.random(out=uniforms[:hi - lo]), prob_zero, out=mask)
        chunk = arrivals[lo:hi]
        zeros, ones = chunk[mask], chunk[~mask]
        np.add(zeros, life0, out=arrivals[n0:n0 + zeros.size])
        np.add(ones, life1, out=t1[n1:n1 + ones.size])
        n0 += zeros.size
        n1 += ones.size
    return arrivals[:n0], t1[:n1], is_zero


def _one_arrivals(is_zero: np.ndarray, ones_upto: np.ndarray,
                  rank: np.ndarray) -> np.ndarray:
    """Arrival indices of the 1-vortices of the given sorted ranks.

    ``ones_upto[b]`` counts the 1-vortices among the first ``b`` blocks of
    ``_SPLIT`` arrivals, so only the blocks holding these ranks are read.
    """
    first, last = np.searchsorted(ones_upto, rank[[0, -1]], "right") - 1
    start = first * _SPLIT
    found = np.flatnonzero(~is_zero[start:(last + 1) * _SPLIT])
    return start + found[rank - ones_upto[first]]


def _merge_bits(t0: np.ndarray, t1: np.ndarray,
                is_zero: np.ndarray) -> np.ndarray:
    """Merge the emitted runs of both branches into the ordered bit bytes.

    ``t0`` and ``t1`` are the sorted emission times of the emitted 0- and
    1-vortices, each a prefix of its branch in arrival order; ``is_zero``
    marks the branch of every arrival. A 1-bit lands after every earlier
    0-bit and every earlier 1-bit; a 0-bit emitted at the same instant goes
    first when its vortex arrived first. The result holds one ASCII ``0``
    or ``1`` per emitted bit.
    """
    n0, n1 = t0.size, t1.size
    bits = np.full(n0 + n1, ord("0"), dtype=np.uint8)
    ones_upto = None  # counted at the first tie
    for a in range(0, n1, _WINDOW):
        ones = t1[a:a + _WINDOW]
        lo = int(np.searchsorted(t0, ones[0], "left"))
        near = t0[lo:int(np.searchsorted(t0, ones[-1], "right"))]
        before = np.searchsorted(near, ones, "left")
        if near.size:
            tied = np.flatnonzero(
                near[np.minimum(before, near.size - 1)] == ones)
            if tied.size:
                last = np.searchsorted(near, ones[tied], "right")
                if ones_upto is None:
                    ones_upto = np.cumsum([0] + [
                        np.count_nonzero(~is_zero[i:i + _SPLIT])
                        for i in range(0, is_zero.size, _SPLIT)])
                # A 1-vortex of rank j and arrival index A arrived after
                # A - j 0-vortices.
                rank = a + tied
                arrived = _one_arrivals(is_zero, ones_upto, rank) - rank - lo
                before[tied] = np.clip(arrived, before[tied], last)
        before += np.arange(lo + a, lo + a + ones.size)
        bits[before] = ord("1")
    return bits


def simulate(config: EnsembleConfig) -> SimulationResult:
    """Run the production/collapse process to the horizon."""
    rng = np.random.default_rng(config.seed)
    arrivals = _arrival_times(rng, config.pair_production_rate, config.horizon)
    t0, t1, is_zero = _split_branches(rng, arrivals, config)
    emitted_zero = int(np.searchsorted(t0, config.horizon, "right"))
    emitted_one = int(np.searchsorted(t1, config.horizon, "right"))
    bits = _merge_bits(t0[:emitted_zero], t1[:emitted_one], is_zero)
    produced_zero = t0.size
    produced_one = t1.size
    # Free the population before the stream is copied into a str.
    del arrivals, t0, t1, is_zero
    bit_stream = str(bits, "ascii")
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
