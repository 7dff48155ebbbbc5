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

simulate makes two passes over the random stream. Every exponential gap is
drawn before the first branch uniform, so the first pass draws the gaps
only to find where the uniforms begin. The second draws the gaps again,
with the uniforms alongside, in chunks of 2^16 arrivals, and after each
chunk merges and writes every bit that no later arrival can precede.
Memory is therefore set by the lifetime gap, not by the number of events:
what waits is the longer-lived branch's emissions, about
rate * p_b * min(|L0 - L1|, horizon) entries of 8 or 16 bytes.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import os
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .vortex import (Branch, VortexSolution, collapse_time,
                     zero_vortex_lifetime)
from .wavecore import DomainError, _require_positive

# The largest expected number of productions, pair_production_rate * horizon,
# that a run accepts. It bounds run time, about 50 ns per event on a 2-CPU
# host (under a minute at the cap), not memory: with a sink, simulate holds
# only the emissions pending within the lifetime gap. Without one, the
# returned bit stream takes a byte per emitted bit, and as much again while
# it is built.
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
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if name not in ("ratio_zero_to_one", "epsilon"):
                _require_positive(value, name)
            elif not math.isfinite(value):  # zero_lifetime checks epsilon's range
                raise DomainError(f"{name} must be finite, got {value}")
            elif name == "ratio_zero_to_one" and value < 0.0:
                raise DomainError(f"{name} must be non-negative, got {value}")
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
        self.zero_lifetime  # raises DomainError unless 0 < epsilon < e^{-ks}

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
        return asdict(self)

    def to_json(self) -> str:
        """JSON has no Infinity: the ratio of a run without 1-bits is null."""
        ratio = self.empirical_ratio
        return json.dumps({**self.to_dict(), "empirical_ratio": (
            ratio if math.isfinite(ratio) else None)}, sort_keys=True)


@dataclass(frozen=True)
class SimulationResult:
    """Report, plus the whole bit stream when simulate was given no sink."""

    report: EnsembleReport
    bit_stream: str = field(repr=False, default="")


# Arrivals are drawn, split into branches and flushed this many at a time.
_CHUNK = 1 << 16


def _arrival_times(rng: np.random.Generator, rate: float, horizon: float):
    """Poisson arrival times from batched exponential gaps, in chunks.

    Gaps are drawn in batches of a tenth of the expected count plus 64 (at
    least 1,024), up to and including the first batch that ends at or past
    the horizon. Each batch's arrival times are
    ``t_last + np.cumsum(rng.exponential(1 / rate, batch))``, bit for bit:
    a batch is drawn in chunks of at most ``_CHUNK`` gaps, and a chunk's
    cumsum continues the one before when the carry is added to its first
    gap. Each chunk is yielded as it is drawn; none spans two batches.
    """
    batch = max(int(rate * horizon * 0.1) + 64, 1024)
    scale = 1.0 / rate
    t_last = 0.0
    while t_last < horizon:
        carry = 0.0
        for start in range(0, batch, _CHUNK):
            # The same bits as rng.exponential(scale, size).
            chunk = rng.standard_exponential(min(_CHUNK, batch - start))
            chunk *= scale
            chunk[0] += carry
            np.cumsum(chunk, out=chunk)
            carry = chunk[-1]
            chunk += t_last
            yield chunk
        t_last += carry


def _merge_bits(t0: np.ndarray, t1: np.ndarray, arrival1: np.ndarray,
                placed: int = 0) -> np.ndarray:
    """Merge runs of both branches' emissions into the ordered bit bytes.

    ``t0`` and ``t1`` are the sorted emission times of consecutive 0- and
    1-vortices in arrival order, and ``arrival1`` holds the arrival index
    of each 1-vortex. They follow the ``placed`` bits already merged, which
    are the earlier vortices of both branches. A 1-bit lands after every
    earlier 0-bit and every earlier 1-bit; a 0-bit emitted at the same
    instant goes first when its vortex arrived first. The result holds one
    ASCII ``0`` or ``1`` per bit. A flush holds about one chunk of
    arrivals' emissions, so one ``searchsorted`` places every 1-bit.
    """
    bits = np.full(t0.size + t1.size, ord("0"), dtype=np.uint8)
    before = np.searchsorted(t0, t1, "left")
    if t0.size:
        tied = np.flatnonzero(t0[np.minimum(before, t0.size - 1)] == t1)
        if tied.size:
            last = np.searchsorted(t0, t1[tied], "right")
            # A 1-vortex of arrival index A that follows j 1-vortices
            # arrived after A - j 0-vortices.
            arrived = arrival1[tied] - tied - placed
            before[tied] = np.clip(arrived, before[tied], last)
    before += np.arange(t1.size)
    bits[before] = ord("1")
    return bits


class _Pending:
    """Emitted vortices of one branch waiting to be merged, in arrival
    order: a queue of column tuples, the first column the emission time."""

    def __init__(self, *dtypes):
        self.dtypes = dtypes
        self.parts: deque = deque()

    def push(self, *columns):
        if columns[0].size:
            self.parts.append(columns)

    def pop_before(self, cut: float) -> tuple:
        """Remove and return the columns of the entries emitted before cut."""
        taken = []
        while self.parts:
            part = self.parts[0]
            n = int(np.searchsorted(part[0], cut, "left"))
            if n < part[0].size:
                if n:
                    taken.append(tuple(c[:n] for c in part))
                    self.parts[0] = tuple(c[n:] for c in part)
                break
            taken.append(self.parts.popleft())
        if len(taken) == 1:
            return taken[0]
        return tuple(np.concatenate([p[i] for p in taken] or [np.empty(0, d)])
                     for i, d in enumerate(self.dtypes))


class _BitStream:
    """Merges the emissions of arrivals, taken in order, into the bit
    stream, and writes each bit to ``out`` once no later arrival can
    precede it.

    After arrivals up to time t, a later arrival emits no earlier than
    t + min(L0, L1), so every pending emission strictly earlier than that
    is merged and written; equal emission times are never split between
    two flushes. An emission past the horizon is counted, never stored.
    What waits is the longer-lived branch's emissions from the last
    |L0 - L1| of arrivals: about rate * p_b * min(|L0 - L1|, horizon)
    entries of 8 bytes (16 for 1-vortices, which carry their arrival index
    for the tie break).
    """

    def __init__(self, life0: float, life1: float, horizon: float, out,
                 digest_bits: int):
        self.lives = (life0, life1)
        self.horizon = horizon
        self.out = out
        self.digest_bits = digest_bits
        self.head = bytearray()
        self.pending = (_Pending(np.float64), _Pending(np.float64, np.intp))
        self.produced = [0, 0]
        self.emitted = [0, 0]
        self.arrived = self.written = 0

    def add(self, arrivals: np.ndarray, is_zero: np.ndarray,
            final: bool = False) -> None:
        """Take the next arrivals and their branches, then flush; ``final``
        marks the last arrivals and flushes everything."""
        n0 = int(np.count_nonzero(is_zero))
        self.produced[0] += n0
        self.produced[1] += arrivals.size - n0
        # Emission times grow with arrival time in each branch, so a branch
        # whose first emission here is past the horizon has none to store.
        life0, life1 = self.lives
        if arrivals.size and arrivals[0] + life0 <= self.horizon:
            t0 = np.compress(is_zero, arrivals)
            t0 += life0
            e0 = int(np.searchsorted(t0, self.horizon, "right"))
            self.pending[0].push(t0[:e0])
            self.emitted[0] += e0
        if arrivals.size and arrivals[0] + life1 <= self.horizon:
            one_at = np.flatnonzero(~is_zero)
            t1 = arrivals.take(one_at)
            t1 += life1
            e1 = int(np.searchsorted(t1, self.horizon, "right"))
            self.pending[1].push(t1[:e1], one_at[:e1] + self.arrived)
            self.emitted[1] += e1
        self.arrived += arrivals.size
        cut = math.inf if final else arrivals[-1] + min(self.lives)
        (f0,), (f1, a1) = (p.pop_before(cut) for p in self.pending)
        bits = _merge_bits(f0, f1, a1, self.written)
        self.out.write(bits)
        self.written += bits.size
        if len(self.head) < self.digest_bits:
            self.head += bits[:self.digest_bits - len(self.head)].tobytes()

    def report(self) -> EnsembleReport:
        (p0, p1), (e0, e1) = self.produced, self.emitted
        return EnsembleReport(
            produced_zero=p0,
            produced_one=p1,
            emitted_zero=e0,
            emitted_one=e1,
            live_zero=p0 - e0,
            live_one=p1 - e1,
            bit_sequence_digest=self.head.decode("ascii"),
            empirical_ratio=(e0 / e1) if e1 else math.inf,
        )


def simulate(config: EnsembleConfig, sink=None) -> SimulationResult:
    """Run the production/collapse process to the horizon.

    The bits go to ``sink``, a binary file, as they are merged; without a
    sink they are returned as the result's ``bit_stream``.
    """
    rate, horizon = config.pair_production_rate, config.horizon
    # Pass 1: every gap is drawn before the first branch uniform, so the
    # uniforms start where the gaps of the last batch end.
    branch_rng = np.random.default_rng(config.seed)
    for _ in _arrival_times(branch_rng, rate, horizon):
        pass
    # Pass 2 draws the gaps again, with the uniforms alongside.
    out = io.BytesIO() if sink is None else sink
    stream = _BitStream(config.zero_lifetime, config.one_lifetime, horizon,
                        out, config.digest_bits)
    for arrivals in _arrival_times(np.random.default_rng(config.seed), rate,
                                   horizon):
        final = arrivals[-1] >= horizon
        if final:
            arrivals = arrivals[:int(np.searchsorted(arrivals, horizon, "left"))]
        stream.add(arrivals, branch_rng.random(arrivals.size) < config.prob_zero,
                   final)
        if final:
            break
    bits = "" if sink is not None else out.getvalue().decode("ascii")
    return SimulationResult(report=stream.report(), bit_stream=bits)


def _branch_rates(config: EnsembleConfig) -> tuple[float, float]:
    """Production rates of 0- and 1-vortices."""
    rate = config.pair_production_rate
    return rate * config.prob_zero, rate * (1.0 - config.prob_zero)


def _emission_windows(config: EnsembleConfig) -> tuple[float, float]:
    """Per branch, the span of birth times whose bits are emitted by the
    horizon: max(horizon - lifetime_b, 0)."""
    return (max(config.horizon - config.zero_lifetime, 0.0),
            max(config.horizon - config.one_lifetime, 0.0))


def steady_state_counts(config: EnsembleConfig) -> tuple[float, float]:
    """Expected live populations: per-branch production rate x lifetime."""
    rate_zero, rate_one = _branch_rates(config)
    return rate_zero * config.zero_lifetime, rate_one * config.one_lifetime


def expected_emissions(config: EnsembleConfig) -> tuple[float, float]:
    """Expected emitted counts by the horizon under flow conservation.

    Every vortex born before horizon - lifetime has emitted its bit, so
    E[emitted_b] = rate_b * (horizon - lifetime_b). The later-born ones are
    still live; that truncation is what biases the raw emitted-bit ratio
    away from the production ratio on short horizons.
    """
    rate_zero, rate_one = _branch_rates(config)
    window_zero, window_one = _emission_windows(config)
    return rate_zero * window_zero, rate_one * window_one


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
        return asdict(self)


def equalization_check(config: EnsembleConfig) -> EqualizationReport:
    """Check each branch's emitted count against flow conservation.

    Each count is Poisson with mean rate_b * (horizon - lifetime_b);
    within_three_sigma holds when both counts sit inside their 3 sigma
    bands, which is equivalent to the emission-rate ratio matching the
    production ratio.
    """
    with open(os.devnull, "wb") as discard:
        rep = simulate(config, discard).report
    mu_zero, mu_one = expected_emissions(config)
    within = True
    for count, mu in ((rep.emitted_zero, mu_zero), (rep.emitted_one, mu_one)):
        if mu > 0.0:
            within = within and abs(count - mu) <= 3.0 * math.sqrt(mu)
        else:
            within = within and count == 0
    window_zero, window_one = _emission_windows(config)
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
