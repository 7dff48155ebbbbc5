"""Discrete-event simulation of 0-/1-vortex pair populations.

Vortices are produced by a Poisson process at a fixed rate and assigned a
branch independently: a 0-vortex with probability r/(1+r) for production
ratio r. A 1-vortex emits bit 1 when it collapses at creation time +
s/(3 k beta); a 0-vortex emits bit 0 when its field first drops below the
threshold epsilon, at creation time + (ln(1/eps) - k s)/(3 k^2 beta).
Everything is deterministic given the seed.

The bit stream lists the emitted bits in emission-time order. With only
two lifetimes, each branch's emission times inherit the arrival order, so
the stream is a merge of two sorted runs. Bits emitted at the same instant
go longer-lived branch first, 0-bits first when L0 == L1: unless the
lifetimes differ by no more than the rounding of the emission times, the
tied longer-lived vortex was produced first.

simulate makes one pass over one chunk generator, ``_arrival_times``. For
each chunk of up to 2^16 arrivals it draws the exponential gaps from
``np.random.default_rng(seed)``, cuts the chunk that reaches the horizon
there, and draws the chunk's branch uniforms, one per arrival, from a
generator of their own, seeded with the first child that
``SeedSequence(seed)`` spawns, so a seed's arrival times do not depend on
the branch draws. When a gap batch spans more than one chunk
(rate * horizon above about 6.5e5), the chunks are drawn on one executor
thread, with two draws submitted ahead of the merge; numpy fills its draws
without the GIL. Each generator is drawn from by one thread, in the same
order, so the bits do not depend on the thread. ``_BitStream`` takes each
chunk in turn, and merges and writes every bit that no later arrival can
precede. Memory is therefore set by the lifetime gap, not by the number of
events: what waits is the longer-lived branch's emissions, about
rate * p_b * min(|L0 - L1|, horizon) emission times of 8 bytes. An arrival
time past the float range raises once the bits before it are written.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import numbers
import os
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .vortex import (Branch, VortexSolution, collapse_time, vortex_ratio,
                     zero_vortex_lifetime)
from .wavecore import DomainError, _require_positive

# The largest expected number of productions, pair_production_rate * horizon,
# that a run accepts. It bounds run time, about 26 ns per event on a 2-CPU
# host (under a minute at the cap), not memory: with a sink, simulate holds
# only the emissions pending within the lifetime gap, 8 bytes each. Without
# one, the returned bit stream takes a byte per emitted bit, and as much
# again while it is built.
MAX_EXPECTED_EVENTS = 1e9


@dataclass(frozen=True)
class EnsembleConfig:
    """0-vortices outlive 1-vortices only when epsilon < e^{-2ks}.

    ``ratio_zero_to_one`` defaults to the paper's ratio e^{4ks} - e^{2ks}
    (``vortex.vortex_ratio``)."""

    pair_production_rate: float
    k: float
    s: float
    beta: float
    horizon: float
    ratio_zero_to_one: float | None = None
    epsilon: float = 1e-6
    seed: int = 0
    digest_bits: int = 64

    def __post_init__(self):
        for name in ("pair_production_rate", "ratio_zero_to_one", "k", "s",
                     "beta", "horizon", "epsilon"):
            value = getattr(self, name)
            if name == "ratio_zero_to_one" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if name not in ("ratio_zero_to_one", "epsilon"):
                _require_positive(value, name)
            elif not math.isfinite(value):  # zero_lifetime checks epsilon's range
                raise DomainError(f"{name} must be finite, got {value}")
            elif name == "ratio_zero_to_one" and value < 0.0:
                raise DomainError(f"{name} must be non-negative, got {value}")
        if self.ratio_zero_to_one is None:
            object.__setattr__(self, "ratio_zero_to_one", vortex_ratio(self.k, self.s))
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
        return _finite_json(self.to_dict())


def _finite_json(doc: dict) -> str:
    """``doc`` as sorted JSON, each float that is not finite written as
    null, in nested dicts too: JSON has no NaN or Infinity."""
    def finite(value):
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value
    return json.dumps(finite(doc), sort_keys=True)


@dataclass(frozen=True)
class SimulationResult:
    """Report, plus the whole bit stream when simulate was given no sink."""

    report: EnsembleReport
    bit_stream: str = field(repr=False, default="")


# Arrivals are drawn, split into branches and flushed this many at a time.
_CHUNK = 1 << 16


def _batch_size(rate: float, horizon: float) -> int:
    """Gaps per batch: a tenth of the expected count plus 64, at least 1,024."""
    return max(int(rate * horizon * 0.1) + 64, 1024)


def _arrival_times(config: EnsembleConfig, slots: int = 1):
    """Poisson arrivals to the horizon with their branches, in chunks:
    ``(times, is_zero, final)``, up to and including the ``final`` chunk,
    the first that reaches the horizon, which is cut there.

    Gaps come from ``np.random.default_rng(seed)`` in batches of
    ``_batch_size(rate, horizon)``. Each batch's arrival times are
    ``t_last + np.cumsum(rng.exponential(1 / rate, batch))``, bit for bit:
    a batch is drawn in chunks of at most ``_CHUNK`` gaps, and a chunk's
    cumsum continues the one before when the carry is added to its first
    gap; no chunk spans two batches. A chunk's branches take one uniform
    per arrival from the seed's first spawned generator: a 0-vortex when
    it is below ``prob_zero``. The chunks are drawn into ``slots``
    (times, is_zero) buffer pairs in turn, so a chunk keeps its values only
    until ``slots`` more have been drawn.
    """
    rate, horizon = config.pair_production_rate, config.horizon
    batch = _batch_size(rate, horizon)
    size, scale, prob_zero = min(batch, _CHUNK), 1.0 / rate, config.prob_zero
    rng = np.random.default_rng(config.seed)
    branch_rng = np.random.default_rng(
        np.random.SeedSequence(config.seed).spawn(1)[0])
    uniforms = np.empty(size)
    ring = itertools.cycle([(np.empty(size), np.empty(size, bool))
                            for _ in range(slots)])
    t_last = 0.0
    while t_last < horizon:
        carry = 0.0
        for start in range(0, batch, _CHUNK):
            times, is_zero = next(ring)
            times = times[:min(_CHUNK, batch - start)]
            # The same bits as rng.exponential(scale, times.size).
            rng.standard_exponential(out=times)
            times *= scale
            times[0] += carry
            np.cumsum(times, out=times)
            carry = times[-1]
            times += t_last
            final = times[-1] >= horizon
            if final:
                times = times[:int(np.searchsorted(times, horizon, "left"))]
            u = uniforms[:times.size]
            branch_rng.random(out=u)
            yield times, np.less(u, prob_zero, out=is_zero[:u.size]), final
            if final:
                return
        t_last += carry


def _drawn_ahead(items):
    """Yield the iterator ``items``, drawn on one worker thread under the
    caller's numpy error state, two draws submitted ahead: items drawn into
    three buffers in turn never overwrite the one the caller holds. A draw's
    exception is raised again, as it is, by the caller's next step. Leaving
    the generator, however it is left, joins the worker."""
    # Imported here: it loads logging, which every command would pay for.
    from concurrent.futures import ThreadPoolExecutor
    errstate = np.geterr()

    def draw():
        with np.errstate(**errstate):
            return next(items, None)

    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = [pool.submit(draw), pool.submit(draw)]
        while (item := ahead.pop(0).result()) is not None:
            ahead.append(pool.submit(draw))
            yield item


def _merge_bits(t0: np.ndarray, t1: np.ndarray, side: str) -> np.ndarray:
    """Merge runs of both branches' emissions into the ordered bit bytes.

    ``t0`` and ``t1`` are the sorted emission times of 0- and 1-vortices.
    At one instant the longer-lived branch's bits go first: ``side`` is
    "right" (1-bits after tied 0-bits) when L0 >= L1 and "left" otherwise.
    The result holds one ASCII ``0`` or ``1`` per bit. A flush holds about
    one chunk of arrivals' emissions, so one ``searchsorted`` places every
    1-bit.
    """
    bits = np.full(t0.size + t1.size, ord("0"), dtype=np.uint8)
    before = np.searchsorted(t0, t1, side)
    before += np.arange(t1.size)
    bits[before] = ord("1")
    return bits


class _Pending:
    """Emission times of one branch waiting to be merged, in arrival order:
    a queue of sorted float arrays."""

    def __init__(self):
        self.parts: deque = deque()

    def push(self, times: np.ndarray) -> None:
        if times.size:
            self.parts.append(times)

    def pop_before(self, cut: float) -> np.ndarray:
        """Remove and return the emission times before cut."""
        taken = []
        while self.parts:
            part = self.parts[0]
            n = int(np.searchsorted(part, cut, "left"))
            if n < part.size:
                if n:
                    taken.append(part[:n])
                    self.parts[0] = part[n:]
                break
            taken.append(self.parts.popleft())
        if len(taken) == 1:
            return taken[0]
        return np.concatenate(taken or [np.empty(0)])


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
    float entries of 8 bytes. Bits emitted at one instant are ordered by
    branch, the longer-lived branch's first (0-bits when L0 == L1): when
    the lifetimes differ by more than the rounding of the emission times,
    that is the order in which the tied vortices arrived.
    """

    def __init__(self, life0: float, life1: float, horizon: float, out,
                 digest_bits: int):
        self.lives = (life0, life1)
        self.side = "right" if life0 >= life1 else "left"
        self.horizon = horizon
        self.out = out
        self.digest_bits = digest_bits
        self.head = bytearray()
        self.pending = (_Pending(), _Pending())
        self.produced = [0, 0]
        self.emitted = [0, 0]

    def add(self, arrivals: np.ndarray, is_zero: np.ndarray,
            final: bool = False) -> None:
        """Take the next arrivals and their branches, then flush; ``final``
        marks the last arrivals and flushes everything."""
        n0 = int(np.count_nonzero(is_zero))
        self.produced[0] += n0
        self.produced[1] += arrivals.size - n0
        for branch, (life, pending) in enumerate(zip(self.lives, self.pending)):
            # Emission times grow with arrival time in each branch, so a
            # branch whose first emission here is past the horizon has none
            # to store.
            if arrivals.size and arrivals[0] + life <= self.horizon:
                t = np.compress(is_zero if branch == 0 else ~is_zero, arrivals)
                t += life
                e = int(np.searchsorted(t, self.horizon, "right"))
                pending.push(t[:e])
                self.emitted[branch] += e
        cut = math.inf if final else arrivals[-1] + min(self.lives)
        bits = _merge_bits(*(p.pop_before(cut) for p in self.pending), self.side)
        self.out.write(bits)
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
    # _arrival_times draws each chunk's gaps and branch uniforms in one
    # pass. When a batch spans more than one chunk, one executor thread
    # draws the chunks, two submitted ahead into buffer pairs of their own,
    # while the caller merges a third. The generator is made here, so that
    # a wrapper around _arrival_times, such as a profiler's, runs on the
    # caller's thread.
    out = io.BytesIO() if sink is None else sink
    stream = _BitStream(config.zero_lifetime, config.one_lifetime,
                        config.horizon, out, config.digest_bits)
    slots = 3 if _batch_size(config.pair_production_rate,
                             config.horizon) > _CHUNK else 1
    chunks = _arrival_times(config, slots)
    if slots > 1:
        chunks = _drawn_ahead(chunks)
    with contextlib.closing(chunks):
        for arrivals, is_zero, final in chunks:
            stream.add(arrivals, is_zero, final)
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

    def to_json(self) -> str:
        """JSON has no NaN or Infinity: each ratio that is not finite, the
        nested report's included, is null."""
        return _finite_json(self.to_dict())


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
