import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from zvortex import ensemble
from zvortex.ensemble import (
    EnsembleConfig,
    EnsembleReport,
    SimulationResult,
    _merge_bits,
    equalization_check,
    expected_emissions,
    simulate,
    steady_state_counts,
)
from zvortex.wavecore import DomainError, float_range


def make_config(**kw):
    base = dict(pair_production_rate=500.0, ratio_zero_to_one=1.0,
                k=1.0, s=1.0, beta=1.0, horizon=20.0, epsilon=1e-6, seed=7)
    base.update(kw)
    return EnsembleConfig(**base)


# Reference engine: the argsort-based simulate, kept verbatim but for the
# branch uniforms, drawn from the seed's first spawned generator, and the
# order at a tie (lifetime_ordered_bits), so the merge engine can be held to
# byte-identical reports and bit streams.
def _oracle_arrival_times(rng: np.random.Generator, rate: float,
                          horizon: float) -> np.ndarray:
    """Poisson arrival times on [0, horizon), batched exponential gaps."""
    expected = rate * horizon
    times: list[np.ndarray] = []
    t_last = 0.0
    while True:
        batch = max(int(expected * 0.1) + 64, 1024)
        gaps = rng.exponential(1.0 / rate, size=batch)
        arr = t_last + np.cumsum(gaps)
        times.append(arr)
        t_last = arr[-1]
        if t_last >= horizon:
            break
    all_times = np.concatenate(times)
    return all_times[all_times < horizon]


def lifetime_ordered_bits(emission, is_zero, life0, life1) -> str:
    """The bits in emission-time order, the longer-lived branch's first at
    one instant, 0-bits first when L0 == L1."""
    bits = np.where(is_zero, 0, 1)
    tag = bits if life0 >= life1 else 1 - bits
    return "".join("01"[b] for b in bits[np.lexsort((tag, emission))])


def oracle_simulate(config: EnsembleConfig) -> SimulationResult:
    """Run the production/collapse process to the horizon."""
    rng = np.random.default_rng(config.seed)
    arrivals = _oracle_arrival_times(rng, config.pair_production_rate,
                                     config.horizon)
    is_zero = np.random.default_rng(np.random.SeedSequence(
        config.seed).spawn(1)[0]).random(arrivals.size) < config.prob_zero
    lifetimes = np.where(is_zero, config.zero_lifetime, config.one_lifetime)
    emission_times = arrivals + lifetimes
    emitted_mask = emission_times <= config.horizon

    bit_stream = lifetime_ordered_bits(
        emission_times[emitted_mask], is_zero[emitted_mask],
        config.zero_lifetime, config.one_lifetime)

    produced_zero = int(np.count_nonzero(is_zero))
    produced_one = int(arrivals.size - produced_zero)
    emitted_zero = int(np.count_nonzero(is_zero & emitted_mask))
    emitted_one = int(np.count_nonzero(~is_zero & emitted_mask))
    emitted_total_one = emitted_one
    ratio = (emitted_zero / emitted_total_one) if emitted_total_one else math.inf

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


class TestConfig:
    def test_lifetimes(self):
        cfg = make_config()
        assert cfg.one_lifetime == pytest.approx(1.0 / 3.0, rel=1e-15)
        # frozen: (ln 1e6 - 1)/3
        assert cfg.zero_lifetime == pytest.approx(4.27183685265, rel=1e-10)

    def test_invalid_epsilon(self):
        with pytest.raises(DomainError):
            make_config(epsilon=0.5)  # above e^{-ks}
        with pytest.raises(DomainError):
            make_config(epsilon=0.0)

    @pytest.mark.parametrize("name", ["pair_production_rate",
                                      "ratio_zero_to_one", "k", "s", "beta",
                                      "horizon", "epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(DomainError, match=name):
            make_config(**{name: value})

    @pytest.mark.parametrize("name,value", [
        *((name, value) for name in ("pair_production_rate", "k", "s", "beta",
                                     "horizon", "epsilon")
          for value in (0.0, -0.0, -1e-300, -2.5)),
        ("ratio_zero_to_one", -1e-300), ("ratio_zero_to_one", -2.5),
        ("epsilon", 1.0), ("epsilon", 3.0)])
    def test_out_of_range_names_the_field(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must"):
            make_config(**{name: value})

    def test_zero_ratio_accepted(self):
        assert make_config(ratio_zero_to_one=0.0).prob_zero == 0.0

    @pytest.mark.parametrize("name", ["seed", "digest_bits"])
    def test_negative_count_rejected(self, name):
        with pytest.raises(DomainError, match=name):
            make_config(**{name: -3})

    @pytest.mark.parametrize("rate,horizon", [(1e200, 1e200), (1e6, 1001.0)])
    def test_expected_events_capped(self, rate, horizon):
        with pytest.raises(DomainError, match="pair_production_rate"):
            make_config(pair_production_rate=rate, horizon=horizon)

    def test_expected_events_at_the_cap_accepted(self):
        # Constructed only: a run this size needs about 14 GB.
        cfg = make_config(pair_production_rate=1e6, horizon=1000.0)
        assert cfg.pair_production_rate * cfg.horizon == \
            ensemble.MAX_EXPECTED_EVENTS

    @pytest.mark.parametrize("value", [2.5, True, "8"])
    def test_non_integer_digest_bits_rejected(self, value):
        with pytest.raises(TypeError, match="digest_bits"):
            make_config(digest_bits=value)

    @pytest.mark.parametrize("name", ["pair_production_rate",
                                      "ratio_zero_to_one", "k", "s", "beta",
                                      "horizon", "epsilon"])
    def test_boolean_rejected(self, name):
        with pytest.raises(TypeError, match=name):
            make_config(**{name: True})

    @pytest.mark.parametrize("value", ["1", None, [1.0]])
    def test_non_number_names_the_field(self, value):
        with pytest.raises(TypeError, match="^horizon must be a number, got "):
            make_config(horizon=value)

    def test_lifetimes_match_vortex_closed_forms(self):
        for k, s, beta, eps in [(1.0, 1.0, 1.0, 1e-6), (0.4, 2.5, 0.7, 1e-3),
                                (1.7, 0.3, 2.2, 0.5)]:
            cfg = make_config(k=k, s=s, beta=beta, epsilon=eps)
            assert cfg.one_lifetime == s / (3.0 * k * beta)
            assert cfg.zero_lifetime == (math.log(1.0 / eps) - k * s) / (
                3.0 * k ** 2 * beta)

    def test_branch_probability(self):
        assert make_config(ratio_zero_to_one=1.0).prob_zero == 0.5
        assert make_config(ratio_zero_to_one=3.0).prob_zero == pytest.approx(0.75)
        assert make_config(ratio_zero_to_one=0.0).prob_zero == 0.0

    def test_lifetime_ordering_under_threshold_bound(self):
        # epsilon < e^{-2ks} forces 0-vortices to outlive 1-vortices
        for k, s in [(1.0, 1.0), (0.5, 2.0), (1.5, 0.4)]:
            eps = math.exp(-2.0 * k * s) * 0.9
            cfg = make_config(k=k, s=s, epsilon=eps)
            assert cfg.zero_lifetime > cfg.one_lifetime


class TestSimulate:
    def test_deterministic(self):
        a = simulate(make_config())
        b = simulate(make_config())
        assert a.report == b.report
        assert a.bit_stream == b.bit_stream

    def test_seed_changes_stream(self):
        a = simulate(make_config(seed=1))
        b = simulate(make_config(seed=2))
        assert a.bit_stream != b.bit_stream

    def test_conservation(self):
        rep = simulate(make_config()).report
        assert rep.emitted + rep.live_zero + rep.live_one == rep.produced
        assert rep.emitted == rep.emitted_zero + rep.emitted_one

    def test_symmetric_production_matches_flow_expectation(self):
        cfg = make_config(pair_production_rate=5000.0, horizon=50.0)
        rep = simulate(cfg).report
        mu_zero, mu_one = expected_emissions(cfg)
        assert abs(rep.emitted_zero - mu_zero) <= 3.0 * math.sqrt(mu_zero)
        assert abs(rep.emitted_one - mu_one) <= 3.0 * math.sqrt(mu_one)

    def test_long_run_bit_balance(self):
        # the raw emitted-bit ratio approaches the production ratio once the
        # horizon dwarfs both lifetimes
        rep = simulate(make_config(pair_production_rate=100.0,
                                   horizon=2000.0)).report
        n = rep.emitted
        assert abs(rep.emitted_zero / n - 0.5) < 0.01

    def test_all_ones_without_zero_production(self):
        result = simulate(make_config(ratio_zero_to_one=0.0))
        assert set(result.bit_stream) <= {"1"}
        assert result.report.emitted_zero == 0

    def test_report_json_without_one_bits_is_json(self):
        # Shorter than both lifetimes: no bit at all, so the ratio is inf,
        # which the JSON report writes as null, not as Infinity.
        rep = simulate(make_config(horizon=0.25)).report
        assert rep.emitted_one == 0 and rep.empirical_ratio == math.inf

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(rep.to_json(), parse_constant=reject)
        assert doc == {**rep.to_dict(), "empirical_ratio": None}

    def test_digest_prefix(self):
        result = simulate(make_config(digest_bits=16))
        assert result.report.bit_sequence_digest == result.bit_stream[:16]

    def test_bits_ordered_by_emission_time(self):
        # early bits are dominated by 1s because 1-vortices die first
        result = simulate(make_config(pair_production_rate=2000.0))
        head = result.bit_stream[:200]
        assert head.count("1") > head.count("0")


# e^{-2ks} < epsilon < e^{-ks}: 0-vortices die before 1-vortices.
EPS_ZERO_FIRST = 0.2

ORACLE_CONFIGS = [
    {},
    {"ratio_zero_to_one": 0.0},
    {"ratio_zero_to_one": 1e3},
    {"ratio_zero_to_one": 0.05, "pair_production_rate": 3000.0},
    {"horizon": 0.25},  # shorter than both lifetimes: empty stream
    {"epsilon": EPS_ZERO_FIRST},
    {"epsilon": EPS_ZERO_FIRST, "horizon": 0.3},
    {"digest_bits": 10 ** 6},
    {"pair_production_rate": 2.0, "horizon": 3.0},
    {"k": 0.4, "s": 2.5, "beta": 0.7, "epsilon": 1e-3, "horizon": 9.0},
]


def assert_matches_oracle(cfg):
    new, old = simulate(cfg), oracle_simulate(cfg)
    assert new.bit_stream == old.bit_stream
    assert new.report.to_json() == old.report.to_json()
    assert new == old
    return old


class TestOracle:
    @pytest.mark.parametrize("kw", ORACLE_CONFIGS)
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_matches_argsort_engine(self, kw, seed):
        assert_matches_oracle(make_config(**{"seed": seed, **kw}))

    def test_edge_cases_are_reached(self):
        assert make_config(epsilon=EPS_ZERO_FIRST).zero_lifetime < \
            make_config().one_lifetime
        assert simulate(make_config(horizon=0.25)).bit_stream == ""
        long_digest = simulate(make_config(digest_bits=10 ** 6))
        assert long_digest.report.bit_sequence_digest == long_digest.bit_stream

    def test_merge_breaks_ties_by_lifetime(self):
        # With distinct lifetimes, the longer-lived of two vortices emitting
        # at one instant arrived first, so the bits keep the arrival order.
        distinct_ties = 0
        for case, (pop, expected) in enumerate(tie_populations()):
            arrivals, is_zero, life0, life1, horizon = pop
            emission = np.where(is_zero, arrivals + life0, arrivals + life1)
            emitted = emission <= horizon
            side = "right" if life0 >= life1 else "left"
            got = _merge_bits(emission[is_zero & emitted],
                              emission[~is_zero & emitted], side)
            assert got.tobytes().decode() == expected, case
            if life0 != life1:
                by_arrival = np.argsort(emission[emitted], kind="stable")
                assert expected == "".join("01"[b] for b in np.where(
                    is_zero[emitted], 0, 1)[by_arrival]), case
                distinct_ties += np.intersect1d(
                    emission[is_zero & emitted],
                    emission[~is_zero & emitted]).size
        assert distinct_ties > 100

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 16])
    def test_ties_straddle_flushes(self, chunk):
        # Integer emission times tie often; a tie whose vortices arrive in
        # different chunks must still be merged in one flush.
        straddling = 0
        for case, (pop, expected) in enumerate(tie_populations()):
            bits, stream = stream_population(*pop, chunk)
            assert bits == expected, case
            arrivals, is_zero, life0, life1, horizon = pop
            assert sum(stream.emitted) == len(expected)
            assert stream.produced == [np.count_nonzero(is_zero),
                                       np.count_nonzero(~is_zero)]
            assert stream.head.decode() == expected[:64]
            emission = np.where(is_zero, arrivals + life0, arrivals + life1)
            for t in np.intersect1d(emission[is_zero], emission[~is_zero]):
                if t <= horizon:
                    at = np.flatnonzero(emission == t) // chunk
                    straddling += at.min() != at.max()
        assert straddling > 100


def tie_populations():
    """500 populations with integer-valued times, where cross-branch ties
    are common, each as ``((arrivals, is_zero, life0, life1, horizon),
    expected)``: the expected bits are in emission-time order, the
    longer-lived branch's first at a tie."""
    rng = np.random.default_rng(2024)
    for _ in range(500):
        n = int(rng.integers(0, 60))
        arrivals = np.sort(rng.integers(0, 12, size=n)).astype(float)
        is_zero = rng.random(n) < rng.uniform(0.0, 1.0)
        life0, life1 = (float(v) for v in rng.integers(0, 6, size=2))
        horizon = float(rng.integers(0, 18))
        emission = np.where(is_zero, arrivals + life0, arrivals + life1)
        emitted = emission <= horizon
        expected = lifetime_ordered_bits(emission[emitted], is_zero[emitted],
                                         life0, life1)
        yield (arrivals, is_zero, life0, life1, horizon), expected


def stream_population(arrivals, is_zero, life0, life1, horizon, chunk):
    """The bits of a population fed to the engine's stream ``chunk``
    arrivals at a time, and the stream."""
    out = io.BytesIO()
    stream = ensemble._BitStream(life0, life1, horizon, out, 64)
    n = arrivals.size
    for lo in range(0, max(n, 1), chunk):
        hi = min(lo + chunk, n)
        stream.add(arrivals[lo:hi], is_zero[lo:hi], final=hi == n)
    return out.getvalue().decode(), stream


class TestEngineEdges:
    """The batch, chunk and flush edges of simulate, held to the argsort
    engine."""

    def test_exponential_fill_matches_exponential(self):
        # _arrival_times relies on this to keep the parent's random stream.
        scale = 1.0 / 3.7
        ref, rng = np.random.default_rng(5), np.random.default_rng(5)
        b = np.empty(100_000)
        rng.standard_exponential(out=b)
        b *= scale
        assert b.tobytes() == ref.exponential(scale, 100_000).tobytes()
        # Drawn in unequal blocks, as _arrival_times draws a batch, the gaps
        # are those of one exponential call.
        blocks = [rng.standard_exponential(n) for n in (65_536, 1, 33_463)]
        want = ref.exponential(scale, 99_000)
        assert (np.concatenate(blocks) * scale).tobytes() == want.tobytes()
        # The uniforms that follow, drawn in blocks, are the same too.
        u = np.empty(70_000)
        rng.random(out=u[:65_536])
        rng.random(out=u[65_536:])
        assert u.tobytes() == ref.random(70_000).tobytes()

    @pytest.mark.parametrize("kw", ORACLE_CONFIGS)
    def test_small_blocks(self, monkeypatch, threads, kw):
        # Chunks of 7 arrivals, so a flush every 7 arrivals, and batches
        # of many chunks, so a worker draws ahead.
        monkeypatch.setattr(ensemble, "_CHUNK", 7)
        assert_matches_oracle(make_config(**kw))
        assert len(threads) == 1 and not threads[0].is_alive()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_sub_chunk_and_window_edges(self, monkeypatch, offset):
        cfg = make_config(pair_production_rate=600.0, seed=3)
        old = oracle_simulate(cfg).report
        batch = int(600.0 * 20.0 * 0.1) + 64
        # Nine whole batches, and `within` arrivals of the tenth before the
        # horizon.
        assert old.produced // batch == 9
        within = old.produced % batch
        # Chunks that end one before, at and one past a batch's end or the
        # horizon: at the horizon, the next chunk holds no arrival.
        for chunk in (batch - offset, batch // 2 - offset, within - offset,
                      within // 2 - offset):
            monkeypatch.setattr(ensemble, "_CHUNK", chunk)
            assert_matches_oracle(cfg)

    def test_empty_branches(self):
        none_zero = assert_matches_oracle(make_config(ratio_zero_to_one=0.0))
        assert none_zero.report.produced_zero == 0
        none_one = assert_matches_oracle(make_config(
            ratio_zero_to_one=1e3, pair_production_rate=50.0, seed=2))
        assert none_one.report.produced_one == 0

    def test_horizon_inside_first_batch(self):
        rate, horizon = 2.0, 3.0
        cfg = make_config(pair_production_rate=rate, horizon=horizon, seed=1)
        chunks = list(ensemble._arrival_times(cfg))
        assert ensemble._batch_size(rate, horizon) == 1024
        assert len(chunks) == 1 and chunks[0][2]  # one batch, cut: final
        old = _oracle_arrival_times(np.random.default_rng(1), rate, horizon)
        assert chunks[0][0].tobytes() == old.tobytes()
        assert 0 < old.size < 1024
        assert_matches_oracle(make_config(pair_production_rate=rate,
                                          horizon=horizon))

    def test_sum_past_the_float_range_is_a_domain_error(self):
        cfg = EnsembleConfig(pair_production_rate=1e-302,
                             ratio_zero_to_one=1.0, k=1.0, s=1.0, beta=1.0,
                             horizon=1.79e308, seed=1)
        with pytest.raises(DomainError, match="overflows the float range"):
            with float_range("ensemble"):
                simulate(cfg)

    def test_a_million_events(self):
        cfg = make_config(pair_production_rate=5e4, ratio_zero_to_one=2.0,
                          seed=11)
        old = assert_matches_oracle(cfg)
        batch = int(cfg.pair_production_rate * cfg.horizon * 0.1) + 64
        assert old.report.produced > 9 * batch  # ten arrival batches
        assert old.report.emitted > 500_000


@pytest.fixture
def threads(monkeypatch):
    """Every thread started while the test runs."""
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recording)
    return started


class DrawError(Exception):
    pass


class TestLookAhead:
    """A worker draws ahead when a batch spans more than one chunk: the
    same bits, and no thread left behind."""

    def test_no_thread_outlives_a_failed_write(self, monkeypatch, threads):
        monkeypatch.setattr(ensemble, "_CHUNK", 100)

        class Sink:
            writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes == 5:
                    raise OSError("no space left")

        with pytest.raises(OSError, match="no space left"):
            simulate(make_config(), Sink())
        assert len(threads) == 1 and not threads[0].is_alive()

    def test_worker_error_reaches_the_caller(self, monkeypatch, threads):
        monkeypatch.setattr(ensemble, "_CHUNK", 100)
        arrival_times, raised_in = ensemble._arrival_times, []

        def failing(*args):
            for n, chunk in enumerate(arrival_times(*args)):
                if n == 20:
                    raised_in.append(threading.current_thread())
                    raise DrawError("draw failed")
                yield chunk

        monkeypatch.setattr(ensemble, "_arrival_times", failing)
        with pytest.raises(DrawError, match="draw failed"):
            simulate(make_config())
        assert raised_in == threads and not threads[0].is_alive()

    def test_worker_runs_under_the_callers_error_state(self, monkeypatch,
                                                       threads):
        monkeypatch.setattr(ensemble, "_CHUNK", 100)
        arrival_times, seen = ensemble._arrival_times, []

        def recording(*args):
            for chunk in arrival_times(*args):
                seen.append((threading.current_thread(), np.geterr()))
                yield chunk

        monkeypatch.setattr(ensemble, "_arrival_times", recording)
        with np.errstate(over="raise", under="ignore", divide="ignore",
                         invalid="raise"):
            caller = np.geterr()
            simulate(make_config())
        assert caller != np.geterr()
        assert seen and all(entry == (threads[0], caller) for entry in seen)

    def test_concurrent_runs_under_a_short_switch_interval(self, monkeypatch,
                                                          threads):
        # Three runs at once, each with its worker: six threads, more than
        # a small machine's cores, switching every microsecond. A worker that ran
        # more than two chunks ahead would overwrite the chunk its caller
        # is merging, and the bits would differ.
        monkeypatch.setattr(ensemble, "_CHUNK", 50)
        configs = [make_config(seed=seed, pair_production_rate=300.0)
                   for seed in (1, 2, 3)]
        want = [oracle_simulate(cfg).bit_stream for cfg in configs]
        got = [None] * len(configs)

        def run(i):
            got[i] = simulate(configs[i]).bit_stream

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,))
                       for i in range(len(configs))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) == 6 and not any(t.is_alive() for t in threads)
        assert got == want

    def test_a_hundred_thousand_events_start_no_thread(self, threads):
        cfg = make_config(pair_production_rate=5e3)
        assert cfg.pair_production_rate * cfg.horizon == 1e5
        rep = simulate(cfg).report
        assert rep.produced > 99_000 and threads == []

    def test_a_million_events_start_one(self, threads):
        cfg = make_config(pair_production_rate=5e4, seed=2)
        assert ensemble._batch_size(5e4, 20.0) > ensemble._CHUNK
        simulate(cfg, io.BytesIO())
        assert len(threads) == 1 and not threads[0].is_alive()


class TestDrawnAhead:
    """_drawn_ahead on its own: the bound on how far the worker runs ahead,
    the join on an early close, and the import it defers."""

    def test_drawn_ahead_at_most_two_items_ahead(self):
        taken = []

        def items():
            for k in range(40):
                taken.append(k)
                yield k

        held = []
        for k in ensemble._drawn_ahead(items()):
            time.sleep(0.001)  # time for a worker to run further ahead
            assert len(taken) <= k + 3
            held.append(k)
        assert held == taken == list(range(40))

    def test_drawn_ahead_closed_early_joins_its_worker(self, threads):
        ahead = ensemble._drawn_ahead(iter(range(100)))
        assert next(ahead) == 0
        ahead.close()
        assert len(threads) == 1 and not threads[0].is_alive()

    def test_drawn_ahead_executor_not_loaded_by_the_cli(self):
        # concurrent.futures loads logging, which would lengthen every
        # command's start-up.
        src = os.path.dirname(os.path.dirname(ensemble.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, zvortex.cli; "
             "print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout == "False\n", proc.stderr


# sha256 of the bit stream and of the report JSON, computed from
# oracle_simulate's output.
GOLDEN = [
    ({}, "4a354175725a9823079525628867a8b50b848d403f377708910c560ac32bd5e3",
     "077382741de73071da2d5927ac394ac67406b357c3472c210dedaed0319b6036"),
    # 1-vortices outlive 0-vortices: the 1-branch waits.
    ({"epsilon": EPS_ZERO_FIRST, "pair_production_rate": 2e4, "seed": 3},
     "136706cceb0da13881249f15d93008280992fc922633f520e01d7cc98199fd8c",
     "9365049cf35cde9b7e9b3ca66fe1d8f14ce88d61be7d9a1b092b23a1be2442a9"),
    # The paper's ratio at ks = 0.35, a million events over ten batches.
    ({"ratio_zero_to_one": 2.04, "k": 0.5, "s": 0.7, "beta": 1.3,
      "horizon": 40.0, "pair_production_rate": 25000.0, "seed": 1001},
     "72be7dfef01b8cae54a734bd8d7ccdfeb7805cb17d3117fdd3883608b1db0fa7",
     "37629d2e02c1affed8d0105da7a87b7d5de721b4b00f26ccd4436652d79a427f"),
    ({"ratio_zero_to_one": 47.209, "pair_production_rate": 5000.0,
      "horizon": 60.0, "seed": 5},
     "2479b6c51dc16fdc81c13e8d2c8f040a03b01fa666ab9c3a21c2e31708c74907",
     "2f3a0c3fd6eb98306c8f0b964ed18dccfaeecb545c8d3b68c09e511d0fb13160"),
    # A digest longer than the stream of 538,262 bits.
    ({"pair_production_rate": 2e5, "horizon": 5.0, "digest_bits": 10 ** 6,
      "seed": 21},
     "d5ca6394b8babe7429bc3be1b3b298e771485ab38e9bd0319c074fdd2bc68b02",
     "2fe63cbdf34377b269816028ab3e3995aba833c4f932825cc889fc3e9d465a09"),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def traced_peak(cfg: EnsembleConfig, tmp_path) -> int:
    """The tracemalloc peak of simulate writing its bits to a file."""
    with open(tmp_path / "bits", "wb") as sink:
        tracemalloc.start()
        try:
            simulate(cfg, sink)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestStream:
    """Bits written to a sink as they are merged: the oracle's bytes, in
    memory set by the lifetime gap."""

    # Each case is named by its seed, which no two cases share, so that a
    # re-recorded hash renames no test.
    @pytest.mark.parametrize("kw,bits_sha,report_sha", GOLDEN, ids=[
        f"seed{make_config(**kw).seed}" for kw, _, _ in GOLDEN])
    def test_golden(self, kw, bits_sha, report_sha):
        result = simulate(make_config(**kw))
        assert sha256(result.bit_stream) == bits_sha
        assert sha256(result.report.to_json()) == report_sha

    @pytest.mark.parametrize("kw", ORACLE_CONFIGS + [GOLDEN[1][0]])
    def test_sink_gets_the_stream(self, kw):
        cfg = make_config(**kw)
        sink = io.BytesIO()
        streamed = simulate(cfg, sink)
        kept = simulate(cfg)
        assert sink.getvalue() == kept.bit_stream.encode()
        assert streamed.report == kept.report
        assert streamed.bit_stream == ""

    def test_digest_spans_flushes(self, monkeypatch):
        monkeypatch.setattr(ensemble, "_CHUNK", 7)
        for digest_bits in (0, 1, 5, 300, 10 ** 6):
            result = assert_matches_oracle(make_config(digest_bits=digest_bits))
            assert result.report.bit_sequence_digest == \
                result.bit_stream[:digest_bits]

    def test_equalization_check_discards_the_stream(self, monkeypatch):
        sinks = []

        def recording(config, sink=None):
            sinks.append(sink)
            return simulate(config, sink)

        monkeypatch.setattr(ensemble, "simulate", recording)
        cfg = make_config()
        assert equalization_check(cfg).report == simulate(cfg).report
        assert len(sinks) == 1 and sinks[0] is not None

    @pytest.mark.parametrize("kw", [{}, {"epsilon": EPS_ZERO_FIRST}])
    def test_flush_merges_about_one_chunk(self, monkeypatch, kw):
        # Whichever branch lives longer, a flush merges the emissions of
        # about one chunk of arrivals, while the pending longer-lived
        # branch holds more than two chunks' worth.
        monkeypatch.setattr(ensemble, "_CHUNK", 1024)
        merge, sizes = ensemble._merge_bits, []

        def recording(t0, t1, side):
            sizes.append(t0.size + t1.size)
            return merge(t0, t1, side)

        monkeypatch.setattr(ensemble, "_merge_bits", recording)
        cfg = make_config(pair_production_rate=5e4, **kw)
        rep = assert_matches_oracle(cfg).report
        lag = cfg.pair_production_rate * 0.5 * abs(
            cfg.zero_lifetime - cfg.one_lifetime)
        assert lag > 2 * 1024
        assert sum(sizes) == rep.emitted and len(sizes) > 500
        assert max(sizes) <= 2 * 1024

    def test_peak_memory_set_by_the_lifetime_gap(self, tmp_path):
        # At a fixed L0 - L1, 1e6 and then 2e6 events: the pending 0-bits
        # are the same in number, about rate * p_0 * (L0 - L1), once the
        # horizon passes L0 + (L0 - L1), about 8.2.
        short = traced_peak(make_config(pair_production_rate=1e5,
                                        horizon=10.0, seed=4), tmp_path)
        cfg = make_config(pair_production_rate=1e5, horizon=20.0, seed=4)
        long = traced_peak(cfg, tmp_path)
        assert long <= 1.1 * short
        lag = cfg.pair_production_rate * cfg.prob_zero * (
            cfg.zero_lifetime - cfg.one_lifetime)
        # 16 bytes per pending entry, and eight chunk-sized float arrays.
        assert long < 16 * lag + 8 * 8 * ensemble._CHUNK
        # The whole population would take 14 bytes per event.
        assert long < 0.3 * 14 * cfg.pair_production_rate * cfg.horizon

    def test_peak_memory_with_longer_lived_one_vortices(self, tmp_path):
        # L1 33.3 outlives L0 20.3, so about 651,000 1-vortices wait, each
        # an 8-byte emission time, as a pending 0-vortex is.
        cfg = make_config(pair_production_rate=1e5, k=0.1, s=10.0,
                          epsilon=EPS_ZERO_FIRST, horizon=50.0, seed=4)
        lag = cfg.pair_production_rate * (1.0 - cfg.prob_zero) * (
            cfg.one_lifetime - cfg.zero_lifetime)
        assert 6.5e5 < lag < 6.52e5
        assert traced_peak(cfg, tmp_path) < 12 * lag + 8 * 8 * ensemble._CHUNK


class TestSteadyState:
    def test_little_law_counts(self):
        cfg = make_config(pair_production_rate=10000.0, horizon=30.0)
        exp_zero, exp_one = steady_state_counts(cfg)
        assert exp_zero == pytest.approx(5000.0 * cfg.zero_lifetime)
        assert exp_one == pytest.approx(5000.0 * cfg.one_lifetime)
        rep = simulate(cfg).report
        assert rep.live_zero == pytest.approx(exp_zero, rel=0.05)
        assert rep.live_one == pytest.approx(exp_one, rel=0.10)

    def test_live_ratio_is_lifetime_ratio(self):
        cfg = make_config(pair_production_rate=10000.0, horizon=30.0)
        exp_zero, exp_one = steady_state_counts(cfg)
        # frozen lifetime ratio for eps=1e-6, k=s=beta=1
        assert exp_zero / exp_one == pytest.approx(12.815510558, rel=1e-9)

    def test_marginal_threshold(self):
        # epsilon just below e^{-2ks}: 0-vortices barely outlive 1-vortices
        eps = math.exp(-2.0) * 0.99
        cfg = make_config(epsilon=eps)
        exp_zero, exp_one = steady_state_counts(cfg)
        assert exp_zero > exp_one
        assert exp_zero / exp_one < 1.1


class TestEqualization:
    def test_equal_production_equal_bits(self):
        report = equalization_check(make_config(pair_production_rate=5000.0,
                                                horizon=60.0))
        assert report.within_three_sigma
        assert not report.stationarity_warning

    def test_skewed_production_stays_skewed(self):
        # emission rates follow production, not the lifetime-driven ratio
        ratio = 47.209
        report = equalization_check(make_config(ratio_zero_to_one=ratio,
                                                pair_production_rate=5000.0,
                                                horizon=60.0))
        assert report.within_three_sigma
        assert report.emission_rate_ratio == pytest.approx(ratio, rel=0.1)
        assert report.emitted_ratio > 10.0  # nowhere near equalized to 1

    def test_live_ratio_reported_separately(self):
        report = equalization_check(make_config(pair_production_rate=5000.0,
                                                horizon=60.0))
        assert report.live_ratio == pytest.approx(report.expected_live_ratio,
                                                  rel=0.15)

    def test_short_horizon_warns(self):
        report = equalization_check(make_config(horizon=5.0))
        assert report.stationarity_warning

    def test_horizon_shorter_than_the_zero_lifetime(self):
        # No 0-vortex lives out its 4.27 lifetime by t = 2: no 0-bit is
        # expected or emitted, and the emission-rate ratio is undefined.
        cfg = make_config(horizon=2.0)
        assert cfg.one_lifetime < cfg.horizon < cfg.zero_lifetime
        report = equalization_check(cfg)
        assert report.report.emitted_zero == 0 and report.report.emitted_one > 0
        assert math.isnan(report.emission_rate_ratio)
        assert report.within_three_sigma

    def test_horizon_shorter_than_the_one_lifetime(self):
        # s = 10: a 1-vortex lives 10/3, a 0-vortex 1.27, so by t = 2 only
        # 0-bits are emitted and the emission-rate ratio is infinite.
        cfg = make_config(s=10.0, horizon=2.0)
        assert cfg.zero_lifetime < cfg.horizon < cfg.one_lifetime
        report = equalization_check(cfg)
        assert report.report.emitted_one == 0 and report.report.emitted_zero > 0
        assert report.report == simulate(cfg).report
        assert report.emission_rate_ratio == math.inf
        assert report.within_three_sigma

    def test_serializable(self):
        report = equalization_check(make_config())
        json.dumps(report.to_dict())

    @pytest.mark.parametrize("kw,nulls", [
        # Rate 500, k = s = beta = 1, horizon 2, seed 7: no 0-bit, so the
        # emission-rate ratio is NaN, which json.dumps prints as NaN.
        ({"horizon": 2.0}, {"emission_rate_ratio"}),
        # No 1-bit: the ratios are inf, the nested report's too.
        ({"s": 10.0, "horizon": 2.0}, {"emission_rate_ratio", "emitted_ratio",
                                       "report.empirical_ratio"}),
    ])
    def test_json_writes_null_for_non_finite_ratios(self, kw, nulls):
        report = equalization_check(make_config(**kw))

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        def flat(doc):
            nested = {f"report.{k}": v for k, v in doc.pop("report").items()}
            return {**doc, **nested}

        got = flat(json.loads(report.to_json(), parse_constant=reject))
        want = flat(report.to_dict())
        assert {k for k, v in got.items() if v is None} == nulls
        assert all(not math.isfinite(want[k]) for k in nulls)
        assert {k: v for k, v in got.items() if k not in nulls} == \
            {k: v for k, v in want.items() if k not in nulls}
