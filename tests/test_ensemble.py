import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from zvortex import ensemble
from zvortex import (
    DomainError,
    EnsembleConfig,
    EnsembleReport,
    SimulationResult,
    equalization_check,
    expected_emissions,
    simulate,
    steady_state_counts,
)
from zvortex.ensemble import _merge_bits


def make_config(**kw):
    base = dict(pair_production_rate=500.0, ratio_zero_to_one=1.0,
                k=1.0, s=1.0, beta=1.0, horizon=20.0, epsilon=1e-6, seed=7)
    base.update(kw)
    return EnsembleConfig(**base)


# Reference engine: the argsort-based simulate, kept verbatim so the merge
# engine can be held to byte-identical reports and bit streams.
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


def oracle_simulate(config: EnsembleConfig) -> SimulationResult:
    """Run the production/collapse process to the horizon."""
    rng = np.random.default_rng(config.seed)
    arrivals = _oracle_arrival_times(rng, config.pair_production_rate,
                                     config.horizon)
    is_zero = rng.random(arrivals.size) < config.prob_zero
    lifetimes = np.where(is_zero, config.zero_lifetime, config.one_lifetime)
    emission_times = arrivals + lifetimes
    emitted_mask = emission_times <= config.horizon

    order = np.argsort(emission_times[emitted_mask], kind="stable")
    emitted_bits = np.where(is_zero[emitted_mask], 0, 1)[order]
    bit_stream = "".join("01"[b] for b in emitted_bits)

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

    def test_merge_breaks_ties_by_arrival(self):
        for case, (t0, t1, arrival1, expected) in enumerate(tie_cases()):
            assert _merge_bits(t0, t1, arrival1).tobytes().decode() == expected, case

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 16])
    def test_ties_straddle_flushes(self, chunk):
        # Integer emission times tie often; a tie whose vortices arrive in
        # different chunks must still be merged in one flush.
        straddling = 0
        for case, (pop, expected) in enumerate(tie_populations()):
            bits, stream = stream_population(*pop, chunk)
            assert bits == expected, case
            arrivals, is_zero, life0, life1, horizon = pop
            assert stream.written == len(expected)
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
    expected)``: the expected bits are the stable argsort of the emission
    times in arrival order."""
    rng = np.random.default_rng(2024)
    for _ in range(500):
        n = int(rng.integers(0, 60))
        arrivals = np.sort(rng.integers(0, 12, size=n)).astype(float)
        is_zero = rng.random(n) < rng.uniform(0.0, 1.0)
        life0, life1 = (float(v) for v in rng.integers(0, 6, size=2))
        horizon = float(rng.integers(0, 18))
        emission = np.where(is_zero, arrivals + life0, arrivals + life1)
        emitted = emission <= horizon
        order = np.argsort(emission[emitted], kind="stable")
        expected = "".join("01"[b] for b in
                           np.where(is_zero[emitted], 0, 1)[order])
        yield (arrivals, is_zero, life0, life1, horizon), expected


def tie_cases():
    """The merges of tie_populations: the emitted 0- and 1-vortices'
    times, the 1-vortices' arrival indices and the expected bits."""
    for (arrivals, is_zero, life0, life1, horizon), expected in tie_populations():
        emitted = np.where(is_zero, arrivals + life0, arrivals + life1) <= horizon
        t0 = arrivals[is_zero & emitted] + life0
        t1 = arrivals[~is_zero & emitted] + life1
        yield t0, t1, np.flatnonzero(~is_zero)[:t1.size], expected


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
        # Drawn in unequal blocks without out=, as _arrival_times draws a
        # batch, the gaps are those of one exponential call.
        blocks = [rng.standard_exponential(n) for n in (65_536, 1, 33_463)]
        want = ref.exponential(scale, 99_000)
        assert (np.concatenate(blocks) * scale).tobytes() == want.tobytes()
        # The uniforms that follow, drawn in blocks, are the same too.
        u = np.empty(70_000)
        rng.random(out=u[:65_536])
        rng.random(out=u[65_536:])
        assert u.tobytes() == ref.random(70_000).tobytes()

    @pytest.mark.parametrize("kw", ORACLE_CONFIGS)
    def test_small_blocks(self, monkeypatch, kw):
        # Chunks of 7 arrivals, so a flush every 7 arrivals.
        monkeypatch.setattr(ensemble, "_CHUNK", 7)
        assert_matches_oracle(make_config(**kw))

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
            ratio_zero_to_one=1e3, pair_production_rate=50.0, seed=0))
        assert none_one.report.produced_one == 0

    def test_horizon_inside_first_batch(self):
        rate, horizon = 2.0, 3.0
        new = np.concatenate([chunk.copy() for chunk in ensemble._arrival_times(
            np.random.default_rng(1), rate, horizon)])
        old = _oracle_arrival_times(np.random.default_rng(1), rate, horizon)
        assert new.size == 1024  # the first batch holds 1024 gaps
        assert new[new < horizon].tobytes() == old.tobytes()
        assert 0 < old.size < 1024
        assert_matches_oracle(make_config(pair_production_rate=rate,
                                          horizon=horizon))

    def test_a_million_events(self):
        cfg = make_config(pair_production_rate=5e4, ratio_zero_to_one=2.0,
                          seed=11)
        old = assert_matches_oracle(cfg)
        batch = int(cfg.pair_production_rate * cfg.horizon * 0.1) + 64
        assert old.report.produced > 9 * batch  # ten arrival batches
        assert old.report.emitted > 500_000


# sha256 of the bit stream and of the report JSON, recorded with the
# one-buffer engine this streaming engine replaced.
GOLDEN = [
    ({}, "1ba7d59547802e2f121f3f918738ab095ad74f1fbfa79a4a6b5eea7e8d23874c",
     "da67ad345a6088915609d69d51ebe4fbc09a2a77b59a73fb16227efdf9ffd2f0"),
    # 1-vortices outlive 0-vortices: the 1-branch waits.
    ({"epsilon": EPS_ZERO_FIRST, "pair_production_rate": 2e4, "seed": 3},
     "3b820e23b62a6fea8fa6c92ac768c26d9999ed0da7ad2b131b3faccfd1501ba1",
     "1c42b447a5422aef7a6e81453028074f3cf16596557d491a80cb5ca2ef75669f"),
    # The paper's ratio at ks = 0.35, a million events over ten batches.
    ({"ratio_zero_to_one": 2.04, "k": 0.5, "s": 0.7, "beta": 1.3,
      "horizon": 40.0, "pair_production_rate": 25000.0, "seed": 1001},
     "61f3e0ea109b0465bdb5c7ee4be8a99abfca0c9b50802cf3115c5542350785bf",
     "973007d391828b13211bebb3ff5f7a3c8a99d5db9d4eb26c0e0c27c2a5526602"),
    ({"ratio_zero_to_one": 47.209, "pair_production_rate": 5000.0,
      "horizon": 60.0, "seed": 5},
     "49611b17b5efcb9eaec5198f7de84b602769e82b84216425eb72e697d46dc88d",
     "45e235dd63c7c1dae56ebc678cee9cee81c161436c983b5fc1d734091564635c"),
    # A digest longer than the stream of 538,360 bits.
    ({"pair_production_rate": 2e5, "horizon": 5.0, "digest_bits": 10 ** 6,
      "seed": 21},
     "4187db45e3b854a68b5ccf450b4c74f9e7696f7cf2c9356fc38ca8d6d1470745",
     "0b21a5adb63de5935735914a50f799718ee7de1e85bbffed6cb68dec89d6695a"),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestStream:
    """Bits written to a sink as they are merged: the same bytes as before,
    in memory set by the lifetime gap."""

    @pytest.mark.parametrize("kw,bits_sha,report_sha", GOLDEN)
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

        def recording(t0, t1, arrival1, placed=0):
            sizes.append(t0.size + t1.size)
            return merge(t0, t1, arrival1, placed)

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
        def peak(horizon):
            cfg = make_config(pair_production_rate=1e5, horizon=horizon,
                              seed=4)
            with open(tmp_path / "bits", "wb") as sink:
                tracemalloc.start()
                try:
                    simulate(cfg, sink)
                    return tracemalloc.get_traced_memory()[1], cfg
                finally:
                    tracemalloc.stop()

        short, _ = peak(10.0)
        long, cfg = peak(20.0)
        assert long <= 1.1 * short
        lag = cfg.pair_production_rate * cfg.prob_zero * (
            cfg.zero_lifetime - cfg.one_lifetime)
        # 16 bytes per pending entry, and eight chunk-sized float arrays.
        assert long < 16 * lag + 8 * 8 * ensemble._CHUNK
        # The whole population would take 14 bytes per event.
        assert long < 0.3 * 14 * cfg.pair_production_rate * cfg.horizon


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
