"""The three benchmark workloads.

A workload builds its inputs from the seed once, then runs whole rounds of
the same operations in one process, one caller in a closed loop: each
operation starts when the previous one has returned. ``check`` checks the
outputs of the last round against independent computations; ``digests``
lets later rounds be compared with the checked one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from click.testing import CliRunner

import checks
from zvortex import cli as cli_mod
from zvortex import schrodinger_field as sf
from zvortex import vortex as vx
from zvortex import wavecore as wc

C12 = complex(1.0, 2.0)


@dataclass
class RoundStats:
    """One round. The lists hold one entry per well-formed operation, in the
    same order every round: its latency, the work units it produced
    (lattice points, events or requests) and the time it spent producing
    them. A failed operation has NaN times."""

    latency_s: list[float] = field(default_factory=list)
    work: list[float] = field(default_factory=list)
    work_s: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0

    def op(self, latency_s: float, work: float = 0.0, work_s: float = 0.0) -> None:
        self.latency_s.append(latency_s)
        self.work.append(work)
        self.work_s.append(work_s)

    def op_failed(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        self.op(math.nan, 0.0, math.nan)


def log_strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """One log-uniform draw in each of n equal strata of [lo, hi].

    Sizes vary with the seed while the total work of a round stays nearly
    the same, so runs with different seeds can be compared.
    """
    u = (np.arange(n) + rng.random(n)) / n
    return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh)


class Workload:
    name = ""
    attempted_per_round = 0

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.runner = CliRunner()
        self.tracer = None
        self.outputs: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def invoke(self, args, env=None):
        """One CLI request in process; returns (result, seconds)."""
        t0 = time.perf_counter()
        result = self.runner.invoke(cli_mod.cli, args, env=env)
        dt = time.perf_counter() - t0
        # The stored traceback reaches back to the caller's frame; left in
        # place it makes a cycle that keeps each round's last outputs alive
        # until the cyclic collector happens to run.
        result.exc_info = None
        exc = result.exception
        while exc is not None:
            exc.__traceback__ = None
            exc = exc.__context__
        if self.tracer is not None:
            for i, arg in enumerate(args):
                if arg in ("--out", "--bits-out") and os.path.exists(args[i + 1]):
                    self.tracer.counters["cli.output_bytes"] += os.path.getsize(args[i + 1])
        return result, dt

    def digests(self) -> dict[str, str | None]:
        """sha256 per output file; None where a failed request wrote none."""
        return {p: _sha256(p) if os.path.exists(p) else None for p in self.outputs}

    def run_round(self) -> RoundStats:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


# ----------------------------------------------------------- residual_sweep


class ResidualSweep(Workload):
    """One dense ``verify`` call, then ``evaluate_grid`` + ``write_csv`` for
    two vortex fields, a non-solution and the same with finite differences."""

    name = "residual_sweep"
    attempted_per_round = 5
    VERIFY_AXIS = 20     # 20^3 = 8,000 (z, x, y) points
    LATTICE_AXIS = 28    # 28^3 = 21,952 (r_x, r_y, t) points
    PSI_SAMPLES = 200

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng, n = self.rng, self.VERIFY_AXIS
        # z in [0.5, 2] keeps every default tolerance of verify met.
        self.grid = {"z": np.sort(rng.uniform(0.5, 2.0, n)).tolist(),
                     "x": np.sort(rng.uniform(-2.0, 2.0, n)).tolist(),
                     "y": np.sort(rng.uniform(-2.0, 2.0, n)).tolist()}
        self.u_f = float(rng.uniform(1.5, 3.5))
        self.verify_params = self.path("verify.json")
        _write_json(self.verify_params, {"grid": self.grid, "u_f": self.u_f})
        self.verify_out = self.path("verify.out.json")
        pick = rng.integers(0, n, size=(self.PSI_SAMPLES, 3))
        self.psi_samples = [(self.grid["z"][a], self.grid["x"][b], self.grid["y"][c])
                            for a, b, c in pick]

        m = self.LATTICE_AXIS
        self.axes = [np.sort(rng.uniform(0.1, 1.0, m)).tolist(),
                     np.sort(rng.uniform(0.1, 1.0, m)).tolist(),
                     np.sort(rng.uniform(0.0, 0.3, m)).tolist()]
        self.hbar, self.mass = (float(v) for v in rng.uniform(0.8, 1.25, 2))
        self.phys = sf.PhysicalParams(self.hbar, self.mass)
        self.potential = sf.Potential.fixed(self.u_f)
        k = math.sqrt(2 * self.mass * self.u_f / (5 * self.hbar ** 2))
        a_t = -3 * k * k * self.hbar / self.mass
        sign = rng.choice([-1.0, 1.0], size=3)
        ax, ay, at = sign * rng.uniform(0.3, 1.0, 3)
        self.fields = [
            {"name": "one_vortex", "a_x": k, "a_y": k, "a_t": a_t, "rel": 1e-12,
             "max_abs_imag": 1e-10,
             "make": lambda: vx.imag_solution(vx.Branch.ONE_VORTEX, self.u_f,
                                              self.phys).to_field()},
            {"name": "zero_vortex", "a_x": -k, "a_y": -k, "a_t": a_t, "rel": 1e-12,
             "max_abs_imag": 1e-10,
             "make": lambda: vx.imag_solution(vx.Branch.ZERO_VORTEX, self.u_f,
                                              self.phys).to_field()},
            {"name": "exponential", "a_x": ax, "a_y": ay, "a_t": at, "rel": 1e-12,
             "make": lambda: sf.exponential_field(ax, ay, at)},
            {"name": "exponential_fd", "a_x": ax, "a_y": ay, "a_t": at, "rel": 1e-6,
             "make": lambda: sf.ZField(value=sf.exponential_field(ax, ay, at).value)},
        ]
        for f in self.fields:
            f["out"] = self.path(f"grid_{f['name']}.csv")
        self.outputs = [self.verify_out] + [f["out"] for f in self.fields]
        self.lattice_points = m ** 3

    def run_round(self) -> RoundStats:
        st = RoundStats()
        result, dt = self.invoke(["verify", "--params", self.verify_params,
                                  "--out", self.verify_out, "--format", "json"])
        if result.exit_code != 0:
            st.op_failed(f"verify exited {result.exit_code}: {result.exception!r}")
        else:
            st.op(dt)
        for f in self.fields:
            t0 = time.perf_counter()
            report = sf.evaluate_grid(f["make"](), wc.CParam(1.0, 2.0), self.phys,
                                      self.potential, *self.axes)
            t1 = time.perf_counter()
            with open(f["out"], "w") as fh:
                report.write_csv(fh)
            t2 = time.perf_counter()
            st.op(t2 - t0, self.lattice_points, t1 - t0)
            if self.tracer is not None:
                self.tracer.counters["schrodinger_field.write_csv.bytes"] += \
                    os.path.getsize(f["out"])
        return st

    def check(self) -> list[str]:
        with open(self.verify_out) as fh:
            problems = checks.check_verify(fh.read())
        values = [wc.eval_psi(z, wc.CParam(x, y)).as_complex()
                  for z, x, y in self.psi_samples]
        problems += checks.check_eval_psi(self.psi_samples, values)
        for f in self.fields:
            with open(f["out"]) as fh:
                problems += checks.check_grid_csv(
                    fh.read(), self.axes, f, C12, self.hbar, self.mass, self.u_f,
                    f["rel"], f.get("max_abs_imag"))
        return problems


# ----------------------------------------------------------- ensemble_bulk


def ensemble_config(rng: np.random.Generator, events: float, ks: float,
                    horizon_lifetimes: float) -> dict:
    """An ensemble config with ``events`` expected productions.

    The ratio is the paper's e^{4ks} - e^{2ks}; the horizon is
    ``horizon_lifetimes`` 0-vortex lifetimes, so both branches emit.
    """
    k = float(rng.uniform(0.3, 1.0))
    cfg = {"k": k, "s": ks / k, "beta": float(rng.uniform(0.5, 2.0)),
           "epsilon": 1e-6, "ratio_zero_to_one": math.exp(4 * ks) - math.exp(2 * ks),
           "seed": int(rng.integers(0, 2 ** 31))}
    _, t0 = checks.lifetimes(cfg)
    cfg["horizon"] = horizon_lifetimes * t0
    cfg["pair_production_rate"] = events / cfg["horizon"]
    return cfg


class EnsembleBulk(Workload):
    """One ``zvortex ensemble --bits-out`` run of 1e7 expected events."""

    name = "ensemble_bulk"
    attempted_per_round = 1
    EVENTS = 1e7
    # ks fixed: the emitted share, and with it the work per event, is then
    # the same for every seed while k, s, beta and the stream vary.
    KS = 0.35

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cfg = ensemble_config(self.rng, self.EVENTS, self.KS, 3.0)
        self.params = self.path("ensemble.json")
        _write_json(self.params, self.cfg)
        self.report = self.path("ensemble.out.json")
        self.bits = self.path("bits.txt")
        self.outputs = [self.report, self.bits]

    def run_round(self) -> RoundStats:
        st = RoundStats()
        result, dt = self.invoke(["ensemble", "--params", self.params, "--out",
                                  self.report, "--format", "json",
                                  "--bits-out", self.bits])
        if result.exit_code != 0:
            st.op_failed(f"ensemble exited {result.exit_code}: {result.exception!r}")
            return st
        with open(self.report) as fh:
            rep = checks.parse_ensemble_report(fh.read())
        st.op(dt, rep["produced_zero"] + rep["produced_one"], dt)
        return st

    def check(self) -> list[str]:
        with open(self.report) as fh:
            rep = checks.parse_ensemble_report(fh.read())
        with open(self.bits, "rb") as fh:
            bits = fh.read()
        return checks.check_ensemble(self.cfg, rep, bits)


# ------------------------------------------------------------------ cli_mix


@dataclass
class Request:
    kind: str
    params: dict
    fmt: str
    malformed: bool = False
    env: dict | None = None
    params_path: str = ""
    out: str = ""


# Malformed requests, fixed for every seed. Each fails today because of a
# fault in the CLI's input handling; it succeeds once the CLI exits 1 or 2
# with an error line instead of raising.
MALFORMED = [
    Request("geometry", {"k": 1.0, "n": 1, "z_max": 4.0}, "csv", True),
    Request("trajectory", {"k": 1.0, "s": 1.0, "t_max": 0.3, "steps": 2.5}, "csv", True),
    Request("ladder", {"eigenvalues": [1.0, "abc", 7.0], "schedule": [2.0, 8.0]},
            "csv", True),
    Request("ensemble", {"pair_production_rate": 1000.0, "ratio_zero_to_one": 1.0,
                         "k": 1.0, "s": 1.0, "beta": 1.0, "horizon": math.nan,
                         "seed": 1}, "json", True),
    Request("verify", {}, "csv", True, env={"ZVORTEX_TOLERANCE": "abc"}),
]
MALFORMED_AT = (20, 60, 100, 140, 180)


def malformed_ok(result) -> bool:
    """Exit 1 or 2, no exception but SystemExit, and an error line."""
    if result.exit_code not in (1, 2):
        return False
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        return False
    lines = (result.stderr or result.output).splitlines()
    return any(line.lower().startswith("error:") for line in lines)


class CliMix(Workload):
    """A seeded stream of 200 well-formed CLI requests, 40 of each command,
    plus the five malformed requests."""

    name = "cli_mix"
    PER_KIND = 40
    attempted_per_round = 5 * PER_KIND + len(MALFORMED)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng, n = self.rng, self.PER_KIND
        reqs: list[Request] = []
        unit = lambda: float(rng.uniform(0.8, 1.25))
        fmt = lambda i: ("csv", "json")[i % 2]

        for i, steps in enumerate(log_strata(rng, n, 1e3, 2e4)):
            p = {"branch": ("one_vortex", "zero_vortex")[(i // 2) % 2],
                 "s": float(rng.uniform(0.5, 2.0)), "t_max": float(rng.uniform(0.1, 1.0)),
                 "steps": int(steps), "hbar": unit(), "mass": unit()}
            if rng.random() < 0.5:
                p["k"] = float(rng.uniform(0.5, 2.0))
            else:
                p["u_f"] = float(rng.uniform(0.5, 5.0))
            reqs.append(Request("trajectory", p, fmt(i)))

        for i, levels in enumerate(log_strata(rng, n, 10, 1000)):
            levels = int(levels)
            ev = np.cumsum(np.r_[rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5, levels - 1)])
            schedule = rng.uniform(ev[0], ev[-1] * 1.05, levels)
            hits = rng.random(levels) < 0.1    # land exactly on eigenvalues
            schedule[hits] = rng.choice(ev, size=int(hits.sum()))
            reqs.append(Request("ladder", {"eigenvalues": ev.tolist(),
                                           "schedule": schedule.tolist(),
                                           "hbar": unit(), "mass": unit()}, fmt(i)))

        for i, points in enumerate(log_strata(rng, n, 1e2, 5e3)):
            # z_min on a 1/64 grid (z_max a power of two when z_min is left
            # to its default 1/z_max): the 0-vortex z grid then ends at
            # exactly 1. Other z_min can round its last point above 1, and
            # the command fails.
            p = {"k": float(rng.uniform(0.5, 2.0)), "n": int(points)}
            if i % 4 >= 2:
                p["z_max"] = float(rng.uniform(1.5, 6.0))
                p["z_min"] = int(rng.integers(3, 58)) / 64
            else:
                p["z_max"] = float(rng.choice([2.0, 4.0, 8.0]))
            reqs.append(Request("geometry", p, fmt(i)))

        for i in range(n):
            reqs.append(Request("verify", {"u_f": float(rng.uniform(1.5, 3.5))}, fmt(i)))

        for i, events in enumerate(log_strata(rng, n, 1e3, 1e5)):
            cfg = ensemble_config(rng, float(events), float(rng.uniform(0.2, 0.5)),
                                  float(rng.uniform(1.5, 3.0)))
            reqs.append(Request("ensemble", cfg, fmt(i)))

        order = rng.permutation(len(reqs))
        reqs = [reqs[i] for i in order]
        for at, bad in zip(MALFORMED_AT, MALFORMED):
            reqs.insert(at, bad)
        for i, r in enumerate(reqs):
            r.params_path = self.path(f"req{i:03d}.json")
            r.out = self.path(f"out{i:03d}.{r.fmt}")
            _write_json(r.params_path, r.params)
        self.requests = reqs
        self.outputs = [r.out for r in reqs if not r.malformed]

    def run_round(self) -> RoundStats:
        st = RoundStats()
        for i, r in enumerate(self.requests):
            if self.tracer is not None:
                self.tracer.op_id = i
            result, dt = self.invoke([r.kind, "--params", r.params_path, "--out", r.out,
                                      "--format", r.fmt], env=r.env)
            if r.malformed:
                if not malformed_ok(result):
                    st.failed += 1
            elif result.exit_code != 0:
                st.op_failed(f"request {i} ({r.kind}) exited {result.exit_code}: "
                             f"{result.exception!r}")
            else:
                st.op(dt, 1, dt)
        return st

    def check(self) -> list[str]:
        problems = []
        for i, r in enumerate(self.requests):
            if r.malformed:
                continue
            if not os.path.exists(r.out):
                problems.append(f"request {i} ({r.kind}): no output file")
                continue
            with open(r.out) as fh:
                text = fh.read()
            if r.kind == "trajectory":
                found = checks.check_trajectory(r.params, text, r.fmt)
            elif r.kind == "ladder":
                found = checks.check_ladder(r.params, text, r.fmt)
            elif r.kind == "geometry":
                found = checks.check_geometry(r.params, text, r.fmt)
            elif r.kind == "verify":
                found = checks.check_verify(text)
            else:
                found = checks.check_ensemble(r.params,
                                              checks.parse_ensemble_report(text))
            problems += [f"request {i}: {p}" for p in found]
        return problems


WORKLOADS = {w.name: w for w in (ResidualSweep, EnsembleBulk, CliMix)}
