#!/usr/bin/env python3
"""Run one zvortex benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The workload's inputs are made from ``--seed``. Whole rounds run
until ``--seconds`` of round time is spent; the first round's outputs are
checked, and every later round's must be byte-identical to them.

With ``--trace 0`` the end-to-end metrics are reported. With ``--trace 1``
half of the time runs untraced and half with every public function of the
six modules wrapped (see tracing.py), and the per-layer metrics are
reported, including the tracing overhead. Human-readable lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 when every check passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# setup_s: the median import time of SETUP_TIMINGS fresh interpreters,
# started one after another.
SETUP_TIMINGS = 15
CHILD_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import zvortex, zvortex.cli; "
                "print(time.perf_counter() - t)")


def child_import_seconds() -> float:
    """Import time of zvortex and zvortex.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", CHILD_IMPORT, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_phase(wl, seconds: float, ref: dict, problems: list, tracer=None):
    """Whole rounds until ``seconds`` of round time is spent.

    The outputs of the first round of the run are checked, outside the
    timed region; every later round must reproduce them byte for byte.
    """
    rounds, spent = [], 0.0
    if tracer is not None:
        tracer.install()
        wl.tracer = tracer
    try:
        while not rounds or spent < seconds:
            t0 = time.perf_counter()
            st = wl.run_round()
            st.wall_s = time.perf_counter() - t0
            spent += st.wall_s
            rounds.append(st)
            problems += st.problems
            if not ref:
                problems += wl.check()
                ref.update(wl.digests())
            elif wl.digests() != ref:
                problems.append(f"round {len(rounds)}: outputs differ from the "
                                "checked first round")
    finally:
        if tracer is not None:
            tracer.uninstall()
            wl.tracer = None
    return rounds


def median_of_rounds(rounds, attr: str):
    """Per operation, its median value over the rounds (NaN if it never
    succeeded)."""
    import numpy as np

    values = np.array([getattr(st, attr) for st in rounds], dtype=float)
    med = np.full(values.shape[1], np.nan)
    ok = ~np.all(np.isnan(values), axis=0)
    med[ok] = np.nanmedian(values[:, ok], axis=0)
    return med


def setup_seconds() -> float:
    """The set-up time: median of the fresh-interpreter import timings."""
    return statistics.median(child_import_seconds() for _ in range(SETUP_TIMINGS))


def end_to_end(rounds, setup_s: float) -> dict:
    """Figures from each operation's median over the run's rounds, and the
    set-up time.

    The host's cores are shared: the same code runs up to 40% slower for
    seconds at a time. A single round passes that through, and the fastest
    of a run's rounds depends on whether a rare quiet stretch fell within
    the run. Every operation runs once per round, so each one's latency is
    taken as its median over the run's rounds. The round's wall time is the
    sum of those, the throughput is the round's work over the sum of the
    median times spent on it, and the percentiles are over the operations
    of a round.
    """
    import numpy as np

    lat = median_of_rounds(rounds, "latency_s")
    work_s = median_of_rounds(rounds, "work_s")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (float(np.nansum(lat)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "work_per_s": (sum(rounds[0].work) / float(np.nansum(work_s)), "1/s"),
        "op_p50_ms": (float(np.nanpercentile(lat, 50)) * 1e3, "ms"),
        "op_p95_ms": (float(np.nanpercentile(lat, 95)) * 1e3, "ms"),
    }


# The figures named per workload, printed next to the generic metrics.
NAMED = {
    "residual_sweep": lambda m, rounds: {
        "verify_s": (float(median_of_rounds(rounds, "latency_s")[0]), "s"),
        "grid_points_per_s": m["work_per_s"]},
    "ensemble_bulk": lambda m, rounds: {"events_per_s": m["work_per_s"]},
    "cli_mix": lambda m, rounds: {
        "request_p50_ms": m["op_p50_ms"], "request_p95_ms": m["op_p95_ms"],
        "requests_per_s": m["work_per_s"]},
}


def show(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["residual_sweep", "ensemble_bulk", "cli_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "zvortex" / "__init__.py").is_file():
        print(f"error: no zvortex sources under {SRC}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else setup_seconds()
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer, per_layer_metrics

    OUT.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as work:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        ref: dict[str, str] = {}
        if args.trace:
            plain = run_phase(wl, args.seconds / 2, ref, problems)
            tracer = Tracer()
            traced = run_phase(wl, args.seconds / 2, ref, problems, tracer)
            rounds = plain + traced
        else:
            rounds = run_phase(wl, args.seconds, ref, problems)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"timed operations per round {len(rounds[0].latency_s)}")
    if args.trace:
        overhead = (statistics.median(st.wall_s for st in traced)
                    - statistics.median(st.wall_s for st in plain))
        metrics = per_layer_metrics(tracer, len(traced),
                                    sum(st.wall_s for st in traced), overhead)
        show(f"per layer, per round (mean of {len(traced)} traced rounds; "
             f"{len(plain)} untraced)", metrics)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(rounds, setup_s)
        show("end to end", metrics)
        show("as named for this workload", NAMED[args.workload](metrics, rounds))
    combined = hashlib.sha256(repr(sorted(ref.items())).encode()).hexdigest()
    print(f"outputs sha256 {combined} (the same in every round and for every "
          "run with this seed)")
    attempted = len(rounds) * wl.attempted_per_round
    failed = sum(st.failed for st in rounds)
    print(f"attempted {attempted}  failed {failed}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
