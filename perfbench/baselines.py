#!/usr/bin/env python3
"""Reference-only figures outside the workloads: the sizes quoted as
baselines in ROADMAP.md, each measured once in a fresh process.

    python3 perfbench/baselines.py

- ``evaluate_grid`` on a 50^3 lattice, with analytic partials and with
  finite differences (1-vortex field, U_f = 2.5, natural units);
- ``simulate`` with rate 1e6 and horizon 30 (3e7 events), with the
  process's peak RSS; this one needs about 1.5 GB of memory;
- ``k_jump_trace`` over 2,000 levels and 2,000 schedule steps.

These are single timings, not benchmark metrics: no bound applies to them.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def measure(name: str) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy as np
    from zvortex import energy, ensemble, schrodinger_field as sf, vortex as vx
    from zvortex.wavecore import CParam

    t0 = time.perf_counter()
    if name.startswith("evaluate_grid"):
        phys = sf.NATURAL_UNITS
        field = vx.imag_solution(vx.Branch.ONE_VORTEX, 2.5, phys).to_field()
        if name.endswith("fd"):
            field = sf.ZField(value=field.value)
        r = np.linspace(0.1, 1.0, 50).tolist()
        t = np.linspace(0.0, 0.3, 50).tolist()
        t0 = time.perf_counter()
        sf.evaluate_grid(field, CParam(1.0, 2.0), phys, sf.Potential.fixed(2.5), r, r, t)
    elif name == "simulate_3e7":
        cfg = ensemble.EnsembleConfig(pair_production_rate=1e6, ratio_zero_to_one=1.0,
                                      k=1.0, s=1.0, beta=1.0, horizon=30.0, seed=1)
        t0 = time.perf_counter()
        ensemble.simulate(cfg)
    elif name == "k_jump_trace_2000":
        ladder = energy.EnergyLadder(tuple(float(e) for e in range(1, 2001)))
        schedule = np.linspace(1.0, 2000.0, 2000).tolist()
        t0 = time.perf_counter()
        energy.k_jump_trace(ladder, schedule, sf.NATURAL_UNITS)
    else:
        raise SystemExit(f"unknown baseline {name}")
    seconds = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"name": name, "seconds": seconds, "peak_rss_mb": rss}


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--one":
        print(json.dumps(measure(sys.argv[2])))
        return 0
    for name in ("evaluate_grid_50", "evaluate_grid_50_fd", "simulate_3e7",
                 "k_jump_trace_2000"):
        done = subprocess.run([sys.executable, __file__, "--one", name],
                              capture_output=True, text=True, timeout=600, check=True)
        r = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{r['name']:<22} {r['seconds']:8.3f} s   peak RSS {r['peak_rss_mb']:8.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
