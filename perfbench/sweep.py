#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --runs 10 --out perfbench/out/new.jsonl
    python3 perfbench/sweep.py --runs 10 --out perfbench/out/new.jsonl \\
        --base-root ../base --base-out perfbench/out/base.jsonl

Each run is the command of BENCHMARK.json in a fresh process, one at a
time, with the run length from BENCHMARK.json unless ``--seconds`` is
given. The runs go round robin: for each seed, one run of every workload,
so that noise on the host that lasts minutes spreads over all seeds and
workloads rather than landing on one workload. With ``--base-root`` every
run is made twice, once in this checkout and once in the base checkout
(which must hold the benchmark's files too), alternating which goes first;
the base runs go to ``--base-out``. compare.py then sets the two files
against each other, pair by pair.

Every result line is appended as JSON (workload, seed, exit code, seconds
taken, result). For each file, workload and end-to-end metric the summary
gives the median, the quartiles and the spread, (q3 - q1) / median, next
to the metric's bound, and the share of failed operations. The exit code
is 1 if a run gave no result, a run was not correct, the failed share
differed between runs of a workload, or a spread exceeded its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def summarise(records: list[dict], bench: dict) -> bool:
    """Print the spread table; True when every run is correct, the failed
    share is one value per workload and every spread is within its bound."""
    ok = True
    for wl in [w["name"] for w in bench["workloads"]]:
        rows = [r for r in records if r["workload"] == wl]
        if len(rows) < 2:
            continue
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in rows}
        correct = all(r["result"]["correct"] for r in rows)
        print(f"{wl}: {len(rows)} runs, correct {correct}, "
              f"failed share {sorted(shares)}")
        ok &= correct and len(shares) == 1
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 else \
                ("  above bound/3" if spread <= m["bound"] else "  ABOVE BOUND")
            ok &= spread <= m["bound"]
            print(f"  {m['name']:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {spread:7.4f}  bound {m['bound']}{flag}")
    return ok


def run_once(bench: dict, root: Path, wl: str, seed: int, seconds: int) -> dict | None:
    cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    taken = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{root}: {wl} seed {seed}: no result (exit {done.returncode})\n"
              f"{done.stderr[-2000:]}", file=sys.stderr)
        return None
    shown = [m["name"] for m in bench["end_to_end"]]
    print(f"{root.name}: {wl} seed {seed}: exit {done.returncode} {taken:.0f} s "
          + " ".join(f"{k}={v['value']:.5g}"
                     for k, v in result["metrics"].items() if k in shown), flush=True)
    return {"workload": wl, "seed": seed, "exit": done.returncode,
            "seconds": round(taken, 1), "result": result}


def main(argv=None) -> int:
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default all)")
    ap.add_argument("--out", required=True, help="JSON-lines file to append to")
    ap.add_argument("--base-root", type=Path,
                    help="a second checkout whose runs alternate with this one's")
    ap.add_argument("--base-out", help="JSON-lines file for the base runs")
    args = ap.parse_args(argv)
    if (args.base_root is None) != (args.base_out is None):
        ap.error("--base-root and --base-out go together")
    names = args.workload or [w["name"] for w in bench["workloads"]]
    sides = [(ROOT, Path(args.out))]
    if args.base_root is not None:
        sides.append((args.base_root.resolve(), Path(args.base_out)))
    for _, out in sides:
        out.parent.mkdir(parents=True, exist_ok=True)

    pair = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for wl in names:
            order = sides if pair % 2 == 0 else sides[::-1]
            pair += 1
            for root, out in order:
                rec = run_once(bench, root, wl, seed, args.seconds)
                if rec is None:
                    return 1
                with open(out, "a") as fh:
                    fh.write(json.dumps(rec) + "\n")

    ok = True
    for root, out in sides:
        with open(out) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        print(f"== {out} ({root})")
        ok &= summarise([r for r in records if r["workload"] in names], bench)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
