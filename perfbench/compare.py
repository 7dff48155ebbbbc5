#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines that sweep.py writes: the runs of one
commit, or one set of runs of a commit to set against another set of the
same commit. Give it the two files of one ``sweep.py --base-root`` sweep,
whose runs alternate between the two checkouts, so that noise on the host
lands on both sides alike. For every workload and end-to-end metric the table gives each
side's median and quartiles and the pairs NEW won, pairing runs with the
same seed (or in order when seeds differ). Each row gets a verdict, by the
bound in BENCHMARK.json:

- improved: NEW wins at least 9 in 10 pairs and the medians differ by more
  than BASE's spread (q3 - q1); or every NEW run beats every BASE run;
- worse: NEW's median is worse than BASE's by more than the bound;
- unresolved: either side's spread, (q3 - q1) / median, is wider than the
  bound;
- no worse: otherwise.

A workload whose share of failed operations grew is worse. The last line
is one verdict for the whole comparison: worse if any row is worse, else
unresolved if any is unresolved, else improved if any improved, else no
worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in base}
    matched = [(by_seed[r["seed"]], r) for r in new if r["seed"] in by_seed]
    return matched if len(matched) == min(len(base), len(new)) else list(zip(base, new))


def verdict(metric: dict, b: list[float], n: list[float], won: int, npairs: int) -> str:
    lower = metric["better"] == "lower"
    bq1, bmed, bq3 = statistics.quantiles(b, n=4)
    nq1, nmed, nq3 = statistics.quantiles(n, n=4)
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    if all(better(x, y) for x in n for y in b):
        return "improved"
    worse_by = (nmed - bmed) / bmed if lower else (bmed - nmed) / bmed
    if worse_by > metric["bound"]:
        return "worse"
    if max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed) > metric["bound"]:
        return "unresolved"
    if won >= 0.9 * npairs and better(nmed, bmed) and abs(nmed - bmed) > bq3 - bq1:
        return "improved"
    return "no worse"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    base, new = load(args.base), load(args.new)
    verdicts = []
    for wl in (w["name"] for w in bench["workloads"]):
        b_runs = [r for r in base if r["workload"] == wl]
        n_runs = [r for r in new if r["workload"] == wl]
        if len(b_runs) < 2 or len(n_runs) < 2:
            print(f"{wl}: too few runs ({len(b_runs)} base, {len(n_runs)} new)")
            verdicts.append("unresolved")
            continue
        share = lambda runs: sum(r["result"]["failed"] for r in runs) / sum(
            r["result"]["attempted"] for r in runs)
        print(f"{wl}: {len(b_runs)} base runs, {len(n_runs)} new runs; failed share "
              f"{share(b_runs):.6g} -> {share(n_runs):.6g}")
        if share(n_runs) > share(b_runs):
            verdicts.append("worse")
        if not all(r["result"]["correct"] for r in n_runs):
            print("  new runs report incorrect output")
            verdicts.append("worse")
        matched = pairs(b_runs, n_runs)
        for m in bench["end_to_end"]:
            val = lambda r: r["result"]["metrics"][m["name"]]["value"]
            b, n = [val(r) for r in b_runs], [val(r) for r in n_runs]
            better = (lambda x, y: x < y) if m["better"] == "lower" else (lambda x, y: x > y)
            won = sum(better(val(y), val(x)) for x, y in matched)
            v = verdict(m, b, n, won, len(matched))
            verdicts.append(v)
            bq = statistics.quantiles(b, n=4)
            nq = statistics.quantiles(n, n=4)
            print(f"  {m['name']:<12} base {bq[1]:<11.5g} [{bq[0]:.5g}, {bq[2]:.5g}]  "
                  f"new {nq[1]:<11.5g} [{nq[0]:.5g}, {nq[2]:.5g}]  "
                  f"won {won}/{len(matched)}  bound {m['bound']}  {v}")
    for overall in ("worse", "unresolved", "improved"):
        if overall in verdicts:
            break
    else:
        overall = "no worse"
    print(f"verdict: {overall}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
