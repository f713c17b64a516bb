#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and report the spread.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--seconds S] [--workloads a,b]

Run from the repository root. Each round runs every workload once with the
round's seed (seed0 + round), alternating the workload order between rounds.
For every end-to-end metric it prints the median, the first and third
quartiles (`statistics.quantiles(values, n=4)`) and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json, and flags
any spread above its bound, `setup_s` included. The share of failed
operations is printed per workload. Exits 1 if any run exited non-zero, was
incorrect or failed an operation, or if any spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    ok = True
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            cmd = bench["command"] + ["--workload", w, "--seed", str(args.seed0 + i),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                               text=True)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else "{}"
            res = json.loads(last)
            if r.returncode != 0 or not res.get("correct") or res.get("failed"):
                ok = False
                print(f"run {i} {w}: exit {r.returncode}, correct={res.get('correct')}, "
                      f"failed={res.get('failed')}")
                continue
            shares[w].add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {i} seed {args.seed0 + i} {w}: done", file=sys.stderr)

    flagged = 0
    for w in workloads:
        print(f"\n{w}  (failed share per run: {sorted(shares[w])})")
        print(f"  {'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values[w].items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  EXCEEDS"
                flagged += 1
            elif bound is not None and spread > bound / 3:
                flag = "  >1/3 bound"
            print(f"  {name:<22} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{bound if bound is not None else '-':>6}{flag}")
    sys.exit(0 if ok and not flagged else 1)


if __name__ == "__main__":
    main()
