#!/usr/bin/env python3
"""Build and run the historian benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (its own Cargo workspace,
depending on the repository's crates by path) into `$CARGO_TARGET_DIR`,
default `.bench_build`, then runs one workload.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. A traced run first runs
the same workload and seed untraced, and reports the difference in measured
work time as `trace.overhead_pct`. Span files land in
`$CARGO_TARGET_DIR/perfbench-traces/`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wire_ingest", "history_query", "live_mixed")
CHILD_TIMEOUT_S = 170


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        print(f"perfbench: build failed ({r.returncode})", file=sys.stderr)
        sys.exit(r.returncode or 1)
    return target, os.path.join(target, "release", "odh-perfbench")


def run_child(binary, args, trace, trace_out=None):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        sys.exit(3)
    lines = r.stdout.strip().splitlines()
    if not lines:
        print(f"perfbench: run printed nothing (exit {r.returncode})", file=sys.stderr)
        sys.exit(r.returncode or 1)
    for line in lines[:-1]:
        print(line)
    work = next((float(l.split()[1]) for l in lines if l.startswith("WORK ")), 0.0)
    return r.returncode, json.loads(lines[-1]), work


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target, binary = build()
    if not args.trace:
        code, result, _ = run_child(binary, args, False)
        print(json.dumps(result))
        sys.exit(code)

    code0, plain, work0 = run_child(binary, args, False)
    out = os.path.join(target, "perfbench-traces", f"{args.workload}-seed{args.seed}.jsonl")
    code1, traced, work1 = run_child(binary, args, True, out)
    overhead = (work1 - work0) / work0 * 100.0 if work0 > 0 else 0.0
    traced["metrics"]["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    traced["correct"] = bool(plain["correct"] and traced["correct"])
    print(f"trace: untraced work {work0:.4f} s, traced {work1:.4f} s, "
          f"overhead {overhead:.2f} %; spans in {out}")
    print(json.dumps(traced))
    sys.exit(code0 or code1)


if __name__ == "__main__":
    main()
