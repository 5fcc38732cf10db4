#!/usr/bin/env python3
"""Run every benchmark workload over several seeds and summarise.

    python3 perfbench/report.py [--seeds 1,2,3] [--workloads a,b] [--trace 0|1|both]

Runs the command in BENCHMARK.json from the repository root, once per
workload, seed and trace mode, and prints every metric by name and unit
with the median and quartiles (statistics.quantiles, n=4) of its values,
plus the quartile spread as a share of the median. Operations attempted
and failed are summed per workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(bench, workload, seed, trace):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if p.returncode != 0 or not p.stdout.strip():
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", default="0", choices=["0", "1", "both"])
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    for trace in traces:
        for w in args.workloads.split(","):
            values, units, attempted, failed = {}, {}, 0, 0
            for seed in seeds:
                r = run(bench, w, seed, trace)
                attempted += r["attempted"]
                failed += r["failed"]
                for k, m in r["metrics"].items():
                    values.setdefault(k, []).append(m["value"])
                    units[k] = m["unit"]
            print(f"== {w} trace {trace}: {len(seeds)} runs, "
                  f"{attempted} operations attempted, {failed} failed")
            for k, v in values.items():
                med = statistics.median(v)
                if len(v) >= 2:
                    q1, _, q3 = statistics.quantiles(v, n=4)
                else:
                    q1 = q3 = med
                spread = (q3 - q1) / med if med else 0.0
                print(f"  {k:34s} {units[k]:6s} median {med:<14.6g} "
                      f"q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:.4f}")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
