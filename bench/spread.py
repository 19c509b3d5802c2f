#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root, one benchmark process at a time:

    python3 bench/spread.py --workloads train-full --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --traced-seed 1 --out bench/BENCH_seed.json

For every workload and end-to-end metric it prints the median of the
per-run values, their first and third quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median beside the metric's bound from
BENCHMARK.json.  With --traced-seed it adds one --trace 1 run per
workload; --out writes every run plus the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "out", f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return result, json.load(fh)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, env = [], None
        for seed in parse_seeds(args.seeds):
            result, record = run_once(workload, seed, args.seconds, 0)
            env = record["env"]
            runs.append({"seed": seed, "samples": record["samples"],
                         "tail": record["tail"], **result})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: failed {result['failed']}/"
                  f"{result['attempted']} {values}", flush=True)
        summary = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[metric] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / statistics.median(values),
                               "bound": bounds[metric]}
            s = summary[metric]
            print(f"  {metric:14s} median {s['median']:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {s['spread']:.2%}  bound {s['bound']:.0%}  "
                  f"spread/bound {s['spread'] / s['bound']:.2f}", flush=True)
        entry = {"env": env, "summary": summary, "runs": runs}
        if args.traced_seed is not None:
            result, record = run_once(workload, args.traced_seed, args.seconds, 1)
            entry["traced"] = {k: record[k] for k in (
                "seed", "samples", "tracing_overhead", "tracing_cost_share", "traced_op_mean_s",
                "module_self_share", "spans_per_op", "metrics")}
            print(f"  traced seed {args.traced_seed}: overhead "
                  f"{record['tracing_overhead']:+.2%}, module self share "
                  + ", ".join(f"{m} {v:.1%}" for m, v in record["module_self_share"].items()),
                  flush=True)
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
