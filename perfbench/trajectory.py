#!/usr/bin/env python3
"""Records a trajectory point: every workload run on several seeds.

Run from the repository root:

    python3 perfbench/trajectory.py --out perfbench/trajectory/NAME.json

For each workload in BENCHMARK.json it runs perfbench/run.py once per seed
(seeds 1..10, untraced) and stores, per end-to-end metric, the ten values,
their median, first and third quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, which is what a later change is compared against.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def l3_cache():
    try:
        out = subprocess.run(["lscpu"], stdout=subprocess.PIPE, text=True,
                             check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    for line in out.splitlines():
        if line.startswith("L3 cache:"):
            return line.split(":", 1)[1].strip()
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(1, 11)
    point = {"host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                      "l3_cache": l3_cache()},
             "run_seconds": bench["run_seconds"], "seeds": list(seeds),
             "workloads": {}}
    for workload in workloads:
        values, failed, attempted, started = {}, 0, 0, time.time()
        for seed in seeds:
            result = run_once(workload, seed, bench["run_seconds"], 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: failed {result['failed']}",
                  file=sys.stderr, flush=True)
        point["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "wall_s": time.time() - started,
            "metrics": {name: summarize(v) for name, v in values.items()}}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(point, f, indent=1)
        f.write("\n")
    for workload, data in point["workloads"].items():
        print(f"{workload}: {data['failed']} failed of {data['attempted']}")
        for name, s in data["metrics"].items():
            print(f"  {name:16s} median {s['median']:.6g}  spread "
                  f"{s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
