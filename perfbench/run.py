#!/usr/bin/env python3
"""Repo benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload train-update --seed 1 --seconds 45 --trace 0

Builds the perfbench driver (perfbench/CMakeLists.txt, Release, into
.bench_build/perfbench) from the library sources under src/, runs one seeded
workload, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 it also runs the
training stage again in a child process under CSTF_THREADS=1 and reports
parallel.speedup = (1-thread iter_s_p50) / (nproc-thread iter_s_p50).
Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_BUDGET_S = 170  # for the driver runs of one invocation, after the build


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root):
    """Configures (once) and builds the driver; returns the binary path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found; run from the "
                           "repository root")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_driver(binary, args, deadline, env=None):
    """Runs the driver; returns its result object (its last stdout line)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          env=env, timeout=max(1.0, deadline - time.time()))
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    work_dir = os.path.join(root, ".bench_build", f"work-{os.getpid()}")
    try:
        binary = build(root)
        deadline = time.time() + RUN_BUDGET_S
        os.makedirs(work_dir, exist_ok=True)
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--work-dir", work_dir]
        result = run_driver(binary, common + ["--seconds", str(args.seconds),
                                              "--trace", str(args.trace)],
                            deadline)
        if args.trace == 1:
            env = dict(os.environ, CSTF_THREADS="1")
            child = run_driver(binary, common + [
                "--seconds", str(max(1, args.seconds // 5)), "--trace", "0",
                "--train-only"], deadline, env=env)
            metrics = result["metrics"]
            many = metrics.pop("untraced_iter_s_p50")["value"]
            one = child["metrics"]["iter_s_p50"]["value"]
            metrics["parallel.speedup"] = {"value": one / many, "unit": "x"}
            result["attempted"] += child["attempted"]
            result["failed"] += child["failed"]
            result["correct"] = result["correct"] and child["correct"]
    except (RuntimeError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log(f"error: {e}")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
