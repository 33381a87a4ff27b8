#!/usr/bin/env python3
"""Benchmark of the pcbl label system.

Builds the benchmark program from the checkout's sources (CMake, into
.bench_build/ or $CARGO_TARGET_DIR), runs one workload and prints its
metrics; the last stdout line is one JSON object.

  python3 perfbench/run.py --workload build_compas_200k --seed 1 \
      --seconds 20 --trace 0

Steadiness mode: repeats each workload over several seeds and prints, per
end-to-end metric, the median and the quartile spread against the bound
in BENCHMARK.json.

  python3 perfbench/run.py --steady 5 [--workload NAME] [--seconds 20]
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["build_compas_200k", "build_creditcard_30k", "serve_mixed",
             "ingest_append"]


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pcbl", "pcbl.h")):
        print("perfbench: no library sources under " +
              os.path.join(ROOT, "src"), file=sys.stderr)
        return None
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j4", "--target", "perfbench"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed last line or None)."""
    workdir = tempfile.mkdtemp(prefix="run-", dir=build_dir())
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        spans = os.path.join(workdir, "trace.jsonl")
        if trace and os.path.isfile(spans):
            kept = os.path.join(build_dir(), "traces", workload + ".jsonl")
            os.makedirs(os.path.dirname(kept), exist_ok=True)
            shutil.move(spans, kept)
            print("perfbench: spans written to " + kept, file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    return 0, json.loads(lines[-1])


def steady(binary, workloads, runs, seconds):
    """Repeats each workload over `runs` seeds; prints medians and spreads."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {}
        failed = 0
        for seed in range(1, runs + 1):
            code, result = run_once(binary, workload, seed, seconds, 0,
                                    echo=False)
            if code != 0 or not result["correct"]:
                failed += 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {runs} runs, {failed} failed or incorrect")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name, 0.0)
            ok = name == "setup_s" or spread <= bound / 3
            if name != "setup_s":
                worst = max(worst, spread / bound if bound else 0.0)
            print(f"  {name:18s} median {median:12.4f}  spread "
                  f"{spread:6.3f}  bound {bound:5.2f}  "
                  f"{'ok' if ok else 'WIDE'}")
    print(f"widest spread / bound: {worst:.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS",
                        help="steadiness mode: RUNS seeds per workload")
    args = parser.parse_args()
    if args.steady is None and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if binary is None:
        return 2
    if args.steady is not None:
        workloads = [args.workload] if args.workload else WORKLOADS
        return steady(binary, workloads, args.steady, args.seconds)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
