"""Repeat the benchmark and print each end-to-end metric's median and
quartile spread per workload.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Run from the repository root.  Every workload in BENCHMARK.json runs for
its run_seconds, with seeds from --first-seed upwards, one per run.  The
spread is (Q3 - Q1) / median with the quartiles of statistics.quantiles(n=4),
shown against a third of the metric's bound in BENCHMARK.json.  With
--runs 1 this is the one command that runs every workload and prints all
of its end-to-end metrics.  Raw results go to perfbench/out/steady.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results: dict = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            got = run_once(workload, seed, bench["run_seconds"])
            runs.append(got)
            print(f"{workload} seed {seed}: correct={got['correct']} "
                  f"attempted={got['attempted']} failed={got['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in got["metrics"].items()),
                  flush=True)
        results[workload] = runs

    print()
    print(f"{'workload':<9} {'metric':<14} {'unit':<5} {'median':>10} {'Q1':>10} {'Q3':>10}"
          f" {'spread':>7} {'bound/3':>7}")
    for workload, runs in results.items():
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med
            print(f"{workload:<9} {name:<14} {spec['unit']:<5} {med:>10.4g} {q1:>10.4g}"
                  f" {q3:>10.4g} {spread:>7.3f} {spec['bound'] / 3:>7.3f}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload:<9} failed share of attempted: "
              + ", ".join(f"{s:.6f}" for s in shares)
              + f"; correct in every run: {all(r['correct'] for r in runs)}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump({"seconds": bench["run_seconds"], "first_seed": args.first_seed, "results": results}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
