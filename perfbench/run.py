"""The pqnverify verdict benchmark.

    python3 perfbench/run.py --workload lattice|recipes|wide --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones (setup_s, verdict_p50_s, checks_per_s,
peak_rss_mb); with --trace 1 a fixed number of rounds runs, each unit of
work untraced and traced back to back, and the metrics are the per-layer
ones plus the tracing overhead.  Inputs, reports, run records and spans
go to perfbench/out/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import known
import spans
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("lattice", "recipes", "wide")
SAMPLES = {"lattice": 64, "wide": 4096}
SETUP_STARTS = 12  # cold starts behind the setup_s median
TRACE_ROUNDS = {"lattice": 3, "recipes": 5, "wide": 3}


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def cold_setup(workload: str, seed: int, directory: str, trace: str | None = None) -> float:
    """Seconds from starting a fresh interpreter to its structure files
    being written."""
    cmd = [sys.executable, WORKER, "setup", workload, str(seed), directory]
    if trace:
        cmd += ["--trace", trace]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=worker.CHILD_TIMEOUT)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up of {workload} failed with exit code {code}")
    return elapsed


def lattice_verdict(workload: str, path: str, doc: dict, vseed: int,
                    trace: str | None = None) -> dict:
    """One das-okubo or closed-toda verdict in a fresh interpreter, judged
    against its known answer."""
    report = os.path.join(os.path.dirname(path), "report.json")
    args = ["verdict", path, report, "--vseed", str(vseed), "--samples", str(SAMPLES[workload])]
    if trace:
        args += ["--trace", trace]
    got = worker.child(args, _env())
    outcome = known.judge(got, report, known.members_of(doc), known.LATTICE_FAILS[doc["name"]])
    failures = []
    if outcome["wrong"] is not None:
        failures.append({"structure": doc, "rc": got["rc"], "error": got["error"],
                         "sampling_seed": vseed, "checks": outcome["wrong"]})
    return {"verdict_s": [got["verdict_s"]], "decided": outcome["decided"],
            "peak_rss_mb": got["peak_rss_mb"], "failures": failures,
            "traces": [trace] if trace else [],
            # no exact path: the lattices use exp, so any failure is unexplained
            "explained": not failures}


def recipes_child(seed: int, directory: str, when: list[str], trace: str | None = None) -> dict:
    args = ["recipes", str(seed), directory] + when
    if trace:
        args += ["--trace", trace]
    return worker.child(args, _env())


def merge(parts: list[dict]) -> dict:
    return {
        "verdict_s": [t for p in parts for t in p["verdict_s"]],
        "decided": sum(p["decided"] for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "failures": [f for p in parts for f in p["failures"]],
        "traces": [t for p in parts for t in p["traces"]],
        "explained": all(p["explained"] for p in parts),
    }


def lattice_docs(directory: str) -> list[tuple[str, dict]]:
    out = []
    for name in known.LATTICE_FAILS:
        path = os.path.join(directory, f"{name}.json")
        with open(path, encoding="utf-8") as fh:
            out.append((path, json.load(fh)))
    return out


def timed_run(workload: str, seed: int, directory: str, seconds: float) -> dict:
    """Verdicts in whole rounds for `seconds`.  A lattice round is one
    das-okubo and one closed-toda verdict, each in a fresh interpreter, at
    one sampling seed; the recipes rounds run in one worker process."""
    if workload == "recipes":
        return recipes_child(seed, directory, ["--seconds", str(seconds)])
    seeds = random.Random(f"{workload}:{seed}")
    docs = lattice_docs(directory)
    parts = []
    for _ in known.whole_rounds(seconds):
        vseed = seeds.randrange(2**31)
        parts += [lattice_verdict(workload, path, doc, vseed) for path, doc in docs]
    result = merge(parts)
    result["rounds"] = len(parts) // len(docs)
    return result


def trace_units(workload: str, seed: int, directory: str, trace_dir: str) -> list:
    """The traced run's units of work, each a function of `traced`: one
    lattice verdict, or one recipes round in its own worker process."""
    if workload == "recipes":
        return [
            lambda traced, k=k: recipes_child(
                seed, directory, ["--round", str(k)],
                os.path.join(trace_dir, f"recipes-{k}.json") if traced else None)
            for k in range(TRACE_ROUNDS[workload])
        ]
    seeds = random.Random(f"{workload}:{seed}")
    units = []
    for _ in range(TRACE_ROUNDS[workload]):
        vseed = seeds.randrange(2**31)
        for path, doc in lattice_docs(directory):
            trace = os.path.join(trace_dir, f"verdict-{len(units)}.json")
            units.append(lambda traced, path=path, doc=doc, vseed=vseed, trace=trace:
                         lattice_verdict(workload, path, doc, vseed, trace if traced else None))
    return units


def traced_run(workload: str, seed: int, directory: str, trace_dir: str) -> tuple[dict, dict]:
    """Each unit of work untraced and traced back to back, alternating which
    goes first.  The tracing overhead is the median over units of traced
    over untraced verdict time, minus one."""
    setup_trace = os.path.join(trace_dir, "setup.json")
    cold_setup(workload, seed, directory, trace=setup_trace)
    parts, traced_parts, ratios = [], [], []
    for i, unit in enumerate(trace_units(workload, seed, directory, trace_dir)):
        got = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            got[traced] = unit(traced)
        parts += [got[False], got[True]]
        traced_parts.append(got[True])
        ratios.append(sum(got[True]["verdict_s"]) / sum(got[False]["verdict_s"]) - 1.0)
    loaded = []
    for path in merge(traced_parts)["traces"]:
        with open(path, encoding="utf-8") as fh:
            loaded.append(json.load(fh))
    with open(setup_trace, encoding="utf-8") as fh:
        setups = [json.load(fh)]
    metrics = spans.per_layer_metrics(loaded, setups)
    metrics["trace.overhead_pct"] = _metric(100.0 * statistics.median(ratios), "%")
    with open(os.path.join(trace_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump({"verdicts": sum(len(p["verdict_s"]) for p in traced_parts),
                   "overhead_ratios": ratios, "metrics": metrics},
                  fh, indent=1)
    result = merge(parts)
    result["rounds"] = 2 * TRACE_ROUNDS[workload]
    return result, metrics


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "pqnverify", "cli.py")):
        print("perfbench: run from the repository root; src/pqnverify is missing",
              file=sys.stderr)
        return 2

    run_dir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    record_path = os.path.join(OUT, f"{args.workload}-{args.seed}.json")

    if args.trace:
        trace_dir = os.path.join(OUT, f"trace-{args.workload}-{args.seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        result, metrics = traced_run(args.workload, args.seed, run_dir, trace_dir)
    else:
        setups = [cold_setup(args.workload, args.seed, run_dir) for _ in range(SETUP_STARTS)]
        result = timed_run(args.workload, args.seed, run_dir, args.seconds)
        times = result["verdict_s"]
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "verdict_p50_s": _metric(statistics.median(times), "s"),
            "checks_per_s": _metric(result["decided"] / sum(times), "1/s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
        result["setup_s"] = setups

    attempted = len(result["verdict_s"])
    failed = len(result["failures"])
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "attempted": attempted, **result}, fh)
    print(f"{args.workload}: {attempted} verdicts in {result['rounds']} rounds, "
          f"{failed} failed; record in {os.path.relpath(record_path)}", file=sys.stderr)
    print(json.dumps({"correct": bool(result["explained"]), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
