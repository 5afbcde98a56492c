"""Child processes of the benchmark; run.py starts them, one at a time.

    worker.py setup WORKLOAD SEED DIR [--trace FILE]
        import pqnverify, write the workload's first structure files with
        pqnverify.catalog, print "ready".
    worker.py verdict FILE REPORT [--vseed N] [--samples N] [--trace FILE]
        one verdict in this fresh interpreter.
    worker.py recipes SEED DIR (--seconds S | --round K) [--trace FILE]
        recipe verdicts one after another in this process, in whole rounds
        for S seconds or round K alone; each round's fault instance is
        verified in a fresh interpreter.

Each prints one JSON line last.  Run from the repository root with src on
PYTHONPATH.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import known


CHILD_TIMEOUT = 150


def child(args: list[str], env: dict | None = None) -> dict:
    """Run this script with args in a fresh interpreter and return its last
    JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + args,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_structure(path: str, st) -> dict:
    from pqnverify import cli

    doc = cli.structure_to_doc(st)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cli.emit_document(doc))
    return doc


def write_lattice(workload: str, directory: str) -> list[str]:
    from pqnverify import catalog

    paths = []
    for name in known.LATTICE_FAILS:
        path = os.path.join(directory, f"{name}.json")
        _write_structure(path, catalog.by_name(name, n=known.LATTICE_N[workload]))
        paths.append(path)
    return paths


def recipe_rounds(seed: int):
    """Per round: ROUND_DRAWN instances drawn from the seed, then one fixed
    fault instance, as (file stem, instance) pairs."""
    for index, drawn in enumerate(known.drawn_rounds(seed)):
        named = [(f"r{index}-{k:02d}", inst) for k, inst in enumerate(drawn)]
        fault = known.FAULT_INSTANCES[index % len(known.FAULT_INSTANCES)]
        named.append((f"r{index}-fault", known.as_instance(fault)))
        yield named


def write_recipes(named: list[tuple[str, dict]], directory: str) -> list[tuple[str, dict, dict]]:
    from pqnverify import catalog

    out = []
    for stem, inst in named:
        path = os.path.join(directory, f"{stem}.json")
        doc = _write_structure(path, catalog.by_name("r3-recipe", **known.recipe_strings(inst)))
        out.append((path, inst, doc))
    return out


def verdict(path: str, report: str, flags: list[str]) -> dict:
    """One verdict through the CLI: file bytes to report bytes."""
    from pqnverify import cli

    t0 = time.perf_counter()
    try:
        rc = cli.main(["verify", path, "--out", report] + flags)
        error = None
    except Exception as exc:  # a verdict that raises is a failed verdict
        rc, error = None, f"{type(exc).__name__}: {exc}"[:300]
    return {"verdict_s": time.perf_counter() - t0, "rc": rc, "error": error}


def cmd_setup(args):
    tracer = None
    if args.trace:
        from spans import SETUP_LAYERS, Tracer

        import pqnverify  # noqa: F401  (the import is part of set-up)

        tracer = Tracer()
        tracer.install(SETUP_LAYERS)
    if args.workload == "recipes":
        write_recipes(next(recipe_rounds(args.seed)), args.dir)
    else:
        write_lattice(args.workload, args.dir)
    print("ready", flush=True)
    if tracer:
        tracer.dump(args.trace, {"kind": "setup"})


def cmd_verdict(args):
    flags = []
    if args.vseed is not None:
        flags += ["--seed", str(args.vseed)]
    if args.samples is not None:
        flags += ["--samples", str(args.samples)]
    import pqnverify  # noqa: F401

    tracer = None
    if args.trace:
        from spans import VERDICT_LAYERS, Tracer

        tracer = Tracer()
        tracer.install(VERDICT_LAYERS)
    got = verdict(args.file, args.report, flags)
    got["peak_rss_mb"] = _peak_rss_mb()
    if tracer:
        got["report_bytes"] = os.path.getsize(args.report) if got["rc"] in (0, 1) else 0
        tracer.dump(args.trace, {"kind": "verdict", **got})
    print(json.dumps(got))


def cmd_recipes(args):
    import itertools

    import pqnverify  # noqa: F401

    tracer = None
    if args.trace:
        from spans import VERDICT_LAYERS, Tracer

        tracer = Tracer()
        tracer.install(VERDICT_LAYERS)
        stem, ext = os.path.splitext(args.trace)
    if args.round is None:
        plan = zip(known.whole_rounds(args.seconds), recipe_rounds(args.seed))
    else:
        plan = itertools.islice(enumerate(recipe_rounds(args.seed)), args.round, args.round + 1)
    report = os.path.join(args.dir, "report.json")
    times, decided, failures, traces = [], 0, [], []
    report_bytes = 0
    rss = []
    rounds = 0
    for index, named in plan:
        rounds += 1
        if tracer:
            tracer.paused = True
        batch = write_recipes(named, args.dir)
        if tracer:
            tracer.paused = False
        for k, (path, inst, doc) in enumerate(batch):
            fresh = k == len(batch) - 1
            if fresh:
                # the fault instance repeats across rounds, so it runs in a
                # fresh interpreter, where no cache outlives its verdict
                flags = ["verdict", path, report]
                if tracer:
                    traces.append(f"{stem}-fault{index}{ext}")
                    flags += ["--trace", traces[-1]]
                got = child(flags)
                rss.append(got["peak_rss_mb"])
            else:
                got = verdict(path, report, [])
            times.append(got["verdict_s"])
            fails = {"pn.torsion"} if known.z_of_lambda(inst) else set()
            outcome = known.judge(got, report, known.members_of(doc), fails)
            decided += outcome["decided"]
            if not fresh:  # the fresh interpreter's trace counts its own
                report_bytes += outcome["report_bytes"]
            if outcome["wrong"] is not None:
                failures.append({"structure": doc, "rc": got["rc"], "error": got["error"],
                                 "checks": outcome["wrong"]})
    if tracer:
        tracer.dump(args.trace, {"kind": "recipes", "report_bytes": report_bytes})
        traces.insert(0, args.trace)
    import exact

    print(json.dumps({
        "rounds": rounds,
        "verdict_s": times,
        "decided": decided,
        "peak_rss_mb": max(rss + [_peak_rss_mb()]),
        "failures": failures,
        "traces": traces,
        "explained": exact.classify_failures(failures)[1],
    }))


def main(argv):
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    ps = sub.add_parser("setup")
    ps.add_argument("workload")
    ps.add_argument("seed", type=int)
    ps.add_argument("dir")
    pv = sub.add_parser("verdict")
    pv.add_argument("file")
    pv.add_argument("report")
    pv.add_argument("--vseed", type=int)
    pv.add_argument("--samples", type=int)
    pr = sub.add_parser("recipes")
    pr.add_argument("seed", type=int)
    pr.add_argument("dir")
    when = pr.add_mutually_exclusive_group(required=True)
    when.add_argument("--seconds", type=float)
    when.add_argument("--round", type=int)
    for p in (ps, pv, pr):
        p.add_argument("--trace")
    args = parser.parse_args(argv)
    {"setup": cmd_setup, "verdict": cmd_verdict, "recipes": cmd_recipes}[args.mode](args)


if __name__ == "__main__":
    main(sys.argv[1:])
