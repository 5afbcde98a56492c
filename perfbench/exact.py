"""Re-evaluate failed checks exactly over the rationals at their worst point.

A check that fails in floating point but whose exact value at its worst
point is zero failed by rounding: verify.run_pairs scales each residual by
max(1, |lhs|, |rhs|) of the final values, so a sum of large terms that
cancels to zero is judged against an absolute tolerance.

    python3 perfbench/exact.py perfbench/out/recipes-<seed>.json

reads the failures a run recorded and prints one line per failed check,
saying whether it is this rounding fault.  Run from the repository root.
"""
from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))


class NotRational(Exception):
    """The check's expressions leave the rationals (exp, log, sqrt, ...)."""


class _Captured(Exception):
    def __init__(self, pairs):
        self.pairs = pairs


def _exact_value(root, point, memo) -> Fraction:
    from pqnverify import expr as E

    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        kids = E._children(node)
        pending = [k for k in kids if id(k) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        vals = [memo[id(k)] for k in kids]
        if isinstance(node, E.Constant):
            v = Fraction(node.value)
        elif isinstance(node, E.Coord):
            v = point[node.index]
        elif isinstance(node, E.Add):
            v = vals[0] + vals[1]
        elif isinstance(node, E.Sub):
            v = vals[0] - vals[1]
        elif isinstance(node, E.Mul):
            v = vals[0] * vals[1]
        elif isinstance(node, E.Div):
            if vals[1] == 0:
                raise NotRational("division by zero")
            v = vals[0] / vals[1]
        elif isinstance(node, E.Neg):
            v = -vals[0]
        elif isinstance(node, E.IntPow):
            v = vals[0] ** node.exponent
        else:
            raise NotRational(type(node).__name__)
        memo[id(node)] = v
    return memo[id(root)]


def check_pairs(doc: dict, check_name: str):
    """The (lhs, rhs) expression pairs pqnverify builds for one named check
    of the structure, with the default sampling plan."""
    from pqnverify import cli, verify

    st = cli.structure_from_doc(doc, "<doc>")
    plan = verify.sample_plan(st.chart)
    suite = check_name.split(".")[0]
    original = verify.run_pairs

    def capture(name, pairs, *args, **kwargs):
        if name == check_name:
            raise _Captured(list(pairs))
        return original(name, pairs, *args, **kwargs)

    verify.run_pairs = capture
    try:
        verify.run_suites(st, plan, 1e-8, suites=(suite,))
    except _Captured as got:
        return got.pairs
    finally:
        verify.run_pairs = original
    raise LookupError(f"no check named {check_name}")


def classify(doc: dict, check_name: str, worst_point) -> dict:
    """Exact residual of the check at its worst point and the largest
    intermediate magnitude met on the way."""
    point = [Fraction(float(c)) for c in worst_point]
    memo: dict = {}
    try:
        residual = Fraction(0)
        for lhs, rhs in check_pairs(doc, check_name):
            diff = abs(_exact_value(lhs, point, memo) - _exact_value(rhs, point, memo))
            residual = max(residual, diff)
    except NotRational as exc:
        return {"check": check_name, "rational": False, "detail": str(exc)}
    largest = max((abs(v) for v in memo.values()), default=Fraction(0))
    return {
        "check": check_name,
        "rational": True,
        "exact_residual": float(residual),
        "max_intermediate": float(largest),
        "rounding_fault": residual == 0,
    }


def classify_failures(failures: list[dict]) -> tuple[list[dict], bool]:
    """Classify each distinct (structure, check) among a run's failed
    verdicts, with the number of verdicts it failed in, and say whether
    every failed verdict is explained by the rounding fault: it ran to a
    report, and each check it got wrong is a fail that is exactly zero at
    its worst point."""
    seen: dict = {}
    for failure in failures:
        name = failure["structure"].get("name", "")
        if failure["rc"] not in (0, 1):
            key = (json.dumps(failure["structure"], sort_keys=True), "exit code")
            seen.setdefault(key, {"structure_name": name, "rc": failure["rc"],
                                  "error": failure["error"], "rounding_fault": False})
        for check in failure["checks"]:
            key = (json.dumps(failure["structure"], sort_keys=True), check["name"])
            if key not in seen:
                if check["status"] == "fail" and check["worst_point"] is not None:
                    got = classify(failure["structure"], check["name"], check["worst_point"])
                else:
                    got = {"check": check["name"], "status": check["status"],
                           "rounding_fault": False}
                got["float_residual"] = check["max_scaled_residual"]
                got["structure_name"] = name
                seen[key] = got
            seen[key]["verdicts"] = seen[key].get("verdicts", 0) + 1
    results = list(seen.values())
    return results, all(r.get("rounding_fault") for r in results)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        run = json.load(fh)
    results, explained = classify_failures(run["failures"])
    for got in results:
        print(json.dumps(got, sort_keys=True))
    faults = sum(bool(got.get("rounding_fault")) for got in results)
    print(f"{len(results)} distinct failed checks, {faults} of them the rounding fault")
    return 0 if explained else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
