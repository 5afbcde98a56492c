"""Golden reports: the SHA-256 digest, the exit code and each check's
(name, status) in report order, of `verify` (all suites, default flags)
and `table` for a fixed set of catalog entries, plus a few `verify` runs
at non-default sampling flags.

Report bytes are the fixed point of every refactor. A change that alters
them on purpose says why and regenerates the digests with

    PYTHONPATH=src python tests/test_golden.py > tests/golden/reports.json

A change that moves only residual digits keeps every exit code and status
list, so its regenerated file differs from the old one in `sha256` lines
only.
"""

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from pqnverify.cli import main

GOLDEN = Path(__file__).parent / "golden" / "reports.json"

# entry name -> catalog arguments
ENTRIES = {
    "das-okubo-n2": ["das-okubo", "--n", "2"],
    "das-okubo-n3": ["das-okubo", "--n", "3"],
    "closed-toda-n2": ["closed-toda", "--n", "2"],
    "closed-toda-n3": ["closed-toda", "--n", "3"],
    "r3-recipe-flat": ["r3-recipe", "--lam", "z", "--a", "y", "--g", "0"],
    "r3-recipe-local": ["r3-recipe", "--lam", "z/2", "--a", "x/2", "--g", "z"],
    "prop-local": ["prop-local", "--lam", "z/2", "--a", "x/2", "--g", "z"],
    "magri-veselov": ["magri-veselov"],
    "r3-recipe-log": ["r3-recipe", "--lam", "log(x)", "--a", "y", "--g", "0"],
    "das-okubo-n4": ["das-okubo", "--n", "4"],
    "closed-toda-n4": ["closed-toda", "--n", "4"],
}
# the n=4 entries are the lattice benchmark's inputs; no `table` case is
# kept for them
NO_TABLE = {"magri-veselov", "das-okubo-n4", "closed-toda-n4"}
# case name -> (entry, command, sampling flags)
CASES = {
    f"{entry}.{command}": (entry, command, [])
    for entry in ENTRIES
    if entry != "r3-recipe-log"
    for command in ("verify", "table")
    if not (entry in NO_TABLE and command == "table")
}
# log(x) is undefined on half the box: 75 checks replace 995 of 1024 points,
# which pins how resampling continues the point stream.
CASES["r3-recipe-log.verify.resample"] = (
    "r3-recipe-log",
    "verify",
    ["--samples", "1024", "--seed", "7", "--resample-limit", "4096"],
)
# a large cloud in an offset box at a non-default seed
CASES["das-okubo-n2.verify.wide-box"] = (
    "das-okubo-n2",
    "verify",
    ["--samples", "4096", "--seed", "7", "--box=-0.5:2"],
)
# the wide benchmark's size: the staged tensors contracted across many chunks
for _entry in ("das-okubo-n3", "closed-toda-n3"):
    CASES[f"{_entry}.verify.wide"] = (_entry, "verify", ["--samples", "4096", "--seed", "7"])


def report_digest(workdir: Path, case: str) -> dict:
    entry, command, flags = CASES[case]
    structure = workdir / f"{entry}.json"
    if not structure.exists():
        assert main(["catalog", *ENTRIES[entry], "--out", str(structure)]) == 0
    out = workdir / f"{case}.json"
    code = main([command, str(structure), *flags, "--out", str(out)])
    report = out.read_bytes()
    checks = [[c["name"], c["status"]] for c in json.loads(report)["checks"]]
    return {"sha256": hashlib.sha256(report).hexdigest(), "exit": code, "checks": checks}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


def test_golden_file_lists_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(golden, workdir, case):
    got, want = report_digest(workdir, case), golden[case]
    # verdicts first, so that a moved status is told apart from moved digits
    assert got["exit"] == want["exit"]
    assert got["checks"] == want["checks"]
    assert got["sha256"] == want["sha256"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {case: report_digest(Path(tmp), case) for case in CASES}
    text = json.dumps(digests, indent=2, sort_keys=True)
    # one [name, status] pair per line
    text = re.sub(r'\[\s+("[^"]*"),\s+("[^"]*")\s+\]', r"[\1, \2]", text)
    sys.stdout.write(text + "\n")
