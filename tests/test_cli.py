"""Command-line round trips, document schemas, and the exit-code contract."""

import hashlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import hypothesis.strategies as hst
import pytest
from hypothesis import example, given, settings

from pqnverify.cli import (
    MAX_KMAX,
    MAX_POINTS,
    MAX_SITES,
    InputError,
    _metadata,
    _parse_box,
    _plan_for,
    emit_document,
    main,
    structure_from_doc,
    structure_to_doc,
)
from pqnverify.catalog import RecipeInput, closed_toda, r3_recipe
from pqnverify import expr
from pqnverify.expr import Chart, constant, div, Coord
from pqnverify.verify import SUITES

MINIMAL = {
    "chart": {"dim": 3, "coords": ["x", "y", "z"]},
    "bivector": {"components": {"1,2": "1"}},
    "volume": {"coeff": "1"},
}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_python(args, timeout=120):
    """A fresh interpreter with the package on its path, so that anything
    written to stderr, warnings included, and every module it loads are
    seen."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_cli_process(args):
    """The CLI in a fresh interpreter."""
    return run_python(["-m", "pqnverify.cli", *args])


def write_structure(tmp_path, doc, name="structure.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_structure_documents_round_trip():
    st = closed_toda(2)
    doc = structure_to_doc(st)
    again = structure_from_doc(json.loads(emit_document(doc)), "<mem>")
    assert structure_to_doc(again) == doc


def test_recipe_structure_documents_round_trip():
    st = r3_recipe(RecipeInput(lam=div(Coord(2), constant(2.0)), a=div(Coord(0), constant(2.0)), g=Coord(2)))
    doc = structure_to_doc(st)
    again = structure_from_doc(json.loads(emit_document(doc)), "<mem>")
    assert structure_to_doc(again) == doc


@pytest.mark.parametrize(
    "chart, coeff, written",
    [
        ({"dim": 3, "coords": ["x", "y", "z"]}, "0", "0"),
        ({"dim": 3, "coords": ["x", "y", "z"]}, "-0", "0"),
        ({"dim": 2, "coords": ["p", "q"]}, "exp(p)*q", "exp(p)*q"),
        ({"dim": 1, "coords": ["t"]}, "-t", "-t"),
    ],
    ids=["zero", "negative-zero", "2d", "1d"],
)
def test_volume_blocks_round_trip_to_their_bytes(chart, coeff, written):
    # A volume is a top-degree KForm, which stores no zero coefficient; the
    # block is written back from its component all the same, with a zero
    # (of either sign) spelled "0".
    st = structure_from_doc({"chart": chart, "volume": {"coeff": coeff}}, "<mem>")
    assert st.volume.degree == chart["dim"]
    want = {"chart": chart, "volume": {"coeff": written}}
    assert emit_document(structure_to_doc(st)) == json.dumps(want, indent=2) + "\n"


# The SHA-256 of each catalog document's bytes: the round-trip tests compare
# a document only with itself, so these hold the writers to the format.
CATALOG_DIGESTS = {
    ("closed-toda", "--n", "2"): "5224a48a51e19d827a112cd0a777ceddf2e670640bae939f59517f09e29c7a54",
    ("closed-toda", "--n", "3"): "21667d0ac6d2f76d3acc97599a95c72b1eafd348796e967ef1b7f7d7aba9f56b",
    ("closed-toda", "--n", "4"): "9a74b25f9bc7684978bc178aef8cfdcdaa04b17827e8f57636b0a1db87016fca",
    ("closed-toda", "--n", "8"): "cf0e33fe78a2540b5052eab03f3b77fa52fd1dcff1b3540bb446baa87d0f40e2",
    ("das-okubo", "--n", "2"): "ed7d3e0bafb0314dbc7b5a4c0d67bf7cc5530e229c5c8b99560880c8afd693b9",
    ("das-okubo", "--n", "3"): "7fe457d2d15b99e7a9190274d6becade6a74a381facf96327c9513744d024961",
    ("das-okubo", "--n", "4"): "2aa082c40e1229d2580521063251d75b15dd6cfdadd22bc43a0f9a8e097693f7",
    ("das-okubo", "--n", "8"): "3c367d8c4ce8c125fbdad6e0d9763b51b7f6895071d5c8d06860e3bab73bf33d",
    ("magri-veselov",): "37ac0005c995a0802bb475453091e9f46a7b740afaee62c51854955516a9fffd",
    ("prop-local", "--lam", "z/2", "--a", "x/2", "--g", "z"):
        "fbcd266782421849d43ded8098bac05315a371d387cd6906e732a40253fd1a87",
    ("r3-recipe", "--lam", "z", "--a", "y", "--g", "0"):
        "f8222539c319a5609ccb32f7e184ef7132bbbdb20eba6fa8797a3def3095abc5",
    ("r3-recipe", "--lam", "z/2", "--a", "x/2", "--g", "z"):
        "c1750fa3cd87f87e4e177f84cbf4acbbe7c78c92a1d6b8af4d793442d8fb4ca7",
    ("r3-recipe", "--lam", "z*sin(y)", "--a", "0", "--g", "0", "--b=-cos(y)"):
        "ade78a22133e43bb4b47813992d218edd60ef0707ed181141d85b6ee59ccb51d",
}


@pytest.mark.parametrize("args", CATALOG_DIGESTS, ids=" ".join)
def test_catalog_documents_keep_their_bytes(capsys, args):
    code, out, err = run_cli(["catalog", *args], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_DIGESTS[args]


def test_verify_passes_on_a_flat_bivector(tmp_path, capsys):
    path = write_structure(tmp_path, MINIMAL)
    code, out, err = run_cli(["verify", path, "--suites", "poisson"], capsys)
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["metadata"]["input_digest"].startswith("sha256:")
    names = [c["name"] for c in doc["checks"]]
    assert names == sorted(names)


def test_verify_exit_one_on_failing_checks(tmp_path, capsys):
    doc = {
        "chart": {"dim": 3, "coords": ["x", "y", "z"]},
        "bivector": {"components": {"1,2": "1", "2,3": "-y"}},
        "volume": {"coeff": "1"},
    }
    path = write_structure(tmp_path, doc)
    code, out, _ = run_cli(["verify", path, "--suites", "poisson"], capsys)
    assert code == 1
    report = json.loads(out)
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert failing
    for c in failing:
        assert c["worst_point"] is not None


def test_python_dash_m_pqnverify_keeps_the_exit_codes(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    failing = dict(MINIMAL, bivector={"components": {"1,2": "1", "2,3": "-y"}})
    runs = {
        0: write_structure(tmp_path, MINIMAL, "passing.json"),
        1: write_structure(tmp_path, failing, "failing.json"),
        2: str(tmp_path / "missing.json"),
    }
    for code, path in runs.items():
        proc = subprocess.run(
            [sys.executable, "-m", "pqnverify", "verify", path, "--suites", "poisson"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr


# Runs each command line given as a JSON list, as `python -m pqnverify`
# would, then prints the exit codes and which OpenSSL modules are loaded.
OPENSSL_PROBE = """
import json, runpy, sys
codes = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["pqnverify", *argv]
    try:
        runpy.run_module("pqnverify", run_name="__main__")
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps([codes, sorted({"_hashlib", "_ssl"} & set(sys.modules))]))
"""


def test_no_command_loads_openssl(tmp_path):
    # The input digest comes from CPython's built-in SHA-256, so a verdict
    # does not map OpenSSL's libcrypto.
    mv, do2 = str(tmp_path / "mv.json"), str(tmp_path / "do2.json")
    commands = [
        ["catalog", "magri-veselov", "--out", mv],
        ["verify", mv, "--out", str(tmp_path / "mv-report.json")],
        ["catalog", "das-okubo", "--n", "2", "--out", do2],
        ["table", do2, "--kmax", "3", "--out", str(tmp_path / "do2-table.json")],
    ]
    proc = run_python(["-c", OPENSSL_PROBE, json.dumps(commands)])
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes[0] == codes[2] == 0
    assert codes[1] in (0, 1) and codes[3] in (0, 1)
    assert loaded == []


VERDICT_ARGS = types.SimpleNamespace(
    command="verify", seed=42, samples=64, tol=1e-8, box="-1:1", kmax=5, resample_limit=1024
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    raw=hst.one_of(
        hst.binary(max_size=300),
        # past 64 KiB, a multiple of SHA-256's 64-byte block or not
        hst.tuples(hst.binary(min_size=1, max_size=65), hst.integers(0, 63)).map(
            lambda t: t[0] * (65536 // len(t[0]) + 1) + bytes(t[1])
        ),
    )
)
@example(raw=b"")
@example(raw=bytes(range(256)) * 256)
def test_the_input_digest_is_the_sha256_of_the_input_bytes(raw):
    st = structure_from_doc(MINIMAL, "<mem>")
    meta = _metadata(VERDICT_ARGS, raw, st, _plan_for(VERDICT_ARGS, st))
    assert meta["input_digest"] == "sha256:" + hashlib.sha256(raw).hexdigest()


# Without CPython's built-in SHA-256 modules, the digest comes from hashlib.
FALLBACK_PROBE = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from pqnverify import cli
import hashlib
code = cli.main(sys.argv[1:])
print(json.dumps([code, cli.sha256 is hashlib.sha256]))
"""


def test_a_build_without_builtin_sha256_writes_the_same_digest(tmp_path, capsys):
    path = write_structure(tmp_path, MINIMAL)
    out = tmp_path / "report.json"
    proc = run_python(["-c", FALLBACK_PROBE, "verify", path, "--suites", "poisson", "--out", str(out)])
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [0, True]
    code, builtin, _ = run_cli(["verify", path, "--suites", "poisson"], capsys)
    assert code == 0
    assert out.read_text(encoding="utf-8") == builtin
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert json.loads(builtin)["metadata"]["input_digest"] == f"sha256:{digest}"


def test_catalog_then_verify_round_trip(tmp_path, capsys):
    sf = tmp_path / "toda2.json"
    code, _, _ = run_cli(["catalog", "closed-toda", "--n", "2", "--out", str(sf)], capsys)
    assert code == 0
    code, out, _ = run_cli(["verify", str(sf), "--suites", "pqn,recursion"], capsys)
    assert code == 0
    report = json.loads(out)
    statuses = {c["status"] for c in report["checks"]}
    assert statuses == {"pass"}
    assert report["metadata"]["suites"] == ["pqn", "recursion"]


def test_consecutive_reports_are_byte_identical(tmp_path, capsys):
    sf = tmp_path / "toda2.json"
    run_cli(["catalog", "closed-toda", "--n", "2", "--out", str(sf)], capsys)
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    c1, _, _ = run_cli(["verify", str(sf), "--suites", "pqn", "--out", str(r1)], capsys)
    c2, _, _ = run_cli(["verify", str(sf), "--suites", "pqn", "--out", str(r2)], capsys)
    assert (c1, c2) == (0, 0)
    assert r1.read_bytes() == r2.read_bytes()


def test_table_command_reports_the_involutivity_grid(tmp_path, capsys):
    sf = tmp_path / "do2.json"
    run_cli(["catalog", "das-okubo", "--n", "2", "--out", str(sf)], capsys)
    code, out, _ = run_cli(["table", str(sf), "--kmax", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    table = report["involutivity_table"]
    assert table["kmax"] == 3
    grid = table["residuals"]
    assert len(grid) == 3 and all(len(row) == 3 for row in grid)
    for i in range(3):
        assert grid[i][i] == 0.0
        for j in range(3):
            assert grid[i][j] == grid[j][i] >= 0.0


def test_the_table_is_the_recursion_suites_report(tmp_path, capsys):
    # closed-toda n=3 is involutive, but its off-diagonal cells are
    # rounding residuals, nonzero and mostly distinct, so a cell read from
    # the wrong check shows
    sf = tmp_path / "ct3.json"
    run_cli(["catalog", "closed-toda", "--n", "3", "--out", str(sf)], capsys)
    flags = ["--kmax", "4", "--seed", "7", "--samples", "32"]
    code, out, _ = run_cli(["table", str(sf), *flags], capsys)
    assert code == 0
    table = json.loads(out)
    code, out, _ = run_cli(["verify", str(sf), "--suites", "recursion", *flags], capsys)
    assert code == 0
    report = json.loads(out)
    assert table["checks"] == report["checks"]
    # one command path: the metadata differ only in the command and the suites
    meta = dict(report["metadata"], command="table")
    assert meta.pop("suites") == ["recursion"]
    assert table["metadata"] == meta
    residuals = {c["name"]: c["max_scaled_residual"] for c in table["checks"]}
    grid = table["involutivity_table"]["residuals"]
    assert len(grid) == 4 and all(len(row) == 4 for row in grid)
    for i in range(1, 5):
        for j in range(1, 5):
            name = f"involutivity.pair[{min(i, j)},{max(i, j)}]"
            assert grid[i - 1][j - 1] == residuals[name]
            assert (grid[i - 1][j - 1] > 0.0) == (i != j)


def test_table_and_catalog_leave_only_zero_and_one_in_the_tables(tmp_path, capsys):
    # A process that runs many commands holds one command's nodes at a time.
    sf = tmp_path / "ct4.json"
    for argv in (["catalog", "closed-toda", "--n", "4", "--out", str(sf)], ["table", str(sf)]):
        assert main(argv) in (0, 1)
        assert set(expr._TABLE.values()) == {expr.ZERO, expr.ONE}
        assert not expr._DERIVED
        assert [len(column) for column in expr._TAPE] == expr._PINNED_TAPE
    capsys.readouterr()


def test_table_requires_the_operator(tmp_path, capsys):
    path = write_structure(tmp_path, MINIMAL)
    code, _, err = run_cli(["table", path], capsys)
    assert code == 2
    assert err == f"pqnverify: {path}: table needs a bivector and an endomorphism\n"


def test_catalog_writes_parseable_documents(tmp_path, capsys):
    code, out, _ = run_cli(["catalog", "magri-veselov"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["chart"] == {"dim": 3, "coords": ["x", "y", "z"]}
    assert "endomorphism" in doc


CHART2 = {"dim": 2, "coords": ["x", "y"]}


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ("{not json", "line 1"),
        (json.dumps({"chart": CHART2, "bivector": {"components": {"1,1": "1"}}}),
         "strictly increasing"),
        (json.dumps({"chart": CHART2, "bivector": {"components": {"1,2": "1 + * x"}}}),
         "offset 4"),
        (json.dumps({"chart": CHART2, "threeform": {"components": {}}}),
         "threeform"),
        (json.dumps({"chart": CHART2, "unexpected": 1}), "unexpected"),
        (json.dumps({"bivector": {"components": {}}}), "chart"),
        (json.dumps({"chart": CHART2, "scalars": {"mu": "1"}}), "unknown keys: mu"),
        (json.dumps({"chart": {"dim": 3, "coords": ["x", "y"]}}), "coords lists 2"),
        (json.dumps({"chart": {"dim": 1, "coords": ["x"]}, "twoform": {"components": {}}}),
         "twoform: needs a chart of dimension at least 2"),
        (json.dumps({"chart": {"dim": 2 * MAX_SITES + 1,
                               "coords": [f"x{i}" for i in range(2 * MAX_SITES + 1)]},
                     "bivector": {"components": {"1,2": "1"}}}),
         f"chart.dim must be at most {2 * MAX_SITES}, got {2 * MAX_SITES + 1}"),
        # str.isdigit() takes these digits, which int() and float() refuse
        *((json.dumps({"chart": CHART2, "bivector": {"components": {"1,2": entry}}}),
           "unexpected character") for entry in ["²", "x^²", "2²", "٣"]),
        # each reader's error paths, with the whole message line
        *((json.dumps({"chart": CHART2, **blocks}), f"pqnverify: {line}\n") for blocks, line in [
            ({"bivector": 5}, "bivector: expected an object"),
            ({"vectorfield": {"foo": 1}}, "vectorfield: unknown keys: foo"),
            ({"endomorphism": {"components": {"1": "x"}}},
             "endomorphism: key '1' needs 2 comma-separated indices"),
            ({"vectorfield": {"components": {"1,2": "x"}}},
             "vectorfield: key '1,2' needs 1 comma-separated indices"),
            ({"bivector": {"components": {"1,a": "x"}}},
             "bivector: key '1,a' is not a list of integers"),
            ({"endomorphism": {"components": {"3,1": "x"}}},
             "endomorphism: index 3 out of range 1..2 in key '3,1'"),
            ({"oneform": {"components": {"1": 3}}},
             "oneform.components['1']: expected an expression string"),
            ({"volume": {}}, "volume: expected an object with a coeff entry"),
            ({"chain": []}, "chain: expected a non-empty list of endomorphism blocks"),
            ({"chain": [{"components": {}}, 7]}, "chain[1]: expected an object"),
            # blocks are read in a fixed order, whatever the file's order
            ({"chain": [{"components": {"1": "x"}}],
              "vectorfield": {"components": {"9": "x"}},
              "bivector": {"components": {"2,1": "x"}}},
             "bivector: key '2,1' must be strictly increasing"),
        ]),
    ],
)
def test_malformed_inputs_exit_two(tmp_path, capsys, payload, fragment):
    path = tmp_path / "bad.json"
    path.write_text(payload, encoding="utf-8")
    code, out, err = run_cli(["verify", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("pqnverify:")
    assert err.count("\n") == 1
    assert fragment in err


def test_residuals_of_opposite_huge_sides_do_not_overflow(tmp_path):
    # N - lam I is 3e308 at every point, past the largest double, while
    # the scaled residual is exactly 2.
    doc = dict(
        MINIMAL,
        endomorphism={"components": {"1,1": "1.5e308"}},
        scalars={"lambda": "-1.5e308"},
        vectorfield={"components": {}},
    )
    path = write_structure(tmp_path, doc)
    proc = run_cli_process(["verify", path, "--suites", "3d", "--tol", "3"])
    assert proc.stderr == ""
    assert proc.returncode == 0
    checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
    assert checks["3d.decomposition"]["max_scaled_residual"] == 2.0
    assert {c["status"] for c in checks.values()} == {"pass"}


def test_a_vanishing_dual_form_is_probed_in_one_evaluation(tmp_path, capsys, monkeypatch):
    # The zero bivector makes xi vanish everywhere, so every probe point of
    # reconstruct_decomposition is unusable and minpoly is skipped.
    from pqnverify import verify

    calls = []
    original = verify.evaluate_batch

    def counting(exprs, pts):
        calls.append(pts.shape)
        return original(exprs, pts)

    monkeypatch.setattr(verify, "evaluate_batch", counting)
    doc = {
        "chart": {"dim": 3, "coords": ["x", "y", "z"]},
        "volume": {"coeff": "1"},
        "bivector": {"components": {}},
        "endomorphism": {"components": {"1,1": "x", "2,2": "y"}},
    }
    path = write_structure(tmp_path, doc)
    code, out, err = run_cli(["verify", path, "--suites", "minpoly"], capsys)
    assert (code, err) == (0, "")
    # the digest of the report the point-at-a-time probe wrote
    digest = "6923b57fe698b01ea765ae6f800204fc1ac8d1c43d328d594b168c7fd2f707f8"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert calls == [(64 + 1024, 3)]


def test_unknown_suite_exits_two(tmp_path, capsys):
    path = write_structure(tmp_path, MINIMAL)
    code, _, err = run_cli(["verify", path, "--suites", "poisson,bogus"], capsys)
    assert code == 2
    assert err == f"pqnverify: unknown suites: bogus; available: {', '.join(SUITES)}\n"


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["verify", "PATH", "--samples", "abc"], "argument --samples: invalid int value: 'abc'"),
        (["table", "PATH", "--tol", "small"], "argument --tol: invalid float value"),
        (["verify", "PATH", "--seed", "9" * 5000], "argument --seed: invalid int value: '999"),
        (["catalog", "closed-toda", "--n", "two"], "argument --n: invalid int value: 'two'"),
        (["verify"], "the following arguments are required: file"),
        (["verify", "PATH", "--bogus", "a\nb"], "unrecognized arguments: --bogus a b"),
    ],
)
def test_malformed_flags_exit_two_in_one_short_line(tmp_path, capsys, argv, fragment):
    path = write_structure(tmp_path, MINIMAL)
    code, out, err = run_cli([path if a == "PATH" else a for a in argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith("pqnverify: " + fragment)
    assert err.count("\n") == 1 and len(err) <= len("pqnverify: ") + 121


def test_small_kmax_exits_two(tmp_path, capsys):
    path = write_structure(tmp_path, MINIMAL)
    code, _, err = run_cli(["table", path, "--kmax", "1"], capsys)
    assert code == 2
    assert "kmax must be at least 2" in err


@pytest.mark.parametrize("command", ["verify", "table"])
def test_bad_boxes_exit_two(tmp_path, capsys, command):
    # the interval rules and their messages are SamplePlan's
    path = write_structure(tmp_path, dict(MINIMAL, endomorphism={"components": {"3,3": "z"}}))
    suites = ["--suites", "poisson"] if command == "verify" else []
    for box, line in [
        ("2:1", "empty box interval [2.0, 1.0]"),
        ("0:1,0:2", "box must give one interval per coordinate"),
        ("zero:one", "bad box 'zero:one': non-numeric bound"),
        ("nan:1", "box bounds must be finite, got [nan, 1.0]"),
    ]:
        code, out, err = run_cli([command, path, *suites, "--box", box], capsys)
        assert (code, out) == (2, ""), box
        assert err == f"pqnverify: {line}\n"


def test_box_parsing_broadcasts_and_splits():
    st = structure_from_doc(MINIMAL, "<mem>")

    def box(text):
        return _plan_for(types.SimpleNamespace(**{**vars(VERDICT_ARGS), "box": text}), st).box

    assert _parse_box("0:1") == (0.0, 1.0)
    assert box("0:1") == ((0.0, 1.0),) * 3
    split = ((-1.0, 1.0), (0.0, 2.0), (3.0, 4.0))
    assert _parse_box("-1:1,0:2,3:4") == box("-1:1,0:2,3:4") == split
    with pytest.raises(InputError):
        box("0:1,2:3")


def test_unknown_catalog_name_exits_two(capsys):
    code, _, err = run_cli(["catalog", "toda"], capsys)
    assert code == 2
    assert "unknown catalog name" in err


@pytest.mark.parametrize(
    "args,pname",
    [
        (["das-okubo", "--lam", "x"], "lam"),
        (["closed-toda", "--n", "2", "--b", "y"], "b"),
        (["magri-veselov", "--n", "3"], "n"),
        (["magri-veselov", "--g", "z"], "g"),
        (["r3-recipe", "--n", "2", "--lam", "z", "--a", "y", "--g", "0"], "n"),
        (["prop-local", "--n", "2", "--lam", "z", "--a", "y", "--g", "0"], "n"),
    ],
)
def test_a_parameter_the_catalog_entry_does_not_take_exits_two(tmp_path, capsys, args, pname):
    out_file = tmp_path / "entry.json"
    code, out, err = run_cli(["catalog", *args, "--out", str(out_file)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"pqnverify: {args[0]} does not take the parameter {pname}\n"
    assert not out_file.exists()


def test_stdin_dash_reads_a_structure(monkeypatch, capsys):
    payload = json.dumps(MINIMAL).encode("utf-8")
    monkeypatch.setattr(
        "sys.stdin", types.SimpleNamespace(buffer=io.BytesIO(payload))
    )
    code, out, _ = run_cli(["verify", "-", "--suites", "poisson"], capsys)
    assert code == 0
    assert json.loads(out)["metadata"]["structure_name"] == ""


def test_sampling_flags_reach_the_report(tmp_path, capsys):
    path = write_structure(tmp_path, MINIMAL)
    code, out, _ = run_cli(
        [
            "verify",
            path,
            "--suites",
            "poisson",
            "--seed",
            "7",
            "--samples",
            "16",
            "--tol",
            "1e-6",
            "--box=-2:2",
        ],
        capsys,
    )
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert meta["seed"] == 7
    assert meta["samples"] == 16
    assert meta["tol"] == 1e-06
    assert meta["box"] == [[-2.0, 2.0]] * 3


def test_output_files_end_with_a_newline(tmp_path, capsys):
    path = write_structure(tmp_path, MINIMAL)
    out_path = tmp_path / "report.json"
    run_cli(["verify", path, "--suites", "poisson", "--out", str(out_path)], capsys)
    text = out_path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert not text.endswith("\n\n")


@pytest.mark.parametrize("command", ["verify", "table"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_bad_tolerances_exit_two(tmp_path, capsys, command, tol):
    sf = tmp_path / "toda2.json"
    run_cli(["catalog", "closed-toda", "--n", "2", "--out", str(sf)], capsys)
    code, out, err = run_cli([command, str(sf), f"--tol={tol}"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("pqnverify: tol must be a finite positive number")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "table"])
@pytest.mark.parametrize("box", ["0:inf", "-inf:0"])
def test_infinite_boxes_exit_two(tmp_path, capsys, command, box):
    sf = tmp_path / "toda2.json"
    run_cli(["catalog", "closed-toda", "--n", "2", "--out", str(sf)], capsys)
    code, out, err = run_cli([command, str(sf), f"--box={box}"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("pqnverify: box bounds must be finite")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_a_box_wider_than_a_float_holds_exits_two(tmp_path, capsys):
    # Each bound is finite but hi - lo overflows: the points would be
    # sampled outside the box, and residuals at infinite points reported.
    sf = tmp_path / "mv.json"
    run_cli(["catalog", "magri-veselov", "--out", str(sf)], capsys)
    code, out, err = run_cli(
        ["verify", str(sf), "--box=-1.7e308:1.7e308", "--suites", "chain"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("pqnverify: box interval [-1.7e+308, 1.7e+308] is wider than")
    assert err.count("\n") == 1


def test_a_structure_file_with_a_one_member_chain_exits_zero(tmp_path, capsys):
    # The file keeps its endomorphism, which a chain of N_0 alone does not
    # reach: its first terms are N_0 = I only.
    sf = tmp_path / "mv.json"
    run_cli(["catalog", "magri-veselov", "--out", str(sf)], capsys)
    doc = json.loads(sf.read_text(encoding="utf-8"))
    doc["chain"] = doc["chain"][:1]
    path = write_structure(tmp_path, doc, "mv1.json")
    code, out, err = run_cli(["verify", path, "--suites", "chain"], capsys)
    assert (code, err) == (0, "")
    assert [c["name"] for c in json.loads(out)["checks"]] == [
        "chain.C0_first_terms",
        "chain.C3_theta_closed[0]",
        "chain.product_closed[0,0]",
    ]


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"chart": {"dim": 3, "coords": ["x", "y", "z"]},
                    "bivector": {"components": {"1,2": "x^" + "9" * 5000}}}),
        '{"chart": {"dim": ' + "9" * 5000 + ', "coords": []}}',
    ],
    ids=["exponent", "chart-dim"],
)
def test_integer_literals_past_the_digit_limit_exit_two(tmp_path, capsys, text):
    # int() refuses more than 4,300 digits with a ValueError, which must not
    # escape as a traceback and exit 1.
    path = tmp_path / "structure.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["verify", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("pqnverify: ")
    assert err.count("\n") == 1


def test_leading_zeros_do_not_count_toward_the_exponent_limit(tmp_path, capsys):
    reports = []
    for exponent in ["2", "0" * 5000 + "2"]:
        doc = {"chart": {"dim": 3, "coords": ["x", "y", "z"]},
               "bivector": {"components": {"1,2": "x^" + exponent}}}
        code, out, err = run_cli(["verify", write_structure(tmp_path, doc)], capsys)
        assert code in (0, 1)
        assert err == ""
        reports.append(json.loads(out)["checks"])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["verify", "table", "catalog"])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_an_unwritable_out_exits_two(tmp_path, capsys, command, where):
    sf = tmp_path / "toda2.json"
    run_cli(["catalog", "closed-toda", "--n", "2", "--out", str(sf)], capsys)
    target = tmp_path / "absent" / "r.json" if where == "missing-dir" else tmp_path
    args = ["closed-toda", "--n", "2"] if command == "catalog" else [str(sf), "--kmax", "2"]
    code, out, err = run_cli([command, *args, "--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"pqnverify: cannot write {target}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "table"])
@pytest.mark.parametrize("flag", ["--samples", "--resample-limit"])
@pytest.mark.parametrize("value", [MAX_POINTS + 1, 10**12])
def test_oversized_point_counts_exit_two(tmp_path, capsys, command, flag, value):
    # The structure file does not exist: the bound is checked before the
    # input is read, so nothing is ever sampled at these sizes.
    absent = str(tmp_path / "absent.json")
    code, out, err = run_cli([command, absent, flag, str(value)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"pqnverify: {flag[2:]} must be at most {MAX_POINTS}, got {value}\n"


@pytest.mark.parametrize("command", ["verify", "table"])
@pytest.mark.parametrize("value", [MAX_KMAX + 1, 10**12])
def test_oversized_kmax_exits_two(tmp_path, capsys, command, value):
    # As above: the structure file does not exist, so the bound fires
    # before anything is read or built.
    absent = str(tmp_path / "absent.json")
    code, out, err = run_cli([command, absent, "--kmax", str(value)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"pqnverify: kmax must be at most {MAX_KMAX}, got {value}\n"


def test_largest_kmax_is_accepted(tmp_path, capsys):
    path = write_structure(tmp_path, MINIMAL)
    code, _, err = run_cli(
        ["verify", path, "--suites", "poisson", "--kmax", str(MAX_KMAX)], capsys
    )
    assert code == 0, err


@pytest.mark.parametrize("name", ["das-okubo", "closed-toda"])
@pytest.mark.parametrize("value", [MAX_SITES + 1, 10**6, 10**12])
def test_oversized_lattices_exit_two(tmp_path, capsys, name, value):
    out_file = tmp_path / "lattice.json"
    code, out, err = run_cli(
        ["catalog", name, "--n", str(value), "--out", str(out_file)], capsys
    )
    assert code == 2
    assert out == ""
    assert err == f"pqnverify: n must be at most {MAX_SITES}, got {value}\n"
    assert not out_file.exists()


def _sum_of_products(terms: int) -> str:
    return "+".join(["x*y"] * terms)


@pytest.mark.parametrize(
    "component",
    ["(" * 3000 + "x" + ")" * 3000, _sum_of_products(5000)],
    ids=["3000-parentheses", "5000-term-sum"],
)
def test_deeply_nested_input_exits_two(tmp_path, component):
    doc = dict(MINIMAL, bivector={"components": {"1,2": component}})
    path = write_structure(tmp_path, doc)
    proc = run_cli_process(["verify", path])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "pqnverify: input nested too deeply\n"


@pytest.mark.parametrize("opener", ["(", "sin("])
def test_the_nesting_limit_holds_whatever_the_recursion_limit(tmp_path, capsys, opener):
    # The parser counts its own depth: a raised recursion limit (Hypothesis
    # raises it too) must not let deeper input through.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        results = []
        for depth in (150, 151):  # the parser's limit and one level more
            component = opener * depth + "x" + ")" * depth
            doc = dict(MINIMAL, bivector={"components": {"1,2": component}})
            results.append(run_cli(["verify", write_structure(tmp_path, doc)], capsys))
    finally:
        sys.setrecursionlimit(limit)
    (code, out, err), past = results
    assert (code, err) == (0, "")
    assert {c["status"] for c in json.loads(out)["checks"]} <= {"pass", "skipped"}
    assert past == (2, "", "pqnverify: input nested too deeply\n")


@pytest.mark.parametrize(
    "name, lam, where, b",
    [
        ("r3-recipe", "z*x^1000000000", ("vectorfield", "2"), "x^1000000000*y"),
        ("r3-recipe", "z*x^1000", ("vectorfield", "2"), "x^1000*y"),
        ("prop-local", "z*x^1000000000", ("twoform", "1,3"), "-(x^1000000000*y)"),
        ("r3-recipe", "z*(y+1)^20000", None, None),
        ("prop-local", "z*(y+1)^20000", None, None),
    ],
    ids=["r3-x-power", "r3-x-power-1000", "prop-local-x-power", "r3-y-degree", "prop-local-y-degree"],
)
def test_catalog_recipes_with_large_powers_end(name, lam, where, b):
    # A power of x is one coefficient of the y-polynomial, not a product
    # expanded factor by factor; a y-degree past the cap asks for b.
    proc = run_python(
        ["-m", "pqnverify", "catalog", name, "--lam", lam, "--a", "0", "--g", "0"], timeout=30
    )
    if b is None:
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "pqnverify: lam_z - a_x has degree over 300 in y; supply an explicit b\n"
        )
    else:
        assert (proc.returncode, proc.stderr) == (0, "")
        block, key = where
        assert json.loads(proc.stdout)[block]["components"][key] == b


def test_a_400_term_sum_still_verifies(tmp_path, capsys):
    doc = dict(MINIMAL, bivector={"components": {"1,2": _sum_of_products(400)}})
    path = write_structure(tmp_path, doc)
    code, out, _ = run_cli(["verify", path, "--suites", "poisson"], capsys)
    assert code == 0
    assert {c["status"] for c in json.loads(out)["checks"]} == {"pass"}
