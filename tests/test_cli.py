"""Command-line round trips, document schemas, and the exit-code contract."""

import hashlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from pqnverify.cli import (
    MAX_KMAX,
    MAX_POINTS,
    MAX_SITES,
    InputError,
    _parse_box,
    emit_document,
    main,
    structure_from_doc,
    structure_to_doc,
)
from pqnverify.catalog import RecipeInput, closed_toda, r3_recipe
from pqnverify import expr
from pqnverify.expr import Chart, constant, div, Coord

MINIMAL = {
    "chart": {"dim": 3, "coords": ["x", "y", "z"]},
    "bivector": {"components": {"1,2": "1"}},
    "volume": {"coeff": "1"},
}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cli_process(args):
    """The CLI in a fresh interpreter, so that anything written to stderr,
    warnings included, is seen."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pqnverify.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


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
    assert "pqnverify:" in err
    assert "bivector and an endomorphism" in err


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
    assert "bogus" in err


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


def test_bad_boxes_exit_two(tmp_path, capsys):
    path = write_structure(tmp_path, MINIMAL)
    for box in ("2:1", "0:1,0:2", "zero:one"):
        code, _, err = run_cli(
            ["verify", path, "--suites", "poisson", "--box", box], capsys
        )
        assert code == 2, box
        assert err.startswith("pqnverify:")


def test_box_parsing_broadcasts_and_splits():
    assert _parse_box("0:1", 3) == ((0.0, 1.0),) * 3
    assert _parse_box("-1:1,0:2,3:4", 3) == ((-1.0, 1.0), (0.0, 2.0), (3.0, 4.0))
    with pytest.raises(InputError):
        _parse_box("0:1,2:3", 3)


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


def test_a_400_term_sum_still_verifies(tmp_path, capsys):
    doc = dict(MINIMAL, bivector={"components": {"1,2": _sum_of_products(400)}})
    path = write_structure(tmp_path, doc)
    code, out, _ = run_cli(["verify", path, "--suites", "poisson"], capsys)
    assert code == 0
    assert {c["status"] for c in json.loads(out)["checks"]} == {"pass"}
