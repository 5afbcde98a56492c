"""Hypothesis fuzzing of `pqnverify verify` on generated structure documents.

Every document the CLI is handed ends in exit 0 or 1 with a report, or in
exit 2 with a one-line message; nothing escapes as an exception, which on
the command line would be a traceback.  Documents are kept small (charts
of at most three coordinates, short expressions) so a run stays quick.
"""

import contextlib
import io
import json
import os
import tempfile

import hypothesis.strategies as st
from hypothesis import HealthCheck, assume, example, given, settings

from pqnverify.cli import _emit, main

NAMES = ["x", "y", "z"]


def rare(draw, n: int) -> bool:
    """True about once in n draws.  The trigger is a middle value because
    Hypothesis favours the bounds of an integer range."""
    return draw(st.integers(1, n)) == n // 2


CONSTANTS = ["1", "2.5", "-3", "0"]
BROKEN = ["w", "1e308", "1e-300", "exp", "(", "x^", "1/0", "x^-1"]


@st.composite
def well_formed(draw, dim, depth=2):
    """Short expression text over the chart's coordinates."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(NAMES[:dim] + CONSTANTS))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
        return f"{draw(well_formed(dim, depth - 1))}{op}{draw(well_formed(dim, depth - 1))}"
    if kind == 1:
        fn = draw(st.sampled_from(["exp", "log", "sin", "cos", "sqrt"]))
        return f"{fn}({draw(well_formed(dim, depth - 1))})"
    return f"({draw(well_formed(dim, depth - 1))})^{draw(st.integers(0, 40))}"


@st.composite
def expressions(draw, dim):
    """Mostly well formed; one in twenty is broken or out of the chart."""
    if not rare(draw, 20):
        return draw(well_formed(dim))
    if draw(st.booleans()):
        return draw(st.sampled_from(BROKEN))
    return draw(st.text(alphabet="xyz0123456789+-*/^().e ", max_size=8))


@st.composite
def keys(draw, size, dim):
    """Component keys: mostly in range and increasing, sometimes not."""
    if size <= dim and not rare(draw, 10):
        picked = draw(st.lists(st.integers(1, dim), min_size=size, max_size=size, unique=True))
        return ",".join(map(str, sorted(picked)))
    if draw(st.booleans()):
        return draw(st.sampled_from(["", "a", "1,,2"]))
    return ",".join(str(draw(st.integers(0, dim + 1))) for _ in range(size))


def components(size, dim):
    entries = st.dictionaries(keys(size, dim), expressions(dim), min_size=1, max_size=3)
    return st.fixed_dictionaries({"components": entries})


def blocks(dim, oversized):
    """The optional blocks of a structure document for a chart of dim
    coordinates; forms above the chart's dimension only if oversized."""
    out = {
        "name": st.text(max_size=4),
        "volume": st.fixed_dictionaries({"coeff": expressions(dim)}),
        "endomorphism": components(2, dim),
        "oneform": components(1, dim),
        "scalars": st.fixed_dictionaries({"lambda": expressions(dim)}),
        "vectorfield": components(1, dim),
        "chain": st.lists(components(2, dim), min_size=1, max_size=2),
    }
    for block, degree in (("bivector", 2), ("twoform", 2), ("threeform", 3)):
        if degree <= dim or oversized:
            out[block] = components(degree, dim)
    return out


@st.composite
def documents(draw):
    dim = draw(st.sampled_from([3, 3, 2, 1]))  # mostly the paper's 3d charts
    chart = {"dim": dim, "coords": NAMES[:dim]}
    if rare(draw, 10):  # a broken chart
        chart = draw(
            st.sampled_from(
                [
                    {"dim": dim, "coords": NAMES[: dim - 1] + ["exp"]},
                    {"dim": dim, "coords": ["x"] * dim},
                    {"dim": dim, "coords": NAMES[: dim - 1]},
                    {"dim": 0, "coords": []},
                    {"dim": "3", "coords": NAMES},
                ]
            )
        )
    doc = {"chart": chart}
    available = blocks(dim, rare(draw, 10))
    picked = st.lists(st.sampled_from(sorted(available)), min_size=2, max_size=6, unique=True)
    for block in draw(picked):
        value = draw(available[block])
        doc[block] = [value] if rare(draw, 20) else value
    if rare(draw, 30):
        del doc["chart"]
    if rare(draw, 30):
        doc["stray"] = 0
    return doc


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(documents())
# A constant power that overflows a float once raised OverflowError while
# the expression was built.
@example(
    {
        "chart": {"dim": 3, "coords": ["x", "y", "z"]},
        "bivector": {"components": {"1,2": "x"}},
        "chain": [{"components": {"1,3": "x", "1,2": "((2.5)^21)^37"}}],
    }
)
def test_verify_exits_cleanly_on_generated_documents(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "structure.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("pqnverify: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        report = json.loads(out.getvalue())
        assert (code == 1) == any(c["status"] == "fail" for c in report["checks"])


# Sampling flags on a small 3d structure with the cheap poisson suite.
# The bivector holds a drawn exponent literal (EXPONENT below), and
# the chart's dim is sometimes an integer literal too long for int().  The
# bivector is Poisson unless its (1,3) entry is y.
FLAG_DOC = (
    '{"chart": {"dim": %s, "coords": ["x", "y", "z"]}, "volume": {"coeff": "1"},'
    ' "bivector": {"components": {"1,2": "x^%s", "1,3": "%s", "2,3": "z"}}}'
)
BOUND = st.one_of(
    st.floats(-10, 10), st.floats(-1.7e308, 1.7e308, allow_nan=False, allow_infinity=False)
)


@st.composite
def intervals(draw):
    """One lo:hi interval, broadcast, or one per coordinate; mostly with
    lo < hi, each bound anywhere up to about the largest float."""
    count = 3 if draw(st.booleans()) else 1
    if rare(draw, 10):
        count = 2
    box = [tuple(sorted(draw(st.tuples(BOUND, BOUND)))) for _ in range(count)]
    if rare(draw, 10):
        box[0] = box[0][::-1]
    return box


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# An exponent literal: ASCII digits, possibly zero-padded or past int()'s
# 4,300-digit limit, or a short run that mixes in digits int() refuses.
EXPONENT = st.one_of(
    st.builds(
        lambda zeros, nines: "0" * zeros + "9" * nines,
        st.sampled_from([0] * 6 + [400, 5000]),
        st.one_of(st.integers(1, 3), st.integers(1, 5000)),
    ),
    st.text(alphabet="0129\u00b2\u00b3\u0663", min_size=1, max_size=3),
)


def _refused(convert):
    def refused(text):
        try:
            convert(text)
        except ValueError:
            return True
        return False

    return refused


# Candidate bad flag values: short runs of mostly digit-like text (int()
# takes some non-ASCII digits and surrounding spaces), or a literal past
# int()'s 4,300-digit limit, which must not be echoed in full.
UNPARSEABLE = st.one_of(st.text(alphabet="09.e-x _\u0663\n", max_size=6), st.just("9" * 5000))
REFUSED_INT = UNPARSEABLE.filter(_refused(int))


@st.composite
def int_flags(draw, ints):
    """A flag value: mostly one of ints, sometimes text int() refuses."""
    return draw(REFUSED_INT) if rare(draw, 10) else draw(ints)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    box=intervals(),
    samples=int_flags(st.integers(-2, 200)),
    seed=int_flags(st.integers(-(2**70), 2**70)),
    resample_limit=int_flags(st.integers(-2, 2000)),
    exponent=EXPONENT,
    dim_digits=st.sampled_from([0] * 9 + [5000]),
    poisson=st.booleans(),
)
@example(box=[(-1.7e308, 1.7e308)], samples=64, seed=42, resample_limit=1024,
         exponent="9", dim_digits=0, poisson=True)
@example(box=[(-1.0, 1.0)], samples=64, seed=42, resample_limit=1024,
         exponent="9" * 5000, dim_digits=0, poisson=True)
@example(box=[(-1.0, 1.0)], samples=64, seed=42, resample_limit=1024,
         exponent="9", dim_digits=5000, poisson=True)
@example(box=[(-1.0, 1.0)], samples=64, seed=42, resample_limit=1024,
         exponent="0" * 5000 + "2", dim_digits=0, poisson=True)
@example(box=[(-1.0, 1.0)], samples=64, seed=42, resample_limit=1024,
         exponent="\u00b2", dim_digits=0, poisson=True)
@example(box=[(-1.0, 1.0)], samples="abc", seed="9" * 5000, resample_limit=1024,
         exponent="9", dim_digits=0, poisson=True)
def test_sampling_flags_and_long_literals_exit_cleanly(
    box, samples, seed, resample_limit, exponent, dim_digits, poisson
):
    dim = "9" * dim_digits if dim_digits else "3"
    text = FLAG_DOC % (dim, exponent, "0" if poisson else "y")
    flags = [
        "--box=" + ",".join(f"{lo!r}:{hi!r}" for lo, hi in box),
        f"--samples={samples}",
        f"--seed={seed}",
        f"--resample-limit={resample_limit}",
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "structure.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", path, "--suites", "poisson", *flags])
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("pqnverify: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert code in (0, 1)
        assert err.getvalue() == ""
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert (code == 1) == any(c["status"] == "fail" for c in report["checks"])


def _exits_cleanly(argv) -> int:
    """Exit 0 with a JSON document on stdout, or 2 with one short line on
    stderr; returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("pqnverify: ")
        assert err.getvalue().count("\n") == 1
        assert len(err.getvalue()) < 200
    else:
        assert code == 0 and err.getvalue() == ""
        json.loads(out.getvalue())
    return code


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(["closed-toda", "das-okubo", "r3-recipe", "magri-veselov", "toda"]),
    n=st.one_of(st.none(), int_flags(st.integers(-2, 5))),
    lam=st.one_of(st.none(), expressions(3)),
    g=st.one_of(st.none(), expressions(3)),
)
@example(name="closed-toda", n="x" * 5000, lam=None, g=None)
def test_catalog_flags_exit_cleanly(name, n, lam, g):
    argv = ["catalog", name]
    for flag, value in (("--n", n), ("--lam", lam), ("--g", g)):
        if value is not None:
            argv.append(f"{flag}={value}")
    _exits_cleanly(argv)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    command=st.sampled_from(["verify", "table"]),
    flag=st.sampled_from(["--seed", "--samples", "--kmax", "--resample-limit", "--tol"]),
    text=UNPARSEABLE,
)
def test_unparseable_sampling_flags_exit_two(command, flag, text):
    assume(_refused(float if flag == "--tol" else int)(text))
    # the flag is refused before the file is read
    assert _exits_cleanly([command, "unread.json", f"{flag}={text}"]) == 2


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=st.text(st.characters(exclude_categories=())))
@example(text='"\\\n\t\x00\x7f')
@example(text="é² \U0001f600")
@example(text="\ud800 and \udfff alone")
def test_report_strings_are_written_as_json_dumps_writes_them(text):
    # The golden digests pin report bytes that json.dumps wrote, with its
    # default ASCII escapes, for every string and every key.
    assert _emit(text) == json.dumps(text)
    assert _emit({text: None}) == "{\n  " + json.dumps(text) + ": null\n}"
