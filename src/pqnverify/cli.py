"""Command line front end.

Three subcommands: ``verify`` runs check suites against a structure file
and prints a report document, ``catalog`` writes a named example as a
structure file, ``table`` prints the involutivity table of the trace
invariants.  Report documents are deterministic byte for byte at fixed
inputs and flags: no timestamps, floats at 17 significant digits, checks
sorted by name.

Exit codes: 0 all non-skipped checks pass, 1 at least one failed,
2 malformed input (bad file, bad expression, bad flag combination).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from .catalog import by_name
from .expr import Chart, ExprError, clear_tables, is_zero, parse, sample_plan, to_string, ZERO
from .fields import Bivector, Endomorphism, KForm, Structure, VectorField
from .verify import SUITES, CheckReport, run_suites, verify_recursion_involutivity

SCHEMA_VERSION = 1

# Upper bound on --samples and on --resample-limit: every check holds its
# point cloud, and one value per point for each expression node it
# evaluates, in memory at once.
MAX_POINTS = 65_536
# Upper bound on --kmax: the invariant and recursion checks build
# endomorphism powers up to this order.
MAX_KMAX = 32
# Upper bound on catalog --n: a lattice of n sites has a 2n-coordinate
# chart and a dense 2n x 2n endomorphism; twice it bounds chart.dim.
MAX_SITES = 64

_BLOCKS = (
    "chart",
    "name",
    "volume",
    "bivector",
    "endomorphism",
    "threeform",
    "twoform",
    "oneform",
    "scalars",
    "vectorfield",
    "chain",
)


class InputError(Exception):
    """Anything wrong with the command input; mapped to exit code 2."""


# Longest parser message printed; a longer one (a long flag value) is cut.
_PARSER_MESSAGE_CHARS = 120


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are input errors: one line, without
    the usage, and a long value cut short."""

    def error(self, message):
        text = " ".join(message.split())
        if len(text) > _PARSER_MESSAGE_CHARS:
            text = text[:_PARSER_MESSAGE_CHARS - 3] + "..."
        raise InputError(text)


# ---------------------------------------------------------------------------
# structure files


def _load_document(raw: bytes, source: str) -> dict:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{source}: not valid UTF-8 ({exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{source}: {exc.msg} (line {exc.lineno} column {exc.colno})"
        ) from exc
    except ValueError as exc:  # an integer literal past int()'s digit limit
        raise InputError(f"{source}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{source}: top level must be an object")
    return doc


def _expr(chart: Chart, value, where: str):
    if not isinstance(value, str):
        raise InputError(f"{where}: expected an expression string")
    try:
        return parse(value, chart)
    except ExprError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _components_of(block, where: str) -> dict:
    if not isinstance(block, dict):
        raise InputError(f"{where}: expected an object")
    stray = sorted(set(block) - {"components"})
    if stray:
        raise InputError(f"{where}: unknown keys: {', '.join(stray)}")
    comps = block.get("components", {})
    if not isinstance(comps, dict):
        raise InputError(f"{where}.components: expected an object")
    return comps


def _indices(key: str, size: int, dim: int, where: str, increasing: bool):
    parts = key.split(",")
    if len(parts) != size:
        raise InputError(f"{where}: key {key!r} needs {size} comma-separated indices")
    try:
        nums = [int(p.strip()) for p in parts]
    except ValueError:
        raise InputError(f"{where}: key {key!r} is not a list of integers") from None
    for v in nums:
        if not 1 <= v <= dim:
            raise InputError(f"{where}: index {v} out of range 1..{dim} in key {key!r}")
    if increasing and any(nums[i] >= nums[i + 1] for i in range(len(nums) - 1)):
        raise InputError(f"{where}: key {key!r} must be strictly increasing")
    return tuple(v - 1 for v in nums)


def _form_from_doc(chart: Chart, block, degree: int, where: str) -> KForm:
    if degree > chart.dim:
        raise InputError(f"{where}: needs a chart of dimension at least {degree}")
    comps = {}
    raw = _components_of(block, where)
    for key in sorted(raw):
        idx = _indices(key, degree, chart.dim, where, increasing=True)
        comps[idx] = _expr(chart, raw[key], f"{where}.components[{key!r}]")
    return KForm(chart, degree, comps)


def _endomorphism_from_doc(chart: Chart, block, where: str) -> Endomorphism:
    dim = chart.dim
    rows = [[ZERO] * dim for _ in range(dim)]
    raw = _components_of(block, where)
    for key in sorted(raw):
        i, j = _indices(key, 2, dim, where, increasing=False)
        rows[i][j] = _expr(chart, raw[key], f"{where}.components[{key!r}]")
    return Endomorphism(chart, tuple(tuple(row) for row in rows))


def _vectorfield_from_doc(chart: Chart, block, where: str) -> VectorField:
    slots = [ZERO] * chart.dim
    raw = _components_of(block, where)
    for key in sorted(raw):
        (i,) = _indices(key, 1, chart.dim, where, increasing=False)
        slots[i] = _expr(chart, raw[key], f"{where}.components[{key!r}]")
    return VectorField(chart, tuple(slots))


def structure_from_doc(doc: dict, source: str) -> Structure:
    stray = sorted(set(doc) - set(_BLOCKS))
    if stray:
        raise InputError(f"{source}: unknown blocks: {', '.join(stray)}")
    if "chart" not in doc:
        raise InputError(f"{source}: missing chart block")
    cblock = doc["chart"]
    if not isinstance(cblock, dict):
        raise InputError("chart: expected an object")
    dim = cblock.get("dim")
    coords = cblock.get("coords")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError("chart.dim: expected a positive integer")
    if dim > 2 * MAX_SITES:
        raise InputError(f"chart.dim must be at most {2 * MAX_SITES}, got {dim}")
    if not isinstance(coords, list) or not all(isinstance(c, str) for c in coords):
        raise InputError("chart.coords: expected a list of names")
    if len(coords) != dim:
        raise InputError(f"chart: dim is {dim} but coords lists {len(coords)} names")
    stray = sorted(set(cblock) - {"dim", "coords"})
    if stray:
        raise InputError(f"chart: unknown keys: {', '.join(stray)}")
    try:
        chart = Chart(tuple(coords))
    except ExprError as exc:
        raise InputError(f"chart: {exc}") from exc

    name = doc.get("name", "")
    if not isinstance(name, str):
        raise InputError("name: expected a string")

    volume = None
    if "volume" in doc:
        vblock = doc["volume"]
        if not isinstance(vblock, dict) or set(vblock) != {"coeff"}:
            raise InputError("volume: expected an object with a coeff entry")
        coeff = _expr(chart, vblock["coeff"], "volume.coeff")
        volume = KForm(chart, dim, {tuple(range(dim)): coeff})

    pi = None
    if "bivector" in doc:
        pi = Bivector(chart, _form_from_doc(chart, doc["bivector"], 2, "bivector").components)
    n = None
    if "endomorphism" in doc:
        n = _endomorphism_from_doc(chart, doc["endomorphism"], "endomorphism")
    phi = None
    if "threeform" in doc:
        phi = _form_from_doc(chart, doc["threeform"], 3, "threeform")
    omega = None
    if "twoform" in doc:
        omega = _form_from_doc(chart, doc["twoform"], 2, "twoform")
    theta = None
    if "oneform" in doc:
        theta = _form_from_doc(chart, doc["oneform"], 1, "oneform")

    lam = None
    if "scalars" in doc:
        sblock = doc["scalars"]
        if not isinstance(sblock, dict):
            raise InputError("scalars: expected an object")
        stray = sorted(set(sblock) - {"lambda"})
        if stray:
            raise InputError(f"scalars: unknown keys: {', '.join(stray)}")
        if "lambda" in sblock:
            lam = _expr(chart, sblock["lambda"], "scalars.lambda")

    z = None
    if "vectorfield" in doc:
        z = _vectorfield_from_doc(chart, doc["vectorfield"], "vectorfield")

    chain = None
    if "chain" in doc:
        cdoc = doc["chain"]
        if not isinstance(cdoc, list) or not cdoc:
            raise InputError("chain: expected a non-empty list of endomorphism blocks")
        chain = tuple(
            _endomorphism_from_doc(chart, entry, f"chain[{pos}]")
            for pos, entry in enumerate(cdoc)
        )

    return Structure(
        chart=chart,
        volume=volume,
        pi=pi,
        n=n,
        phi=phi,
        lam=lam,
        z=z,
        theta=theta,
        omega=omega,
        chain=chain,
        name=name,
    )


def _form_doc(form: KForm) -> dict:
    chart = form.chart
    comps = {}
    for key in sorted(form.components):
        label = ",".join(str(i + 1) for i in key)
        comps[label] = to_string(form.components[key], chart)
    return {"components": comps}


def _endo_doc(endo: Endomorphism) -> dict:
    chart = endo.chart
    comps = {}
    for i, row in enumerate(endo.matrix):
        for j, entry in enumerate(row):
            if not is_zero(entry):
                comps[f"{i + 1},{j + 1}"] = to_string(entry, chart)
    return {"components": comps}


def structure_to_doc(st: Structure) -> dict:
    """The structure as a JSON-ready document; loading it back reproduces
    the same fields up to expression spelling."""
    chart = st.chart
    doc: dict = {"chart": {"dim": chart.dim, "coords": list(chart.coord_names)}}
    if st.name:
        doc["name"] = st.name
    if st.volume is not None:
        doc["volume"] = {"coeff": to_string(st.volume.component(*range(chart.dim)), chart)}
    if st.pi is not None:
        doc["bivector"] = _form_doc(st.pi)
    if st.n is not None:
        doc["endomorphism"] = _endo_doc(st.n)
    if st.phi is not None:
        doc["threeform"] = _form_doc(st.phi)
    if st.omega is not None:
        doc["twoform"] = _form_doc(st.omega)
    if st.theta is not None:
        doc["oneform"] = _form_doc(st.theta)
    if st.lam is not None:
        doc["scalars"] = {"lambda": to_string(st.lam, chart)}
    if st.z is not None:
        comps = {}
        for i, entry in enumerate(st.z.components):
            if not is_zero(entry):
                comps[str(i + 1)] = to_string(entry, chart)
        doc["vectorfield"] = {"components": comps}
    if st.chain is not None:
        doc["chain"] = [_endo_doc(m) for m in st.chain]
    return doc


# ---------------------------------------------------------------------------
# report documents


def _fmt_float(v: float) -> str:
    text = format(v, ".17g")
    return text


def _emit(value, indent: str = "") -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)  # what json.dumps(value) returns
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f"{inner}{_emit(str(k))}: {_emit(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        rows = [f"{inner}{_emit(v, inner)}" for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + indent + "]"
    raise TypeError(f"cannot serialise {type(value).__name__}")


def emit_document(doc: dict) -> str:
    return _emit(doc) + "\n"


def _check_doc(report: CheckReport) -> dict:
    return {
        "name": report.name,
        "status": report.status,
        "max_scaled_residual": report.max_scaled_residual,
        "worst_point": None
        if report.worst_point is None
        else [float(c) for c in report.worst_point],
        "samples_used": report.samples_used,
        "tol": report.tol,
        "detail": report.detail,
    }


def report_document(checks, metadata: dict, table=None) -> dict:
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "metadata": metadata,
        "checks": [_check_doc(r) for r in sorted(checks, key=lambda r: r.name)],
    }
    if table is not None:
        doc["involutivity_table"] = table
    return doc


def _metadata(args, digest: str, st: Structure, box, suites=None) -> dict:
    meta = {
        "command": args.command,
        "input_digest": f"sha256:{digest}",
        "structure_name": st.name,
        "seed": args.seed,
        "samples": args.samples,
        "tol": args.tol,
        "box": [[lo, hi] for lo, hi in box],
        "kmax": args.kmax,
        "resample_limit": args.resample_limit,
    }
    if suites is not None:
        meta["suites"] = list(suites)
    return meta


# ---------------------------------------------------------------------------
# commands


def _read_input(path: str):
    if path == "-":
        return sys.stdin.buffer.read(), "<stdin>"
    try:
        with open(path, "rb") as fh:
            return fh.read(), path
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_output(text: str, out):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _parse_box(text, dim: int):
    if text is None:
        return tuple((-1.0, 1.0) for _ in range(dim))
    intervals = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise InputError(f"bad box {text!r}: expected lo:hi[,lo:hi...]")
        try:
            lo, hi = float(pieces[0]), float(pieces[1])
        except ValueError:
            raise InputError(f"bad box {text!r}: non-numeric bound") from None
        if not lo < hi:
            raise InputError(f"bad box {text!r}: empty interval {part!r}")
        intervals.append((lo, hi))
    if len(intervals) == 1:
        return tuple(intervals * dim)
    if len(intervals) != dim:
        raise InputError(
            f"box lists {len(intervals)} intervals for {dim} coordinates"
        )
    return tuple(intervals)


def _parse_suites(text):
    if text is None:
        return None
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise InputError("empty --suites")
    unknown = sorted(set(names) - set(SUITES))
    if unknown:
        raise InputError(
            "unknown suites: "
            + ", ".join(unknown)
            + "; available: "
            + ", ".join(SUITES)
        )
    return tuple(dict.fromkeys(names))


def _plan_for(args, st: Structure):
    box = _parse_box(args.box, st.chart.dim)
    try:
        plan = sample_plan(
            st.chart,
            box=box,
            count=args.samples,
            seed=args.seed,
            resample_limit=args.resample_limit,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return plan, box


def _check_flags(args):
    if args.kmax < 2:
        raise InputError("kmax must be at least 2")
    if args.kmax > MAX_KMAX:
        raise InputError(f"kmax must be at most {MAX_KMAX}, got {args.kmax}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise InputError(f"tol must be a finite positive number, got {args.tol}")
    if args.samples > MAX_POINTS:
        raise InputError(f"samples must be at most {MAX_POINTS}, got {args.samples}")
    if args.resample_limit > MAX_POINTS:
        raise InputError(
            f"resample-limit must be at most {MAX_POINTS}, got {args.resample_limit}"
        )


def _exit_code(checks) -> int:
    return 1 if any(c.status == "fail" for c in checks) else 0


def _cmd_verify(args) -> int:
    _check_flags(args)
    suites = _parse_suites(args.suites)
    raw, source = _read_input(args.file)
    st = structure_from_doc(_load_document(raw, source), source)
    plan, box = _plan_for(args, st)
    try:
        checks = run_suites(st, plan, args.tol, suites=suites, kmax=args.kmax)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    digest = hashlib.sha256(raw).hexdigest()
    meta = _metadata(args, digest, st, box, suites=suites or SUITES)
    _write_output(emit_document(report_document(checks, meta)), args.out)
    return _exit_code(checks)


def _cmd_table(args) -> int:
    _check_flags(args)
    raw, source = _read_input(args.file)
    st = structure_from_doc(_load_document(raw, source), source)
    if st.pi is None or st.n is None:
        raise InputError(f"{source}: table needs a bivector and an endomorphism")
    plan, box = _plan_for(args, st)
    result = verify_recursion_involutivity(st.pi, st.n, args.kmax, plan, args.tol)
    digest = hashlib.sha256(raw).hexdigest()
    meta = _metadata(args, digest, st, box)
    table = {"kmax": result.kmax, "residuals": [list(row) for row in result.table]}
    _write_output(
        emit_document(report_document(result.reports, meta, table=table)), args.out
    )
    return _exit_code(result.reports)


def _cmd_catalog(args) -> int:
    if args.n is not None and args.n > MAX_SITES:
        raise InputError(f"n must be at most {MAX_SITES}, got {args.n}")
    try:
        st = by_name(args.name, n=args.n, lam=args.lam, a=args.a, g=args.g, b=args.b)
    except (ValueError, ExprError) as exc:
        raise InputError(str(exc)) from exc
    _write_output(emit_document(structure_to_doc(st)), args.out)
    return 0


def _add_sampling_flags(sub):
    sub.add_argument("--seed", type=int, default=42, help="sampling seed")
    sub.add_argument("--samples", type=int, default=64, help="points per check")
    sub.add_argument("--tol", type=float, default=1e-8, help="scaled residual bound")
    sub.add_argument(
        "--box",
        default=None,
        help="sampling box, lo:hi broadcast or one lo:hi per coordinate",
    )
    sub.add_argument("--kmax", type=int, default=5, help="deepest invariant order")
    sub.add_argument(
        "--resample-limit",
        type=int,
        default=1024,
        help="extra points allowed to replace singular samples",
    )
    sub.add_argument("--out", default=None, help="write the document here, not stdout")


@functools.cache  # one parser per process; parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pqnverify",
        description="Seeded numerical verification of symbolic compatibility "
        "structures on coordinate charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run check suites against a structure file")
    pv.add_argument("file", help="structure file path, or - for stdin")
    pv.add_argument(
        "--suites",
        default=None,
        help="comma list from: " + ", ".join(SUITES) + " (default all)",
    )
    _add_sampling_flags(pv)

    pt = sub.add_parser("table", help="involutivity table of the trace invariants")
    pt.add_argument("file", help="structure file path, or - for stdin")
    _add_sampling_flags(pt)

    pc = sub.add_parser("catalog", help="write a named example structure file")
    pc.add_argument("name", help="catalog entry name")
    pc.add_argument("--n", type=int, default=None, help="lattice size")
    pc.add_argument("--lam", default=None, help="recipe function of x, y, z")
    pc.add_argument("--a", default=None, help="recipe function of x, y, z")
    pc.add_argument("--g", default=None, help="recipe function of z")
    pc.add_argument("--b", default=None, help="explicit y-antiderivative")
    pc.add_argument("--out", default=None, help="write the file here, not stdout")

    return parser


def main(argv=None) -> int:
    """Run one command, then empty the expression tables: a process that
    runs many commands holds the nodes of one at a time."""
    handlers = {"verify": _cmd_verify, "table": _cmd_table, "catalog": _cmd_catalog}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except InputError as exc:
        print(f"pqnverify: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("pqnverify: input nested too deeply", file=sys.stderr)
        return 2
    finally:
        clear_tables()


if __name__ == "__main__":
    sys.exit(main())
