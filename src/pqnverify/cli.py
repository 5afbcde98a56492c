"""Command line front end.

Three subcommands: ``verify`` runs check suites against a structure file
and prints a report document, ``catalog`` writes a named example as a
structure file, ``table`` is the recursion suite's ``verify`` run plus
the involutivity table of the trace invariants, each cell (i, j) read
from its ``involutivity.pair[min(i,j),max(i,j)]`` check.  ``SamplePlan``
checks the box and ``run_suites`` the suite names.

The structure-file format lives in one table, ``_BLOCKS``: each block
after chart and name with the Structure member it holds, its reader and
its writer, so files are read and written from the same entries.

Report documents are deterministic byte for byte at fixed inputs and
flags: no timestamps, floats at 17 significant digits, checks sorted by
name, and the input identified by the SHA-256 of its bytes, computed with
CPython's built-in module so that a verdict does not load OpenSSL.

Exit codes: 0 all non-skipped checks pass, 1 at least one failed,
2 malformed input (bad file, bad expression, bad flag combination).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

try:  # CPython's own SHA-256: hashlib loads OpenSSL, 3.6 MB of peak RSS
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .catalog import by_name
from .expr import Chart, ExprError, SamplePlan, clear_tables, is_zero, parse, sample_plan, to_string, ZERO
from .fields import Bivector, Endomorphism, KForm, Structure, VectorField
from .verify import SUITES, CheckReport, run_suites

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


def _object(block, where: str, keys: set) -> dict:
    if not isinstance(block, dict):
        raise InputError(f"{where}: expected an object")
    stray = sorted(set(block) - keys)
    if stray:
        raise InputError(f"{where}: unknown keys: {', '.join(stray)}")
    return block


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


def _components(arity: int, increasing: bool, build):
    """The reader of a components block: keys of `arity` 1-based indices,
    strictly increasing for a form, read in key order into {0-based
    indices: expression}, from which build(chart, components=...) makes
    the member."""

    def read(chart: Chart, block, where: str):
        if increasing and arity > chart.dim:
            raise InputError(f"{where}: needs a chart of dimension at least {arity}")
        raw = _object(block, where, {"components"}).get("components", {})
        if not isinstance(raw, dict):
            raise InputError(f"{where}.components: expected an object")
        comps = {}
        for key in sorted(raw):
            idx = _indices(key, arity, chart.dim, where, increasing)
            comps[idx] = _expr(chart, raw[key], f"{where}.components[{key!r}]")
        return build(chart, components=comps)

    return read


def _write_components(chart: Chart, member) -> dict:
    """A form, an endomorphism or a vector field as a components block,
    without its structural zeros."""
    if isinstance(member, KForm):
        entries = member.components.items()
    elif isinstance(member, Endomorphism):
        entries = (((i, j), e) for i, row in enumerate(member.matrix) for j, e in enumerate(row))
    else:
        entries = (((i,), e) for i, e in enumerate(member.components))
    comps = {
        ",".join(str(i + 1) for i in idx): to_string(e, chart)
        for idx, e in entries
        if not is_zero(e)
    }
    return {"components": comps}


def _matrix(chart: Chart, components: dict) -> Endomorphism:
    span = range(chart.dim)
    return Endomorphism(chart, [[components.get((i, j), ZERO) for j in span] for i in span])


def _vector(chart: Chart, components: dict) -> VectorField:
    return VectorField(chart, tuple(components.get((i,), ZERO) for i in range(chart.dim)))


def _form(degree: int):
    return _components(degree, True, functools.partial(KForm, degree=degree))


_read_endomorphism = _components(2, False, _matrix)


def _read_volume(chart: Chart, block, where: str) -> KForm:
    if not isinstance(block, dict) or set(block) != {"coeff"}:
        raise InputError(f"{where}: expected an object with a coeff entry")
    coeff = _expr(chart, block["coeff"], f"{where}.coeff")
    return KForm(chart, chart.dim, {tuple(range(chart.dim)): coeff})


def _read_scalars(chart: Chart, block, where: str):
    block = _object(block, where, {"lambda"})
    return _expr(chart, block["lambda"], f"{where}.lambda") if "lambda" in block else None


def _read_chain(chart: Chart, block, where: str) -> tuple:
    if not isinstance(block, list) or not block:
        raise InputError(f"{where}: expected a non-empty list of endomorphism blocks")
    return tuple(_read_endomorphism(chart, e, f"{where}[{pos}]") for pos, e in enumerate(block))


# The structure-file format after chart and name: each block with the
# Structure member it holds, its reader (chart, block, where) and its
# writer (chart, member), in the order blocks are read and written.
_BLOCKS = {
    "volume": (
        "volume",
        _read_volume,
        lambda chart, vol: {"coeff": to_string(vol.component(*range(chart.dim)), chart)},
    ),
    "bivector": ("pi", _components(2, True, Bivector), _write_components),
    "endomorphism": ("n", _read_endomorphism, _write_components),
    "threeform": ("phi", _form(3), _write_components),
    "twoform": ("omega", _form(2), _write_components),
    "oneform": ("theta", _form(1), _write_components),
    "scalars": ("lam", _read_scalars, lambda chart, lam: {"lambda": to_string(lam, chart)}),
    "vectorfield": ("z", _components(1, False, _vector), _write_components),
    "chain": ("chain", _read_chain, lambda chart, ms: [_write_components(chart, m) for m in ms]),
}


def structure_from_doc(doc: dict, source: str) -> Structure:
    stray = sorted(set(doc) - {"chart", "name", *_BLOCKS})
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
    members = {
        member: read(chart, doc[block], block)
        for block, (member, read, _) in _BLOCKS.items()
        if block in doc
    }
    return Structure(chart=chart, name=name, **members)


def structure_to_doc(st: Structure) -> dict:
    """The structure as a JSON-ready document; loading it back reproduces
    the same fields up to expression spelling."""
    chart = st.chart
    doc: dict = {"chart": {"dim": chart.dim, "coords": list(chart.coord_names)}}
    if st.name:
        doc["name"] = st.name
    for block, (member, _, write) in _BLOCKS.items():
        value = getattr(st, member)
        if value is not None:
            doc[block] = write(chart, value)
    return doc


# ---------------------------------------------------------------------------
# report documents


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
        return format(value, ".17g")
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


def report_document(checks, metadata: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "metadata": metadata,
        "checks": [_check_doc(r) for r in sorted(checks, key=lambda r: r.name)],
    }


def _metadata(args, raw: bytes, st: Structure, plan: SamplePlan, suites=None) -> dict:
    meta = {
        "command": args.command,
        "input_digest": f"sha256:{sha256(raw).hexdigest()}",
        "structure_name": st.name,
        "seed": plan.seed,
        "samples": plan.count,
        "tol": args.tol,
        "box": [[lo, hi] for lo, hi in plan.box],
        "kmax": args.kmax,
        "resample_limit": plan.resample_limit,
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


def _parse_box(text: str):
    """lo:hi[,lo:hi...] as float pairs: one (lo, hi), which sample_plan
    broadcasts to every coordinate, or a tuple of them, one per
    coordinate; SamplePlan checks the intervals."""
    pairs = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise InputError(f"bad box {text!r}: expected lo:hi[,lo:hi...]")
        try:
            pairs.append((float(pieces[0]), float(pieces[1])))
        except ValueError:
            raise InputError(f"bad box {text!r}: non-numeric bound") from None
    return pairs[0] if len(pairs) == 1 else tuple(pairs)


def _parse_suites(text):
    """The --suites names, in order and once each; run_suites refuses unknown ones."""
    if text is None:
        return None
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise InputError("empty --suites")
    return tuple(dict.fromkeys(names))


def _plan_for(args, st: Structure) -> SamplePlan:
    try:
        return sample_plan(
            st.chart,
            box=_parse_box(args.box),
            count=args.samples,
            seed=args.seed,
            resample_limit=args.resample_limit,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


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
    """verify, and table: the recursion suite's verify run, whose report
    adds the involutivity table and leaves the suites out of its metadata."""
    _check_flags(args)
    is_table = args.command == "table"
    suites = ("recursion",) if is_table else _parse_suites(args.suites)
    raw, source = _read_input(args.file)
    st = structure_from_doc(_load_document(raw, source), source)
    if is_table and (st.pi is None or st.n is None):
        raise InputError(f"{source}: table needs a bivector and an endomorphism")
    plan = _plan_for(args, st)
    try:
        checks = run_suites(st, plan, args.tol, suites=suites, kmax=args.kmax)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    meta = _metadata(args, raw, st, plan, suites=None if is_table else suites or SUITES)
    doc = report_document(checks, meta)
    if is_table:
        cells = {r.name: r.max_scaled_residual for r in checks}
        k = range(1, args.kmax + 1)
        residuals = [[cells[f"involutivity.pair[{min(i, j)},{max(i, j)}]"] for j in k] for i in k]
        doc["involutivity_table"] = {"kmax": args.kmax, "residuals": residuals}
    _write_output(emit_document(doc), args.out)
    return _exit_code(checks)


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
        default="-1:1",
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
    handlers = {"verify": _cmd_verify, "table": _cmd_verify, "catalog": _cmd_catalog}
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
