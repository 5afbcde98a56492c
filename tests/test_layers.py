"""The package's layer order, read from its source with ast.

Each module imports only modules of the package below it in
expr -> fields -> calculus -> catalog -> verify -> cli; the package's
entry points (__init__, __main__) sit above them all.  Nothing outside
the standard library and numpy is imported."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pqnverify import expr, verify

LAYERS = ("expr", "fields", "calculus", "catalog", "verify", "cli")
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pqnverify"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
# CPython's built-in SHA-256 module is _sha256 up to 3.11 and _sha2 from
# 3.12; cli tries both, so one of them is always a standard-library module
# of another version than the one running.
STDLIB = sys.stdlib_module_names | {"_sha2", "_sha256"}


def _rank(module: str) -> int:
    return LAYERS.index(module) if module in LAYERS else len(LAYERS)


def _imports(module: str) -> tuple[set[str], set[str]]:
    """The package modules and the outside top-level modules a module
    imports, anywhere in its body."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    inside, outside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module is None:  # from . import name
                    inside.update(alias.name for alias in node.names)
                else:
                    inside.add(node.module.split(".")[0])
                continue
            names = [node.module]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "pqnverify":
                inside.add(parts[1] if len(parts) > 1 else "__init__")
            else:
                outside.add(parts[0])
    return inside, outside


def test_the_package_has_the_modules_of_the_layer_order():
    assert set(LAYERS) <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_a_module_imports_only_modules_below_it(module):
    inside, outside = _imports(module)
    above = sorted(m for m in inside if _rank(m) >= _rank(module))
    assert above == [], f"{module} imports {above}, which are not below it"
    foreign = sorted(m for m in outside if m != "numpy" and m not in STDLIB)
    assert foreign == [], f"{module} imports {foreign}, outside the standard library and numpy"


def test_the_sampler_names_verify_binds_are_the_samplers_of_expr():
    # perfbench reads verify.sample_plan and wraps verify.point_stream
    assert verify.sample_plan is expr.sample_plan
    assert verify.point_stream is expr.point_stream


def _spans():
    """perfbench/spans.py, loaded from its file: it is a script's module,
    not part of the package."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_the_tracer_wraps_is_in_its_module():
    # The tracer wraps these names with getattr; one renamed away would
    # fail only a traced benchmark run.
    spans = _spans()
    layers = {**spans.VERDICT_LAYERS, **spans.SETUP_LAYERS}
    missing = [
        f"{module}.{name}"
        for module, names in layers.values()
        for name in names
        if not callable(getattr(importlib.import_module(f"pqnverify.{module}"), name, None))
    ]
    assert missing == []
