"""Spans around pqnverify's public functions, installed from outside.

Each wrapped call records a span: layer name, start, end and the index of
the enclosing span.  Spans stay in memory until the process writes them
out.  A layer's self time is its spans' time minus the time of the spans
nested directly inside them, minus the point sampling done inside them.

Wrapping replaces the function object in every pqnverify module that
binds it, so calls between modules are seen as well as calls from the CLI.
"""
from __future__ import annotations

import functools
import json
import struct
import time
from collections import defaultdict

# layer name -> (module, function names)
VERDICT_LAYERS = {
    "cli.main": ("cli", ("main",)),
    "cli.load": ("cli", ("structure_from_doc",)),
    "cli.emit": ("cli", ("report_document", "emit_document")),
    "expr.parse": ("expr", ("parse",)),
    "expr.derive": ("expr", ("derive",)),
    "fields.compose": ("fields", ("compose",)),
    "calculus.torsion": ("calculus", ("nijenhuis_torsion",)),
    "calculus.haantjes": ("calculus", ("haantjes_tensor",)),
    "verify.build": (
        "verify",
        (
            "run_suites",
            "verify_poisson",
            "verify_pn",
            "verify_pqn",
            "verify_3d_conditions",
            "verify_haantjes_structure",
            "verify_lm_chain",
            "verify_minpoly",
            "verify_recursion_involutivity",
            "verify_theo_inv",
            "run_identity_battery",
        ),
    ),
    "verify.run_pairs": ("verify", ("run_pairs",)),
    "verify.eval": ("verify", ("evaluate_batch",)),
}
SETUP_LAYERS = {
    "catalog.build": (
        "catalog",
        ("das_okubo", "closed_toda", "r3_recipe", "by_name"),
    ),
    "catalog.to_doc": ("cli", ("structure_to_doc",)),
}

_MODULES = ("pqnverify", "expr", "fields", "calculus", "verify", "catalog", "cli")


def _rebind(old, new):
    import importlib

    for short in _MODULES:
        name = short if short == "pqnverify" else f"pqnverify.{short}"
        mod = importlib.import_module(name)
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _structural_counts(roots) -> tuple[int, int]:
    """Distinct node objects reachable from roots, and how many of them are
    structurally distinct (constants keyed by their float bit pattern)."""
    from pqnverify import expr as E

    klass: dict[int, int] = {}
    keys: dict[tuple, int] = {}
    stack = list(roots)
    while stack:
        node = stack[-1]
        if id(node) in klass:
            stack.pop()
            continue
        kids = E._children(node)
        pending = [k for k in kids if id(k) not in klass]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if isinstance(node, E.Constant):
            key = ("C", struct.pack("<d", node.value))
        elif isinstance(node, E.Coord):
            key = ("X", node.index)
        elif isinstance(node, E.IntPow):
            key = ("P", node.exponent, klass[id(node.base)])
        else:
            key = (type(node).__name__,) + tuple(klass[id(k)] for k in kids)
        klass[id(node)] = keys.setdefault(key, len(keys))
    return len(klass), len(keys)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self._stack: list[int] = []
        self._sampled: dict[int, float] = defaultdict(float)
        self._hidden: dict[int, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.sample_s = 0.0
        self.paused = False

    def _parent(self) -> int:
        return self._stack[-1] if self._stack else -1

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _wrap_eval(self, fn):
        timed = self._wrap("verify.eval", fn)

        @functools.wraps(fn)
        def wrapper(exprs, pts):
            out = timed(exprs, pts)
            if not self.paused:
                t0 = time.perf_counter()
                nodes, unique = _structural_counts(exprs)
                self.counts["verify.dag_nodes"] += nodes
                self.counts["verify.unique_nodes"] += unique
                self._hidden[self._parent()] += time.perf_counter() - t0
            return out

        return wrapper

    def _wrap_stream(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(plan):
            gen = fn(plan)
            parent = self._parent()

            def timed():
                while True:
                    t0 = clock()
                    p = next(gen)
                    dt = clock() - t0
                    self.counts["verify.points"] += 1
                    self.sample_s += dt
                    self._sampled[parent] += dt
                    yield p

            return gen if self.paused else timed()

        return wrapper

    def install(self, layers):
        import importlib

        for layer, (module, names) in layers.items():
            mod = importlib.import_module(f"pqnverify.{module}")
            for name in names:
                fn = getattr(mod, name)
                if layer == "verify.eval":
                    new = self._wrap_eval(fn)
                else:
                    new = self._wrap(layer, fn)
                _rebind(fn, new)
        if "verify.eval" in layers:
            from pqnverify import verify

            _rebind(verify.point_stream, self._wrap_stream(verify.point_stream))

    def layer_totals(self) -> dict:
        """Per layer: calls and self seconds."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for idx, (layer, start, end, _) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (
                end - start - child[idx] - self._sampled[idx] - self._hidden[idx]
            )
        return {"calls": dict(calls), "self_s": dict(self_s)}

    def dump(self, path: str, extra: dict):
        doc = {
            "spans": self.spans,
            "layers": self.layer_totals(),
            "counts": dict(self.counts),
            "sample_s": self.sample_s,
        }
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def per_layer_metrics(verdicts: list[dict], setups: list[dict]) -> dict:
    """Fold the layer totals of traced verdict and set-up processes into the
    benchmark's per-layer metrics."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    sample_s = 0.0
    report_bytes = 0
    for v in verdicts:
        for layer, n in v["layers"]["calls"].items():
            calls[layer] += n
        for layer, s in v["layers"]["self_s"].items():
            self_s[layer] += s
        for key, n in v["counts"].items():
            counts[key] += n
        sample_s += v["sample_s"]
        report_bytes += v["report_bytes"]
    build_s = sum(
        s["layers"]["self_s"].get(layer, 0.0)
        for s in setups
        for layer in SETUP_LAYERS
    )
    nodes, unique = counts["verify.dag_nodes"], counts["verify.unique_nodes"]
    eval_s = self_s["verify.eval"]
    values = {
        "cli.load_s": (self_s["cli.load"], "s"),
        "cli.emit_s": (self_s["cli.emit"], "s"),
        "cli.report_bytes": (report_bytes, "count"),
        "catalog.build_s": (build_s, "s"),
        "expr.parse_calls": (calls["expr.parse"], "count"),
        "expr.parse_s": (self_s["expr.parse"], "s"),
        "expr.derive_calls": (calls["expr.derive"], "count"),
        "expr.derive_s": (self_s["expr.derive"], "s"),
        "fields.compose_calls": (calls["fields.compose"], "count"),
        "fields.compose_s": (self_s["fields.compose"], "s"),
        "calculus.torsion_calls": (calls["calculus.torsion"], "count"),
        "calculus.torsion_s": (self_s["calculus.torsion"], "s"),
        "calculus.haantjes_calls": (calls["calculus.haantjes"], "count"),
        "calculus.haantjes_s": (self_s["calculus.haantjes"], "s"),
        "verify.checks": (calls["verify.run_pairs"], "count"),
        "verify.build_s": (self_s["verify.build"], "s"),
        "verify.eval_calls": (calls["verify.eval"], "count"),
        "verify.eval_s": (eval_s, "s"),
        "verify.dag_nodes": (nodes, "count"),
        "verify.unique_nodes": (unique, "count"),
        "verify.node_share": (unique / nodes if nodes else 0.0, "ratio"),
        "verify.nodes_per_s": (nodes / eval_s if eval_s else 0.0, "1/s"),
        "verify.points": (counts["verify.points"], "count"),
        "verify.sample_s": (sample_s, "s"),
        "verify.residual_s": (self_s["verify.run_pairs"], "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
