"""Known answers for the benchmark's structures, computed apart from
pqnverify.

Lattices: das-okubo is Poisson-Nijenhuis, so every decided check passes;
closed-toda is quasi-Nijenhuis but not Nijenhuis, so exactly pn.torsion
fails.

Recipes: the generator keeps lambda, a and g as exact polynomials with
Fraction coefficients.  It computes b = integral of (lambda_z - a_x) dy,
c = g - lambda, Z = (a, b, c) and Z(lambda) = a lambda_x + b lambda_y +
c lambda_z.  N = lambda I + Z (x) dz has torsion Z(lambda) i(dz), so
pn.torsion fails exactly when Z(lambda) is not identically zero, and every
other decided check passes.

In every workload a skipped check is right only when the structure lacks
a member that the check needs.

This module does not import pqnverify.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction

# Poly: a dict from exponent triples (x, y, z) to nonzero Fractions.


def poly_add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for mono, c in q.items():
        v = out.get(mono, 0) + sign * c
        if v:
            out[mono] = v
        else:
            out.pop(mono, None)
    return out


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, b1, c1), u in p.items():
        for (a2, b2, c2), v in q.items():
            mono = (a1 + a2, b1 + b2, c1 + c2)
            w = out.get(mono, 0) + u * v
            if w:
                out[mono] = w
            else:
                out.pop(mono, None)
    return out


def poly_diff(p: dict, axis: int) -> dict:
    out = {}
    for mono, c in p.items():
        k = mono[axis]
        if k:
            lowered = list(mono)
            lowered[axis] = k - 1
            out[tuple(lowered)] = c * k
    return out


def poly_int_y(p: dict) -> dict:
    """The y-antiderivative with no y-free term, as the catalog takes it."""
    return {(a, b + 1, c): coef / (b + 1) for (a, b, c), coef in p.items()}


def poly_str(p: dict) -> str:
    """Concrete syntax pqnverify parses, coefficients written as integers
    or integer ratios."""
    if not p:
        return "0"
    terms = []
    for mono in sorted(p, reverse=True):
        c = Fraction(p[mono])
        factors = [
            name if k == 1 else f"{name}^{k}"
            for name, k in zip("xyz", mono)
            if k
        ]
        mag = abs(c)
        coef = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        if factors and mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([coef] + factors)
        terms.append(("-" if c < 0 else "+", body))
    head_sign, head = terms[0]
    text = ("-" if head_sign == "-" else "") + head
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# workload make-up

LATTICE_N = {"lattice": 4, "wide": 3}  # lattice size of each lattice workload
LATTICE_FAILS = {"das-okubo": set(), "closed-toda": {"pn.torsion"}}
ROUND_DRAWN = 15  # seeded recipe instances per round, plus one fault instance


def whole_rounds(seconds: float):
    """Round indices, as many as fit in `seconds` judged by the length of
    the round before (at least one)."""
    start = time.perf_counter()
    last = 0.0
    index = 0
    while not index or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        yield index
        last = time.perf_counter() - round_start
        index += 1


RECIPE_DEGREE = 2  # total degree of lambda and a
RECIPE_TERMS = 2  # monomials in lambda and in a
RECIPE_COEFFS = (-1, 1)
G_DEGREE = 2  # g has every monomial 1, z, ..., z^G_DEGREE
FLAT_SHARE = 4  # one instance in FLAT_SHARE takes lambda = g


def _monomials(degree: int):
    return [
        (a, b, c)
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
        for c in range(degree + 1 - a - b)
    ]


def _random_poly(rng: random.Random, monos, terms: int) -> dict:
    picked = rng.sample(monos, min(terms, len(monos)))
    return {m: Fraction(rng.choice(RECIPE_COEFFS)) for m in picked}


def draw_recipe(rng: random.Random) -> dict:
    """One r3-recipe instance: lambda, a in Q[x, y, z], g in Q[z]."""
    monos = _monomials(RECIPE_DEGREE)
    g = _random_poly(rng, [(0, 0, k) for k in range(G_DEGREE + 1)], G_DEGREE + 1)
    if rng.randrange(FLAT_SHARE) == 0:
        lam = dict(g)
    else:
        lam = _random_poly(rng, monos, RECIPE_TERMS)
    a = _random_poly(rng, monos, RECIPE_TERMS)
    return {"lam": lam, "a": a, "g": g}


def z_of_lambda(inst: dict) -> dict:
    lam, a, g = inst["lam"], inst["a"], inst["g"]
    b = poly_int_y(poly_add(poly_diff(lam, 2), poly_diff(a, 0), -1))
    c = poly_add(g, lam, -1)
    acc = poly_mul(a, poly_diff(lam, 0))
    acc = poly_add(acc, poly_mul(b, poly_diff(lam, 1)))
    return poly_add(acc, poly_mul(c, poly_diff(lam, 2)))


def recipe_strings(inst: dict) -> dict:
    return {k: poly_str(inst[k]) for k in ("lam", "a", "g")}


def drawn_rounds(seed: int):
    """Per round, ROUND_DRAWN recipe instances drawn from
    random.Random("recipes:<seed>:<round>"), none equal to one drawn before
    in the run."""
    seen = set()
    index = 0
    while True:
        rng = random.Random(f"recipes:{seed}:{index}")
        drawn = []
        while len(drawn) < ROUND_DRAWN:
            inst = draw_recipe(rng)
            key = tuple(sorted(recipe_strings(inst).items()))
            if key not in seen:
                seen.add(key)
                drawn.append(inst)
        yield drawn
        index += 1


# Fixed instances, independent of the seed, on which a check fails by
# rounding.  On the first four chain.C1_haantjes[3] fails: the Haantjes
# tensor of N^3 is exactly zero, but its intermediate values reach 1.6e9 to
# 2.5e10 at the worst point.  On the last two, where lambda = g,
# battery.torsion_power_form fails the same way.  Each maps a monomial
# (x, y, z exponents) to its coefficient.
FAULT_INSTANCES = (
    {
        "lam": {(2, 0, 0): 3, (1, 0, 1): 2, (0, 0, 1): 3},
        "a": {(1, 0, 0): -1, (0, 2, 0): -1, (0, 1, 0): -3},
        "g": {(0, 0, 2): -3, (0, 0, 1): -1, (0, 0, 0): -2},
    },
    {
        "lam": {(2, 0, 0): 3, (1, 0, 1): 2, (0, 0, 2): 2},
        "a": {(1, 0, 0): -3, (0, 1, 0): -2, (0, 0, 0): -1},
        "g": {(0, 0, 2): -3, (0, 0, 1): 2, (0, 0, 0): -3},
    },
    {
        "lam": {(1, 0, 1): -3, (0, 2, 0): -2, (0, 0, 1): -3},
        "a": {(2, 0, 0): 3, (0, 1, 0): 1, (0, 0, 0): -3},
        "g": {(0, 0, 2): -3, (0, 0, 1): -2, (0, 0, 0): -3},
    },
    {
        "lam": {(0, 2, 0): 3, (0, 1, 0): -3, (0, 0, 1): -1},
        "a": {(2, 0, 0): 2, (0, 1, 1): -1, (0, 0, 0): 3},
        "g": {(0, 0, 2): -1, (0, 0, 1): 2, (0, 0, 0): 3},
    },
    {
        "lam": {(0, 0, 2): -2, (0, 0, 1): 3, (0, 0, 0): -3},
        "a": {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 0): 1},
        "g": {(0, 0, 2): -2, (0, 0, 1): 3, (0, 0, 0): -3},
    },
    {
        "lam": {(0, 0, 2): 3, (0, 0, 1): 2, (0, 0, 0): 2},
        "a": {(1, 1, 0): 1, (1, 0, 0): -2, (0, 0, 0): 3},
        "g": {(0, 0, 2): 3, (0, 0, 1): 2, (0, 0, 0): 2},
    },
)


def as_instance(spec: dict) -> dict:
    return {k: {m: Fraction(c) for m, c in poly.items()} for k, poly in spec.items()}


# ---------------------------------------------------------------------------
# expected statuses

# The members each suite needs, named by structure-file block; "3d" is a
# three-dimensional chart.
SUITE_NEEDS = {
    "poisson": {"bivector"},
    "pn": {"bivector", "endomorphism"},
    "pqn": {"bivector", "endomorphism", "threeform"},
    "3d": {"bivector", "endomorphism", "volume", "3d"},
    "haantjes": {"endomorphism", "oneform"},
    "chain": {"chain", "oneform"},
    "recursion": {"bivector", "endomorphism"},
    "minpoly": {"bivector", "endomorphism", "volume", "3d"},
    "theoinv": {"bivector", "endomorphism", "threeform", "twoform"},
    "battery": set(),
}
_SPLIT_3D = {"3d", "bivector", "volume", "endomorphism", "scalars", "vectorfield"}
BATTERY_NEEDS = {
    "battery.eigenform_power_scaling": _SPLIT_3D,
    "battery.eigenform_scaling": _SPLIT_3D,
    "battery.phi_sequence_closed_form": _SPLIT_3D,
    "battery.power_decomposition": _SPLIT_3D,
    "battery.torsion_compatibility_form": _SPLIT_3D,
    "battery.torsion_general_form": _SPLIT_3D,
    "battery.torsion_power_form": _SPLIT_3D,
    "battery.sharp_interior_exchange": {"3d", "bivector", "threeform"},
}


def members_of(doc: dict) -> set:
    present = {k for k in doc if k not in ("chart", "name")}
    if doc["chart"]["dim"] == 3:
        present.add("3d")
    return present


def wrong_checks(report: dict, members: set, fails: set) -> list:
    """Names of checks whose status differs from the known answer."""
    wrong = []
    seen = set()
    for check in report["checks"]:
        name, status = check["name"], check["status"]
        seen.add(name)
        if status == "skipped":
            needs = BATTERY_NEEDS.get(name, SUITE_NEEDS.get(name.split(".")[0], set()))
            if needs <= members:
                wrong.append(name)
        elif (status == "fail") != (name in fails):
            wrong.append(name)
    wrong.extend(sorted(fails - seen))
    return wrong


def judge(got: dict, report_path: str, members: set, fails: set) -> dict:
    """Score one verdict: its decided checks, its report size and, when it
    failed, the checks that differ from the known answer."""
    if got["rc"] not in (0, 1):
        return {"decided": 0, "report_bytes": 0, "wrong": []}
    with open(report_path, "rb") as fh:
        raw = fh.read()
    report = json.loads(raw)
    names = set(wrong_checks(report, members, fails))
    wrong = [
        {k: c[k] for k in ("name", "status", "max_scaled_residual", "worst_point")}
        for c in report["checks"]
        if c["name"] in names
    ]
    wrong += [{"name": n, "status": "missing", "max_scaled_residual": None, "worst_point": None}
              for n in sorted(names - {c["name"] for c in report["checks"]})]
    any_fail = any(c["status"] == "fail" for c in report["checks"])
    if got["rc"] != int(any_fail):
        wrong.append({"name": "exit code", "status": str(got["rc"]),
                      "max_scaled_residual": None, "worst_point": None})
    decided = sum(c["status"] in ("pass", "fail") for c in report["checks"])
    return {"decided": decided, "report_bytes": len(raw), "wrong": wrong or None}
