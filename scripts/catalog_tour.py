"""Run every catalog structure through its natural verification suites.

Usage: python3 scripts/catalog_tour.py [--seed N] [--samples N]

Prints one line per check.  Two failure families are expected and are the
point of those examples: the periodic lattices fail pn.torsion (they are
quasi-Nijenhuis, not Nijenhuis), and the magri-veselov chain stalls at
chain.C4_torsion_annihilated[2] with its downstream product checks.
Everything else should pass.
"""

import argparse

from pqnverify.catalog import by_name
from pqnverify.expr import sample_plan
from pqnverify.verify import run_suites

TOUR = (
    ("das-okubo", {"n": 2}, ("poisson", "pn", "recursion")),
    ("das-okubo", {"n": 3}, ("poisson", "pn", "recursion")),
    ("closed-toda", {"n": 2}, ("poisson", "pn", "pqn", "recursion")),
    ("closed-toda", {"n": 3}, ("poisson", "pn", "pqn", "recursion")),
    ("magri-veselov", {}, ("haantjes", "chain")),
    ("r3-recipe", {"lam": "z", "a": "y", "g": "0"}, ("poisson", "pqn", "3d", "minpoly", "haantjes", "chain", "recursion", "battery")),
    ("r3-recipe", {"lam": "z/2", "a": "x/2", "g": "z"}, ("poisson", "pqn", "3d", "minpoly", "haantjes", "chain", "recursion", "battery")),
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--samples", type=int, default=64)
    args = ap.parse_args()

    for name, kwargs, suites in TOUR:
        st = by_name(name, **kwargs)
        plan = sample_plan(st.chart, seed=args.seed, count=args.samples)
        label = name if not kwargs else f"{name} {kwargs}"
        print(f"== {label} ==")
        for rep in run_suites(st, plan, 1e-8, suites=suites):
            print(f"  {rep.status:7s} {rep.name}  (residual {rep.max_scaled_residual:.3e})")


if __name__ == "__main__":
    main()
