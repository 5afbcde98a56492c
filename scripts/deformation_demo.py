"""Deform a Nijenhuis operator by a closed two-form and check the result.

Starts from the local model pair (N1, Omega) for lam = z/2, a = x/2, g = z,
runs the three-dimensional deformation, and compares the deformed operator
and its compensating three-form against the closed-form recipe.
"""

from pqnverify.catalog import RecipeInput, prop_local_pair, r3_recipe
from pqnverify.expr import ONE, Chart, parse, sample_plan, to_string
from pqnverify.fields import Bivector
from pqnverify.verify import check_identity, deform_3d

CH = Chart(("x", "y", "z"))


def main() -> None:
    inp = RecipeInput(lam=parse("z/2", CH), a=parse("x/2", CH), g=parse("z", CH))
    n1, omega = prop_local_pair(inp)
    pi = Bivector(CH, {(0, 1): ONE})
    plan = sample_plan(CH)

    print("Omega components:")
    for key, comp in sorted(omega.components.items()):
        print(f"  {key}: {to_string(comp, CH)}")

    res = deform_3d(pi, n1, None, omega, plan, 1e-8)
    print(f"derivative term enters with sign {res.derivative_term_sign:+d}")
    print("deformed operator matrix:")
    for row in res.n_tilde.matrix:
        print("  [" + ", ".join(to_string(c, CH) for c in row) + "]")
    print("compensating three-form:")
    for key, comp in sorted(res.phi_tilde.components.items()):
        print(f"  {key}: {to_string(comp, CH)}")

    ref = r3_recipe(inp)
    for rep in (
        check_identity("matches_recipe_operator", res.n_tilde, ref.n, plan, 1e-8),
        check_identity("matches_recipe_threeform", res.phi_tilde, ref.phi, plan, 1e-8),
    ):
        print(f"{rep.status:7s} {rep.name}  (residual {rep.max_scaled_residual:.3e})")


if __name__ == "__main__":
    main()
