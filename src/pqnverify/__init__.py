"""Symbolic tensor calculus on coordinate charts with seeded residual
verification of compatibility structures from Poisson geometry."""

from .expr import (
    Chart,
    Expr,
    ExprError,
    SamplePlan,
    constant,
    derive,
    evaluate,
    parse,
    sample_plan,
    to_string,
)
from .fields import (
    Bivector,
    ChartMismatch,
    DegreeError,
    Endomorphism,
    KForm,
    Structure,
    VectorField,
)
from .verify import (
    CheckReport,
    DeformationResult,
    SUITES,
    check_identity,
    deform_3d,
    run_suites,
)
from .catalog import RecipeInput, by_name, closed_toda, das_okubo, magri_veselov, r3_recipe

__version__ = "0.1.0"

__all__ = [
    "Bivector",
    "Chart",
    "ChartMismatch",
    "CheckReport",
    "DeformationResult",
    "DegreeError",
    "Endomorphism",
    "Expr",
    "ExprError",
    "KForm",
    "RecipeInput",
    "SUITES",
    "SamplePlan",
    "Structure",
    "VectorField",
    "by_name",
    "check_identity",
    "closed_toda",
    "constant",
    "das_okubo",
    "deform_3d",
    "derive",
    "evaluate",
    "magri_veselov",
    "parse",
    "r3_recipe",
    "run_suites",
    "sample_plan",
    "to_string",
    "__version__",
]
