"""lcalab: exact symbolic workbench for Lie conformal algebras.

Bracket tables over Z_m-graded generators, lambda-bracket evaluation and
axiom checking, conformal bilinear maps with biderivation residuals and
closed-form families, and a brute-force classification solver over exact
rational linear algebra.
"""

from .poly import (
    Monomial,
    ParseError,
    Poly,
    SPECTRAL_VARS,
    VARS,
    Var,
    as_poly,
    parse_poly,
    parse_rational,
)
from .algebra import (
    Algebra,
    AlgebraError,
    AxiomReport,
    BracketRule,
    Element,
    GeneratorId,
    algebra_from_dict,
    algebra_to_dict,
    bracket,
    check_axioms,
    load_algebra,
    make_catalog,
    parse_generator,
    second_slot_subst,
)
from .bimaps import (
    BilinearMap,
    FamilyError,
    MapError,
    Residual,
    TAGS,
    VerifyReport,
    load_map,
    make_family,
    map_eval,
    map_from_dict,
    map_to_dict,
    normalize_tags,
    residual,
    verify_map,
)
from .solver import (
    Ansatz,
    ConstraintSystem,
    InternalCheckError,
    MatchReport,
    SolutionSpace,
    SolverError,
    Unknown,
    assemble,
    family_templates,
    match_templates,
    nullspace,
    solve_bider,
    solver_report,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra", "AlgebraError", "Ansatz", "AxiomReport", "BilinearMap",
    "BracketRule", "ConstraintSystem", "Element", "FamilyError",
    "GeneratorId", "InternalCheckError", "MapError", "MatchReport",
    "Monomial", "ParseError",
    "Poly", "Residual", "SPECTRAL_VARS", "SolutionSpace",
    "SolverError", "TAGS", "Unknown", "VARS", "Var", "VerifyReport",
    "algebra_from_dict", "algebra_to_dict", "as_poly", "assemble",
    "bracket", "check_axioms", "family_templates",
    "load_algebra", "load_map", "make_catalog", "make_family", "map_eval",
    "map_from_dict", "map_to_dict", "match_templates", "normalize_tags",
    "nullspace", "parse_generator", "parse_poly", "parse_rational", "residual",
    "second_slot_subst", "solve_bider", "solver_report", "verify_map",
]
