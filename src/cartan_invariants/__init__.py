"""Exact-arithmetic characteristic forms of homogeneous Cartan-geometry models.

The package computes, over the rationals with a formal curvature constant
tau = i/(2*pi), the Atiyah, Chern, Chern-character, Todd and transgression
(Chern-Simons) forms of the flat models of classical geometric structures,
discovers the exact polynomial relations among Chern forms, and solves for
transgression primitives in the trigraded quotient complex.
"""

from .scalars import parse_rational
from .linalg import nullspace, rank, rref, solve
from .model import (Generator, LieModel, Part, Rep, ValidationReport,
                    validate_model, validate_rep)
from .forms import (CoadjointOperator, Form, Grade, GradeError, ce_differential,
                    invariant_basis, is_at_grade, monomial_masks, plus_component,
                    quotient_d)
from .invariants import InvPoly, PolyParseError, parse_poly
from .charforms import (MatrixForm, atiyah_form, chern_character, chern_form_of,
                        chern_forms, chern_simons_form, cs_class, cs_coefficients,
                        invariant_poly_eval, omega0_matrix, tangent_atiyah_form,
                        tangent_rep, todd_forms, transgression, transgression_checks,
                        verify_multiplicativity)
from .relations import (PrimitiveResult, Relation, conformal_coefficients,
                        exactness_audit, find_primitive, find_relations,
                        invariant_cocycles, is_closed, partitions_of)
from .models import (FAMILIES, build_model, conformal, foliated_projective,
                     g2_flag, grassmannian, lagrangian_grassmannian, projective,
                     split_projective)
from .modelio import (ModelSchemaError, emit_model_json, model_from_obj,
                      model_to_obj, parse_model_file, parse_model_json)

__all__ = [
    "parse_rational",
    "nullspace", "rank", "rref", "solve",
    "Generator", "LieModel", "Part", "Rep", "ValidationReport",
    "validate_model", "validate_rep",
    "CoadjointOperator", "Form", "Grade", "GradeError", "ce_differential",
    "invariant_basis", "is_at_grade", "monomial_masks", "plus_component",
    "quotient_d",
    "InvPoly", "PolyParseError", "parse_poly",
    "MatrixForm", "atiyah_form", "chern_character", "chern_form_of",
    "chern_forms", "chern_simons_form", "cs_class", "cs_coefficients",
    "invariant_poly_eval", "omega0_matrix", "tangent_atiyah_form", "tangent_rep",
    "todd_forms", "transgression", "transgression_checks", "verify_multiplicativity",
    "PrimitiveResult", "Relation", "conformal_coefficients", "exactness_audit",
    "find_primitive", "find_relations", "invariant_cocycles", "is_closed",
    "partitions_of",
    "FAMILIES", "build_model", "conformal", "foliated_projective", "g2_flag",
    "grassmannian", "lagrangian_grassmannian", "projective", "split_projective",
    "ModelSchemaError", "emit_model_json", "model_from_obj", "model_to_obj",
    "parse_model_file", "parse_model_json",
]
