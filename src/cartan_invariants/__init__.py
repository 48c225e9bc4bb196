"""Exact-arithmetic characteristic forms of homogeneous Cartan-geometry models.

The package computes, over the rationals with a formal curvature constant
tau = i/(2*pi), the Atiyah, Chern, Chern-character, Todd and transgression
(Chern-Simons) forms of the flat models of classical geometric structures,
discovers the exact polynomial relations among Chern forms, and solves for
transgression primitives in the trigraded quotient complex.

The namespace is lazy (PEP 562): a name's home module is imported, and the
name bound here, on first access, so a process compiles only what it uses,
most of an import when no bytecode cache is written.  A model build loads
linalg, model and models; a model-file parse loads model and modelio.
"""

from importlib import import_module

# home module -> the names the package exports from it
_EXPORTS = {
    "linalg": ("nullspace", "rank", "rref", "solve"),
    "model": ("LieModel", "Part", "Rep", "ValidationReport", "tangent_rep", "validate_model",
              "validate_rep"),
    "forms": ("Form", "Grade", "GradeError", "ce_differential", "invariant_basis",
              "is_at_grade", "monomial_masks", "plus_component", "quotient_d"),
    "invariants": ("InvPoly", "PolyParseError", "parse_poly"),
    "charforms": ("MatrixForm", "atiyah_form", "chern_character", "chern_form_of", "chern_forms",
                  "chern_simons_form", "cs_class", "cs_coefficients", "invariant_poly_eval",
                  "omega0_matrix", "tangent_atiyah_form", "todd_forms", "transgression",
                  "verify_multiplicativity"),
    "relations": ("PrimitiveResult", "Relation", "conformal_coefficients", "exactness_audit",
                  "find_primitive", "find_relations", "invariant_cocycles", "is_closed",
                  "partitions_of"),
    "models": ("FAMILIES", "build_model", "conformal", "foliated_projective", "g2_flag",
               "grassmannian", "lagrangian_grassmannian", "projective", "split_projective"),
    "modelio": ("ModelSchemaError", "emit_model_json", "model_from_obj", "model_to_obj",
                "parse_model_file", "parse_model_json"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
