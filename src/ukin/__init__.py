"""Exact engine for kinematic formulas of unitary area measures.

Builds the dual algebra of invariant area measures on C^n from its finite
presentation in three generators and emits local, semilocal, and global
additive kinematic formulas with exact rational-pi coefficients.
"""

from .exactnum import PiScalar, Rational, ball_volume, binomial
from .stpoly import STPoly, fu_poly, p_poly, q_poly
from .areabasis import (
    AreaIndex,
    Census,
    Family,
    InvalidIndexError,
    census,
    dual_bg_to_dn,
    dual_dn_to_bg,
    parse_index,
    primal_bg_from_dn,
    primal_dn_from_bg,
    valid_indices,
)
from .dualalgebra import (
    AreaDualElement,
    CanonicalForm,
    basis_element,
    basis_product,
    canonicalize,
    dual_element,
    eval_poly,
    monomial_rank,
    mul_sbar,
    mul_tbar,
    product,
    sbar,
    tbar,
    unit,
    vbar,
)
from .kinematics import (
    KinematicTable,
    emit,
    emit_tables,
    full_table,
    global_formula,
    local_formula,
    semilocal_formula,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: a name of __all__ that is not bound above is one of the checks
    # in ukin.verify, imported on first use so that building tables never
    # loads it.
    if name in __all__:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AreaDualElement", "AreaIndex", "CanonicalForm", "Census", "CheckResult",
    "Family", "InvalidIndexError", "KinematicTable", "PiScalar", "Rational",
    "STPoly", "ball_volume", "basis_element", "basis_product", "binomial",
    "canonicalize", "census", "check_fpq_relation", "combinat_identity",
    "delta_star_closed_form", "dual_bg_to_dn", "dual_dn_to_bg", "dual_element",
    "emit", "emit_tables", "eval_poly", "full_table", "fu_poly",
    "global_formula", "local_formula", "module_recurrence", "monomial_rank",
    "mul_sbar", "mul_tbar", "mustar_pairing", "p_poly", "parse_index",
    "primal_bg_from_dn", "primal_dn_from_bg", "product", "product_nn",
    "q_poly", "sbar", "semilocal_formula", "tbar",
    "tsu_ball_value", "unit", "valid_indices", "vbar", "verify_delta_pairing",
    "verify_relations", "wz_certificate_check",
]
