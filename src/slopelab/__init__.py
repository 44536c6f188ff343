"""Exact slope, signature, and concordance-obstruction computations for
colored links with a distinguished component, from C-complex Seifert data."""

__version__ = "0.1.0"

from .characters import (
    AdmissibleComponent,
    Character,
    RootStatus,
    components,
    concordance_root_status,
    embed_character,
    is_admissible,
    sample_safe_characters,
)
from .conway import (
    ConwayData,
    ConwayValue,
    conway_quotient,
    cross_check,
    load_conway,
)
from .errors import (
    ContextMismatchError,
    InvalidPresentationError,
    SlopelabError,
    UnsupportedHypothesisError,
    UsageError,
)
from .fields import (
    ApproxComplex,
    Cyclotomic,
    CyclotomicNumber,
    RatFunc,
    RationalFunctionField,
)
from .laurent import LaurentPoly, cyclotomic_minimal_poly, exact_div, poly_gcd
from .linalg import (
    Matrix,
    SolveResult,
    hermitian_signature,
    rank,
    solve,
)
from .seifert import (
    CComplexPresentation,
    build_A,
    build_E,
    change_basis,
    load_presentation,
    presentation_from_dict,
    presentation_to_dict,
    save_presentation,
    stabilize,
    validate,
)
from .slope import (
    SignatureResult,
    SlopeValue,
    certify_zero_slope,
    compare_slopes,
    signature_nullity,
    slope_at,
    slope_from_operator,
    slope_symbolic,
)

__all__ = [
    "AdmissibleComponent",
    "ApproxComplex",
    "CComplexPresentation",
    "Character",
    "ContextMismatchError",
    "ConwayData",
    "ConwayValue",
    "Cyclotomic",
    "CyclotomicNumber",
    "InvalidPresentationError",
    "LaurentPoly",
    "Matrix",
    "RatFunc",
    "RationalFunctionField",
    "RootStatus",
    "SignatureResult",
    "SlopeValue",
    "SlopelabError",
    "SolveResult",
    "UnsupportedHypothesisError",
    "UsageError",
    "build_A",
    "build_E",
    "certify_zero_slope",
    "change_basis",
    "compare_slopes",
    "components",
    "concordance_root_status",
    "conway_quotient",
    "cross_check",
    "cyclotomic_minimal_poly",
    "embed_character",
    "exact_div",
    "hermitian_signature",
    "is_admissible",
    "load_conway",
    "load_presentation",
    "poly_gcd",
    "presentation_from_dict",
    "presentation_to_dict",
    "rank",
    "sample_safe_characters",
    "save_presentation",
    "signature_nullity",
    "slope_at",
    "slope_from_operator",
    "slope_symbolic",
    "solve",
    "stabilize",
    "validate",
]
