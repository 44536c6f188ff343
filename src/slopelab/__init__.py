"""Exact slope, signature, and concordance-obstruction computations for
colored links with a distinguished component, from C-complex Seifert data."""

__version__ = "0.1.0"

# Each public name and the module that defines it.  A module loads on first
# use of one of its names (PEP 562): every command starts cold and loads
# only the modules it runs.
_MODULES = {
    "characters": (
        "AdmissibleComponent",
        "Character",
        "RootStatus",
        "components",
        "concordance_root_status",
        "embed_character",
        "sample_safe_characters",
    ),
    "conway": ("ConwayData", "ConwayValue", "conway_quotient", "cross_check", "load_conway"),
    "errors": (
        "ContextMismatchError",
        "InvalidPresentationError",
        "SlopelabError",
        "UnsupportedHypothesisError",
        "UsageError",
    ),
    "fields": (
        "ApproxComplex",
        "Cyclotomic",
        "CyclotomicNumber",
        "RatFunc",
        "RationalFunctionField",
    ),
    "laurent": ("LaurentPoly", "cyclotomic_minimal_poly", "exact_div", "poly_gcd"),
    "linalg": ("Matrix", "SolveResult", "hermitian_signature", "rank", "solve"),
    "seifert": (
        "CComplexPresentation",
        "build_A",
        "build_E",
        "change_basis",
        "load_presentation",
        "presentation_from_dict",
        "presentation_to_dict",
        "save_presentation",
        "stabilize",
        "validate",
    ),
    "slope": (
        "SignatureResult",
        "SlopeValue",
        "certify_zero_slope",
        "compare_slopes",
        "signature_nullity",
        "slope_at",
        "slope_from_operator",
        "slope_symbolic",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=(name,))
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
