"""Exact arithmetic for central Cantor sets, their difference sets, and the
subsum sets of fast convergent series.

Everything is computed over rationals: constructions, gap families, the
interval-union/Cantor-set/Cantorval trichotomy, closed-form measures, and
the certificates that let every claim be re-checked from scratch.

Importing the package runs none of its submodules. Each one is put in
sys.modules unexecuted and runs on its first attribute access, so a request
compiles only the modules it uses: `classify` runs the closed-form gap
measure (`gapmeasure`) without the gap family (`gapforest`). An exported name
is looked up in its home module on first use and then kept here;
`cantorval.classify` is the function, and `cantorval.cli` is imported as usual.
"""

__version__ = "0.1.0"

# each submodule and the exported names it defines
_EXPORTS = {
    "errors": "AssumptionError CantorvalError DepthBudgetError SpecValidationError VerificationError",
    "budget": "DEFAULT_BUDGET charge resolve_budget",
    "rationals": "format_rational parse_rational",
    "records": "",
    "lattice": "IntervalUnion diff_approximation",
    "intervals": "ClosedInterval OpenInterval complement_gaps minkowski_diff minkowski_sum normalize",
    "construction": "RatioSequence cantor_approximation depth_length kept_interval length_drop",
    "diffsets": "code_str diff_interval gap_at gap_bounds overlap_at",
    "gapmeasure": "gap_union_measure small_index_series small_ratio_indices smallest_valid_base",
    "gapforest": "GapFamily first_level gap_family gap_union_partial",
    "classify": "RULE_CANTOR RULE_CANTORVAL RULE_FINITE RULE_FULL RULE_UNKNOWN VERDICT_CANTOR "
    "VERDICT_CANTORVAL VERDICT_FINITE VERDICT_FULL VERDICT_UNKNOWN Certificate DepthRow "
    "ResidualEntry cantorval_measure classify cover_offset depth_report equation_residuals residuals_vanish",
    "verifier": "Check verification_passed verify_certificate",
    "cover": "cover_alignment cover_witness extreme_codes extreme_limits",
    "series": "DoublingPattern MultigeometricForm MultigeometricSeries difference_measure is_fast_convergent "
    "kakeya_classify multigeometric_form ratios_from_series series_from_pattern series_from_ratios subsum_cover",
    "render": "DepthStack StackRow ascii_depth_stack depth_stack svg_depth_stack",
}
# exported name -> its home module
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def _register_lazily() -> None:
    """Put each submodule in sys.modules unexecuted. An import statement that
    names one finds it there, so the package attribute `classify` is never
    rebound to the submodule."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    for name in _EXPORTS:
        spec = find_spec(f"{__name__}.{name}")
        spec.loader = LazyLoader(spec.loader)
        module = sys.modules[spec.name] = module_from_spec(spec)
        spec.loader.exec_module(module)


_register_lazily()


def __getattr__(name: str):
    import sys

    if name in _HOME:
        value = getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)
    elif name in _EXPORTS:
        value = sys.modules[f"{__name__}.{name}"]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return [*{*globals(), *_EXPORTS, *__all__}]


__all__ = [
    "AssumptionError",
    "CantorvalError",
    "Certificate",
    "Check",
    "ClosedInterval",
    "DEFAULT_BUDGET",
    "DepthBudgetError",
    "DepthRow",
    "DepthStack",
    "DoublingPattern",
    "GapFamily",
    "IntervalUnion",
    "MultigeometricForm",
    "MultigeometricSeries",
    "OpenInterval",
    "RatioSequence",
    "ResidualEntry",
    "RULE_CANTOR",
    "RULE_CANTORVAL",
    "RULE_FINITE",
    "RULE_FULL",
    "RULE_UNKNOWN",
    "SpecValidationError",
    "StackRow",
    "VerificationError",
    "VERDICT_CANTOR",
    "VERDICT_CANTORVAL",
    "VERDICT_FINITE",
    "VERDICT_FULL",
    "VERDICT_UNKNOWN",
    "ascii_depth_stack",
    "cantor_approximation",
    "cantorval_measure",
    "charge",
    "classify",
    "code_str",
    "complement_gaps",
    "cover_alignment",
    "cover_offset",
    "cover_witness",
    "depth_length",
    "depth_report",
    "depth_stack",
    "diff_approximation",
    "diff_interval",
    "difference_measure",
    "equation_residuals",
    "extreme_codes",
    "extreme_limits",
    "first_level",
    "format_rational",
    "gap_at",
    "gap_bounds",
    "gap_family",
    "gap_union_measure",
    "gap_union_partial",
    "is_fast_convergent",
    "kakeya_classify",
    "kept_interval",
    "length_drop",
    "minkowski_diff",
    "minkowski_sum",
    "multigeometric_form",
    "normalize",
    "overlap_at",
    "parse_rational",
    "ratios_from_series",
    "residuals_vanish",
    "resolve_budget",
    "series_from_pattern",
    "series_from_ratios",
    "small_index_series",
    "small_ratio_indices",
    "smallest_valid_base",
    "subsum_cover",
    "svg_depth_stack",
    "verification_passed",
    "verify_certificate",
]
