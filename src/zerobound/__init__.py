"""Explicit zero-counting error constants for L-functions with gamma-factor
functional equations, plus a verification harness for external zero tables."""

from . import bounds, errors, newform, selberg, zeros

__version__ = "1.0.0"

#: the public names, sorted: the six submodules and the names __getattr__ finds in them
__all__ = [
    "AdmissibilityError", "AdmissibleHeight", "BoundReport", "BoundaryWarning",
    "BranchConstants", "Coefficients", "DomainError", "GammaFactor", "InvalidStripError",
    "LFunctionData", "NewformSpec", "StripParams", "ValidationError", "VerificationReport",
    "ZeroFileError", "ZeroList", "ZeroboundError", "argument_integral_bound", "bound_report",
    "bounds", "branch_constants", "ceil_guarded", "check_bound", "count_window",
    "disc_count_bound", "doubling_coefficients", "errors", "gammabounds",
    "integrated_ratio_error", "load_document", "load_zeros", "log_integral_bound",
    "magnitude_envelope", "main_term", "min_admissible_height", "newform", "newform_params",
    "newform_strip", "pipeline_constants", "ratio_error_bound", "ratio_error_sup",
    "ratio_error_total", "reflection_log_main", "remainder_pair_bound", "require_admissible",
    "selberg", "select_strip", "shifted_constant", "stirling_remainder_bound", "table_generate",
    "table_row", "tail_sum", "total_count_error", "trivial_zero_window",
    "vertical_integral_bound", "window_coefficients", "zeros",
]


def __getattr__(name: str):
    """The object a submodule binds to a name of __all__; gammabounds is imported on first use."""
    if name in __all__:
        for module in (errors, selberg, bounds, newform, zeros):
            if name in vars(module):
                return vars(module)[name]
        import importlib  # not "from . import", whose hasattr check would call __getattr__ again
        gammabounds = importlib.import_module(f"{__name__}.gammabounds")
        return gammabounds if name == "gammabounds" else getattr(gammabounds, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    """The module's globals and every name of __all__, resolved or not."""
    return sorted({*globals(), *__all__})
