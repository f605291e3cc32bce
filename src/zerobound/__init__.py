"""Explicit zero-counting error constants for L-functions with gamma-factor
functional equations, plus a verification harness for external zero tables."""

from .bounds import (
    BoundReport, BranchConstants, Coefficients, argument_integral_bound, bound_report,
    branch_constants, ceil_guarded, disc_count_bound, doubling_coefficients,
    integrated_ratio_error, log_integral_bound, ratio_error_sup, shifted_constant,
    total_count_error, trivial_zero_window, vertical_integral_bound, window_coefficients,
)
from .errors import (
    AdmissibilityError, BoundaryWarning, DomainError, InvalidStripError, ValidationError,
    ZeroboundError, ZeroFileError,
)
from .gammabounds import (
    magnitude_envelope, ratio_error_bound, ratio_error_total, reflection_log_main,
    remainder_pair_bound, stirling_remainder_bound,
)
from .newform import (
    NewformSpec, newform_params, newform_strip, pipeline_constants, table_generate, table_row,
)
from .selberg import (
    AdmissibleHeight, GammaFactor, LFunctionData, StripParams, load_document, main_term,
    min_admissible_height, require_admissible, select_strip, tail_sum,
)
from .zeros import VerificationReport, ZeroList, check_bound, count_window, load_zeros

__version__ = "1.0.0"

#: the public names, sorted: the six submodules and every name imported above
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
