"""Jump discontinuity detection from truncated Fourier and Chebyshev
coefficient data, plus a generalized-variation analyzer for sampled
functions.
"""

from .funcspec import (
    DomainError,
    PiecewiseFunction,
    SpecArityError,
    SpecSyntaxError,
    evaluate,
    format_function_spec,
    one_sided_limits,
    parse_function_spec,
    true_jump,
)
from .coefficients import (
    AccuracyError,
    ChebyshevSeries,
    FourierSeries,
    A_k,
    chebyshev_coefficients,
    fourier_coefficients,
    jump_part_series,
    partial_sum,
    rho,
    sawtooth_series,
    series_from_json,
    series_to_json,
)
from .variation import (
    ClassLabel,
    LambdaSequence,
    PowerPhi,
    SampleSequence,
    Thresholds,
    VariationReport,
    build_report,
    classify,
    lambda_variation,
    modulus_of_variation,
    p_variation,
    phi_variation,
)
from .summability import (
    CesaroConfig,
    cesaro_jump,
    cesaro_mean,
    cesaro_weights,
    diff_series_terms,
    fejer_jump,
)
from .tails import (
    JumpEstimate,
    PrecisionWarning,
    TailSumConfig,
    conjugate_tail,
    integrated_tail,
    jump_from_conjugate,
    jump_from_integrated,
    parseval_increment_check,
    s_n_diagnostic,
    v2_tail_diagnostic,
)
from .chebyshev import (
    ChebyshevTailConfig,
    chebyshev_tail,
    integrated_chebyshev_tail,
    jump_from_chebyshev,
    sawtooth_tail_bound_check,
)
__version__ = "0.1.0"

__all__ = [
    "A_k",
    "AccuracyError",
    "CesaroConfig",
    "ChebyshevSeries",
    "ChebyshevTailConfig",
    "ClassLabel",
    "DomainError",
    "FourierSeries",
    "JumpEstimate",
    "LambdaSequence",
    "PiecewiseFunction",
    "PowerPhi",
    "PrecisionWarning",
    "RunConfig",
    "SampleSequence",
    "SpecArityError",
    "SpecSyntaxError",
    "TailSumConfig",
    "Thresholds",
    "VariationReport",
    "build_report",
    "cesaro_jump",
    "cesaro_mean",
    "cesaro_weights",
    "chebyshev_coefficients",
    "chebyshev_tail",
    "classify",
    "conjugate_tail",
    "diff_series_terms",
    "evaluate",
    "fejer_jump",
    "format_function_spec",
    "fourier_coefficients",
    "integrated_chebyshev_tail",
    "integrated_tail",
    "jump_from_chebyshev",
    "jump_from_conjugate",
    "jump_from_integrated",
    "jump_part_series",
    "lambda_variation",
    "modulus_of_variation",
    "one_sided_limits",
    "p_variation",
    "parse_function_spec",
    "parseval_increment_check",
    "partial_sum",
    "phi_variation",
    "rho",
    "run",
    "s_n_diagnostic",
    "sample_for_variation",
    "sawtooth_series",
    "sawtooth_tail_bound_check",
    "series_from_json",
    "series_to_json",
    "true_jump",
    "v2_tail_diagnostic",
]


def __getattr__(name):
    # The CLI names load on first use, so importing the package does not import
    # .cli and `python -m specjump.cli` runs a single copy of that module.
    if name in ("RunConfig", "run", "sample_for_variation"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
