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
    one_sided_limits,
    parse_function_spec,
    true_jump,
)
from .coefficients import (
    AccuracyError,
    ChebyshevSeries,
    FourierSeries,
    chebyshev_coefficients,
    fourier_coefficients,
    series_from_json,
    series_to_json,
)
from .variation import (
    ClassLabel,
    SampleSequence,
    VariationReport,
    build_report,
    classify,
    lambda_variation,
    modulus_of_variation,
    p_variation,
)
from .summability import (
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
    v2_tail_diagnostic,
)
from .chebyshev import (
    ChebyshevTailConfig,
    integrated_chebyshev_tail,
    jump_from_chebyshev,
    sawtooth_tail_bound_check,
)
__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ChebyshevSeries",
    "ChebyshevTailConfig",
    "ClassLabel",
    "DomainError",
    "FourierSeries",
    "JumpEstimate",
    "PiecewiseFunction",
    "PrecisionWarning",
    "RunConfig",
    "SampleSequence",
    "SpecArityError",
    "SpecSyntaxError",
    "TailSumConfig",
    "VariationReport",
    "build_report",
    "cesaro_jump",
    "cesaro_mean",
    "cesaro_weights",
    "chebyshev_coefficients",
    "classify",
    "conjugate_tail",
    "diff_series_terms",
    "evaluate",
    "fejer_jump",
    "fourier_coefficients",
    "integrated_chebyshev_tail",
    "integrated_tail",
    "jump_from_chebyshev",
    "jump_from_conjugate",
    "jump_from_integrated",
    "lambda_variation",
    "modulus_of_variation",
    "one_sided_limits",
    "p_variation",
    "parse_function_spec",
    "parseval_increment_check",
    "run",
    "sample_for_variation",
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
