"""Exact Gaussian likelihood inference for AR(p) with stationary dependent noise.

The model is X_n = theta_1 X_{n-1} + ... + theta_p X_{n-p} + xi_n with zero
pre-sample values, where (xi_n) is a stationary centered Gaussian process
with a known covariance kernel.  The package whitens the noise with the
Durbin-Levinson recursion, evaluates the exact likelihood from the whitened
series and its p score weights, solves the closed-form MLE, and provides the
likelihood-ratio test, the local quadratic likelihood expansion, and a Monte
Carlo harness that checks the asymptotic behavior of all of these.
"""
from .ar import (
    apply_ar,
    as_theta,
    companion,
    fisher_info,
    fisher_info_inverse,
    is_stable,
    require_stable,
    simulate_series,
)
from .exceptions import (
    ArmleError,
    DimensionMismatch,
    NotPositiveDefinite,
    SingularGram,
    TooShort,
    Unstable,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentReport,
    aggregate,
    run_experiment,
)
from .filtering import (
    kernel_rows,
    pacf_and_variances,
)
from .inference import (
    EstimationResult,
    TestResult,
    lan_decomposition,
    lr_statistic,
    lr_test,
    mle,
)
from .noise import (
    CovarianceKernel,
    ValidationReport,
    ar1,
    covariance,
    fgn,
    kernel_from_json,
    noise_from_innovations,
    sample_noise,
    validate_kernel,
    white,
)
from .rng import standard_normals, substream
from .state import (
    FilteredPath,
    ScoreAccumulator,
    accumulate,
    filter_observations,
    innovations,
    log_likelihood,
)

__version__ = "0.1.0"

__all__ = [
    "ArmleError",
    "CovarianceKernel",
    "DimensionMismatch",
    "EstimationResult",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentReport",
    "FilteredPath",
    "NotPositiveDefinite",
    "ScoreAccumulator",
    "SingularGram",
    "TestResult",
    "TooShort",
    "Unstable",
    "ValidationReport",
    "accumulate",
    "aggregate",
    "apply_ar",
    "ar1",
    "as_theta",
    "companion",
    "covariance",
    "fgn",
    "filter_observations",
    "fisher_info",
    "fisher_info_inverse",
    "innovations",
    "is_stable",
    "kernel_from_json",
    "kernel_rows",
    "lan_decomposition",
    "log_likelihood",
    "lr_statistic",
    "lr_test",
    "mle",
    "noise_from_innovations",
    "pacf_and_variances",
    "require_stable",
    "run_experiment",
    "sample_noise",
    "simulate_series",
    "standard_normals",
    "substream",
    "validate_kernel",
    "white",
]
