"""Covariance estimation for Gaussian (and elliptical) signals observed
through additive noise of unknown distribution.

The core estimator reads covariance entries off the log-modulus of the
empirical characteristic function at a small set of probe frequencies;
thresholding and positive-definite variants adapt it to sparsity, and a
nuclear-norm variant handles low-rank structure.
"""

from .harness import ExperimentSpec, ResultRecord, SummaryStats, run_experiment, summarize
from .lowrank import (
    LowRankConfig,
    WeightFunction,
    bump_weight,
    lambda_threshold,
    lowrank_estimate,
)
from .shrinkage import (
    ConvergenceError,
    CvConfig,
    PdSoftConfig,
    cross_validate_tau,
    hard_threshold,
    pd_soft_threshold,
    sample_covariance,
    soft_threshold,
)
from .simgen import (
    CovModel,
    NoiseModel,
    Scenario,
    frobenius_error,
    noise_cf,
    sample_scenario,
)
from .spectral import (
    CovEstimate,
    EstimationError,
    PreAsymptoticError,
    admissible,
    gaussian_generator,
    probe_log_moduli,
    spectral_estimate,
    spectral_radius_star,
    stable_generator,
    tau_threshold,
    theoretical_rate,
)

__version__ = "0.1.0"

# Always False: the kernels are plain numpy. Kept because benchmark machine
# records read it.
NUMBA_ENABLED = False
