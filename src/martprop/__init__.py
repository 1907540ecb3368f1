"""Martingale-property tooling for stochastic exponentials.

Classify Z = E(beta(X) . X^c) over a diffusion X as a true martingale or
a strict local martingale via explosion tests on the original and
drift-modified dynamics, and estimate the martingale deficit 1 - E[Z_t]
by localized Monte Carlo.  Companion kits cover jump-diffusion density
processes and cylindrical exponents over truncated Q-Brownian motion.
"""

__version__ = "1.0.0"

from .errors import (
    ConfigError,
    DegenerateDiffusion,
    DimensionMismatch,
    EvalDomain,
    ExprSyntaxError,
    JumpBoundViolation,
    MartpropError,
    PreconditionViolated,
    QuadratureFailure,
    UnboundedOnCompact,
    UnknownIdentifier,
    ValidationError,
)
from .expr import CoefficientExpr, parse
from .quad import CumulativeIntegral
from .feller import (
    FellerReport,
    classify_explosion,
    feller_v,
    log_scale_density,
    martingale_verdict,
    scale_density,
)
from .model import (
    Classification,
    DiffusionSpec,
    ExponentSpec,
    LocalizationPlan,
    MartingaleVerdict,
    modified_drift,
    quadratic_exponent,
)
from .mc import (
    DeficitCurve,
    MCEstimate,
    SimConfig,
    deficit_for,
    estimate_mean_direct,
    novikov_estimate,
    run_ensemble,
    stopped_exponential_means,
)
from .jumpkit import (
    Atom,
    DiscreteDist,
    GirsanovData,
    JumpTriplet,
    analyze_jump,
    compute_R,
    simulate_jump_exponential,
    validate_jump,
)
from .hilbert import (
    CovarianceSpec,
    FunctionalSpec,
    check_conditions,
    estimate_hilbert_expectation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
