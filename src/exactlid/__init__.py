"""Exact diffused densities and local-intrinsic-dimension estimation for
flat manifold mixtures: closed forms, verification oracles, the slope
regression estimator, and figure reproduction."""

__version__ = "0.1.0"

from .model import (
    ConstantOne,
    DensitySpec,
    GaussianDiag,
    ManifoldComponent,
    MixtureModel,
    ModelError,
    UniformBox,
    component_split,
    model_from_json,
    model_to_dict,
    model_to_json,
    validate_model,
)
from .analytic import (
    MixtureSlopes,
    coefficient_bound,
    log_mixture_rho,
    log_smoothed_density,
    mixture_beta_t,
    mixture_slopes,
    parallel_planes_beta,
    reference_dim,
    smoothed_laplacian_ratio,
)
from .oracle import (
    ImproperDensityError,
    McSettings,
    OracleEstimate,
    asymptotic_slope_pair,
    beta_fd_time,
    power_law_slope_pair,
    rho_monte_carlo,
    rho_quadrature,
)
from .estimator import (
    BetaCurve,
    LidlFit,
    TimeGrid,
    bias_curve,
    estimate_lid,
    lidl_fit,
)

__all__ = [
    "__version__",
    "BetaCurve",
    "ConstantOne",
    "DensitySpec",
    "GaussianDiag",
    "ImproperDensityError",
    "LidlFit",
    "ManifoldComponent",
    "McSettings",
    "MixtureModel",
    "MixtureSlopes",
    "ModelError",
    "OracleEstimate",
    "TimeGrid",
    "UniformBox",
    "asymptotic_slope_pair",
    "beta_fd_time",
    "bias_curve",
    "coefficient_bound",
    "component_split",
    "estimate_lid",
    "lidl_fit",
    "log_mixture_rho",
    "log_smoothed_density",
    "mixture_beta_t",
    "mixture_slopes",
    "model_from_json",
    "model_to_dict",
    "model_to_json",
    "parallel_planes_beta",
    "power_law_slope_pair",
    "reference_dim",
    "rho_monte_carlo",
    "rho_quadrature",
    "smoothed_laplacian_ratio",
    "validate_model",
]
