"""Best L1 bandlimited approximations of e^{-lam|x|}, log|x| and
|x|^{sigma-1}, with their periodic (trigonometric polynomial)
counterparts, closed-form optimal errors, and a certification suite
binding every closed form to an independently computed number."""

from .errors import (
    DivergentAtZero,
    InvalidPointMass,
    InvalidSigma,
    QuadratureNonConvergence,
    SeriesNonConvergence,
    UnknownCheckName,
    XapproxError,
)
from .quadrature import integrate_ray
from .series import catalan, dirichlet_beta
from .measures import (
    HaarLog,
    PointMasses,
    PowerSigma,
    TargetForm,
    f_mu,
    gamma_one_minus,
    integrate_measure,
    measure_from_json,
    measure_to_json,
    power_l1_constant,
    validate,
)
from .expkernel import (
    ExpKernel,
    K_hat,
    dual_lower_bound_exp,
    error_exp,
    error_exp_integral_oracle,
    eval_K,
    eval_p,
    k_value_at_zero,
    l1_error_exp,
    l1_error_exp_quadrature,
)
from .entire import (
    EntireApproximant,
    error_mu_pointwise,
    eval_K_mu,
    l1_error_mu,
    l1_error_mu_quadrature,
    l1_error_mu_raw,
)
from .periodic import (
    ExpPeriodized,
    MeasurePeriodized,
    TrigPoly,
    build_k,
    build_k_mu,
    circle_l1_abs,
    eval_q_mu,
    interpolation_oracle,
    l1_vs_log_circle,
    p_hat,
    periodic_l1_error,
    periodic_l1_error_mu,
    periodic_l1_quadrature,
    q_hat_mu,
    refined_sign_nodes,
)
from .certify import (
    CertReport,
    check_names,
    reports_passed,
    reports_to_json,
    reports_to_table,
    run_cert_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "XapproxError", "InvalidSigma", "InvalidPointMass",
    "QuadratureNonConvergence", "SeriesNonConvergence", "DivergentAtZero",
    "UnknownCheckName",
    # numerics
    "integrate_ray",
    "dirichlet_beta", "catalan",
    # measures
    "PointMasses", "HaarLog", "PowerSigma", "TargetForm", "validate", "f_mu",
    "gamma_one_minus", "power_l1_constant", "integrate_measure",
    "measure_to_json", "measure_from_json",
    # single-exponential kernel
    "ExpKernel", "eval_K", "k_value_at_zero", "K_hat", "l1_error_exp",
    "error_exp", "error_exp_integral_oracle", "dual_lower_bound_exp",
    "l1_error_exp_quadrature", "eval_p",
    # measure-integrated approximants
    "EntireApproximant", "eval_K_mu", "error_mu_pointwise",
    "l1_error_mu_raw", "l1_error_mu", "l1_error_mu_quadrature",
    # periodic
    "TrigPoly", "ExpPeriodized", "MeasurePeriodized", "p_hat",
    "q_hat_mu", "eval_q_mu", "build_k", "build_k_mu", "periodic_l1_error",
    "periodic_l1_error_mu", "interpolation_oracle",
    "circle_l1_abs", "refined_sign_nodes", "periodic_l1_quadrature",
    "l1_vs_log_circle",
    # certification
    "CertReport", "run_cert_suite", "check_names", "reports_passed",
    "reports_to_json", "reports_to_table",
]
