"""Best L1 bandlimited approximations of e^{-lam|x|}, log|x| and
|x|^{sigma-1}, with their periodic (trigonometric polynomial)
counterparts, closed-form optimal errors, and a certification suite
binding every closed form to an independently computed number.

The namespace is lazy (PEP 562): ``import xapprox`` loads no submodule,
and each public name imports its home module on first use, then stays
bound here.  A process that only evaluates the line kernel never
compiles the periodic builders or the certification suite;
``from xapprox import *`` loads them all."""

from importlib import import_module

__version__ = "0.1.0"

# every public name, by the module that defines it
_HOME = {
    "errors": (
        "XapproxError", "InvalidSigma", "InvalidPointMass",
        "QuadratureNonConvergence", "SeriesNonConvergence", "DivergentAtZero",
        "NonFinitePoint", "UnknownCheckName",
    ),
    # numerics
    "series": ("dirichlet_beta", "catalan"),
    "measures": (
        "PointMasses", "HaarLog", "PowerSigma", "TargetForm", "validate", "f_mu",
        "measure_to_json", "measure_from_json",
    ),
    # single-exponential kernel
    "expkernel": (
        "ExpKernel", "eval_K", "k_value_at_zero", "K_hat", "l1_error_exp",
        "error_exp", "error_exp_integral_oracle", "l1_error_exp_quadrature",
        "eval_p",
    ),
    # measure-integrated approximants
    "entire": (
        "EntireApproximant", "eval_K_mu", "error_mu_pointwise",
        "l1_error_mu_raw", "l1_error_mu", "l1_error_mu_quadrature",
    ),
    "periodic": (
        "TrigPoly", "ExpPeriodized", "MeasurePeriodized", "q_hat_mu",
        "eval_q_mu", "build_k", "build_k_mu", "periodic_l1_error",
        "periodic_l1_error_mu", "interpolation_oracle", "periodic_l1_quadrature",
        "l1_vs_log_circle",
    ),
    "certify": (
        "CertReport", "run_cert_suite", "check_names", "reports_passed",
        "reports_to_json", "reports_to_table",
    ),
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names}
_SUBMODULES = frozenset(_HOME) | {"_stable", "quadrature", "cli"}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    """Import a public name's home module, or a submodule, on first use;
    the value is then bound in this module, so later lookups skip this."""
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
