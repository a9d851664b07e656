"""c-optimal designs for estimating the slope of a polynomial regression
without intercept on [0, a], with optimality certificates and independent
numerical oracles."""

from importlib import import_module as _import_module

from .designs import (AdmissibleRegion, AllDerivativesVanish, BoundaryPoint,
                      Design, DesignProblem, NotCovered, admissible_region,
                      basis_derivatives, lagrange_basis, optimal_design,
                      support_points, weight_functions, weights_at)
from .elfving import (ElfvingCertificate, InfoMatrix, ZOutsideRegion, certify,
                      extremal_polynomial, extremal_value, info_matrix,
                      monomial_features, slope_vector, variance)
from .polynomial import Degenerate, Poly, chebyshev_T

__version__ = "0.1.0"

# The oracle module needs numpy, so its names are imported on first access
# (PEP 562); the closed form and the certificate run without numpy.
_ORACLE_NAMES = frozenset({
    "GridSpec", "Infeasible", "NumericalFailure", "OracleReport",
    "SingularSupport", "compare", "lp_c_optimal", "restricted_weights",
    "simplex_minimize",
})


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = _import_module(".oracle", __name__)
        value = oracle if name == "oracle" else getattr(oracle, name)
        globals()[name] = value  # later lookups no longer come here
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdmissibleRegion", "AllDerivativesVanish", "BoundaryPoint", "Degenerate",
    "Design", "DesignProblem", "ElfvingCertificate", "GridSpec", "Infeasible",
    "InfoMatrix", "NotCovered", "NumericalFailure", "OracleReport", "Poly",
    "SingularSupport", "ZOutsideRegion", "admissible_region",
    "basis_derivatives", "certify", "chebyshev_T", "compare",
    "extremal_polynomial", "extremal_value", "info_matrix", "lagrange_basis",
    "lp_c_optimal", "monomial_features", "optimal_design",
    "restricted_weights", "simplex_minimize", "slope_vector",
    "support_points", "variance", "weight_functions", "weights_at",
    "__version__",
]
