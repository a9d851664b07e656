"""c-optimal designs for estimating the slope of a polynomial regression
without intercept on [0, a], with optimality certificates and independent
numerical oracles."""

from .designs import (AdmissibleRegion, AllDerivativesVanish, BoundaryPoint,
                      Design, DesignProblem, NotCovered, admissible_region,
                      basis_derivatives, lagrange_basis, optimal_design,
                      support_points, weight_functions, weights_at)
from .elfving import (ElfvingCertificate, InfoMatrix, ZOutsideRegion, certify,
                      extremal_polynomial, extremal_value, info_matrix,
                      monomial_features, slope_vector, variance)
from .oracle import (GridSpec, Infeasible, NumericalFailure, OracleReport,
                     SingularSupport, compare, lp_c_optimal,
                     restricted_weights, simplex_minimize)
from .polynomial import Degenerate, Poly, chebyshev_T

__version__ = "0.1.0"

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
