"""c-optimal designs for estimating the slope of a polynomial regression
without intercept on [0, a], with optimality certificates and independent
numerical oracles."""

from importlib import import_module as _import_module

from .designs import (AdmissibleRegion, BoundaryPoint, Design, DesignProblem,
                      DomainError, NotCovered, admissible_region,
                      basis_derivatives, optimal_design, support_points,
                      weights_at)
from .elfving import ElfvingCertificate, certify, extremal_value, variance
from .polynomial import Degenerate

__version__ = "0.1.0"

# The oracle module is the only one that imports numpy, so its names are
# imported on first access (PEP 562); the closed form, the certificate and
# the variance of any design run without numpy.
_ORACLE_NAMES = frozenset({
    "GridSpec", "NumericalFailure", "OracleReport", "compare",
    "lp_c_optimal", "restricted_weights",
})


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = _import_module(".oracle", __name__)
        value = oracle if name == "oracle" else getattr(oracle, name)
        globals()[name] = value  # later lookups no longer come here
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdmissibleRegion", "BoundaryPoint", "Degenerate", "Design",
    "DesignProblem", "DomainError", "ElfvingCertificate", "GridSpec",
    "NotCovered", "NumericalFailure", "OracleReport",
    "admissible_region", "basis_derivatives", "certify", "compare",
    "extremal_value", "lp_c_optimal", "optimal_design", "restricted_weights",
    "support_points", "variance", "weights_at",
    "__version__",
]
