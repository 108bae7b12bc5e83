"""Correlation numerical range of a complex matrix.

Certified support functions over the elliptope of correlation matrices,
boundary sandwiches, the correlation numerical radius and quotient seminorm,
PSD + trace-zero-diagonal decompositions with sum-of-squares certificates,
and sampled inner approximations of the unitarily induced range.
"""

from .crange import (
    Containment,
    RangeBoundary,
    SolveConfig,
    SupportResult,
    classical_support,
    contains,
    min_real_value,
    radius,
    range_boundary,
    support_direction,
)
from .decompose import (
    Decomposition,
    SosCertificate,
    decompose,
    nonnegativity_test,
    sos_certificate,
    verify_certificate,
)
from .elliptope import (
    CorrelationMatrix,
    GramFactor,
    correlation_2x2,
    gram_to_correlation,
    random_correlation,
    validate_correlation,
)
from .matcore import (
    SpectralDecomposition,
    ginibre_random,
    haar_unitary,
    hermitian_eigs,
    hermitian_parts,
    normalized_trace,
    operator_norm,
)
from .metrics import (
    KappaEstimate,
    correlation_seminorm,
    direct_sum_check,
    kappa_search,
)
from .ucrange import (
    WucApproximation,
    compare_ranges,
    induced_correlation,
    wuc_inner,
)

__version__ = "0.1.0"

__all__ = [
    "Containment",
    "CorrelationMatrix",
    "Decomposition",
    "GramFactor",
    "KappaEstimate",
    "RangeBoundary",
    "SolveConfig",
    "SosCertificate",
    "SpectralDecomposition",
    "SupportResult",
    "WucApproximation",
    "classical_support",
    "compare_ranges",
    "contains",
    "correlation_2x2",
    "correlation_seminorm",
    "decompose",
    "direct_sum_check",
    "ginibre_random",
    "gram_to_correlation",
    "haar_unitary",
    "hermitian_eigs",
    "hermitian_parts",
    "induced_correlation",
    "kappa_search",
    "min_real_value",
    "nonnegativity_test",
    "normalized_trace",
    "operator_norm",
    "radius",
    "random_correlation",
    "range_boundary",
    "sos_certificate",
    "support_direction",
    "validate_correlation",
    "verify_certificate",
    "wuc_inner",
]
