"""Exact and numeric tooling for balanced cyclic harmonic series.

A balanced vector (a_1, ..., a_T) of rationals (sum zero) denotes the
convergent series sum_k sum_j a_j/(kT+j).  This package constructs such
vectors for ln T, ln(M/L) and pi, evaluates them with rigorous or
accelerated error control, cross-checks them against the matching
integrals, and discovers exact linear relations among them.
"""

from .errors import (
    BudgetExceeded,
    LengthMismatch,
    ModulusMismatch,
    NoConvergence,
    NotComposite,
    SeriesError,
    UnbalancedCoefficients,
    Unachievable,
)
from .evaluation import (
    EvalResult,
    GammaPartial,
    block_term,
    evaluate,
    gamma_partial,
    harmonic,
    partial_sum_exact,
    partial_sum_float,
    rearranged_terms,
    tail_bound,
)
from .quadrature import (
    IntegralCheck,
    decomposition_check,
    fixed_panel_integral,
    integral_series_check,
    integrand,
    integrate,
    pi_arctan,
    pi_estimate,
)
from .relations import (
    KernelBasis,
    divisor_family,
    divisor_relations,
    express_in_basis,
    kernel,
    relation_witnesses,
    spanning_basis,
    verify_zero,
)
from .vectors import (
    TERM_LIMIT,
    CoefficientVector,
    factor_radical,
    lift,
    linear_combine,
    ln_rational_vector,
    ln_vector,
    make_vector,
)

__version__ = "0.1.0"

# deprecated alias of TERM_LIMIT, which bounds an exact prefix; no code reads it
DEFAULT_BLOCK_BUDGET = TERM_LIMIT

__all__ = [
    "BudgetExceeded",
    "CoefficientVector",
    "DEFAULT_BLOCK_BUDGET",
    "EvalResult",
    "GammaPartial",
    "IntegralCheck",
    "KernelBasis",
    "LengthMismatch",
    "ModulusMismatch",
    "NoConvergence",
    "NotComposite",
    "SeriesError",
    "TERM_LIMIT",
    "UnbalancedCoefficients",
    "Unachievable",
    "block_term",
    "decomposition_check",
    "divisor_family",
    "divisor_relations",
    "evaluate",
    "express_in_basis",
    "factor_radical",
    "fixed_panel_integral",
    "gamma_partial",
    "harmonic",
    "integral_series_check",
    "integrand",
    "integrate",
    "kernel",
    "lift",
    "linear_combine",
    "ln_rational_vector",
    "ln_vector",
    "make_vector",
    "partial_sum_exact",
    "partial_sum_float",
    "pi_arctan",
    "pi_estimate",
    "rearranged_terms",
    "relation_witnesses",
    "spanning_basis",
    "tail_bound",
    "verify_zero",
]
