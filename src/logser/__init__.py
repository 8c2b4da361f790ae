"""Exact and numeric tooling for balanced cyclic harmonic series.

A balanced vector (a_1, ..., a_T) of rationals (sum zero) denotes the
convergent series sum_k sum_j a_j/(kT+j).  This package constructs such
vectors for ln T, ln(M/L) and pi, evaluates them with rigorous or
accelerated error control, cross-checks them against the matching
integrals, and discovers exact linear relations among them.

``quadrature`` and ``relations``, and the names they export, load on
first access (PEP 562), so a start that only sums exactly or evaluates
compiles neither: ``logser.kernel``, ``from logser import kernel`` and
``logser.relations`` each import ``relations`` and bind its six names.
No module of the package imports ``dataclasses``, which loads
``inspect``: the records derive from ``vectors._Record``.
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
from .vectors import (
    TERM_LIMIT,
    CoefficientVector,
    lift,
    linear_combine,
    ln_rational_vector,
    ln_vector,
    make_vector,
)

__version__ = "0.1.0"

# the names each lazy submodule exports; the first access to any of them,
# or to the submodule itself, imports it and binds them all
_LAZY = {
    "quadrature": (
        "IntegralCheck",
        "decomposition_check",
        "fixed_panel_integral",
        "integral_series_check",
        "integrand",
        "integrate",
        "pi_arctan",
        "pi_estimate",
    ),
    "relations": (
        "KernelBasis",
        "divisor_family",
        "divisor_relations",
        "kernel",
        "relation_witnesses",
        "verify_zero",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "BudgetExceeded",
    "CoefficientVector",
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
    "tail_bound",
    "verify_zero",
]


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name, name if name in _LAZY else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # the import binds the submodule here as well
    loaded = import_module(f"{__name__}.{module}")
    for public in _LAZY[module]:
        globals()[public] = getattr(loaded, public)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_MODULE})
