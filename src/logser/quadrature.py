"""Integral route to the series values, and pi.

For 2 <= T and 1 <= j <= T-1 the integral of (u^j - u^(j-1))/(u^T - 1)
over [0, 1] equals the series of the difference vector with +1 in slot
j and -1 in slot j+1.  The integrand is evaluated in the equivalent
smooth form u^(j-1) / (1 + u + ... + u^(T-1)), which removes the
removable singularity at u = 1 (value there: 1/T).  Summing j times the
j-th integral over j = 1..T-1 reconstructs ln T, and the T = 3, j = 1
instance yields pi = 3*sqrt(3) * S_3(1, -1, 0).

Quadrature is adaptive Gauss-Legendre: 15-point panels refined by
bisection against an absolute-error target.  The rule's nodes and
weights are literals, each the double nearest the true value.  Every
integrand call is a T-term Horner loop, so `integrate` and
`fixed_panel_integral` bound their T slots by TERM_LIMIT, and
`decomposition_check` its (T - 1) T, before any panel is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BudgetExceeded, NoConvergence
from .evaluation import EvalResult, evaluate
from .vectors import _check_term_limit, make_vector

_PANEL_LIMIT = 20000
_MIN_TOL = 1e-13

# (node, weight) of the 15-point rule on [-1, 1] for its non-negative nodes
_HALF_RULE = (
    (0.0, 0.2025782419255613),
    (0.20119409399743451, 0.19843148532711158),
    (0.3941513470775634, 0.1861610000155622),
    (0.5709721726085388, 0.16626920581699392),
    (0.7244177313601701, 0.13957067792615432),
    (0.8482065834104272, 0.10715922046717194),
    (0.937273392400706, 0.07036604748810812),
    (0.9879925180204854, 0.03075324199611727),
)
_NODES = tuple(-x for x, _ in _HALF_RULE[:0:-1]) + tuple(x for x, _ in _HALF_RULE)
_WEIGHTS = tuple(w for _, w in _HALF_RULE[:0:-1] + _HALF_RULE)


@dataclass(frozen=True)
class IntegralCheck:
    """Both sides of one integral-series identity and their distance."""

    T: int
    j: int
    integral_value: float
    series_value: float
    tolerance: float
    discrepancy: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "discrepancy", abs(self.integral_value - self.series_value)
        )


def _validate_pair(T: int, j: int) -> None:
    if T < 2:
        raise ValueError("T must be >= 2")
    if not 1 <= j <= T - 1:
        raise ValueError(f"j must be in [1, {T - 1}], got {j}")


def integrand(T: int, j: int, u: float) -> float:
    """u^(j-1) / (1 + u + ... + u^(T-1)), smooth on all of [0, 1]."""
    _validate_pair(T, j)
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    den = 0.0
    for _ in range(T):
        den = den * u + 1.0
    return u ** (j - 1) / den


def _panel(T: int, j: int, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * math.fsum(
        w * integrand(T, j, mid + half * x) for x, w in zip(_NODES, _WEIGHTS)
    )


def integrate(T: int, j: int, tol: float) -> float:
    """Adaptive quadrature of the integrand over [0, 1], |error| <~ tol."""
    _validate_pair(T, j)
    _check_term_limit(T, "Horner slots per node")
    if not tol >= _MIN_TOL:  # also rejects NaN
        raise ValueError(f"tol must be >= {_MIN_TOL}")
    total = 0.0
    panels = 0
    stack = [(0.0, 1.0, _panel(T, j, 0.0, 1.0), tol)]
    while stack:
        a, b, whole, budget = stack.pop()
        panels += 1
        if panels > _PANEL_LIMIT:
            raise NoConvergence(
                f"quadrature did not converge within {_PANEL_LIMIT} panels"
            )
        mid = 0.5 * (a + b)
        left = _panel(T, j, a, mid)
        right = _panel(T, j, mid, b)
        if abs(left + right - whole) <= budget or (b - a) < 1e-12:
            total += left + right
        else:
            stack.append((a, mid, left, 0.5 * budget))
            stack.append((mid, b, right, 0.5 * budget))
    return total


def fixed_panel_integral(T: int, j: int, panels: int) -> float:
    """Non-adaptive composite rule on `panels` equal panels (for benchmarks).

    At most _PANEL_LIMIT panels, the limit of `integrate`; more raises
    BudgetExceeded before any panel is built.
    """
    _validate_pair(T, j)
    _check_term_limit(T, "Horner slots per node")
    if panels < 1:
        raise ValueError("panels must be >= 1")
    if panels > _PANEL_LIMIT:
        raise BudgetExceeded(f"{panels} panels exceed the limit of {_PANEL_LIMIT}")
    edges = [i / panels for i in range(panels + 1)]
    return math.fsum(_panel(T, j, a, b) for a, b in zip(edges, edges[1:]))


def _difference_series(T: int, j: int, tol: float) -> EvalResult:
    coeffs = [0] * T
    coeffs[j - 1] = 1
    coeffs[j] = -1
    return evaluate(make_vector(T, coeffs), tol, "accelerated")


def integral_series_check(T: int, j: int, tol: float) -> IntegralCheck:
    """Compare the integral against the matching difference series."""
    integral = integrate(T, j, tol)
    series = _difference_series(T, j, tol)
    return IntegralCheck(
        T=T,
        j=j,
        integral_value=integral,
        series_value=float(series.value),
        tolerance=tol,
    )


def decomposition_check(T: int, tol: float) -> float:
    """sum_j j * integral(T, j) over j = 1..T-1; converges to ln T.

    The caller compares the result against a reference logarithm.  The
    weights j sum to T(T-1)/2, so each inner integral gets 2 tol/(T(T-1))
    of the error budget (clamped at the quadrature floor), and the
    weighted errors add up to tol.
    """
    if T < 2:
        raise ValueError("T must be >= 2")
    if not tol >= 1e-12:  # also rejects NaN
        raise ValueError("tol must be >= 1e-12")
    _check_term_limit((T - 1) * T, f"Horner slots per node of {T - 1} integrals")
    inner = max(2 * tol / (T * (T - 1)), _MIN_TOL)
    return math.fsum(j * integrate(T, j, inner) for j in range(1, T))


def pi_with_series(tol: float) -> tuple[float, EvalResult]:
    """pi_estimate(tol) together with the series evaluation it came from."""
    if not tol >= 1e-12:  # also rejects NaN
        raise ValueError("tol must be >= 1e-12")
    series = evaluate(make_vector(3, (1, -1, 0)), tol / 6, "accelerated")
    return 3.0 * math.sqrt(3.0) * float(series.value), series


def pi_estimate(tol: float) -> float:
    """pi via 3*sqrt(3) times the series of (1, -1, 0) over modulus 3."""
    return pi_with_series(tol)[0]


def pi_arctan() -> float:
    """Arctangent cross-check for pi_estimate.

    The antiderivative of the T = 3, j = 1 integrand is
    (2/sqrt(3)) * arctan((2u+1)/sqrt(3)); evaluating over [0, 1] and
    scaling by 3*sqrt(3) collapses to 6*(arctan sqrt(3) - arctan(1/sqrt(3))).
    """
    root = math.sqrt(3.0)
    return 6.0 * (math.atan(root) - math.atan(1.0 / root))
