"""Integral route to the series values, and pi.

On [0, 1] the series of a balanced vector a over modulus T is one
integral.  Its terms sum to the integral of sum_j a_j u^(j-1)/(1 - u^T),
and balance makes 1 - u a factor of that fraction's numerator as of its
denominator; cancelled, it leaves R(u)/P(u) with
P(u) = 1 + u + ... + u^(T-1) and
R(u) = r_1 + r_2 u + ... + r_(T-1) u^(T-2), where r_i = a_1 + ... + a_i
are a's difference-basis coordinates (r_T = 0 by balance).  R/P is
smooth on all of [0, 1], as P >= 1 there.  The j-th difference vector,
+1 in slot j and -1 in slot j+1, has R(u) = u^(j-1); ln_vector(T) has
r_i = i, so R = P' and the integral is ln P(1) - ln P(0) = ln T; and the
T = 3, j = 1 instance yields pi = 3*sqrt(3) * S_3(1, -1, 0).

Every node evaluates R/P in one Horner pass over R's coefficients that
carries R and P together: T slots of IEEE multiplication and addition,
and no libm call.  Quadrature is adaptive Gauss-Legendre: 15-point
panels refined by bisection against an absolute-error target.  The
rule's nodes and weights are literals, each the double nearest the true
value.  Before any panel is built TERM_LIMIT bounds the Horner slots of
one node: T for `integrand` and `integrate`, T times its panels for
`fixed_panel_integral`, T times the panels of both rules for
_fixed_panel, and T times T for `decomposition_check`, whose bisection
goes deeper as T grows.  _fixed_panel, the private twin of
fixed_panel_integral that the CLI's bench rows call, takes any vector
and returns its heuristic error estimate too: the step to the rule on
one panel more, or one fewer at _PANEL_LIMIT.

Every entry reads R off a vector through _numerator, the difference
vectors' R = u^(j-1) included.  The series values of
integral_series_check and pi_with_series are evaluation._evaluate's
rounded pair read as a double by evaluation._double, so no entry here
imports mpmath; only the first read of the value of pi_with_series'
EvalResult does.  pi_with_series scales that double by _PI_SCALE, the
double fl(3 fl(sqrt 3)), and _pi_bound argues the rounding of that
product, for the CLI's pi reading and its bench's pi rows alike.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import BudgetExceeded, NoConvergence
from .evaluation import EvalResult, _double, _evaluate, _unread
from .vectors import CoefficientVector, _check_term_limit, _difference_vector, _Record, ln_vector

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


class IntegralCheck(_Record):
    """Both sides of one integral-series identity and their distance."""

    T: int
    j: int
    integral_value: float
    series_value: float
    tolerance: float
    discrepancy: float

    __match_args__ = ("T", "j", "integral_value", "series_value", "tolerance")

    def __init__(self, T: int, j: int, integral_value: float, series_value: float,
                 tolerance: float) -> None:
        vars(self).update(T=T, j=j, integral_value=integral_value, series_value=series_value,
                          tolerance=tolerance, discrepancy=abs(integral_value - series_value))


def _unit(T: int, j: int) -> CoefficientVector:
    """The j-th difference vector over T, whose R is u^(j-1).

    A modulus above TERM_LIMIT, T Horner slots per node, raises
    BudgetExceeded before the vector is built.
    """
    _check_term_limit(T, "Horner slots per node")
    if T < 2:
        raise ValueError("T must be >= 2")
    if not 1 <= j <= T - 1:
        raise ValueError(f"j must be in [1, {T - 1}], got {j}")
    return _difference_vector(T, j)


def _numerator(v: CoefficientVector) -> tuple[float, ...]:
    """R for v, its difference-basis coordinates r_(T-1), ..., r_1.

    r_i is the prefix sum of the integer weights over D, each quotient
    correctly rounded by int true division, as float(Fraction) rounds it;
    one past the double range raises OverflowError.
    """
    D = v.scale
    return tuple([s / D for s in itertools.accumulate(v.weights[:-1])][::-1])


def _ratio(numerator: tuple[float, ...], u: float) -> float:
    """R(u)/P(u), R's coefficients given highest power first.

    P's u^(T-1) coefficient and R's, r_T = 0, start the pass.
    """
    num, den = 0.0, 1.0
    for r in numerator:
        num = num * u + r
        den = den * u + 1.0
    return num / den


def integrand(T: int, j: int, u: float) -> float:
    """u^(j-1) / (1 + u + ... + u^(T-1)), smooth on all of [0, 1].

    The integrand of the j-th difference vector, by the Horner pass of
    every quadrature node; a modulus above TERM_LIMIT raises
    BudgetExceeded before it runs.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    return _ratio(_numerator(_unit(T, j)), u)


def _panel(numerator: tuple[float, ...], a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * math.fsum(
        w * _ratio(numerator, mid + half * x) for x, w in zip(_NODES, _WEIGHTS)
    )


def _adaptive(numerator: tuple[float, ...], tol: float) -> float:
    """The integral of R/P over [0, 1] by bisection, |error| <~ tol."""
    total = 0.0
    panels = 0
    stack = [(0.0, 1.0, _panel(numerator, 0.0, 1.0), tol)]
    while stack:
        a, b, whole, budget = stack.pop()
        panels += 1
        if panels > _PANEL_LIMIT:
            raise NoConvergence(
                f"quadrature did not converge within {_PANEL_LIMIT} panels"
            )
        mid = 0.5 * (a + b)
        left = _panel(numerator, a, mid)
        right = _panel(numerator, mid, b)
        if abs(left + right - whole) <= budget or (b - a) < 1e-12:
            total += left + right
        else:
            stack.append((a, mid, left, 0.5 * budget))
            stack.append((mid, b, right, 0.5 * budget))
    return total


def integrate(T: int, j: int, tol: float) -> float:
    """Adaptive quadrature of the integrand over [0, 1], |error| <~ tol."""
    if not tol >= _MIN_TOL:  # also rejects NaN
        raise ValueError(f"tol must be >= {_MIN_TOL}")
    return _adaptive(_numerator(_unit(T, j)), tol)


def _composite(numerator: tuple[float, ...], *counts: int) -> list[float]:
    """The integral of R/P by the rule on each count of equal panels of [0, 1].

    The rules' Horner slots per node, T on each panel of every count, pass
    TERM_LIMIT before any panel is built.
    """
    for n in counts:
        if n < 1:
            raise ValueError("panels must be >= 1")
        if n > _PANEL_LIMIT:
            raise BudgetExceeded(f"{n} panels exceed the limit of {_PANEL_LIMIT}")
    T = len(numerator) + 1
    _check_term_limit(
        T * sum(counts),
        f"Horner slots per node ({' + '.join(map(str, counts))} panels over modulus {T})",
    )
    return [math.fsum(_panel(numerator, i / n, (i + 1) / n) for i in range(n)) for n in counts]


def _fixed_panel(v: CoefficientVector, panels: int) -> tuple[float, float]:
    """(value, estimate): v's integral on `panels` equal panels, and its error's estimate.

    The estimate, a heuristic, is the step to the rule on panels + 1, or
    on panels - 1 at _PANEL_LIMIT, which panels + 1 would pass.  Both
    rules' Horner slots pass TERM_LIMIT before either runs.
    """
    step = panels + 1 if panels < _PANEL_LIMIT else panels - 1
    value, other = _composite(_numerator(v), panels, step)
    return value, abs(value - other)


def fixed_panel_integral(T: int, j: int, panels: int) -> float:
    """Non-adaptive composite rule on `panels` equal panels (for benchmarks).

    At most _PANEL_LIMIT panels, the limit of `integrate`, and at most
    TERM_LIMIT Horner slots per node over all panels, T on each; more
    raises BudgetExceeded before any panel is built.
    """
    return _composite(_numerator(_unit(T, j)), panels)[0]


def integral_series_check(T: int, j: int, tol: float) -> IntegralCheck:
    """Compare the integral against the matching difference series.

    The series value is _evaluate's pair for the j-th difference vector
    at abs_err tol, read as a double by _double, so no mpmath is loaded.
    """
    integral = integrate(T, j, tol)
    series = _evaluate(_unit(T, j), tol, "accelerated")[0]
    return IntegralCheck(
        T=T,
        j=j,
        integral_value=integral,
        series_value=_double(series),
        tolerance=tol,
    )


def decomposition_check(T: int, tol: float) -> float:
    """The integral of P'/P, P(u) = 1 + u + ... + u^(T-1); it is ln T.

    P' is R for ln_vector(T), whose coordinates are r_j = j, so this is
    sum_j j * integral(T, j) over j = 1..T-1 as one adaptive integral
    with error target tol.  The caller compares the result against a
    reference logarithm.
    """
    if T < 2:
        raise ValueError("T must be >= 2")
    if not tol >= 1e-12:  # also rejects NaN
        raise ValueError("tol must be >= 1e-12")
    # P'/P rises to (T - 1)/2 near u = 1, and with it the Horner rounding
    # that bisection must out-resolve: T * T <= TERM_LIMIT keeps T where the
    # rule was measured to converge (31 panels at T = 1000; T = 10^4 at
    # tol 1e-12 and 10^5 at 1e-10 were still bisecting after a minute)
    _check_term_limit(T * T, f"Horner slots per node times the modulus {T}")
    return _adaptive(_numerator(ln_vector(T)), tol)


# the double that pi's series is scaled by, fl(3 fl(sqrt 3)); _pi_bound argues its rounding
_PI_SCALE = 3.0 * math.sqrt(3.0)


def pi_with_series(tol: float) -> tuple[float, EvalResult]:
    """pi_estimate(tol) together with the series evaluation it came from.

    The series is the first difference vector over 3 at abs_err tol / 6.
    Its double comes from _evaluate's pair through _double, and the
    EvalResult, as verify_zero's, builds its mpf value on the first read,
    so a caller that reads only the bound and blocks loads no mpmath.
    """
    # pi_estimate's tol and the CLI's --abs-err both reach this check: name neither
    if not tol >= 1e-12:  # also rejects NaN
        raise ValueError(f"pi needs an accuracy of at least 1e-12, got {tol!r}")
    value, bound, blocks = _evaluate(_difference_vector(3, 1), tol / 6, "accelerated")
    return _PI_SCALE * _double(value), _unread(value, bound, blocks, "accelerated")


def _pi_bound(value: float, bound: float | Fraction) -> Fraction:
    """The exact bound on |value - pi| for value = fl(_PI_SCALE fl(S~)).

    pi = 3 sqrt(3) S exactly, for S the series of the first difference
    vector over 3, and |S~ - S| <= bound.  The square root, the two
    products and the conversion of S~ to the nearest double each round to
    nearest (relative error <= u = 2^-53), so |value - 3 sqrt(3) S~| <
    4.01u |value|.  26/5 > 3 sqrt(3) and 2^-50 = 8u > 4.01u, summed
    exactly.  The CLI's pi reading and bench's pi rows share this argument.
    """
    (bn, bd), (vn, vd) = bound.as_integer_ratio(), abs(value).as_integer_ratio()
    return Fraction((26 * bn * vd << 50) + 5 * vn * bd, 5 * bd * vd << 50)


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
