"""Numeric evaluation of balanced cyclic harmonic series.

Block k of the series for a vector a over modulus T is
sum_j a_j/(kT+j).  Balance makes block k shrink like 1/k^2, so the
series converges absolutely at block granularity and a truncation after
K blocks carries the rigorous bound

    |tail| <= M / (T^2 (K-1)),   M = sum_j |a_j| (T - j),

obtained by rewriting each block as sum_j a_j (T-j)/((kT+j)(kT+T)) and
comparing with the integral of 1/x^2.

Two evaluation routes are provided:

* raw: pick the smallest K whose tail bound meets the target, then form
  the K-block partial sum in floating point through the digamma
  identity sum_{k<K} 1/(kT+j) = (psi(K + j/T) - psi(j/T)) / T.  The
  reported bound (tail bound plus a rounding allowance) is rigorous.
* accelerated: sum a short prefix of K0 blocks exactly, then add the
  tail after it, which balance makes exactly
  -(1/T) sum_j a_j psi(K0 + j/T).  The default K0 is the digamma
  kernel's shift threshold, so the tail needs no upward recurrence.
  The series itself is not truncated, so the reported bound is a
  rounding allowance alone, and it is rigorous.

Exact partial sums, harmonic numbers and the term stream of the
rearranged form live here as well, all in exact rational arithmetic.
Partial sums and harmonic numbers are both weighted harmonic sums
sum_m w_m / m with periodic integer weights, and one kernel sums them
by balanced splitting rather than adding one term at a time to an
ever larger running rational.
Values are carried at a working precision of at least 96 bits; requests
below the supported precision floor raise Unachievable instead of
silently degrading.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

from .errors import BudgetExceeded, Unachievable
from .vectors import CoefficientVector

DEFAULT_BLOCK_BUDGET = 10**6
TERM_LIMIT = 10**6

_MIN_PREC = 96
_MAX_PREC = 1024

# mpmath's working precision is process-global mutable state; a lock
# keeps concurrent callers from trampling each other's contexts.
_MP_LOCK = threading.RLock()

_METHODS = ("raw", "accelerated")


@dataclass(frozen=True)
class EvalResult:
    """Outcome of a series evaluation.

    Unless ``bound_is_heuristic`` is set, the true series value lies
    within ``error_bound`` of ``value``.
    """

    value: mpmath.mpf
    error_bound: float
    blocks_used: int
    method: str
    bound_is_heuristic: bool


@dataclass(frozen=True)
class GammaPartial:
    """The n-th partial H_n - ln n of the Euler-Mascheroni limit."""

    n: int
    value: mpmath.mpf


def block_term(v: CoefficientVector, k: int) -> Fraction:
    """Exact value of block k: sum_j a_j / (k*T + j)."""
    if k < 0:
        raise ValueError("block index must be >= 0")
    base = k * v.modulus
    return sum(
        (a / (base + j) for j, a in enumerate(v.coeffs, start=1) if a),
        Fraction(0),
    )


def _weighted_harmonic(weights: list[int], n: int) -> Fraction:
    """Exact sum_{m=1..n} weights[(m-1) mod len(weights)] / m.

    Balanced splitting (Haible and Papanikolaou 1998): [1, n] is halved
    recursively down to leaves of at most 32 terms.  A leaf is summed as
    one unreduced integer pair and reduced once; halves merge by Fraction
    addition, so every gcd runs on operands of balanced size.  Reducing
    only once at the top would leave the product of all n denominators,
    and that final gcd is quadratic in its size.
    """
    period = len(weights)

    def split(lo: int, hi: int) -> Fraction:
        # the terms lo <= m < hi
        if hi - lo <= 32:
            p, q = 0, 1
            for m in range(lo, hi):
                w = weights[(m - 1) % period]
                if w:
                    p = p * m + w * q
                    q *= m
            return Fraction(p, q)
        mid = (lo + hi) // 2
        return split(lo, mid) + split(mid, hi)

    return split(1, n + 1)


def partial_sum_exact(
    v: CoefficientVector,
    blocks: int,
    *,
    block_budget: int = DEFAULT_BLOCK_BUDGET,
) -> Fraction:
    """Exact rational sum of the first `blocks` blocks.

    The budget counts individual block-terms (blocks * modulus), which
    is what the cost grows with.  Block k's term j is a_j / m with
    m = kT + j, so the sum is a weighted harmonic sum up to blocks * T
    with the coefficients, scaled to integers by the lcm D of their
    denominators, as periodic weights.
    """
    if blocks < 0:
        raise ValueError("blocks must be >= 0")
    if blocks * v.modulus > block_budget:
        raise BudgetExceeded(
            f"{blocks} blocks over modulus {v.modulus} exceed the budget of "
            f"{block_budget} block-terms"
        )
    scale = math.lcm(*(a.denominator for a in v.coeffs))
    weights = [int(a * scale) for a in v.coeffs]
    return _weighted_harmonic(weights, blocks * v.modulus) / scale


def harmonic(n: int) -> Fraction:
    """Exact harmonic number H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > TERM_LIMIT:
        raise BudgetExceeded(f"n={n} exceeds the term limit of {TERM_LIMIT}")
    return _weighted_harmonic([1], n)


def _weighted_mass(v: CoefficientVector) -> Fraction:
    """M = sum_j |a_j| (T - j), the constant of the truncation bound."""
    T = v.modulus
    return sum(
        (abs(a) * (T - j) for j, a in enumerate(v.coeffs, start=1) if a),
        Fraction(0),
    )


def _float_upper(x: Fraction) -> float:
    """Smallest convenient float that is >= x."""
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def tail_bound(v: CoefficientVector, blocks: int) -> float:
    """Rigorous bound on |series - partial_sum_exact(v, blocks)|.

    Returns M / (T^2 (blocks - 1)) rounded upward.  Requires
    blocks >= 2.  For the modulus-1 vector (necessarily zero) the bound
    is 0.
    """
    if blocks < 2:
        raise ValueError("tail bound requires at least 2 blocks")
    T = v.modulus
    if T == 1:
        return 0.0
    mass = _weighted_mass(v)
    if not mass:
        return 0.0
    return _float_upper(mass / (T * T * (blocks - 1)))


def moments(v: CoefficientVector, m_max: int) -> list[Fraction]:
    """Exact moments mu_m = sum_j a_j j^m for m = 1..m_max (m_max <= 16)."""
    if not 1 <= m_max <= 16:
        raise ValueError("m_max must be in [1, 16]")
    out = []
    for m in range(1, m_max + 1):
        out.append(
            sum(
                (a * Fraction(j) ** m for j, a in enumerate(v.coeffs, start=1) if a),
                Fraction(0),
            )
        )
    return out


def rearranged_terms(modulus: int, count: int) -> list[Fraction]:
    """First `count` terms of the rearranged stream for ln T.

    Block k contributes the T terms 1/(kT+1), ..., 1/(kT+T) followed by
    the balancing term -1/(k+1); the stream rearranges the conditionally
    convergent series 1 - 1 + 1/2 - 1/2 + ...  Valid for modulus >= 1.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > TERM_LIMIT:
        raise BudgetExceeded(f"count={count} exceeds the term limit of {TERM_LIMIT}")
    out: list[Fraction] = []
    k = 0
    while len(out) < count:
        base = k * modulus
        for j in range(1, modulus + 1):
            out.append(Fraction(1, base + j))
            if len(out) == count:
                return out
        out.append(Fraction(-1, k + 1))
        k += 1
    return out


def gamma_partial(n: int) -> GammaPartial:
    """A_n = H_n - ln n with the harmonic part exact.

    The sequence decreases to the Euler-Mascheroni constant, each step
    satisfying -1/(n(n+1)) < A_{n+1} - A_n < 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > TERM_LIMIT:
        raise BudgetExceeded(f"n={n} exceeds the term limit of {TERM_LIMIT}")
    h = harmonic(n)
    with _MP_LOCK, mp.workprec(_MIN_PREC):
        value = mp.mpf(h.numerator) / h.denominator - mp.ln(n)
    return GammaPartial(n=n, value=value)


# ----------------------------------------------------------------------
# the floating-point kernel (digamma)
# ----------------------------------------------------------------------


def _shift_threshold(prec: int) -> int:
    """Smallest argument at which _digamma needs no upward recurrence."""
    return max(32, prec // 3)


def _digamma(x, prec: int):
    """psi(x) for x > 0 via upward recurrence plus the asymptotic series.

    The asymptotic series psi(x) ~ ln x - 1/(2x) - sum B_{2n}/(2n x^{2n})
    (DLMF 5.11.2) envelopes its limit for real x > 0, so truncating at the
    smallest term bounds the remainder by that term; the shift threshold
    keeps the smallest term below 2^-(prec+8).
    """
    with mp.workprec(prec + 10):
        x = mp.mpf(x)
        shifted = mp.mpf(0)
        threshold = _shift_threshold(prec)
        while x < threshold:
            shifted += 1 / x
            x += 1
        result = mp.ln(x) - 1 / (2 * x)
        inv2 = 1 / (x * x)
        power = inv2
        floor = mp.ldexp(1, -(prec + 8))
        last = None
        n = 1
        while True:
            term = mp.bernoulli(2 * n) / (2 * n) * power
            mag = abs(term)
            if last is not None and mag >= last:
                break
            result -= term
            if mag <= floor:
                break
            last = mag
            power *= inv2
            n += 1
        return result - shifted


def _psi_tail(v: CoefficientVector, blocks: int, prec: int):
    """(tail, magnitude) of the series after its first `blocks` blocks.

    The next N blocks sum to (1/T) sum_j a_j (psi(blocks + N + j/T) -
    psi(blocks + j/T)); balance cancels the ln N growth of the first psi,
    so as N grows the tail is exactly -(1/T) sum_j a_j psi(blocks + j/T).
    `magnitude` is (1/T) sum_j |a_j psi(blocks + j/T)|, the scale against
    which rounding allowances are charged.
    """
    T = v.modulus
    with mp.workprec(prec + 10):
        total = mp.mpf(0)
        magnitude = mp.mpf(0)
        start = mp.mpf(blocks)
        for j, a in enumerate(v.coeffs, start=1):
            if not a:
                continue
            psi = _digamma(start + mp.mpf(j) / T, prec)
            term = mp.mpf(a.numerator) / a.denominator * psi
            total -= term
            magnitude += abs(term)
        return total / T, magnitude / T


def _psi_block_sum(v: CoefficientVector, blocks: int, prec: int):
    """(sum, magnitude) of the first `blocks` blocks: the series minus its tail."""
    whole, whole_mag = _psi_tail(v, 0, prec)
    tail, tail_mag = _psi_tail(v, blocks, prec)
    with mp.workprec(prec + 10):
        return whole - tail, whole_mag + tail_mag


def partial_sum_float(v: CoefficientVector, blocks: int, prec: int = _MIN_PREC):
    """Floating partial sum of the first `blocks` blocks.

    Computed through the exact digamma identity rather than term by
    term, so the cost is independent of `blocks`.  Accurate to roughly
    the working precision; use partial_sum_exact for exactness.
    """
    if blocks < 0:
        raise ValueError("blocks must be >= 0")
    if blocks == 0:
        return mpmath.mpf(0)
    with _MP_LOCK:
        total, _ = _psi_block_sum(v, blocks, prec)
        return total


# ----------------------------------------------------------------------
# the evaluator
# ----------------------------------------------------------------------


def _working_prec(abs_err: float, v: CoefficientVector, prec) -> int:
    if prec is not None:
        if prec > _MAX_PREC:
            raise Unachievable(f"precision {prec} exceeds the ceiling of {_MAX_PREC}")
        return max(64, int(prec))
    if math.isinf(abs_err):
        err_bits = 0
    else:
        err_bits = max(0, -math.floor(math.log2(abs_err)))
    coeff_bits = max(
        (a.numerator.bit_length() + a.denominator.bit_length() for a in v.coeffs),
        default=1,
    )
    wanted = max(_MIN_PREC, err_bits + coeff_bits + 48)
    if wanted > _MAX_PREC:
        raise Unachievable(
            f"abs_err={abs_err} would need {wanted} bits of working precision "
            f"(ceiling {_MAX_PREC}); raise the precision ceiling instead"
        )
    return wanted


def _evaluate_raw(v, abs_err, block_budget, prec) -> EvalResult:
    T = v.modulus
    if math.isinf(abs_err):
        blocks = 2
    else:
        needed = _weighted_mass(v) / (Fraction(T * T) * Fraction(abs_err))
        blocks = max(2, math.ceil(needed) + 1)
    if blocks > block_budget:
        raise BudgetExceeded(
            f"raw evaluation at abs_err={abs_err} needs {blocks} blocks, over "
            f"the budget of {block_budget}"
        )
    with _MP_LOCK:
        total, magnitude = _psi_block_sum(v, blocks, prec)
        with mp.workprec(prec):
            allowance = float(mp.ldexp(magnitude + 1, -(prec - 20)))
            value = +total
    bound = tail_bound(v, blocks) + allowance
    return EvalResult(
        value=value,
        error_bound=bound,
        blocks_used=blocks,
        method="raw",
        bound_is_heuristic=False,
    )


def _evaluate_accelerated(v, abs_err, block_budget, prefix_blocks, prec) -> EvalResult:
    T = v.modulus
    if prefix_blocks is None:
        prefix_blocks = _shift_threshold(prec)
    blocks = min(prefix_blocks, block_budget // T)
    if blocks < 2:
        raise BudgetExceeded(
            f"block budget {block_budget} cannot host an exact prefix over modulus {T}"
        )
    prefix = partial_sum_exact(v, blocks, block_budget=block_budget)
    with _MP_LOCK:
        tail, magnitude = _psi_tail(v, blocks, prec)
        with mp.workprec(prec + 10):
            head = mp.mpf(prefix.numerator) / prefix.denominator
            allowance = float(mp.ldexp(abs(head) + magnitude + 1, -(prec - 20)))
            total = head + tail
        with mp.workprec(prec):
            value = +total
    if allowance > abs_err:
        raise Unachievable(
            f"{prec} bits of working precision cannot reach abs_err={abs_err}"
        )
    return EvalResult(
        value=value,
        error_bound=allowance,
        blocks_used=blocks,
        method="accelerated",
        bound_is_heuristic=False,
    )


def evaluate(
    v: CoefficientVector,
    abs_err: float,
    method: str = "accelerated",
    *,
    block_budget: int = DEFAULT_BLOCK_BUDGET,
    prefix_blocks: int | None = None,
    prec: int | None = None,
) -> EvalResult:
    """Evaluate the series of v to within abs_err (see module docstring).

    Both routes report a rigorous bound.  raw mode raises BudgetExceeded
    when the required truncation exceeds `block_budget` blocks.
    accelerated mode sums K0 = `prefix_blocks` blocks exactly (default
    max(32, prec // 3) at the working precision, capped at `block_budget`
    block-terms) and adds the exact tail -(1/T) sum_j a_j psi(K0 + j/T).

    Error of the accelerated value: the prefix and the tail identity are
    exact, so only floating-point work errs.  Each psi(x), x = K0 + j/T
    >= 2, is computed at prec + 10 bits: the asymptotic-series remainder
    is below 2^-(prec+8), and the recurrence and the series take fewer
    than 2^12 rounded operations on numbers below 20, so psi(x) errs by
    less than 2^-(prec-8), which is below 2^-(prec-10) |psi(x)| because
    psi(x) >= psi(2) > 0.4.  The conversions of the coefficients and of
    the prefix, the products, the sums and the final rounding to prec
    bits add a few units of 2^-(prec+10) relative to the scale
    |prefix| + (1/T) sum_j |a_j psi(x)|.  The reported bound,
    2^-(prec-20) (scale + 1), exceeds the total by a factor above 2^9.

    Unachievable signals that abs_err sits below the working-precision
    floor.
    """
    if not abs_err > 0:
        raise ValueError("abs_err must be positive")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if v.is_zero():
        return EvalResult(
            value=mpmath.mpf(0),
            error_bound=0.0,
            blocks_used=2,
            method=method,
            bound_is_heuristic=False,
        )
    prec_bits = _working_prec(abs_err, v, prec)
    if method == "raw":
        return _evaluate_raw(v, abs_err, block_budget, prec_bits)
    return _evaluate_accelerated(v, abs_err, block_budget, prefix_blocks, prec_bits)
