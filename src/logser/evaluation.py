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
  identity sum_{k<K} 1/(kT+j) = (psi(K + j/T) - psi(j/T)) / T, whose
  cost does not grow with K.  The reported bound (tail bound plus a
  rounding allowance) is rigorous.
* accelerated: balance makes the series exactly -(1/T) sum_j a_j psi(j/T),
  the tail from block 0, so by default no block is summed.  An explicit
  prefix of K0 blocks is summed exactly, plus the tail
  -(1/T) sum_j a_j psi(K0 + j/T).  Nothing is truncated, so the
  reported bound is a rounding allowance alone, and it is rigorous.

Exact partial sums, harmonic numbers and the term stream of the
rearranged form live here as well, all in exact rational arithmetic,
and so do the Euler-Mascheroni partials H_n - ln n, computed by the
floating-point kernel as psi(n+1) - psi(1) - ln n with no harmonic sum.
Partial sums and harmonic numbers are both weighted harmonic sums
sum_m w_m / m with periodic integer weights, and one kernel sums them
by balanced splitting rather than adding one term at a time to an
ever larger running rational.  The floating-point kernel computes psi,
less a logarithm ln a that balance cancels, in integers scaled by
2^(prec+10), prec >= 96.  It reads no mpmath context or memo, so no
precision set and no constant computed elsewhere in the process changes
a result; values become mpmath.mpf only on the way out.  Requests below
the precision floor raise Unachievable.

Cache policy: the rows psi(j/T) - ln a, j = 1..T, kept per (T, prec)
for T <= _ROW_MODULUS in an LRU memo of _ROW_LIMIT rows, are the only
psi cache; the default route's sum over such a T is a dot product with
its row.  Every other psi, the tails psi(K + j/T) of raw and
partial_sum_float and every slot of a modulus past the cap, is computed
afresh.  The other cache holds the Stirling coefficients per precision.
Concurrent calls need no lock: two threads may build the same row or
table, with identical results.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import libmp, mp

from .errors import Unachievable
from .vectors import CoefficientVector, _check_term_limit, ln_vector

_MIN_PREC = 96
_MAX_PREC = 1024

# the whole-series psi rows: moduli up to _ROW_MODULUS, the _ROW_LIMIT used last
_ROW_MODULUS = 64
_ROW_LIMIT = 128

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
    return _weighted_harmonic(v.weights, (k + 1) * v.modulus, k * v.modulus) / v.scale


def _weighted_harmonic(weights: tuple[int, ...], n: int, start: int = 0) -> Fraction:
    """Exact sum_{m=start+1..n} weights[(m-1) mod len(weights)] / m.

    Balanced splitting (Haible and Papanikolaou 1998): [start+1, n] is halved
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

    return split(start + 1, n + 1)


def partial_sum_exact(v: CoefficientVector, blocks: int) -> Fraction:
    """Exact rational sum of the first `blocks` blocks.

    The block-terms (blocks * modulus), which the cost grows with, are
    bounded by TERM_LIMIT; a larger request raises BudgetExceeded before
    summing.  Block k's term j is a_j / m with m = kT + j, so the sum is
    a weighted harmonic sum up to blocks * T with the vector's integer
    weights a_j D as periodic weights, divided by D once at the end.
    """
    if blocks < 0:
        raise ValueError("blocks must be >= 0")
    _check_term_limit(
        blocks * v.modulus, f"block-terms ({blocks} blocks over modulus {v.modulus})"
    )
    return _weighted_harmonic(v.weights, blocks * v.modulus) / v.scale


def harmonic(n: int) -> Fraction:
    """Exact harmonic number H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0.

    The cost grows faster than n, as the exact sum's numerator and
    denominator grow, so n stops at TERM_LIMIT.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_term_limit(n, "terms of H_n")
    return _weighted_harmonic((1,), n)


def _weighted_mass(v: CoefficientVector) -> Fraction:
    """M = sum_j |a_j| (T - j), the constant of the truncation bound."""
    T = v.modulus
    mass = sum(abs(w) * (T - j) for j, w in enumerate(v.weights, start=1))
    return Fraction(mass, v.scale)


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
    mass = _weighted_mass(v)
    if not mass:
        return 0.0
    return _float_upper(mass / (T * T * (blocks - 1)))


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
    _check_term_limit(count, f"terms of the rearranged stream for ln {modulus}")
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
    """A_n = H_n - ln n, from H_n = psi(n+1) - psi(1) (DLMF 5.4.14, 5.4.12).

    The sequence decreases to the Euler-Mascheroni constant gamma, each
    step satisfying -1/(n(n+1)) < A_{n+1} - A_n < 0.  No harmonic sum is
    formed, so the cost does not grow with n, and no limit bounds n.

    The kernel's psi(x) leaves out ln a, with a = max(32, n) at x = n + 1
    and a = 32 at x = 1 (prec = 96), so A_n is psi(n+1) - psi(1) -
    ln min(n, 32) in its values.  ln m is the paper's series over
    ln_vector(m), the whole-series sum over the row of modulus m at
    prec = 106, floored to 2^-106.

    Error, in units u = 2^-106: psi(n+1) takes at most 30 recurrence
    steps and no atanh term for n <= 31, and for n >= 32 no step and an
    atanh series of under 12u; with u for 1/(2x), N = 11 Horner steps,
    2u for the floored 1/x^2 and Stirling coefficients and 4u of series
    remainder, under 49u.  psi(1), from the row of modulus 1, takes 31
    steps: under 50u.  ln m errs by under 2u: evaluate's count at
    prec = 106 gives 67 (1/m) sum_j |a_j| < 134 units of 2^-116, and the
    floor to 2^-106 adds under one more.  So the sum is within 101u <
    2^-99 of A_n.  Rounding it to 96 bits adds at most 2^-97, as
    gamma < A_n <= 1: under 7.6e-30 in total.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = min(n, _shift_threshold(_MIN_PREC))
    ln_m = _psi_tail(ln_vector(m), 0, _MIN_PREC + 10) >> 10
    value = _psi(n + 1, 1, _MIN_PREC) - _psi_row(1, _MIN_PREC)[0] - ln_m
    return GammaPartial(n=n, value=_mpf(value, _MIN_PREC))


# ----------------------------------------------------------------------
# the floating-point kernel (digamma in fixed point)
# ----------------------------------------------------------------------


def _shift_threshold(prec: int) -> int:
    """Smallest argument at which _psi needs no upward recurrence."""
    return max(32, prec // 3)


@functools.lru_cache(maxsize=None)
def _stirling(prec: int) -> tuple[int, ...]:
    """B_2n/(2n) for n = 1..N, scaled by 2^(prec+10) and floored.

    B_2n/(2n) = (-1)^(n-1) t_n / (4^n (4^n - 1)), with the tangent
    numbers t_n = 1, 2, 16, ... (Brent and Harvey 2011) read in exact
    integers off Seidel's boustrophedon: row m + 1 is the running sums of
    row m reversed, from 0, and row 2n - 1 ends with t_n.  No mpmath
    state is read: mpmath's Bernoulli numbers past B_10 take pi from its
    constant memo, and a read in that memo's window (see cli.py) would
    alter a kept coefficient.  N stops before the first n whose term
    B_2n/(2n x^2n) is at most 2^-(prec+8) at x = the shift threshold,
    hence at every x past it.
    """
    x = _shift_threshold(prec)
    row, out = [1], []
    while True:
        n = len(out) + 1
        while len(row) < 2 * n:
            row = list(itertools.accumulate(reversed(row), initial=0))
        den = (4**n - 1) << (2 * n)
        if row[-1] << (prec + 8) <= den * x ** (2 * n):
            return tuple(out)
        out.append(((-1) ** (n - 1) * row[-1] << (prec + 10)) // den)


def _psi(p: int, T: int, prec: int) -> int:
    """psi(p/T) - ln a for p, T >= 1, scaled by 2^(prec+10); not cached.

    The anchor is a = max(threshold, (p - 1) // T), so every slot of a
    sum over j = 1..T shares it: a = threshold for the whole series
    psi(j/T), and a = max(threshold, K) for the tail psi(K + j/T).  A
    balanced sum cancels sum_j a_j ln a exactly, so no logarithm is
    taken.  Upward recurrence psi(x) = psi(x+1) - 1/x to the threshold,
    then psi(x) ~ ln x - 1/(2x) - sum_n B_2n/(2n x^2n) (DLMF 5.11.2) by
    Horner's rule in 1/x^2.  For real x > 0 the series envelopes psi, so
    the remainder after N terms is at most the first omitted term.  With
    r = p - aT in [0, T] after the recurrence, ln(x/a) = 2 atanh(y),
    y = r/(2aT + r) <= 1/(2a+1), and 2 atanh(y) = sum_k 2y y^2k/(2k+1) is
    summed with each term floored until the powers of y vanish.
    """
    wp = prec + 10
    threshold = _shift_threshold(prec)
    a = max(threshold, (p - 1) // T)
    limit = threshold * T
    shifted = 0
    while p < limit:
        shifted += (T << wp) // p
        p += T
    z = (T * T << wp) // (p * p)
    series = 0
    for b in reversed(_stirling(prec)):
        series = (series + b) * z >> wp
    r = p - a * T
    ln_xa = power = (r << (wp + 1)) // (2 * a * T + r)
    y2 = power * power >> (wp + 2)
    k = 1
    while power:
        power = power * y2 >> wp
        k += 2
        ln_xa += power // k
    return ln_xa - (T << wp) // (2 * p) - series - shifted


@functools.lru_cache(maxsize=_ROW_LIMIT)
def _psi_row(T: int, prec: int) -> tuple[int, ...]:
    """psi(j/T) - ln a for j = 1..T, scaled by 2^(prec+10), through _psi."""
    return tuple(_psi(j, T, prec) for j in range(1, T + 1))


def _psi_tail(v: CoefficientVector, blocks: int, prec: int) -> int:
    """The series after its first `blocks` blocks, scaled by 2^(prec+10).

    The next N blocks sum to (1/T) sum_j a_j (psi(blocks + N + j/T) -
    psi(blocks + j/T)); balance cancels the ln N growth of the first psi,
    so as N grows the tail is exactly -(1/T) sum_j a_j psi(blocks + j/T).
    Balance also cancels the anchor ln a that every _psi of the sum
    shares, and the sum is floored once.

    The whole series (blocks = 0) over T <= _ROW_MODULUS is the dot
    product of the weights with the memoised row _psi_row(T, prec), zero
    slots included, so one row serves every vector over its modulus and a
    warm call makes no Python call per slot.  Tails after blocks > 0, the
    one-off psi(K + j/T) of raw and partial_sum_float, and moduli past the
    cap take psi slot by slot and add no row.  Either way the sum is the
    same integer.
    """
    T = v.modulus
    if blocks or T > _ROW_MODULUS:
        total = sum([
            w * _psi(blocks * T + j, T, prec)
            for j, w in enumerate(v.weights, start=1)
            if w
        ])
    else:
        total = sum(map(operator.mul, v.weights, _psi_row(T, prec)))
    return -total // (v.scale * T)


def _mpf(fixed: int, prec: int) -> mpmath.mpf:
    """A value scaled by 2^(prec+10), rounded to a prec-bit mpf."""
    return mp.make_mpf(libmp.from_man_exp(fixed, -(prec + 10), prec, libmp.round_nearest))


def _allowance(v: CoefficientVector, value: int, prec: int) -> float:
    """2^-(prec-20) (A + |value| + 1), A = (1/T) sum_j |a_j|; value is scaled."""
    wp = prec + 10
    scale = (sum(map(abs, v.weights)) << wp) // (v.scale * v.modulus) + abs(value)
    return (scale + (1 << wp)) / (1 << (2 * prec - 10))


def partial_sum_float(v: CoefficientVector, blocks: int, prec: int = _MIN_PREC):
    """Floating partial sum of the first `blocks` blocks.

    Computed through the exact digamma identity rather than term by
    term, so the cost is independent of `blocks`.  Accurate to roughly
    the working precision; use partial_sum_exact for exactness.  prec
    must lie in [96, 1024], the range evaluate's error analysis covers.
    """
    if blocks < 0:
        raise ValueError("blocks must be >= 0")
    if not _MIN_PREC <= prec <= _MAX_PREC:
        raise ValueError(f"prec must be in [{_MIN_PREC}, {_MAX_PREC}], got {prec}")
    return _mpf(_psi_tail(v, 0, prec) - _psi_tail(v, blocks, prec), prec)


# ----------------------------------------------------------------------
# the evaluator
# ----------------------------------------------------------------------


def _working_prec(abs_err: float, v: CoefficientVector) -> int:
    err_bits = 0 if math.isinf(abs_err) else max(0, -math.floor(math.log2(abs_err)))
    # bits of each distinct coefficient w/D in lowest terms, read off the weights
    D = v.scale
    coeff_bits = max(
        (w // g).bit_length() + (D // g).bit_length()
        for w in set(v.weights)
        for g in [math.gcd(w, D)]
    )
    wanted = max(_MIN_PREC, err_bits + coeff_bits + 48)
    if wanted > _MAX_PREC:
        raise Unachievable(
            f"abs_err={abs_err} would need {wanted} bits of working precision "
            f"(ceiling {_MAX_PREC}); raise the precision ceiling instead"
        )
    return wanted


def _evaluate_raw(v, abs_err, prec) -> EvalResult:
    T = v.modulus
    if math.isinf(abs_err):
        blocks = 2
    else:
        # the tail gets abs_err less 2^-20 of it; the rest is for the allowance
        tail_err = Fraction(abs_err) * (1 - Fraction(1, 1 << 20))
        needed = _weighted_mass(v) / (Fraction(T * T) * tail_err)
        blocks = max(2, math.ceil(needed) + 1)
    # the first `blocks` blocks are the series minus its tail after them
    value = _psi_tail(v, 0, prec) - _psi_tail(v, blocks, prec)
    return EvalResult(
        value=_mpf(value, prec),
        error_bound=tail_bound(v, blocks) + _allowance(v, value, prec),
        blocks_used=blocks,
        method="raw",
        bound_is_heuristic=False,
    )


def _evaluate_accelerated(v, prefix_blocks, prec) -> EvalResult:
    blocks, head = prefix_blocks or 0, 0
    if blocks:
        prefix = partial_sum_exact(v, blocks)
        head = (prefix.numerator << (prec + 10)) // prefix.denominator
    value = head + _psi_tail(v, blocks, prec)
    return EvalResult(
        value=_mpf(value, prec),
        error_bound=_allowance(v, value, prec),
        blocks_used=blocks,
        method="accelerated",
        bound_is_heuristic=False,
    )


def evaluate(
    v: CoefficientVector,
    abs_err: float,
    method: str = "accelerated",
    *,
    prefix_blocks: int | None = None,
) -> EvalResult:
    """Evaluate the series of v to within abs_err (see module docstring).

    Both routes report a rigorous bound within abs_err, at a precision
    prec >= 96 set by abs_err and the coefficients.  raw mode keeps 2^-20
    of abs_err for rounding when it picks the truncation K; its K-block
    sum is two psi tails, so its cost does not grow with K and no limit
    bounds it.  accelerated mode sums no block and returns
    -(1/T) sum_j a_j psi(j/T).  An explicit `prefix_blocks` K0 > 0 sums
    K0 blocks exactly and adds -(1/T) sum_j a_j psi(K0 + j/T); K0 T over
    TERM_LIMIT raises BudgetExceeded, as partial_sum_exact does.
    raw mode picks its own K, so passing `prefix_blocks` with it raises
    ValueError.

    Error, in units u = 2^-(prec+10) of the fixed-point kernel: the tail
    identity is exact, balance cancels the anchor ln a exactly, and each
    floor division errs by under u.  Every _psi value, for every x > 0,
    is within threshold + N + K + 11 units of psi(x) - ln a: at most
    threshold recurrence steps (all of them for x = j/T < 1), one for
    1/(2x), N Horner steps, under one each for the floored 1/x^2 and the
    floored Stirling coefficients carried through the sum (x^-2 <=
    2^-10), K + 4 for 2 atanh(y) = ln(x/a), and 4 for the Stirling
    remainder 2^-(prec+8).  The atanh series takes its first term 2y and
    K more, where K is the largest k with (2 threshold + 1)^(2k+1) <
    2^(prec+11), since y <= 1/(2 threshold + 1) and a smaller power
    floors to zero.  Each of its K + 1 floored terms errs by under u;
    each floored power is under 1.04u low, which its divisor 2k+1
    shrinks to under 2.08u over all k <= K + 1, the dropped remainder
    included.  With threshold <= 341, N <= 108 and K <= 54 (prec <= 1024)
    that is under 520u < 2^10 u, whatever |psi(x)| is.  Weighted by a_j/T
    and floored once, a tail errs by under 2^10 u A + u, with
    A = (1/T) sum_j |a_j|; a prefix adds u, raw's two tails twice
    2^10 u A + u, and rounding to prec bits adds 2^10 u |value|.  So the
    total is under 2^11 u (A + |value| + 1), 2^19 times below the
    reported 2^-(prec-20) (A + |value| + 1), for every prefix_blocks.
    raw adds its tail bound.

    Unachievable signals that abs_err sits below the working-precision
    floor, or that rounding would push the bound past it.
    """
    if not abs_err > 0:
        raise ValueError("abs_err must be positive")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if prefix_blocks is not None:
        if method == "raw":
            raise ValueError("prefix_blocks applies to the accelerated method only")
        if prefix_blocks < 0:
            raise ValueError("prefix_blocks must be >= 0")
    if v.is_zero():
        return EvalResult(
            value=mpmath.mpf(0),
            error_bound=0.0,
            blocks_used=2 if method == "raw" else 0,
            method=method,
            bound_is_heuristic=False,
        )
    prec = _working_prec(abs_err, v)
    if method == "raw":
        result = _evaluate_raw(v, abs_err, prec)
    else:
        result = _evaluate_accelerated(v, prefix_blocks, prec)
    if result.error_bound > abs_err:
        raise Unachievable(
            f"{prec} bits of working precision cannot reach abs_err={abs_err}"
        )
    return result
