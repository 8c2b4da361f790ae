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

Both routes are psi tails, and a tail takes one of two sums.  The whole
series over T <= _ROW_MODULUS is a dot product with a memoised row.
Every other tail splits off the vector's most common weight c, when that
saves a psi, and sums c's share through Gauss's multiplication formula
(DLMF 5.5.6) in one psi and at most one logarithm: a tail pays one psi
per slot whose weight is not c, plus one, so ln T costs two psi past the
cap.  c = 0 is the plain slot loop.  _psi_tail makes that choice once
per tail and returns, with the value, the magnitude the chosen sum
carries, which is what the rounding allowance charges.

Exact partial sums, harmonic numbers and the term stream of the
rearranged form live here as well, all in exact rational arithmetic,
and so do the Euler-Mascheroni partials H_n - ln n, computed by the
floating-point kernel as psi(n+1) - psi(1) - ln n with no harmonic
sum.  The stream's terms are +-1/m, already in lowest terms, so each
is built from its two integers with no gcd, at a cost that grows with
the number of terms and not with T.
Every exact sum of 1/m over a range of m, H_b - H_a, goes through
one kernel over odd denominators: the odd o in (a, b] and below count
with a weight of powers of 2, constant on at most 2 bitlen(b) blocks.
Harmonic numbers are H_n - H_0, the partial sums of a multiple of ln T
are H_{NT} - H_N, and the rearranged stream's are H_{cT+r} - H_c.  Other
partial sums are weighted harmonic sums sum_m w_m / m with periodic
integer weights.  Both sum by balanced splitting with one rule: a run
of at most _LEAF terms is one unreduced integer pair, reduced once into
a Fraction, and longer runs merge their halves as Fractions, rather than
adding one term at a time to an ever larger running rational.  The
floating-point kernel computes psi, less a logarithm ln a that balance
cancels, and the logarithms of rationals that Gauss's formula and the
Euler-Mascheroni partials leave, in integers scaled by 2^(prec+10),
prec >= 96.  It reads no mpmath context or memo, so no precision set
and no constant computed elsewhere in the process changes a result;
values become mpmath.mpf only on the way out.  Requests below the
precision floor raise Unachievable.

Cache policy: the rows psi(j/T) - ln a, j = 1..T, kept per (T, prec)
for T <= _ROW_MODULUS in an LRU memo of _ROW_LIMIT rows, are the only
psi cache; the default route's sum over such a T is a dot product with
its row.  Every other psi, the tails psi(K + j/T) of raw and
partial_sum_float and the slots of a modulus past the cap, and every
logarithm (ln 2 included) is computed afresh.  The other cache holds the
Stirling coefficients per precision.
Concurrent calls need no lock: two threads may build the same row or
table, with identical results.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
from mpmath import libmp, mp

from .errors import Unachievable
from .vectors import CoefficientVector, _check_term_limit

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


# the balanced splittings' leaf: at most _LEAF terms summed as one unreduced
# pair (128 and 256 measure level, 32 and 512 are slower)
_LEAF = 128
# leaf(lo, hi): the terms lo <= k < hi as one unreduced pair (p, q), q > 0
_Leaf = Callable[[int, int], tuple[int, int]]


def _balanced(lo: int, hi: int, leaf: _Leaf) -> Fraction:
    """The sum of the terms lo <= k < hi, leaf(lo, hi) giving a run's pair.

    Balanced splitting (Haible and Papanikolaou 1998): the range is halved
    until a piece holds at most _LEAF terms, each piece is summed
    sequentially as one unreduced integer pair leaf(lo, hi), with no gcd
    inside it, and the pair becomes one Fraction, reduced once.  Halves
    merge by Fraction addition, so every gcd runs on operands of balanced
    size: a pair carried to the top would keep every factor of every
    term's denominator, and its final gcd is quadratic in its size.
    """
    if hi - lo > _LEAF:
        mid = (lo + hi) // 2
        return _balanced(lo, mid, leaf) + _balanced(mid, hi, leaf)
    return Fraction(*leaf(lo, hi))


def _odd_leaf(lo: int, hi: int) -> tuple[int, int]:
    """1/(2k+1) summed over lo <= k < hi, as an unreduced pair."""
    p, q = 0, 1
    for m in range(2 * lo + 1, 2 * hi + 1, 2):
        p = p * m + q
        q *= m
    return p, q


def _weighted_harmonic(weights: tuple[int, ...], n: int, start: int = 0) -> Fraction:
    """Exact sum_{m=start+1..n} weights[(m-1) mod len(weights)] / m.

    Summed by _balanced over the integers m: a leaf skips the zero
    weights and sums at most _LEAF terms as one unreduced integer pair,
    and the leaves' Fractions merge in balanced halves.
    """
    period = len(weights)

    def leaf(lo: int, hi: int) -> tuple[int, int]:
        p, q = 0, 1
        for m in range(lo, hi):
            w = weights[(m - 1) % period]
            if w:
                p = p * m + w * q
                q *= m
        return p, q

    return _balanced(start + 1, n + 1, leaf)


def _harmonic_range(a: int, b: int) -> Fraction:
    """Exact sum_{a<m<=b} 1/m = H_b - H_a, for 0 <= a <= b, over odd denominators.

    Write m = 2^i o with o odd.  Then a < m <= b iff a >> i < o <= b >> i,
    as 2^i o <= b iff o <= floor(b / 2^i), and likewise for a.  So each
    odd o counts with weight w(o) = sum 2^-i over the i with
    a >> i < o <= b >> i, and H_b - H_a = sum_o w(o)/o.  As o runs up, i
    joins w past the cut a >> i and leaves it past the cut b >> i, so w is
    constant on each block (x, y] between consecutive points of the sorted
    cut set {a >> i} u {b >> i}, i < L = bitlen(b) (from i = L on,
    b >> i = 0 and no o qualifies): at most 2L blocks.  In units of 2^-L,
    w on (x, y] is the sum over the cuts z <= x of 2^(L-i) for z = a >> i,
    less 2^(L-i) for z = b >> i.  The sum is divided by 2^L once.  Each
    odd o <= b is summed at most once, so the kernel sums at most b/2
    terms, every one with an odd denominator and so fewer bits for its
    gcds: half the terms of H_n, and at most NT/2 for H_{NT} - H_N, where
    the periodic weights sum NT.

    A block of at most _LEAF odd terms is one _odd_leaf pair r/s, folded
    with its weight w into one running unreduced pair p/q as
    (p s + q r w, q s), which becomes one Fraction at the end.  That pair
    stays small because each of its blocks is at most one leaf, and there
    are at most 2L blocks: over 40,000 random ranges with b <= 10^6 it
    held at most 514 odd terms (257 for H_n).  A longer block goes through
    _balanced, and its Fraction, weighted, joins a running Fraction.  A
    short range needs no path of its own: its blocks are all short, so
    the running pair sums it.

    For a = 0 the blocks are the dyadic (b >> (l+1), b >> l] with weight
    2 - 2^-l: the odd-part decomposition of the binary-split factorial
    (P. Luschny; CPython's math.factorial).
    """
    L = b.bit_length()
    steps = collections.Counter()
    for i in range(L):
        steps[a >> i] += 1 << (L - i)
        steps[b >> i] -= 1 << (L - i)
    cuts = sorted(steps)
    low, total, weight = (0, 1), Fraction(0), 0
    for x, y in zip(cuts, cuts[1:]):
        weight += steps[x]
        if not weight:
            continue
        # the odd o in (x, y] are 2k + 1 for lo <= k < hi
        lo, hi = (x + 1) >> 1, (y + 1) >> 1
        if hi - lo <= _LEAF:
            (p, q), (r, s) = low, _odd_leaf(lo, hi)
            low = p * s + q * r * weight, q * s
        else:
            total += weight * _balanced(lo, hi, _odd_leaf)
    return (total + Fraction(*low)) / (1 << L)


def partial_sum_exact(v: CoefficientVector, blocks: int) -> Fraction:
    """Exact rational sum of the first `blocks` blocks.

    The block-terms (blocks * modulus), which the cost grows with, are
    bounded by TERM_LIMIT; a larger request raises BudgetExceeded before
    summing.  Block k's term j is a_j / m with m = kT + j, so the sum is
    a weighted harmonic sum up to N T, N = blocks, with the vector's
    integer weights a_j D as periodic weights, divided by D once at the
    end.  A multiple of ln_vector(T), every weight but the last equal to
    c = a_1 D (balance makes the last -(T-1) c), sums instead to

        (c/D) sum_{k<N} (sum_j 1/(kT+j) - T/(kT+T)) = (c/D) (H_{NT} - H_N),

    as the terms 1/(kT+j) run over 1/m for m <= NT and T/(kT+T) = 1/(k+1)
    over 1/m for m <= N: one _harmonic_range(N, NT) over odd denominators.
    """
    if blocks < 0:
        raise ValueError("blocks must be >= 0")
    T = v.modulus
    _check_term_limit(blocks * T, f"block-terms ({blocks} blocks over modulus {T})")
    weights = v.weights
    if weights[:-1] == weights[:1] * (T - 1):
        return Fraction(weights[0], v.scale) * _harmonic_range(blocks, blocks * T)
    return _weighted_harmonic(weights, blocks * T) / v.scale


def harmonic(n: int) -> Fraction:
    """Exact harmonic number H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0.

    _harmonic_range(0, n): over odd denominators only, in the dyadic
    blocks (n >> (l+1), n >> l] weighted 2 - 2^-l.  The cost grows faster
    than n, as the exact sum's numerator and denominator grow, so n stops
    at TERM_LIMIT, checked before any term is summed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_term_limit(n, "terms of H_n")
    return _harmonic_range(0, n)


def _weighted_mass(v: CoefficientVector) -> int:
    """M D = sum_j |a_j D| (T - j): the truncation bound's constant M, times D."""
    T = v.modulus
    return sum(abs(w) * (T - j) for j, w in enumerate(v.weights, start=1))


def _float_upper(num: int, den: int) -> float:
    """Smallest convenient float that is >= num/den, for num >= 0, den > 0.

    A quotient past the double range gives inf, still an upper bound.
    """
    try:
        f = num / den
    except OverflowError:
        return math.inf
    p, q = f.as_integer_ratio()
    return f if p * den >= num * q else math.nextafter(f, math.inf)


def tail_bound(v: CoefficientVector, blocks: int) -> float:
    """Rigorous bound on |series - partial_sum_exact(v, blocks)|.

    Returns M / (T^2 (blocks - 1)) rounded upward, or inf past the
    double range.  Requires blocks >= 2.  For the modulus-1 vector
    (necessarily zero) the bound is 0.
    """
    if blocks < 2:
        raise ValueError("tail bound requires at least 2 blocks")
    return _float_upper(_weighted_mass(v), v.scale * v.modulus**2 * (blocks - 1))


def _lowest_terms(numerator: int, denominator: int) -> Fraction:
    """numerator/denominator as a Fraction, with no type dispatch and no gcd.

    Only for a coprime pair with denominator > 0, which is then already in
    lowest terms: the Fraction(numerator, denominator) would hold the same
    pair.  It fills Fraction's two slots directly, so it relies on
    Fraction.__slots__ being ('_numerator', '_denominator'), as it is on
    CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0, whose ==, hash, str, repr
    and pickling read only those two slots.
    """
    term = object.__new__(Fraction)
    term._numerator = numerator
    term._denominator = denominator
    return term


def rearranged_terms(modulus: int, count: int) -> list[Fraction]:
    """First `count` terms of the rearranged stream for ln T.

    Block k contributes the T terms 1/(kT+1), ..., 1/(kT+T) followed by
    the balancing term -1/(k+1); the stream rearranges the conditionally
    convergent series 1 - 1 + 1/2 - 1/2 + ...  Valid for modulus >= 1.
    Every term is +-1/m with m >= 1, already in lowest terms, so it is
    built from its two integers by _lowest_terms, in one pass: the c whole
    blocks of T + 1 terms, then the first r terms of block c, where
    count = c (T + 1) + r.  The cost grows with `count` alone, whatever T.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_term_limit(count, f"terms of the rearranged stream for ln {modulus}")
    # filled in place, so the list has none of the spare slots appends leave
    out: list[Fraction] = [None] * count
    blocks, rest = divmod(count, modulus + 1)
    i = 0
    for k in range(blocks):
        base = k * modulus
        for m in range(base + 1, base + modulus + 1):
            out[i] = _lowest_terms(1, m)
            i += 1
        out[i] = _lowest_terms(-1, k + 1)
        i += 1
    base = blocks * modulus
    for m in range(base + 1, base + rest + 1):
        out[i] = _lowest_terms(1, m)
        i += 1
    return out


def gamma_partial(n: int) -> GammaPartial:
    """A_n = H_n - ln n, from H_n = psi(n+1) - psi(1) (DLMF 5.4.14, 5.4.12).

    The sequence decreases to the Euler-Mascheroni constant gamma, each
    step satisfying -1/(n(n+1)) < A_{n+1} - A_n < 0.  No harmonic sum is
    formed, so the cost does not grow with n, and no limit bounds n.

    The kernel's psi(x) leaves out ln a, with a = max(32, n) at x = n + 1
    and a = 32 at x = 1 (prec = 96), so A_n is psi(n+1) - psi(1) -
    ln min(n, 32) in its values.  ln m is the kernel's integer
    logarithm _ln(m, 1, 96), which reads no row and no mpmath memo.

    Error, in units u = 2^-106: psi(n+1) takes at most 30 recurrence
    steps and no atanh term for n <= 31, and for n >= 32 no step and an
    atanh series of under 12u; with u for 1/(2x), N = 11 Horner steps,
    2u for the floored 1/x^2 and Stirling coefficients and 4u of series
    remainder, under 49u.  psi(1), from the row of modulus 1, takes 31
    steps: under 50u.  ln m errs by under 2u, as _ln's docstring counts.
    So the sum is within 101u < 2^-99 of A_n.  Rounding it to 96 bits
    adds at most 2^-97, as gamma < A_n <= 1: under 7.6e-30 in total.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = min(n, _shift_threshold(_MIN_PREC))
    value = _psi(n + 1, 1, _MIN_PREC) - _psi_row(1, _MIN_PREC)[0] - _ln(m, 1, _MIN_PREC)
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
    y = r/(2aT + r) <= 1/(2a+1), summed by _atanh2.
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
    return _atanh2(r, 2 * a * T + r, wp) - (T << wp) // (2 * p) - series - shifted


def _atanh2(n: int, d: int, wp: int) -> int:
    """2 atanh(n/d) = ln((d + n)/(d - n)) for 0 <= n < d, scaled by 2^wp.

    The series sum_k 2y^(2k+1)/(2k+1), y = n/d, with each power taken
    from the last as power * n^2 // d^2 and each term floored, until the
    powers floor to zero.
    """
    power = total = (n << (wp + 1)) // d
    n2, d2 = n * n, d * d
    k = 1
    while power:
        power = power * n2 // d2
        k += 2
        total += power // k
    return total


def _ln(p: int, q: int, prec: int) -> int:
    """ln(p/q) for p, q >= 1, scaled by 2^(prec+10); not cached.

    p/q = 2^e x with x in [2/3, 4/3), so ln(p/q) = e ln 2 + 2 atanh(y)
    with y = (x - 1)/(x + 1) in [-1/5, 1/7), and ln 2 = 18 atanh(1/26)
    - 2 atanh(1/4801) + 8 atanh(1/8749); a negative y takes the negated
    _atanh2 of -y, no ln 2 is formed when e = 0, and p = q gives 0.
    Reads no mpmath memo.

    Within 2 units for prec <= 1024 and |e| < 128.  The sums run at
    g = 12 + bitlen|e| guard bits.  An _atanh2 of K terms after 2y errs
    by under K + 6 units: each floored term by under 1, and each floored
    power by under 1/(1 - y^2) <= 25/24, which 2k + 1 divides.  That is
    under 2^8 units for |y| <= 1/5 (K <= 227) and under 2^11 for the
    weighted ln 2 (K <= 113, 44 and 41), so the sum errs by under
    |e| 2^11 + 2^8 < 2^g units, and dropping the guard bits leaves under
    1 unit plus the final floor.
    """
    # 3p / 2q = 2^e (3x/2) with 3x/2 in [1, 2)
    e = (3 * p).bit_length() - (2 * q).bit_length()
    if 3 * p << max(0, -e) < 2 * q << max(0, e):
        e -= 1
    num, den = (p, q << e) if e >= 0 else (p << -e, q)
    guard = 12 + abs(e).bit_length()
    wp = prec + 10 + guard
    if num >= den:
        total = _atanh2(num - den, num + den, wp)
    else:
        total = -_atanh2(den - num, num + den, wp)
    if e:
        ln2 = 9 * _atanh2(1, 26, wp) - _atanh2(1, 4801, wp) + 4 * _atanh2(1, 8749, wp)
        total += e * ln2
    return total >> guard


@functools.lru_cache(maxsize=_ROW_LIMIT)
def _psi_row(T: int, prec: int) -> tuple[int, ...]:
    """psi(j/T) - ln a for j = 1..T, scaled by 2^(prec+10), through _psi."""
    return tuple(_psi(j, T, prec) for j in range(1, T + 1))


def _psi_tail(v: CoefficientVector, blocks: int, prec: int) -> tuple[int, int]:
    """(value, carried): the series after its first `blocks` blocks.

    value is scaled by 2^(prec+10).  The next N blocks sum to
    (1/T) sum_j a_j (psi(blocks + N + j/T) - psi(blocks + j/T)); balance
    cancels the ln N growth of the first psi, so as N grows the tail is
    exactly -(1/T) sum_j a_j psi(blocks + j/T).  Balance also cancels
    the anchor ln a that every _psi of the sum shares, and the sum is
    floored once.

    The whole series (blocks = 0) over T <= _ROW_MODULUS is the dot
    product of the weights with the memoised row _psi_row(T, prec), zero
    slots included, so one row serves every vector over its modulus and a
    warm call makes no Python call per slot.  Every other tail splits off
    c, the most common weight (the first in slot order among ties), where
    that saves a psi: nnz(a - c) + 1 < nnz(a), so c fills at least two
    more slots than 0 does; otherwise c = 0, the plain slot loop.  Then
    sum_j a_j psi_j = c sum_j psi_j + sum_{a_j != c} (a_j - c) psi_j, and
    Gauss's multiplication formula (DLMF 5.5.6) gives sum_j psi(K + j/T)
    = T (psi(KT + 1) - ln T).  With the anchors of _psi,
    a = max(threshold, K) for the slots and max(threshold, KT) for
    psi(KT + 1), that reads

        sum_j _psi(KT + j, T) = T _psi(KT + 1, 1) + T ln(max(threshold, KT)
                                / (T max(threshold, K))),

    and the ratio is 1 for K >= threshold, so those tails take no
    logarithm.  So the tail costs one psi per slot whose weight is not c,
    plus one, and adds no row.

    carried is |c| T + sum_j |w_j - c| in the units of the weights
    w_j = a_j D, c being one of them or 0: the magnitude whose psi errors
    value carries, which _allowance charges.  The row route takes c = 0,
    and off the row the count of each distinct weight gives it.
    """
    T = v.modulus
    weights = v.weights
    if not blocks and T <= _ROW_MODULUS:
        total = sum(map(operator.mul, weights, _psi_row(T, prec)))
        return -total // (v.scale * T), sum(map(abs, weights))
    counts = collections.Counter(weights)
    c = max(counts, key=counts.__getitem__)
    if counts[c] <= counts[0] + 1:
        c = 0
    carried = abs(c) * T + sum(n * abs(w - c) for w, n in counts.items())
    start = blocks * T
    total = sum([
        (w - c) * _psi(start + j, T, prec)
        for j, w in enumerate(weights, start=1)
        if w != c
    ])
    if c:
        threshold = _shift_threshold(prec)
        ratio = _ln(max(threshold, start), T * max(threshold, blocks), prec)
        total += c * T * (_psi(start + 1, 1, prec) + ratio)
    return -total // (v.scale * T), carried


def _mpf(fixed: int, prec: int) -> mpmath.mpf:
    """A value scaled by 2^(prec+10), rounded to a prec-bit mpf."""
    return mp.make_mpf(libmp.from_man_exp(fixed, -(prec + 10), prec, libmp.round_nearest))


def _allowance(v: CoefficientVector, value: int, prec: int, carried: int) -> float:
    """2^-(prec-20) (R + |value| + 1); value is scaled.

    R = carried / (D T) is the magnitude of the psi tail that value came
    from, the carried count _psi_tail returns.
    """
    wp = prec + 10
    scale = (carried << wp) // (v.scale * v.modulus) + abs(value)
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
    return _mpf(_psi_tail(v, 0, prec)[0] - _psi_tail(v, blocks, prec)[0], prec)


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
    identity and Gauss's multiplication formula are exact, balance
    cancels the anchor ln a exactly, and each floor division errs by
    under u.  Every _psi value, for every x > 0, is within
    threshold + N + K + 11 units of psi(x) - ln a: at most
    threshold recurrence steps (all of them for x = j/T < 1), one for
    1/(2x), N Horner steps, under one each for the floored 1/x^2 and the
    floored Stirling coefficients carried through the sum (x^-2 <=
    2^-10), K + 4 for 2 atanh(y) = ln(x/a), and 4 for the Stirling
    remainder 2^-(prec+8).  The atanh series takes its first term 2y and
    K more, where K is the largest k with (2 threshold + 1)^(2k+1) <
    2^(prec+11), since y <= 1/(2 threshold + 1) and a smaller power
    floors to zero.  Each of its K + 1 floored terms errs by under u;
    each floored power is under 1/(1 - y^2) < 1.0001u low, which its
    divisor 2k+1 shrinks to under 2.1u over all k <= K + 1, the dropped
    remainder included.  With threshold <= 341, N <= 108 and K <= 54
    (prec <= 1024) that is under 520u, whatever |psi(x)| is, and _ln is
    within 2u.  A tail that takes the coefficient c in closed form (the
    weight _psi_tail splits off, over D) sums (a_j - c) psi(K + j/T) over
    the slots with a_j != c, and c T (psi(KT + 1) + ln r) for the rest,
    so weighted by 1/T and floored once it errs by under 2^10 u R + u,
    with R = (1/T) (|c| T + sum_j |a_j - c|): the count the tail returns
    as carried, over D T.  The row route and the slot loop are c = 0,
    where R is A = (1/T) sum_j |a_j|, and R >= A for every c.  raw's two
    tails take the same c, or 0 for the row, so they err by under twice
    2^10 u R + u with the R its tail after K blocks carries; a prefix
    adds u, and rounding to prec bits adds
    2^10 u |value|.  So the total is under 2^11 u (R + |value| + 1),
    2^19 times below the reported 2^-(prec-20) (R + |value| + 1), for
    every prefix_blocks.  raw adds its tail bound.

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
        blocks, mass, den = 2, _weighted_mass(v), v.scale * v.modulus**2
        if not math.isinf(abs_err):
            # the tail gets abs_err n/d less 2^-20 of it; the rest is for the
            # allowance: K - 1 >= M / (T^2 (n/d) (1 - 2^-20)), in integers
            n, d = abs_err.as_integer_ratio()
            blocks = max(2, -(-(mass * d << 20) // (den * n * ((1 << 20) - 1))) + 1)
        # the first `blocks` blocks are the series minus its tail after them
        tail, carried = _psi_tail(v, blocks, prec)
        value = _psi_tail(v, 0, prec)[0] - tail
        bound = _float_upper(mass, den * (blocks - 1))
    else:
        blocks, value, bound = prefix_blocks or 0, 0, 0.0
        if blocks:
            prefix = partial_sum_exact(v, blocks)
            value = (prefix.numerator << (prec + 10)) // prefix.denominator
        tail, carried = _psi_tail(v, blocks, prec)
        value += tail
    bound += _allowance(v, value, prec, carried)
    if bound > abs_err:
        raise Unachievable(
            f"{prec} bits of working precision cannot reach abs_err={abs_err}"
        )
    return EvalResult(
        value=_mpf(value, prec),
        error_bound=bound,
        blocks_used=blocks,
        method=method,
        bound_is_heuristic=False,
    )
