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
  the tail from block 0, so no block is summed.  Nothing is truncated,
  so the reported bound is a rounding allowance alone, and it is rigorous.

accelerated is one psi tail and raw two, and a tail takes one of two
sums.  The whole series over T <= _ROW_MODULUS is a dot product with a
memoised row.  Every other tail splits off the vector's most common
weight c, when that saves a psi, and sums c's share through Gauss's
multiplication formula (DLMF 5.5.6) in one psi and at most one
logarithm: a tail pays one psi per slot whose weight is not c, plus one,
so ln T costs two psi past the cap.  c = 0 is the plain slot loop.
_psi_tail makes that choice once per tail and returns, with the value,
the magnitude the chosen sum carries, which is what the rounding
allowance charges.

Exact partial sums, harmonic numbers and the term stream of the
rearranged form live here as well, all in exact rational arithmetic,
and so do the Euler-Mascheroni partials H_n - ln n, computed by the
floating-point kernel as psi(n+1) - psi(1) - ln n with no harmonic
sum.  The stream's terms are +-1/m, already in lowest terms, so its m
are built as one integer list with no Python step per term, and each
term from its two integers with no gcd, at a cost that grows with the
number of terms; T changes it little.

Every exact sum of w_m/m over a range (a, b], with periodic integer
weights w of period T, goes through _harmonic_range on one kernel, the
wheel over 2 3: each o prime to 6 counts once, with the weights of the
m = 2^i 3^j o in range.  On each block between consecutive cuts
a // s, b // s those weights depend on o mod T alone, so a block takes
one table of at most 2T/gcd(T, 6) integers, or one integer when they
are equal, and a leaf takes its o two at a time, or one class of o at
a time.  Harmonic numbers are H_n - H_0, the partial sums of a multiple
c of ln T are c (H_{NT} - H_N), and the rearranged stream's are
H_{cT+r} - H_c, all of period 1; every other partial sum is the range
(0, NT] with the vector's weights.  The wheel sums about a third of
the terms.

The blocks go through one balanced split, over all their units taken
as one sequence: a run of at most _LEAF terms is one unreduced integer
pair, reduced once, and longer runs merge their halves as coprime
integer pairs by Fraction's own two-gcd rule, rather than adding one
term at a time to an ever larger running rational.  Only the top pair
becomes a Fraction.  block_term alone sums its one block of T terms over
the integers, by the same rule.

The floating-point kernel computes psi, less a logarithm ln a that balance
cancels, and the logarithms of rationals that Gauss's formula and the
Euler-Mascheroni partials leave, in integers scaled by 2^(prec+10),
prec >= 96.  It reads no mpmath context or memo, so no precision set
and no constant computed elsewhere in the process changes a result.
A kernel value leaves this module in one form, the pair (m, e) for the
value m 2^e: the scaled integer rounded once to prec bits by _round, to
nearest with ties to even, logser's one rounding rule.  _partial, the
one kernel sum of the first K blocks or of the whole series, returns
that pair with its exact allowance, and _gamma_partial with its proved
error; _evaluate returns _partial's pair with its rounded-up bound and
its blocks, and partial_sum_float reads the pair.  Every other form is
read off the pair exactly: _mpf(m, e) is the mpmath.mpf of that value,
made with no precision and no rounding mode, for evaluate, gamma_partial
and partial_sum_float, and imports mpmath on its first call; _double is
the nearest double, what float() of that mpf gives, for quadrature and
the CLI, which prints its digits from the pair itself.  The result that
_unread builds for verify_zero and pi_with_series holds the pair and
calls _mpf on the first read of its value.  So the exact sums,
tail_bound, the vectors, pi, the integral checks and a zero check whose
value is never read never load mpmath.  Requests below the precision
floor raise Unachievable.

Cache policy: the rows psi(j/T) - ln a, j = 1..T, kept per (T, prec)
for T <= _ROW_MODULUS in an LRU memo of _ROW_LIMIT rows, are the only
psi cache; the default route's sum over such a T is a dot product with
its row.  Every other psi, the tails psi(K + j/T) of raw and
partial_sum_float and the slots of a modulus past the cap, and every
logarithm (ln 2 included) is computed afresh.  The other cache holds the
Stirling coefficients per precision.
Concurrent calls need no lock: two threads may build the same row or
table, with identical results, and the interpreter's import lock lets
one thread import mpmath while the other waits for it.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import warnings
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

from .errors import Unachievable
from .vectors import CoefficientVector, _check_term_limit, _Record

_MIN_PREC = 96
_MAX_PREC = 1024

# the whole-series psi rows: moduli up to _ROW_MODULUS, the _ROW_LIMIT used last
_ROW_MODULUS = 64
_ROW_LIMIT = 128

_METHODS = ("raw", "accelerated")


class EvalResult(_Record):
    """Outcome of a series evaluation.

    Unless ``bound_is_heuristic`` is set, the true series value lies
    within ``error_bound`` of ``value``.
    """

    value: mpmath.mpf
    error_bound: float
    blocks_used: int
    method: str
    bound_is_heuristic: bool

    def __init__(self, value: mpmath.mpf, error_bound: float, blocks_used: int,
                 method: str, bound_is_heuristic: bool) -> None:
        vars(self).update(value=value, error_bound=error_bound, blocks_used=blocks_used,
                          method=method, bound_is_heuristic=bound_is_heuristic)

    @functools.cached_property
    def value(self) -> mpmath.mpf:
        # reached only by a result of _unread, whose value is not yet built
        return _mpf(*self._value)


def _unread(value: tuple[int, int], bound: float, blocks: int, method: str) -> EvalResult:
    """An EvalResult whose value is _mpf(*value), built on its first read.

    value is _evaluate's pair (m, e), which the result holds as
    ``_value`` until then.  ==, hash, repr, pickle and deepcopy give what
    the eager result gives, as each reads the value or copies the pair.
    """
    result = object.__new__(EvalResult)
    vars(result).update(_value=value, error_bound=bound, blocks_used=blocks,
                        method=method, bound_is_heuristic=False)
    return result


class GammaPartial(_Record):
    """The n-th partial H_n - ln n of the Euler-Mascheroni limit."""

    n: int
    value: mpmath.mpf

    def __init__(self, n: int, value: mpmath.mpf) -> None:
        vars(self).update(n=n, value=value)


def block_term(v: CoefficientVector, k: int) -> Fraction:
    """Exact value of block k: sum_j a_j / (k*T + j).

    The T terms are summed over the integers by _weighted_harmonic: on the
    wheel, (kT, kT + T] would pay _harmonic_range's setup of a block and
    a table per cut a // s, b // s for T terms (3000 calls at T = 12 took
    12 -> 123 ms that way), and this route shares no code with
    partial_sum_exact's.
    """
    if k < 0:
        raise ValueError("block index must be >= 0")
    return _weighted_harmonic(v.weights, (k + 1) * v.modulus, k * v.modulus) / v.scale


# the balanced splittings' leaf: at most _LEAF terms summed as one unreduced
# pair (128 and 256 measure level, 32 and 512 are slower)
_LEAF = 128
# leaf(lo, hi): the terms lo <= k < hi as one unreduced pair (p, q), q > 0
_Leaf = Callable[[int, int], tuple[int, int]]


def _balanced(lo: int, hi: int, leaf: _Leaf, scale: int = 1) -> Fraction:
    """The sum of the terms lo <= k < hi, over scale > 0; leaf(lo, hi) gives a run's pair.

    Balanced splitting (Haible and Papanikolaou 1998) by _balanced_pair,
    whose top pair is coprime, so the scale takes one gcd with the
    numerator alone and the quotient, coprime too, becomes a Fraction
    through _lowest_terms with no further gcd.
    """
    p, q = _balanced_pair(lo, hi, leaf)
    g = math.gcd(p, scale)
    return _lowest_terms((p // g,), [q * (scale // g)])[0]


def _balanced_pair(lo: int, hi: int, leaf: _Leaf) -> tuple[int, int]:
    """The sum of the terms lo <= k < hi as a coprime pair (p, q), q > 0.

    The range is halved until a piece holds at most _LEAF terms, each
    piece is summed sequentially as one unreduced integer pair
    leaf(lo, hi), with no gcd inside it, and that pair is reduced once.
    Halves merge by Fraction._add's rule on coprime pairs: g = gcd of the
    denominators, then one gcd of the new numerator with g alone, so each
    merge holds the reduced pair that adding the halves as Fractions
    would, with no Fraction built.  Every gcd runs on operands of
    balanced size: an unreduced pair carried to the top would keep every
    factor of every term's denominator, and its final gcd is quadratic in
    its size.
    """
    if hi - lo > _LEAF:
        mid = (lo + hi) // 2
        na, da = _balanced_pair(lo, mid, leaf)
        nb, db = _balanced_pair(mid, hi, leaf)
        g = math.gcd(da, db)
        if g == 1:
            return na * db + da * nb, da * db
        s = da // g
        t = na * (db // g) + nb * s
        g2 = math.gcd(t, g)
        if g2 == 1:
            return t, s * db
        return t // g2, s * (db // g2)
    p, q = leaf(lo, hi)
    g = math.gcd(p, q)
    return p // g, q // g


def _weighted_harmonic(weights: tuple[int, ...], n: int, start: int = 0) -> Fraction:
    """Exact sum_{m=start+1..n} weights[(m-1) mod len(weights)] / m.

    Summed by _balanced over the integers m: a leaf skips the zero
    weights and sums at most _LEAF terms as one unreduced integer pair,
    and the leaves' reduced pairs merge in balanced halves.
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


def _wheel_leaf(lo: int, hi: int) -> tuple[int, int]:
    """1/u_k over lo <= k < hi, u_k = 3k + 1 + (k & 1), as an unreduced pair.

    u_k is the k-th integer prime to 6: 1, 5, 7, 11, ...  The units
    6j + 1 and 6j + 5 (k = 2j, 2j + 1) join two at a time, as
    (12j + 6)/((6j + 1)(6j + 5)); an odd lo or an odd count leaves one
    unit to join alone at either end.
    """
    p, q = 0, 1
    if lo & 1 and lo < hi:
        p, q, lo = 1, 3 * lo + 2, lo + 1
    for m in range(3 * lo + 1, 3 * hi - 4, 6):
        d = m * (m + 4)
        p = p * d + q * (2 * m + 4)
        q *= d
    if (hi - lo) & 1:
        m = 3 * hi - 2
        p, q = p * m + q, q * m
    return p, q


def _periodic_wheel_leaf(table: list[int], base: int, lo: int, hi: int) -> tuple[int, int]:
    """table[(k - base) mod P]/u_k over lo <= k < hi, P = len(table), as an unreduced pair.

    Zero weights are skipped.  A run of at least 8P terms lies in a block
    whose table is a whole period of u_k mod T, and that period is even,
    so u_{k+P} = u_k + 3P: each residue class of k mod P is then summed as
    one run of step 3P and joins the pair with its weight, so the
    products grow in P short runs.  With fewer terms a class the terms
    join one at a time, as the classes' merges would cost more.
    """
    period = len(table)
    p, q = 0, 1
    if hi - lo >= 8 * period:
        for k in range(lo, lo + period):
            w = table[(k - base) % period]
            if w:
                r, s = 0, 1
                for m in range(3 * k + 1 + (k & 1), 3 * hi, 3 * period):
                    r = r * m + s
                    s *= m
                p, q = p * s + q * r * w, q * s
        return p, q
    weights = itertools.islice(itertools.cycle(table), (lo - base) % period, None)
    for k, w in zip(range(lo, hi), weights):
        if w:
            m = 3 * k + 1 + (k & 1)
            p = p * m + w * q
            q *= m
    return p, q


def _wheel_blocks(a: int, b: int, weights: tuple[int, ...]) -> tuple[list, int]:
    """(blocks, E): sum_{a<m<=b} w(m)/m as _harmonic_range's blocks, over E.

    w(m) = weights[(m-1) mod T], T = len(weights).  Write m = s o with
    s = 2^i 3^j and o prime to 6, a unit.  Then a < m <= b iff
    a // s < o <= b // s, so each unit o counts once, with weight
    W(o) = sum w(s o)/s over the s with a // s < o <= b // s.  Only an s
    with a multiple in (a, b] counts, and so does every divisor of one, so
    the s are the t 2^i, t = 3^j, and each column of t stops at its first
    s without.  Their lcm E = 2^I 3^J is the product of the largest power
    of 2 and of 3 among them, so E W(o) is an integer.  w(s o) reads
    s o mod T, which depends on s mod T and o mod T alone, so E W(o) is
    sum_r S_r w(r o) over the classes r = s mod T, S_r the sum of E/s
    over the class.  Each S_r changes only at the cuts a // s and b // s:
    a step of +E/s at a // s and -E/s at b // s per s gives every S_r on
    each block (x, y] between consecutive cuts as a running sum.

    A block's units are u_k for lo <= k < hi, and u_k mod T repeats every
    P = 2T/gcd(T, 6) values of k (u_{k+2} = u_k + 6).  So a block's
    weights E W are one table of its first min(P, hi - lo) units, the
    weight of k being table[(k - lo) mod P], built unit by unit when the
    block has fewer units than classes and class by class otherwise.  A
    table of one value sums by _wheel_leaf, the value being the block's
    unit, and a block of weight 0 is skipped; any other table takes
    _periodic_wheel_leaf.  For T = 1 every unit has the one weight c, so
    a step is the integer E c/s and a block's unit the running sum, with
    no class and no table.  For a = 0 the blocks are the (b // s', b // s]
    for consecutive s < s', the wheel's form of the odd-part decomposition
    of the binary-split factorial (P. Luschny; CPython's math.factorial).
    Each unit o <= b is summed at most once: about b/3 terms.
    """
    T = len(weights)
    # E = 2^I 3^J: the largest powers of 2 and of 3 with a multiple in (a, b]
    two = three = 1
    while b // (two << 1) > a // (two << 1):
        two <<= 1
    while b // (3 * three) > a // (3 * three):
        three *= 3
    # each s = t 2^i adds E/s at a // s = (a // t) >> i and takes it back at
    # b // s, keyed x T + (s mod T) for its cut x; for T = 1 the key is x and
    # the step E c/s, in a loop of its own, as it carries the unit ranges
    steps = {}
    get = steps.get
    t, e0 = 1, two * three * (weights[0] if T == 1 else 1)
    while t <= three:
        s, e, x, y = t, e0, a // t, b // t
        if T == 1:
            while x < y:
                steps[x] = get(x, 0) + e
                steps[y] = get(y, 0) - e
                e, x, y = e >> 1, x >> 1, y >> 1
        while x < y:
            kx, ky = x * T + s % T, y * T + s % T
            steps[kx] = get(kx, 0) + e
            steps[ky] = get(ky, 0) - e
            s, e, x, y = 2 * s, e >> 1, x >> 1, y >> 1
        t, e0 = 3 * t, e0 // 3
    # the block (x, y] up to each cut y holds the units u_k, lo <= k < hi
    blocks, weight, lo = [], 0, 0
    if T == 1:
        for y in sorted(steps):
            hi = (y + 1) // 6 + (y + 5) // 6
            if weight and lo < hi:
                blocks.append((lo, hi, _wheel_leaf, weight))
            weight += steps[y]
            lo = hi
        return blocks, two * three
    # w(m) = weights[(m - 1) mod T] = by_residue[m mod T]
    by_residue = weights[-1:] + weights[:-1]
    period = 2 * T // math.gcd(T, 6)
    sums = {}  # S_r by class r, nonzero ones only
    for key in sorted(steps):
        y, r = divmod(key, T)
        hi = (y + 1) // 6 + (y + 5) // 6
        if sums and lo < hi:
            units = [3 * k + 1 + (k & 1) for k in range(lo, min(hi, lo + period))]
            if len(units) < len(sums):
                table = [sum([e * by_residue[c * u % T] for c, e in sums.items()]) for u in units]
            else:
                table = [0] * len(units)
                for c, e in sums.items():
                    table = [w + e * by_residue[c * u % T] for w, u in zip(table, units)]
            if table.count(table[0]) < len(table):
                blocks.append((lo, hi, functools.partial(_periodic_wheel_leaf, table, lo), 1))
            elif table[0]:
                blocks.append((lo, hi, _wheel_leaf, table[0]))
        e = sums.pop(r, 0) + steps[key]
        if e:
            sums[r] = e
        lo = hi
    return blocks, two * three


def _harmonic_range(a: int, b: int, weights: tuple[int, ...] = (1,)) -> Fraction:
    """Exact sum_{a<m<=b} w(m)/m, w(m) = weights[(m-1) mod T], for 0 <= a <= b.

    T = len(weights); unit weight gives H_b - H_a.  _wheel_blocks returns
    blocks (lo, hi, leaf, unit) over the integers prime to 6 and a scale,
    and the sum is the blocks' unit * (leaf's terms lo <= k < hi), over
    the scale.

    The blocks' units, taken as one sequence, go through one _balanced
    split: a leaf of at most _LEAF units folds each block segment it
    spans, as the pair r/s of the block's run times its unit, into one
    unreduced pair p/q as (p s + q r unit, q s).  A leaf finds its first
    segment by scanning the blocks from the first: there are at most two
    per s = 2^i 3^j <= b, 284 for b <= TERM_LIMIT (91 for H_n there), so
    the scan is a small share of a leaf's products.  The scale is divided
    out once, by _balanced, at the top.
    A short range is one leaf over all its blocks.
    """
    blocks, scale = _wheel_blocks(a, b, weights)
    # the blocks' units as one sequence: block (lo, hi) holds its units
    # start <= i < stop, u_k at k = i + lo - start
    pieces, stop = [], 0
    for lo, hi, run, unit in blocks:
        start, stop = stop, stop + hi - lo
        pieces.append((start, stop, lo, hi, run, unit))

    def leaf(i: int, j: int) -> tuple[int, int]:
        p, q = 0, 1
        for start, stop, lo, hi, run, unit in pieces:
            if stop <= i:
                continue
            if start >= j:
                break
            r, s = run(lo + i - start if i > start else lo, hi + j - stop if j < stop else hi)
            p, q = p * s + q * r * unit, q * s
        return p, q

    return _balanced(0, stop, leaf, scale)


def partial_sum_exact(v: CoefficientVector, blocks: int) -> Fraction:
    """Exact rational sum of the first `blocks` blocks.

    The block-terms (blocks * modulus), which the cost grows with, are
    bounded by TERM_LIMIT; a larger request raises BudgetExceeded before
    summing.  Block k's term j is a_j / m with m = kT + j, so the sum is
    a weighted harmonic sum up to N T, N = blocks, with the vector's
    integer weights a_j D as periodic weights, divided by D once at the
    end: _harmonic_range(0, NT, weights), on the wheel over 2 3, which
    sums about NT/3 terms.  A multiple of ln_vector(T), every weight but
    the last equal to c = a_1 D (balance makes the last -(T-1) c), sums
    instead to

        (c/D) sum_{k<N} (sum_j 1/(kT+j) - T/(kT+T)) = (c/D) (H_{NT} - H_N),

    as the terms 1/(kT+j) run over 1/m for m <= NT and T/(kT+T) = 1/(k+1)
    over 1/m for m <= N: the range (N, NT] with the one weight (c,), which
    builds no weight table, and for c = 0 no block either.
    """
    if blocks < 0:
        raise ValueError("blocks must be >= 0")
    T = v.modulus
    _check_term_limit(blocks * T, f"block-terms ({blocks} blocks over modulus {T})")
    a, weights = 0, v.weights
    if weights[:-1] == weights[:1] * (T - 1):
        a, weights = blocks, weights[:1]
    return _harmonic_range(a, blocks * T, weights) / v.scale


def harmonic(n: int) -> Fraction:
    """Exact harmonic number H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0.

    _harmonic_range(0, n): on the wheel over 2 3, each unit o prime to 6
    once, in the blocks (n // s', n // s] between consecutive
    s = 2^i 3^j, about n/3 terms.  The cost grows faster than n, as the
    exact sum's numerator and denominator grow, so n stops at the
    TERM_LIMIT that is checked before any term is summed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_term_limit(n, "terms of H_n")
    return _harmonic_range(0, n)


def _truncation(v: CoefficientVector, blocks: int) -> tuple[int, int]:
    """(M D, T^2 D (K - 1)), the tail bound after K = blocks, M D = sum_j |w_j| (T - j)."""
    T = v.modulus
    mass = sum(abs(w) * (T - j) for j, w in enumerate(v.weights, start=1))
    return mass, v.scale * T * T * (blocks - 1)


def _float_upper(num: int, den: int) -> float:
    """The least double >= num/den (num, den >= 0): the one exit for bounds.

    num / den rounds correctly, so it is the answer or the double below
    it.  A quotient past the double range, or num/0, gives inf.
    """
    try:
        f = num / den
    except (OverflowError, ZeroDivisionError):
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
    return _float_upper(*_truncation(v, blocks))


def _lowest_terms(numerators: Iterable[int], denominators: list[int]) -> list[Fraction]:
    """The Fractions n/d of paired numerators n and denominators d.

    Only for coprime pairs with d > 0, which are then already in lowest
    terms: each Fraction(n, d) would hold the same pair.  Each is built
    with no type dispatch and no gcd, in one loop with no call per pair.
    It overwrites the caller's list: each Fraction replaces its d in
    place, and the same list, now of Fractions, is returned, so no second
    list is made.  It fills Fraction's two slots directly, so it relies on
    Fraction.__slots__ being ('_numerator', '_denominator'), as it is on
    CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0, whose ==, hash, str, repr
    and pickling read only those two slots.
    """
    new = object.__new__
    for i, numerator, denominator in zip(itertools.count(), numerators, denominators):
        term = new(Fraction)
        term._numerator = numerator
        term._denominator = denominator
        denominators[i] = term
    return denominators


def _rearranged_signs(modulus: int, count: int) -> Iterator[int]:
    """The sign, 1 or -1, of each term +-1/m of the rearranged stream, endlessly.

    Each block's T terms 1/m, then its balancing term -1/m; with fewer
    than T terms in all, only the first `count` signs are read.
    """
    return itertools.cycle((1,) * min(modulus, count) + (-1,))


def _rearranged_denominators(modulus: int, count: int) -> list[int]:
    """The m of each of the first `count` terms +-1/m of the rearranged stream.

    Term i = k (T + 1) + j of block k is 1/(kT + j + 1) for j < T and
    -1/(k + 1) for j = T.  With T < 64 and at least T + 1 blocks, the m
    of each column j < T are every T-th of 1, 2, 3, ... and the balancing
    column's are 1, 2, 3, ..., so the list takes one slice assignment per
    column; otherwise one per block.  That is at most about
    count / 65 + 64 assignments, with no Python step per term, and the
    integers are made in the order they are read.  The two ways are level
    at T = 64, for count 10^5 and 10^6; below it the columns are faster,
    above it the blocks' contiguous runs.  Makes rearranged_terms' three
    checks.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_term_limit(count, f"terms of the rearranged stream for ln {modulus}")
    T, width = modulus, modulus + 1
    out = [0] * count
    blocks = -(-count // width)
    if T < 64 and width <= blocks:
        balancing = len(range(T, count, width))
        ones = list(range(1, count - balancing + 1))
        for j in range(T):
            out[j::width] = ones[j::T]
        out[T::width] = range(1, balancing + 1)
    else:
        for k in range(blocks):
            start = k * width
            run = min(T, count - start)
            out[start:start + run] = range(k * T + 1, k * T + run + 1)
            if start + T < count:
                out[start + T] = k + 1
    return out


def rearranged_terms(modulus: int, count: int) -> list[Fraction]:
    """First `count` terms of the rearranged harmonic stream for ln(modulus).

    Block k contributes the T terms 1/(kT+1), ..., 1/(kT+T) followed by
    the balancing term -1/(k+1); the stream rearranges the conditionally
    convergent series 1 - 1 + 1/2 - 1/2 + ...  Valid for modulus >= 1.
    Every term is +-1/m with m >= 1, already in lowest terms, so the m of
    _rearranged_denominators become Fractions in _lowest_terms' one loop,
    in place, with the signs of _rearranged_signs as numerators.  The cost
    grows with `count`; T changes it little.
    """
    denominators = _rearranged_denominators(modulus, count)
    return _lowest_terms(_rearranged_signs(modulus, count), denominators)


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
    adds at most 2^-97 = 512u, as gamma < A_n <= 1: 613u < 7.6e-30 in
    total, the bound _gamma_partial hands out.
    """
    return GammaPartial(n=n, value=_mpf(*_gamma_partial(n)[0]))


def _gamma_partial(n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """((m, e), (613, 2^106)): gamma_partial(n)'s value m 2^e and its proved error.

    m 2^e is the kernel's sum rounded to 96 bits, within 613 2^-106 of
    A_n, as gamma_partial's docstring counts.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = min(n, _shift_threshold(_MIN_PREC))
    fixed = _psi(n + 1, 1, _MIN_PREC) - _psi_row(1, _MIN_PREC)[0] - _ln(m, 1, _MIN_PREC)
    return _round(fixed, -(_MIN_PREC + 10), _MIN_PREC), (613, 1 << 106)


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


def _mpf(m: int, e: int) -> mpmath.mpf:
    """The value m 2^e as an mpf, exactly: no precision, no rounding mode.

    The pair comes rounded from _round, so the mpf is the one mpmath's
    from_man_exp(fixed, -(prec + 10), prec, round_nearest) gives.  The
    first call imports mpmath and rebinds _mpf to a closure over
    mp.make_mpf and libmp.from_man_exp, so later calls run no import
    statement and no attribute lookup.
    """
    global _mpf
    import mpmath

    make_mpf, from_man_exp = mpmath.mp.make_mpf, mpmath.libmp.from_man_exp

    def _mpf(m: int, e: int) -> mpmath.mpf:
        return make_mpf(from_man_exp(m, e))

    return _mpf(m, e)


def _round(man: int, exp: int, bits: int) -> tuple[int, int]:
    """(m, e) with m 2^e the value man 2^exp rounded to `bits` significant bits.

    Rounds to nearest with ties to even, as mpmath's round_nearest does.
    |m| may reach 2^bits when rounding carries; m 2^e is the value.
    """
    size = abs(man)
    shift = size.bit_length() - bits
    if shift <= 0:
        return man, exp
    m, rest = size >> shift, size & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    if rest > half or rest == half and m & 1:
        m += 1
    return (-m if man < 0 else m), exp + shift


def _double(value: tuple[int, int]) -> float:
    """The double nearest m 2^e, ties to even: float() of _mpf(m, e)."""
    return math.ldexp(*_round(*value, 53))


def _allowance(v: CoefficientVector, value: int, prec: int, carried: int) -> tuple[int, int]:
    """(n, d): 2^-(prec-20) (R + |value| + 1) as n/d, exactly; value is scaled.

    R = carried / (D T) is the magnitude of the psi tail that value came
    from, the carried count _psi_tail returns.  _partial hands the pair
    out with its value, and _evaluate and the CLI's bench rows add it to
    their other parts exactly and round the sum up once.
    """
    wp = prec + 10
    DT = v.scale * v.modulus
    return (carried << wp) + (abs(value) + (1 << wp)) * DT, DT << (2 * prec - 10)


def _partial(v: CoefficientVector, blocks: int | None,
             prec: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """((m, e), (n, d)): the first `blocks` blocks, or the whole series for None.

    The first `blocks` blocks are the series less its psi tail after
    them.  m 2^e is that sum rounded once to prec bits by _round, and n/d
    its exact allowance, from the carried count of the tail after
    `blocks` blocks, or of the whole series: _evaluate's error count
    covers the sum so rounded within n/d.
    """
    value, carried = _psi_tail(v, 0, prec)
    tail, carried = (0, carried) if blocks is None else _psi_tail(v, blocks, prec)
    value -= tail
    return _round(value, -(prec + 10), prec), _allowance(v, value, prec, carried)


def partial_sum_float(v: CoefficientVector, blocks: int, prec: int = _MIN_PREC):
    """Floating partial sum of the first `blocks` blocks.

    Computed through the exact digamma identity rather than term by
    term, so the cost is independent of `blocks`: the mpf of _partial's
    prec-bit pair, whose allowance, the bound _evaluate proves for it, is
    not returned.  Use partial_sum_exact for exactness.  prec must lie in
    [96, 1024], the range evaluate's error analysis covers.
    """
    if blocks < 0:
        raise ValueError("blocks must be >= 0")
    if not _MIN_PREC <= prec <= _MAX_PREC:
        raise ValueError(f"prec must be in [{_MIN_PREC}, {_MAX_PREC}], got {prec}")
    return _mpf(*_partial(v, blocks, prec)[0])


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
    -(1/T) sum_j a_j psi(j/T).  The value is _evaluate's prec-bit pair,
    made an mpf by _mpf, and the bound the exact sum of its parts,
    rounded up once.  `prefix_blocks` is deprecated: a value other than
    None warns and is ignored.

    Unachievable signals that abs_err sits below the working-precision
    floor, or that rounding would push the bound past it.
    """
    if prefix_blocks is not None:
        warnings.warn("prefix_blocks is deprecated and ignored; the result is that of "
                      "the call without it", DeprecationWarning, stacklevel=2)
    value, bound, blocks = _evaluate(v, abs_err, method)
    # positional, as keywords cost about as much per call as _evaluate's frame
    return EvalResult(_mpf(*value), bound, blocks, method, False)


def _evaluate(
    v: CoefficientVector, abs_err: float, method: str
) -> tuple[tuple[int, int], float, int]:
    """((m, e), bound, blocks): evaluate's result before its value is an mpf.

    m 2^e is the kernel's fixed / 2^(prec+10) rounded once to prec bits by
    _round, and bound covers it so rounded; the zero vector gives (0, 0)
    and bound 0.

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
    2^10 u R + u with the R its tail after K blocks carries, and rounding
    to prec bits adds 2^10 u |value|.  So the total is under
    2^11 u (R + |value| + 1), 2^19 times below the allowance
    2^-(prec-20) (R + |value| + 1).  raw adds its tail bound, and the
    exact sum is rounded up once.
    """
    if not abs_err > 0:
        raise ValueError("abs_err must be positive")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if v.is_zero():
        return (0, 0), 0.0, 2 if method == "raw" else 0
    prec = _working_prec(abs_err, v)
    if method == "raw":
        # the tail bound after K blocks is the one after 2 over K - 1
        blocks, (mass, den) = 2, _truncation(v, 2)
        if not math.isinf(abs_err):
            # the tail gets abs_err n/d less 2^-20 of it; the rest is for the
            # allowance: K - 1 >= M / (T^2 (n/d) (1 - 2^-20)), in integers
            n, d = abs_err.as_integer_ratio()
            blocks = max(2, -(-(mass * d << 20) // (den * n * ((1 << 20) - 1))) + 1)
        value, (n, d) = _partial(v, blocks, prec)
        n, d = mass * d + n * den * (blocks - 1), den * (blocks - 1) * d
    else:
        # the whole series has no truncation: its bound is the allowance alone
        blocks, (value, (n, d)) = 0, _partial(v, None, prec)
    bound = _float_upper(n, d)
    if bound > abs_err:
        raise Unachievable(
            f"{prec} bits of working precision cannot reach abs_err={abs_err}"
        )
    return value, bound, blocks
