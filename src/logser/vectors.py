"""Balanced coefficient vectors and their exact rational algebra.

A vector a = (a_1, ..., a_T) of rationals over modulus T encodes the
cyclic harmonic series

    S_T(a) = sum_{k>=0} ( a_1/(kT+1) + a_2/(kT+2) + ... + a_T/(kT+T) ),

which converges exactly when a_1 + ... + a_T = 0.  That balance
condition is enforced at construction time, so every vector in
circulation denotes a convergent series.  The natural-log vectors live
here too: (1, 1, ..., 1, -(T-1)) over T sums to ln T, and lifting plus
prime decomposition extends that to ln(M/L) for any positive rationals.

All coefficients are `fractions.Fraction` values, kept canonical by the
Fraction type itself, and each vector also carries them as integers over
one denominator, on which its checks run and its exact readers work.
Nothing in this module touches floating point.  Vectors are immutable,
so every operation is a pure function that is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import (
    BudgetExceeded,
    LengthMismatch,
    ModulusMismatch,
    UnbalancedCoefficients,
)

RationalLike = Union[Fraction, int, str]

_FACTOR_LIMIT = 2**63 - 1
# bounds harmonic, rearranged_terms and `logser rearranged`, whose exact
# sums grow with n, and the modulus of ln_vector, lift and
# ln_rational_vector, which have one slot per unit of it.  Single runs
# (2-vCPU x86_64, CPython 3.11, no gmpy2) at n = 1e4 / 1e5 / 2e5 / 5e5 /
# 1e6: harmonic(n) 0.008 / 0.26 / 0.87 / 4.6 / 17 s, rearranged_terms(2, n)
# 0.008 / 0.08 / 0.17 / 0.49 / 1.0 s; ln_rational_vector(M, 1) built and
# evaluated at 1e-9, cold caches, best of 5, at modulus M = 10007 /
# 100003: 0.11 / 1.3 s; ln_vector(T) the same way, best of 3, at T = 1e4 /
# 1e5: 0.18 / 1.9 s, and at the limit, T = 1e6, a 0.08 s build and 15.4 s
# of evaluate (two runs, 42 MB peak RSS), about as long as harmonic(1e6).
# gamma_partial keeps the limit as a domain contract only.
TERM_LIMIT = 10**6


@dataclass(frozen=True)
class CoefficientVector:
    """Immutable balanced coefficient vector over a positive modulus.

    Invariants (checked at construction): ``len(coeffs) == modulus`` and
    ``sum(coeffs) == 0`` exactly.  ``weights`` holds the integers a_j D and
    ``scale`` their D, the lcm of the reduced denominators; neither takes
    part in equality, hashing or repr.
    """

    modulus: int
    coeffs: tuple[Fraction, ...]
    weights: tuple[int, ...] = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in self.coeffs)
        scale = math.lcm(*(c.denominator for c in coeffs))
        weights = tuple(c.numerator * (scale // c.denominator) for c in coeffs)
        _settle(self, self.modulus, coeffs, weights, scale)

    def is_zero(self) -> bool:
        """True when every coefficient vanishes."""
        return not any(self.coeffs)

    def __str__(self) -> str:
        body = ", ".join(str(c) for c in self.coeffs)
        return f"S_{self.modulus}({body})"


def _settle(v, modulus, coeffs, weights, scale) -> CoefficientVector:
    """Check length and balance in integers, then fill in v's fields."""
    if not isinstance(modulus, int) or modulus < 1:
        raise ValueError(f"modulus must be >= 1 and an integer, got {modulus!r}")
    if len(weights) != modulus:
        raise LengthMismatch(f"expected {modulus} coefficients, got {len(weights)}")
    total = sum(weights)
    if total:
        raise UnbalancedCoefficients(
            "coefficients must sum to zero for the series to converge; "
            f"got sum {Fraction(total, scale)}"
        )
    vars(v).update(modulus=modulus, coeffs=coeffs, weights=weights, scale=scale)
    return v


def _from_weights(
    modulus: int, weights: Iterable[int], scale: int = 1
) -> CoefficientVector:
    """The vector with coefficients w / scale over integer weights w.

    scale is the lcm of the reduced denominators, 1 for integer
    coefficients; each distinct w makes one Fraction, shared by its slots.
    """
    weights = tuple(weights)
    shared = {w: Fraction(w, scale) for w in set(weights)}
    coeffs = tuple(map(shared.__getitem__, weights))
    return _settle(object.__new__(CoefficientVector), modulus, coeffs, weights, scale)


def _check_term_limit(modulus: int, what: str) -> None:
    """Raise BudgetExceeded for a modulus above TERM_LIMIT, before any slot."""
    if modulus > TERM_LIMIT:
        raise BudgetExceeded(
            f"modulus {modulus} of {what} exceeds the term limit of {TERM_LIMIT}"
        )


def make_vector(modulus: int, coeffs: Iterable[RationalLike]) -> CoefficientVector:
    """Validate and build a balanced vector from any rational-like inputs.

    Raises LengthMismatch on a length disagreement and
    UnbalancedCoefficients when the coefficients do not sum to zero.
    """
    return CoefficientVector(modulus, tuple(coeffs))


def ln_vector(modulus: int) -> CoefficientVector:
    """The vector (1, 1, ..., 1, -(T-1)) over T, whose series is ln T.

    For T = 1 the only balanced vector is (0,), matching ln 1 = 0.  A
    modulus above TERM_LIMIT raises BudgetExceeded.
    """
    _check_term_limit(modulus, f"ln {modulus}")
    return _from_weights(modulus, (1,) * (modulus - 1) + (1 - modulus,))


def lift(v: CoefficientVector, repeats: int) -> CoefficientVector:
    """Repeat the coefficients `repeats` times, moving T to repeats*T.

    The represented series value is unchanged: every block of the
    lifted series regroups exactly into `repeats` consecutive blocks of
    the original, so partial sums satisfy
    partial_sum(lift(v, m), K) == partial_sum(v, m*K) as exact rationals.
    A lifted modulus above TERM_LIMIT raises BudgetExceeded.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if repeats == 1:
        return v
    _check_term_limit(repeats * v.modulus, f"a {repeats}-fold lift")
    return _from_weights(repeats * v.modulus, v.weights * repeats, v.scale)


def linear_combine(
    terms: Sequence[tuple[RationalLike, CoefficientVector]]
) -> CoefficientVector:
    """Exact coefficient-wise combination sum_i scalar_i * v_i.

    All vectors must share one modulus; lift to a common multiple first
    if they do not.  Balance is preserved automatically.
    """
    if not terms:
        raise ValueError("need at least one (scalar, vector) term")
    modulus = terms[0][1].modulus
    acc = [Fraction(0)] * modulus
    for scalar, vec in terms:
        if vec.modulus != modulus:
            raise ModulusMismatch(
                f"cannot combine vectors over moduli {modulus} and {vec.modulus}"
            )
        s = Fraction(scalar)
        if s == 0:
            continue
        for i, c in enumerate(vec.coeffs):
            acc[i] += s * c
    return CoefficientVector(modulus, tuple(acc))


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; {} for n = 1."""
    out: dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    # remaining factors are coprime to 6; step through 6k +- 1
    f = 5
    while f * f <= m:
        for p in (f, f + 2):
            while m % p == 0:
                out[p] = out.get(p, 0) + 1
                m //= p
        f += 6
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def factor_radical(n: int) -> list[int]:
    """Sorted distinct prime divisors of n; empty for n = 1."""
    if not 1 <= n <= _FACTOR_LIMIT:
        raise ValueError(f"n must be in [1, 2^63 - 1], got {n}")
    return sorted(_factorize(n))


def _lifted_logs(modulus: int, weights: dict[int, int]) -> list[int]:
    """sum_d w_d * lift(ln_vector(d), T/d) over divisors d of T, in integers.

    That lift is 1 - d at the multiples of d and 1 elsewhere, so slot s
    holds sum_d w_d - sum_{d | s} w_d * d.
    """
    out = [sum(weights.values())] * modulus
    for d, w in weights.items():
        for s in range(d - 1, modulus, d):
            out[s] -= w * d
    return out


def ln_rational_vector(numerator: int, denominator: int) -> CoefficientVector:
    """A balanced vector whose series value is ln(numerator/denominator).

    The modulus T is the product of the primes whose exponent in
    numerator/denominator is nonzero, so the ratio need not be in lowest
    terms: 12/3 gives (2, -2) over 2, as 4/1 does.  The vector is

        sum_p (e_p(numerator) - e_p(denominator)) * lift(ln_vector(p), T/p)

    over those primes p, where e_p gives the prime exponent, built in
    integers by one closed form.  Equal arguments leave no prime, and
    the result is the T = 1 zero vector (ln 1 = 0).  A modulus above
    TERM_LIMIT raises BudgetExceeded before any slot is built.
    """
    if numerator < 1 or denominator < 1:
        raise ValueError("numerator and denominator must be positive integers")
    if not (numerator <= _FACTOR_LIMIT and denominator <= _FACTOR_LIMIT):
        raise ValueError("arguments must fit in 63 bits")
    top = _factorize(numerator)
    bottom = _factorize(denominator)
    exponents = {p: top.get(p, 0) - bottom.get(p, 0) for p in top.keys() | bottom.keys()}
    exponents = {p: e for p, e in exponents.items() if e}
    modulus = math.prod(exponents)
    _check_term_limit(modulus, f"ln({numerator}/{denominator})")
    return _from_weights(modulus, _lifted_logs(modulus, exponents))
