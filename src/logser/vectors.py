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
Fraction type itself; nothing in this module touches floating point.
Vectors are immutable, so every operation is a pure function that is
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import LengthMismatch, ModulusMismatch, UnbalancedCoefficients

RationalLike = Union[Fraction, int, str]

_FACTOR_LIMIT = 2**63 - 1


@dataclass(frozen=True)
class CoefficientVector:
    """Immutable balanced coefficient vector over a positive modulus.

    Invariants (checked at construction): ``len(coeffs) == modulus`` and
    ``sum(coeffs) == 0`` exactly.
    """

    modulus: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.modulus, int) or self.modulus < 1:
            raise ValueError(f"modulus must be a positive integer, got {self.modulus!r}")
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in self.coeffs)
        if len(coeffs) != self.modulus:
            raise LengthMismatch(
                f"expected {self.modulus} coefficients, got {len(coeffs)}"
            )
        # the sum in integers over the lcm of the denominators
        scale = math.lcm(*(c.denominator for c in coeffs))
        total = sum(c.numerator * (scale // c.denominator) for c in coeffs)
        if total:
            raise UnbalancedCoefficients(
                "coefficients must sum to zero for the series to converge; "
                f"got sum {Fraction(total, scale)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def is_zero(self) -> bool:
        """True when every coefficient vanishes."""
        return not any(self.coeffs)

    def __str__(self) -> str:
        body = ", ".join(str(c) for c in self.coeffs)
        return f"S_{self.modulus}({body})"


def make_vector(modulus: int, coeffs: Iterable[RationalLike]) -> CoefficientVector:
    """Validate and build a balanced vector from any rational-like inputs.

    Raises LengthMismatch on a length disagreement and
    UnbalancedCoefficients when the coefficients do not sum to zero.
    """
    return CoefficientVector(modulus, tuple(coeffs))


def ln_vector(modulus: int) -> CoefficientVector:
    """The vector (1, 1, ..., 1, -(T-1)) over T, whose series is ln T.

    For T = 1 the only balanced vector is (0,), matching ln 1 = 0.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if modulus == 1:
        return CoefficientVector(1, (Fraction(0),))
    coeffs = (Fraction(1),) * (modulus - 1) + (Fraction(-(modulus - 1)),)
    return CoefficientVector(modulus, coeffs)


def lift(v: CoefficientVector, repeats: int) -> CoefficientVector:
    """Repeat the coefficients `repeats` times, moving T to repeats*T.

    The represented series value is unchanged: every block of the
    lifted series regroups exactly into `repeats` consecutive blocks of
    the original, so partial sums satisfy
    partial_sum(lift(v, m), K) == partial_sum(v, m*K) as exact rationals.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if repeats == 1:
        return v
    return CoefficientVector(repeats * v.modulus, v.coeffs * repeats)


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
    the result is the T = 1 zero vector (ln 1 = 0).
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
    return make_vector(modulus, _lifted_logs(modulus, exponents))
