"""Balanced coefficient vectors and their exact rational algebra.

A vector a = (a_1, ..., a_T) of rationals over modulus T encodes the
cyclic harmonic series

    S_T(a) = sum_{k>=0} ( a_1/(kT+1) + a_2/(kT+2) + ... + a_T/(kT+T) ),

which converges exactly when a_1 + ... + a_T = 0.  That balance
condition is enforced at construction time, so every vector in
circulation denotes a convergent series.  The natural-log vectors live
here too: (1, 1, ..., 1, -(T-1)) over T sums to ln T, and lifting plus
prime decomposition extends that to ln(M/L) for any positive rationals.

A vector is its integers, the coefficients times the lcm of their
reduced denominators: its checks and exact readers work on them, and
the coefficients as `fractions.Fraction`s are derived on first read.
Nothing in this module touches floating point.  Vectors are immutable,
so every operation is a pure function that is safe to call concurrently.

Every public record of the package, vectors and results alike, derives
from _Record here, which gives it ==, hash, repr and immutability by its
fields.  No logser module imports dataclasses: with the inspect it
loads, that import is about 10 ms of a start.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    LengthMismatch,
    ModulusMismatch,
    UnbalancedCoefficients,
)

RationalLike = Fraction | int | str

_FACTOR_LIMIT = 2**63 - 1
# the package's one cost limit, on a count of terms summed or slots built
# (exact sums, vectors, relation families and divisor scans, trial
# division, quadrature's Horner loop); every such count passes
# _check_term_limit, which reads it at call time.  At the limit, every
# exact prefix runs for about 10 s in pure Python, its sum split over odd
# denominators: harmonic(n), a multiple of ln T and a general vector's
# prefix (at T = 5 and at modulus 10010) alike.  evaluate(ln_vector(T),
# 1e-9) takes about 0.15 s, its psi sum taken through Gauss's
# multiplication formula (measurements in CHANGES.md).
TERM_LIMIT = 10**6


class _Record:
    """Base of the package's immutable records.

    A record's fields are its class's annotations, in order, read once
    when the class is made, and its __init__ fills them through
    vars(self).  == and hash go by class and fields, repr prints every
    field, and __match_args__ is the fields unless the class sets or
    inherits its own.  Assigning or deleting an attribute raises
    AttributeError.
    """

    def __init_subclass__(cls) -> None:
        # a subclass that declares no field keeps its base's
        cls._fields = tuple(cls.__annotations__) or cls._fields
        cls._key = operator.attrgetter(*cls._fields)
        cls.__match_args__ = getattr(cls, "__match_args__", cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CoefficientVector(_Record):
    """Immutable balanced vector over a positive modulus: it is its integers.

    ``weights`` holds a_j D and ``scale`` D, the lcm of the reduced
    denominators, so equal vectors have equal fields.  Checked at
    construction: ``len(weights) == modulus`` and ``sum(weights) == 0``.
    ``coeffs``, the a_j, is built on first read, one Fraction per weight.
    """

    modulus: int
    weights: tuple[int, ...]
    scale: int

    def __init__(self, modulus: int, coeffs: Iterable[RationalLike]) -> None:
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        scale = math.lcm(*(c.denominator for c in coeffs))
        weights = tuple(c.numerator * (scale // c.denominator) for c in coeffs)
        _settle(self, modulus, weights, scale)

    @functools.cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        shared = {w: Fraction(w, self.scale) for w in set(self.weights)}
        return tuple(map(shared.__getitem__, self.weights))

    def is_zero(self) -> bool:
        """True when every coefficient vanishes."""
        return not any(self.weights)

    def __repr__(self) -> str:
        return f"CoefficientVector(modulus={self.modulus!r}, coeffs={self.coeffs!r})"

    def __str__(self) -> str:
        body = ", ".join(str(c) for c in self.coeffs)
        return f"S_{self.modulus}({body})"


def _settle(v, modulus, weights, scale) -> CoefficientVector:
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
    vars(v).update(modulus=modulus, weights=weights, scale=scale)
    return v


def _from_weights(
    modulus: int, weights: Iterable[int], scale: int = 1
) -> CoefficientVector:
    """The vector w / scale over integer weights w, with scale canonical."""
    return _settle(object.__new__(CoefficientVector), modulus, tuple(weights), scale)


def _difference_vector(modulus: int, j: int, repeats: int = 1) -> CoefficientVector:
    """The j-th difference vector over modulus, lifted `repeats` times.

    Its weights are 1 in slot j and -1 in slot j + 1, for 1 <= j < modulus,
    the pattern repeated `repeats` times, built by _from_weights, which
    checks length and balance.  The difference vectors are the basis in
    which relations and quadrature read every balanced vector.
    """
    pattern = (0,) * (j - 1) + (1, -1) + (0,) * (modulus - 1 - j)
    return _from_weights(modulus * repeats, pattern * repeats)


def _check_term_limit(count: int, what: str) -> None:
    """Raise BudgetExceeded for `count` terms or slots above TERM_LIMIT.

    `what` names the unit counted, in the plural.  Callers check before
    any term is summed or slot is built.
    """
    if count > TERM_LIMIT:
        raise BudgetExceeded(f"{count} {what} exceed the term limit of {TERM_LIMIT}")


def make_vector(modulus: int, coeffs: Iterable[RationalLike]) -> CoefficientVector:
    """Validate and build a balanced vector from any rational-like inputs.

    Raises LengthMismatch on a length disagreement and
    UnbalancedCoefficients when the coefficients do not sum to zero.
    """
    return CoefficientVector(modulus, coeffs)


def ln_vector(modulus: int) -> CoefficientVector:
    """The vector (1, 1, ..., 1, -(T-1)) over T, whose series is ln T.

    For T = 1 the only balanced vector is (0,), matching ln 1 = 0.  A
    modulus above TERM_LIMIT raises BudgetExceeded.
    """
    _check_term_limit(modulus, f"slots of ln {modulus}")
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
    _check_term_limit(repeats * v.modulus, f"slots of a {repeats}-fold lift")
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
    scaled = []
    for scalar, vec in terms:
        if vec.modulus != modulus:
            raise ModulusMismatch(
                f"cannot combine vectors over moduli {modulus} and {vec.modulus}"
            )
        s = Fraction(scalar)
        if s:
            scaled.append((s, vec))
    # sum the weights over one common scale, then reduce it to the canonical one
    scale = math.lcm(*(s.denominator * vec.scale for s, vec in scaled))
    acc = [0] * modulus
    for s, vec in scaled:
        f = s.numerator * (scale // (s.denominator * vec.scale))
        acc = [a + f * w for a, w in zip(acc, vec.weights)]
    g = math.gcd(scale, *acc)
    return _from_weights(modulus, [a // g for a in acc], scale // g)


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; {} for n = 1.

    Trial division stops once the divisor passes TERM_LIMIT, read at call
    time.  A cofactor left above the limit has no prime factor up to it,
    and is returned as if it were prime; it is prime when it is below
    (TERM_LIMIT + 1)^2, and one left at most TERM_LIMIT always is.
    """
    out: dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    # remaining factors are coprime to 6; step through 6k +- 1
    f = 5
    while f <= TERM_LIMIT and f * f <= m:
        for p in (f, f + 2):
            while m % p == 0:
                out[p] = out.get(p, 0) + 1
                m //= p
        f += 6
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


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

    gcd(numerator, denominator) is divided out first, which leaves the
    exponents unchanged and no prime on both sides.  Trial division then
    stops at TERM_LIMIT, about TERM_LIMIT / 3 divisions per argument: a
    cofactor left above the limit holds a prime past it, and counted as
    one prime it still takes the modulus past the limit.
    """
    if numerator < 1 or denominator < 1:
        raise ValueError("numerator and denominator must be positive integers")
    if not (numerator <= _FACTOR_LIMIT and denominator <= _FACTOR_LIMIT):
        raise ValueError("arguments must fit in 63 bits")
    g = math.gcd(numerator, denominator)
    top = _factorize(numerator // g)
    bottom = _factorize(denominator // g)
    exponents = {p: top.get(p, 0) - bottom.get(p, 0) for p in top.keys() | bottom.keys()}
    modulus = math.prod(exponents)
    _check_term_limit(modulus, f"slots of ln({numerator}/{denominator})")
    return _from_weights(modulus, _lifted_logs(modulus, exponents))
