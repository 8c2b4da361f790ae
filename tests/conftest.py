"""Shared helpers: random balanced vectors and independent oracles.

The oracles here deliberately avoid the package's own summation paths:
``exact_block_oracle`` is a plain nested Fraction loop,
``float_block_oracle`` sums the float64 terms 1/(kT+j) literally with
``math.fsum`` and ``gauss_digamma_limit`` takes the series limit from
Gauss's digamma theorem, so they can referee the library's exact and
floating routes.  ``digamma_limit`` is the one mpmath reference of that
limit, through mpmath's own digamma, and ``as_fraction`` reads an mpf
exactly.  ``least_double_at_least`` is the reference for logser's one
exit for bounds.  An autouse fixture fails any test that runs for more
than a minute.
"""

from __future__ import annotations

import functools
import math
import random
import signal
from fractions import Fraction
from itertools import repeat
from operator import truediv

import pytest
from mpmath import libmp, mp

from logser import CoefficientVector, make_vector

# well above the slowest test, about 6 s, so that a test whose cost check
# regresses fails by name instead of running to the CI job's time limit
TEST_SECONDS = 60


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_SECONDS.

    Not an Exception, so Hypothesis does not catch it and go on shrinking.
    """


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail the running test once it passes TEST_SECONDS (where SIGALRM exists)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def random_balanced(rng: random.Random, modulus: int | None = None,
                    max_modulus: int = 12) -> CoefficientVector:
    """Random balanced vector with coefficients in [-9, 9]."""
    T = modulus if modulus is not None else rng.randint(2, max_modulus)
    if T == 1:
        return make_vector(1, [0])
    while True:
        head = [rng.randint(-9, 9) for _ in range(T - 1)]
        last = -sum(head)
        if abs(last) <= 9:
            return make_vector(T, head + [last])


def exact_block_oracle(v: CoefficientVector, blocks: int) -> Fraction:
    """Exact partial sum by a plain nested loop."""
    T = v.modulus
    total = Fraction(0)
    for k in range(blocks):
        for j, a in enumerate(v.coeffs, start=1):
            if a:
                total += a * Fraction(1, k * T + j)
    return total


def float_block_oracle(v: CoefficientVector, blocks: int) -> float:
    """Float64 partial sum: an fsum of each coefficient's terms 1/(kT+j)."""
    T = v.modulus
    return math.fsum(
        float(a) * _column_sum(T, j, blocks)
        for j, a in enumerate(v.coeffs, start=1)
        if a
    )


@functools.lru_cache(maxsize=None)
def _column_sum(T: int, j: int, blocks: int) -> float:
    """fsum of 1/(kT+j) for k < blocks; random vectors share most (T, j, blocks)."""
    return math.fsum(map(truediv, repeat(1.0), range(j, j + blocks * T, T)))


def gauss_digamma_limit(v: CoefficientVector):
    """The series limit -(1/T) sum_j a_j psi(j/T) at the current mpmath precision.

    psi(j/T) comes from Gauss's digamma theorem (DLMF 5.4.19), not from a
    digamma routine: for 0 < j < T, psi(j/T) + gamma = -ln T
    - (pi/2) cot(pi j/T) + sum_{k=1}^{T-1} cos(2 pi j k/T) ln(2 sin(pi k/T)),
    and psi(1) + gamma = 0.  The coefficients sum to zero, so gamma drops out.
    """
    T = v.modulus
    log_sines = [mp.log(2 * mp.sin(mp.pi * k / T)) for k in range(1, T)]

    def psi_plus_gamma(j: int):
        if j == T:
            return mp.zero
        return -mp.log(T) - mp.pi / 2 * mp.cot(mp.pi * j / T) + mp.fsum(
            mp.cos(2 * mp.pi * j * k / T) * s for k, s in enumerate(log_sines, start=1)
        )

    return -mp.fsum(
        mp.mpf(a.numerator) / a.denominator * psi_plus_gamma(j)
        for j, a in enumerate(v.coeffs, start=1)
        if a
    ) / T


def digamma_limit(v: CoefficientVector):
    """-(1/T) sum_j a_j psi(j/T) by mpmath's digamma, at the current precision."""
    T = v.modulus
    return -sum(
        mp.mpf(a.numerator) / a.denominator * mp.digamma(mp.mpf(j) / T)
        for j, a in enumerate(v.coeffs, start=1)
        if a
    ) / T


def as_fraction(x) -> Fraction:
    """An mpf exactly, read from its raw tuple; a Fraction as it is."""
    if isinstance(x, Fraction):
        return x
    p, q = libmp.to_rational(x._mpf_)
    return Fraction(int(p), int(q))


def least_double_at_least(f: float, x: Fraction) -> bool:
    """Whether f is the least double >= x: x <= f, and the double below f is < x."""
    return Fraction(math.nextafter(f, -math.inf)) < x and (f == math.inf or x <= Fraction(f))
