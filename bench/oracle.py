"""Independent reference values for the benchmark's correctness gate.

Nothing here imports logser.  Values come from mpmath's own special
functions, evaluated in a private ``mpmath.MPContext`` so that no
precision setting is shared with the library under test:

* a balanced vector a over modulus T sums to -(1/T) sum_j a_j psi(j/T)
  (the k -> infinity limit of the digamma identity, using sum a_j = 0);
* its first K blocks sum to (1/T) sum_j a_j (psi(K + j/T) - psi(j/T));
* logarithms, pi and harmonic numbers come from ``ln``, ``pi`` and
  ``harmonic``;
* exact kernel relations are checked by recombining an independently
  built divisor family to the zero vector with integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

# Every reference is carried at least this many bits, and at least twice
# the precision the library works at for the requested accuracy.
MIN_BITS = 256

# Prime modulus for the certificate that kernel relations are independent.
_RANK_PRIME = (1 << 61) - 1


def bits_for(abs_err: float) -> int:
    """Reference precision for a target: twice a generous working precision."""
    err_bits = 0 if math.isinf(abs_err) else max(0, -math.floor(math.log2(abs_err)))
    return max(MIN_BITS, 2 * (err_bits + 96))


class Oracle:
    """Reference values in a private mpmath context, cached per (T, bits)."""

    def __init__(self) -> None:
        self.ctx = mpmath.MPContext()
        self._psi: dict[tuple[int, int], list] = {}

    def _digammas(self, T: int, bits: int) -> list:
        key = (T, bits)
        if key not in self._psi:
            ctx = self.ctx
            ctx.prec = bits
            self._psi[key] = [ctx.digamma(ctx.mpf(j) / T) for j in range(1, T + 1)]
        return self._psi[key]

    def frac(self, x: Fraction, bits: int = MIN_BITS):
        ctx = self.ctx
        ctx.prec = bits
        return ctx.mpf(x.numerator) / x.denominator

    def series(self, coeffs, bits: int = MIN_BITS):
        """Limit of the balanced series: -(1/T) sum_j a_j psi(j/T)."""
        T = len(coeffs)
        psi = self._digammas(T, bits)
        ctx = self.ctx
        ctx.prec = bits
        total = ctx.mpf(0)
        for a, p in zip(coeffs, psi):
            if a:
                total += self.frac(Fraction(a), bits) * p
        return -total / T

    def partial(self, coeffs, blocks: int, bits: int = MIN_BITS):
        """First `blocks` blocks: (1/T) sum_j a_j (psi(K + j/T) - psi(j/T))."""
        T = len(coeffs)
        psi = self._digammas(T, bits)
        ctx = self.ctx
        ctx.prec = bits
        total = ctx.mpf(0)
        for j, (a, p) in enumerate(zip(coeffs, psi), start=1):
            if a:
                shifted = ctx.digamma(blocks + ctx.mpf(j) / T)
                total += self.frac(Fraction(a), bits) * (shifted - p)
        return total / T

    def ln(self, numerator: int, denominator: int = 1, bits: int = MIN_BITS):
        ctx = self.ctx
        ctx.prec = bits
        return ctx.ln(ctx.mpf(numerator)) - ctx.ln(ctx.mpf(denominator))

    def pi(self, bits: int = MIN_BITS):
        self.ctx.prec = bits
        return +self.ctx.pi

    def harmonic(self, n: int, bits: int = MIN_BITS):
        self.ctx.prec = bits
        return self.ctx.harmonic(n)

    def distance(self, value, reference, bits: int = MIN_BITS) -> float:
        """|value - reference| as a float; value may be a str, float, mpf or Fraction."""
        ctx = self.ctx
        ctx.prec = bits
        if isinstance(value, Fraction):
            value = self.frac(value, bits)
        return float(abs(ctx.mpf(value) - reference))


# ----------------------------------------------------------------------
# exact checks on kernel relations
# ----------------------------------------------------------------------


def ln_coeffs(T: int) -> list[int]:
    """(1, ..., 1, -(T-1)) over T, whose series is ln T."""
    return [1] * (T - 1) + [1 - T]


def _differences(m: int) -> list[list[int]]:
    out = []
    for i in range(m - 1):
        row = [0] * m
        row[i], row[i + 1] = 1, -1
        out.append(row)
    return out


def divisor_family(T: int) -> list[list[int]]:
    """The family documented for logser's divisor_family, built here.

    Difference vectors over T, then per proper divisor d >= 2 (ascending)
    ln over d lifted to T and d's difference vectors lifted to T, then
    ln over T.  Lifting repeats the coefficients T/d times.
    """
    family = _differences(T)
    for d in range(2, T):
        if T % d == 0:
            family.append(ln_coeffs(d) * (T // d))
            family.extend(row * (T // d) for row in _differences(d))
    family.append(ln_coeffs(T))
    return family


def composite_moduli(limit: int) -> list[int]:
    return [T for T in range(4, limit + 1) if any(T % d == 0 for d in range(2, T))]


def recombine(relation, family: list[list[int]]) -> list[Fraction]:
    """sum_i relation_i * family_i, coefficient by coefficient, exactly."""
    T = len(family[0])
    acc = [0] * T
    for c, vec in zip(relation, family):
        c = Fraction(c)
        if not c:
            continue
        scale = c.numerator if c.denominator == 1 else c
        for slot, a in enumerate(vec):
            if a:
                acc[slot] += scale * a
    return [Fraction(x) for x in acc]


def _modular_rank(rows: list[list[int]]) -> int:
    """Rank over GF(p); a lower bound on the rank over the rationals."""
    p = _RANK_PRIME
    m = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        prow = [(x * inv) % p for x in m[rank]]
        m[rank] = prow
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], prow)]
        rank += 1
        if rank == len(m):
            break
    return rank


def check_kernel_basis(relations, T: int, *, complete: bool) -> str | None:
    """None when every relation recombines divisor_family(T) to zero exactly.

    With `complete`, the relations must also be linearly independent and
    as many as the family's nullity.  Every family member is balanced and
    the T-1 difference vectors already span the balanced space, so the
    rank is T-1 and the nullity is len(family) - (T-1).
    """
    family = divisor_family(T)
    for rel in relations:
        if len(rel) != len(family):
            return f"relation of length {len(rel)} over a family of {len(family)}"
        if not any(rel):
            return "identically zero relation"
        if any(recombine(rel, family)):
            return f"relation {[str(c) for c in rel]} does not recombine to zero"
    if complete:
        nullity = len(family) - (T - 1)
        if len(relations) != nullity:
            return f"{len(relations)} relations, nullity is {nullity}"
        ints = []
        for rel in relations:
            mult = math.lcm(*(Fraction(c).denominator for c in rel))
            ints.append([int(Fraction(c) * mult) for c in rel])
        if _modular_rank(ints) != len(relations):
            return "relations are linearly dependent"
    return None
