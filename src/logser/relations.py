"""Linear algebra over families of balanced vectors.

The values of all balanced series over a fixed modulus T form a vector
space over the rationals spanned by the T-1 difference vectors
(1,-1,0,...), (0,1,-1,...), ..., (0,...,1,-1); expressing a vector in
that basis is a telescoping prefix sum.  Exact kernels of vector
families are computed by fraction-free (Bareiss) elimination so that
every returned relation combines its family to the exact zero vector.

For composite moduli, logarithm vectors lifted from the proper divisors
collide in value without colliding coefficient-wise (for instance
2*ln 2 = ln 4 turns into the nonzero vector (1,-3,1,1) over modulus 4
whose series is 0).  ``divisor_relations`` discovers those collisions
exactly, from the multiplicative structure of the divisors, and returns
them as kernel relations over a family that also carries the difference
basis, so each relation's non-basis part is a numeric witness of a zero
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ModulusMismatch, NotComposite
from .evaluation import EvalResult, evaluate
from .vectors import (
    CoefficientVector,
    _factorize,
    factor_radical,
    lift,
    linear_combine,
    ln_vector,
    make_vector,
)

_MAX_DIVISOR_MODULUS = 64


@dataclass(frozen=True)
class KernelBasis:
    """Basis of exact relations over an ordered family of vectors.

    Every tuple combines the family to the exact zero vector; tuples are
    normalized to coprime integers with a positive leading entry.
    """

    vectors: tuple[tuple[Fraction, ...], ...]
    family_size: int

    def __post_init__(self) -> None:
        for rel in self.vectors:
            if len(rel) != self.family_size:
                raise ValueError("relation length does not match the family size")
            if not any(rel):
                raise ValueError("relations must not be identically zero")

    def __len__(self) -> int:
        return len(self.vectors)


def spanning_basis(modulus: int) -> list[CoefficientVector]:
    """The T-1 difference vectors spanning the balanced space over T."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    out = []
    for i in range(modulus - 1):
        coeffs = [Fraction(0)] * modulus
        coeffs[i] = Fraction(1)
        coeffs[i + 1] = Fraction(-1)
        out.append(CoefficientVector(modulus, tuple(coeffs)))
    return out


def express_in_basis(v: CoefficientVector) -> list[Fraction]:
    """Coordinates of v in the difference basis: the prefix sums of a.

    Always solvable for balanced input; recombining the basis with the
    returned coordinates reproduces v exactly.
    """
    coords = []
    running = Fraction(0)
    for a in v.coeffs[:-1]:
        running += a
        coords.append(running)
    return coords


def _normalize_relation(entries: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale to coprime integers with the first nonzero entry positive."""
    mult = math.lcm(*(e.denominator for e in entries))
    ints = [int(e * mult) for e in entries]
    g = math.gcd(*ints)
    if g > 1:
        ints = [i // g for i in ints]
    lead = next((i for i in ints if i), 0)
    if lead < 0:
        ints = [-i for i in ints]
    return tuple(Fraction(i) for i in ints)


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Exact nullspace basis of a rational matrix given by rows.

    Rows are cleared to integers, reduced to echelon form by Bareiss
    fraction-free elimination (pivot: first nonzero entry, scanning
    columns left to right), and the free columns are back-substituted.
    Deterministic, so repeated runs return identical bases.
    """
    matrix = []
    for row in rows:
        mult = math.lcm(*(e.denominator for e in row))
        matrix.append([int(e * mult) for e in row])
    nrows = len(matrix)
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if matrix[i][c]), None)
        if pr is None:
            continue
        matrix[r], matrix[pr] = matrix[pr], matrix[r]
        p = matrix[r][c]
        for i in range(r + 1, nrows):
            f = matrix[i][c]
            for cc in range(c, ncols):
                q, rem = divmod(p * matrix[i][cc] - f * matrix[r][cc], prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                matrix[i][cc] = q
        prev = p
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for i in reversed(range(len(pivot_cols))):
            c = pivot_cols[i]
            s = sum(
                (Fraction(matrix[i][cc]) * x[cc] for cc in range(c + 1, ncols) if x[cc]),
                Fraction(0),
            )
            x[c] = -s / matrix[i][c]
        basis.append(_normalize_relation(x))
    return basis


def kernel(family: Sequence[CoefficientVector]) -> KernelBasis:
    """Exact rational kernel of a family (vectors as columns).

    Returns every tuple (c_1, ..., c_r), up to basis choice, with
    sum_i c_i v_i equal to the zero vector, coefficient by coefficient.
    """
    if not family:
        raise ValueError("family must not be empty")
    modulus = family[0].modulus
    for vec in family:
        if vec.modulus != modulus:
            raise ModulusMismatch(
                f"family mixes moduli {modulus} and {vec.modulus}; lift first"
            )
    rows = [[vec.coeffs[slot] for vec in family] for slot in range(modulus)]
    return KernelBasis(
        vectors=tuple(_nullspace(rows, len(family))),
        family_size=len(family),
    )


def verify_zero(v: CoefficientVector, eps: float) -> tuple[bool, EvalResult]:
    """Evaluate v with a rigorous bound and test whether 0 is inside it.

    The accelerated route takes the exact digamma tail from block 0 and
    sums no block, so its cost does not grow as eps shrinks and no block
    budget limits which witnesses can be checked.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    result = evaluate(v, eps)
    return abs(result.value) <= result.error_bound, result


def _proper_divisors(T: int) -> list[int]:
    return [d for d in range(2, T) if T % d == 0]


def divisor_family(T: int) -> list[CoefficientVector]:
    """The family over modulus T used by divisor_relations, in order:

    the T-1 difference vectors, then per proper divisor d >= 2
    (ascending) the lift of ln_vector(d) followed by the lifts of d's
    difference vectors, and finally ln_vector(T).
    """
    family = list(spanning_basis(T))
    for d in _proper_divisors(T):
        family.append(lift(ln_vector(d), T // d))
        family.extend(lift(b, T // d) for b in spanning_basis(d))
    family.append(ln_vector(T))
    return family


def _log_positions(T: int) -> list[tuple[int, int]]:
    """(label, family index) of each logarithm vector in divisor_family."""
    out = []
    idx = T - 1
    for d in _proper_divisors(T):
        out.append((d, idx))
        idx += d  # the lift of ln_vector(d) plus d-1 lifted difference vectors
    out.append((T, idx))
    return out


def divisor_relations(T: int, *, eps: float = 1e-6) -> KernelBasis:
    """Exact relations witnessing value collisions for a composite modulus.

    Multiplicative relations among the proper divisors of T and T itself
    (for instance 4 = 2^2 or 6 = 2*3) are found exactly from the prime
    exponent matrix, using the same fraction-free nullspace engine as
    ``kernel``.  Each relation is embedded over ``divisor_family(T)``:
    its entries over the logarithm vectors combine to a balanced vector
    with nonzero coefficients whose series value is 0 (checked here via
    ``verify_zero`` at eps), and the difference-basis entries cancel
    that witness exactly, so the full tuple is a genuine kernel relation
    of the family.  Use ``relation_witnesses`` to recover the witnesses.

    No completeness is claimed; the basis exposes what the divisor
    structure provides.
    """
    if not 1 <= T <= _MAX_DIVISOR_MODULUS:
        raise ValueError(f"T must be in [1, {_MAX_DIVISOR_MODULUS}]")
    divisors = _proper_divisors(T)
    if not divisors:
        raise NotComposite(f"T={T} has no proper divisor >= 2")
    family = divisor_family(T)
    logs = _log_positions(T)
    labels = [label for label, _ in logs]
    primes = factor_radical(T)
    exponent_rows = [
        [Fraction(_factorize(label).get(p, 0)) for label in labels] for p in primes
    ]
    relations = []
    for rel in _nullspace(exponent_rows, len(labels)):
        terms = [(rel[i], family[pos]) for i, (_, pos) in enumerate(logs) if rel[i]]
        witness = linear_combine(terms)
        if witness.is_zero():
            continue
        ok, result = verify_zero(witness, eps)
        if not ok:
            raise ArithmeticError(
                f"witness {witness} failed its zero check: value {result.value} "
                f"outside bound {result.error_bound}"
            )
        full = [Fraction(0)] * len(family)
        for i, coord in enumerate(express_in_basis(witness)):
            full[i] = -coord
        for i, (_, pos) in enumerate(logs):
            full[pos] = rel[i]
        relations.append(_normalize_relation(full))
    return KernelBasis(vectors=tuple(relations), family_size=len(family))


def relation_witnesses(
    T: int, basis: KernelBasis | None = None
) -> list[CoefficientVector]:
    """Zero-series witnesses carried by divisor_relations(T).

    Each witness recombines the non-basis part of one relation; it is a
    balanced vector with nonzero coefficients whose series value is 0.
    """
    if basis is None:
        basis = divisor_relations(T)
    family = divisor_family(T)
    if basis.family_size != len(family):
        raise ValueError("basis does not belong to divisor_family(T)")
    out = []
    for rel in basis.vectors:
        terms = [(rel[i], family[i]) for i in range(T - 1, len(family)) if rel[i]]
        if terms:
            out.append(linear_combine(terms))
        else:
            out.append(make_vector(T, [0] * T))
    return out
