"""Linear algebra over families of balanced vectors.

The values of all balanced series over a fixed modulus T form a vector
space over the rationals spanned by the T-1 difference vectors
(1,-1,0,...), (0,1,-1,...), ..., (0,...,1,-1); expressing a vector in
that basis is a telescoping prefix sum.  Exact kernels of vector
families are computed in integers, over those coordinates, by
fraction-free Gauss-Jordan elimination whose reduced matrix, a multiple
of the RREF, carries the basis, so that every returned relation, a
tuple of coprime ints, combines its family to the exact zero vector.
A family that starts with the difference basis, as every divisor family
does, starts with T-1 identity columns, so its elimination updates no
row.

For composite moduli, logarithm vectors lifted from the proper divisors
collide in value without colliding coefficient-wise (for instance
2*ln 2 = ln 4 turns into the nonzero vector (1,-3,1,1) over modulus 4
whose series is 0).  ``divisor_relations`` discovers those collisions
exactly, from the multiplicative structure of the divisors, and returns
them as kernel relations over a family that also carries the difference
basis, so each relation's non-basis part is a numeric witness of a zero
series; ``relation_witnesses`` reads it off the relation's difference
part without building the family.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from itertools import accumulate

from .errors import ModulusMismatch, NotComposite
from .evaluation import EvalResult, _evaluate, _unread
from .vectors import (
    CoefficientVector,
    _check_term_limit,
    _difference_vector,
    _factorize,
    _from_weights,
    _lifted_logs,
    _Record,
    lift,
    ln_vector,
)

_MAX_DIVISOR_MODULUS = 64
# the abs_err at which divisor_relations checks each witness through
# verify_zero; the accelerated route's cost does not depend on it
_WITNESS_EPS = 1e-6


class KernelBasis(_Record):
    """Basis of exact relations over an ordered family of vectors.

    Every tuple combines the family to the exact zero vector; tuples are
    normalized to coprime ints with a positive leading entry.  An int
    compares and hashes equal to the Fraction of the same value.
    """

    vectors: tuple[tuple[int, ...], ...]
    family_size: int

    def __init__(self, vectors: tuple[tuple[int, ...], ...], family_size: int) -> None:
        for rel in vectors:
            if len(rel) != family_size:
                raise ValueError("relation length does not match the family size")
            if not any(rel):
                raise ValueError("relations must not be identically zero")
        vars(self).update(vectors=vectors, family_size=family_size)

    def __len__(self) -> int:
        return len(self.vectors)


def _normalize_relation(ints: Sequence[int]) -> tuple[int, ...]:
    """Divide out the gcd and make the first nonzero entry positive."""
    g = math.gcd(*ints)
    if next(filter(None, ints)) < 0:
        g = -g
    return tuple(ints) if g == 1 else tuple(i // g for i in ints)


def _nullspace(rows: Iterable[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Exact nullspace basis of an integer matrix given by rows.

    A copy of the rows is reduced by fraction-free Gauss-Jordan
    elimination (pivot: first nonzero entry, scanning columns left to
    right).  At pivot p, every other row, above the pivot row or below
    it, updates to (p a - f b) / prev, f its entry in the pivot column
    and prev the previous pivot.  The matrix ends as d times its RREF,
    d the last pivot, so each free column fc gives a kernel vector with
    -d at fc and its column entry at each pivot column.  Normalizing
    (coprime, first nonzero entry positive) gives the unique normalized
    RREF basis for this pivot order (Bareiss 1968; Nakos, Turner and
    Williams 1997); the sign of the vector read off does not matter.
    The vectors come off in one transposition: column c's entry in every
    vector is a pivot row's entries at the free columns, or -d at free
    column c's own vector and 0 in the others.

    When f = 0 and p equals prev, the update is the row itself, so the
    row is skipped.  Over identity columns, as ``kernel`` meets first in
    a divisor family, every pivot is 1 and every other entry in its
    column is 0, so no row is updated, and the pivot row's sum, which only
    the check reads, is not taken.  Every row that is updated still runs
    its division and the exactness check below; a skipped row runs no
    division, so none can lose exactness.
    """
    matrix = [list(row) for row in rows]
    pivot_cols: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivot_cols)
        if r == len(matrix):
            break  # every row holds a pivot, so the remaining columns are free
        pr = next((i for i in range(r, len(matrix)) if matrix[i][c]), None)
        if pr is None:
            continue
        matrix[r], matrix[pr] = matrix[pr], matrix[r]
        pivot_row = matrix[r]
        p = pivot_row[c]
        stale = [
            row for row in matrix if (row[c] or p != prev) and row is not pivot_row
        ]
        if stale:
            pivot_sum = sum(pivot_row)
        for row in stale:
            f = row[c]
            quotients = [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]
            # every floor remainder has the sign of prev, so all of them
            # are 0 exactly when they sum to 0
            if p * sum(row) - f * pivot_sum != prev * sum(quotients):
                raise ArithmeticError("fraction-free elimination lost exactness")
            row[:] = quotients
        prev = p
        pivot_cols.append(c)
    pivots = set(pivot_cols)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return []
    # entries[c] holds column c's entry in every kernel vector, one per free
    # column: a pivot row's free entries, or -prev at the free column's own
    take = operator.itemgetter(*free) if len(free) > 1 else lambda row: (row[free[0]],)
    entries = dict(zip(pivot_cols, map(take, matrix)))
    for i, fc in enumerate(free):
        entries[fc] = (0,) * i + (-prev,) + (0,) * (len(free) - 1 - i)
    return [_normalize_relation(x) for x in zip(*map(entries.__getitem__, range(ncols)))]


def kernel(family: Sequence[CoefficientVector]) -> KernelBasis:
    """Exact rational kernel of a family (vectors as columns).

    Returns every tuple (c_1, ..., c_r), up to basis choice, with
    sum_i c_i v_i equal to the zero vector, coefficient by coefficient.
    The nullspace runs on integers: each column holds a vector's
    coordinates in the difference basis, the prefix sums of its weights
    scaled to the lcm of the family's scales, less the last one, 0 by
    balance.  The prefix-sum map is unimodular, so the rows span the
    same space as the weights themselves would, and the RREF, hence the
    pivot columns and the normalized basis, is the same.  In a divisor
    family the first T-1 columns, the difference basis, become identity
    columns, and elimination updates no row.
    """
    if not family:
        raise ValueError("family must not be empty")
    modulus = family[0].modulus
    for vec in family:
        if vec.modulus != modulus:
            raise ModulusMismatch(
                f"family mixes moduli {modulus} and {vec.modulus}; lift first"
            )
    scale = math.lcm(*(vec.scale for vec in family))
    columns = [
        accumulate(
            vec.weights[:-1]
            if vec.scale == scale
            else map((scale // vec.scale).__mul__, vec.weights[:-1])
        )
        for vec in family
    ]
    return KernelBasis(
        vectors=tuple(_nullspace(zip(*columns), len(family))),
        family_size=len(family),
    )


def verify_zero(v: CoefficientVector, eps: float) -> tuple[bool, EvalResult]:
    """Evaluate v with a rigorous bound and test whether 0 is inside it.

    The accelerated route takes the exact digamma tail from block 0 and
    sums no block, so its cost does not grow as eps shrinks and no limit
    bounds which witnesses can be checked.  The test is exact and in
    integers: _evaluate's value m 2^e, already rounded to its prec bits,
    against the bound's n/d, as |m| d 2^e <= n.  That is the bool that
    abs(evaluate(v, eps).value) <= error_bound gives.

    The EvalResult is evaluate(v, eps)'s, but it holds the pair (m, e) as
    ``_value`` and builds its value, the same mpf, on the first read, so a
    check whose value is never read loads no mpmath (the first read does).
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    (m, e), bound, blocks = _evaluate(v, eps, "accelerated")
    n, d = bound.as_integer_ratio()
    inside = abs(m) * d << e <= n if e >= 0 else abs(m) * d <= n << -e
    return inside, _unread((m, e), bound, blocks, "accelerated")


def _proper_divisors(T: int) -> list[int]:
    return [d for d in range(2, T) if T % d == 0]


def divisor_family(T: int) -> list[CoefficientVector]:
    """The family over modulus T used by divisor_relations, in order:

    the T-1 difference vectors, then per proper divisor d >= 2
    (ascending) the lift of ln_vector(d) followed by the lifts of d's
    difference vectors, and finally ln_vector(T).

    It has sigma(T) - 1 members of T slots each, sigma the divisor sum,
    and a family of more than TERM_LIMIT slots raises BudgetExceeded
    before any vector is built: every T <= 64 that divisor_relations
    takes builds (at most 167 x 60 slots), a prime T up to 997, and a
    highly composite one such as 720 (2417 x 720) does not.
    """
    if T < 2:
        raise ValueError("modulus must be >= 2")
    # the difference vectors alone bound T before its divisors are listed
    _check_term_limit((T - 1) * T, f"slots of the basis over {T}")
    members = _log_positions(T)[-1][1] + 1
    _check_term_limit(members * T, f"slots of {members} vectors over {T}")
    family = [_difference_vector(T, j) for j in range(1, T)]
    for d in _proper_divisors(T):
        family.append(lift(ln_vector(d), T // d))
        family.extend(_difference_vector(d, j, T // d) for j in range(1, d))
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


def _checked_relations(T: int) -> tuple[KernelBasis, list[tuple]]:
    """divisor_relations(T), and per relation (witness, verify_zero's pair)."""
    if not 1 <= T <= _MAX_DIVISOR_MODULUS:
        raise ValueError(f"T must be in [1, {_MAX_DIVISOR_MODULUS}]")
    logs = _log_positions(T)
    if len(logs) == 1:
        raise NotComposite(f"T={T} has no proper divisor >= 2")
    size = logs[-1][1] + 1  # ln_vector(T) is the family's last member
    labels = [label for label, _ in logs]
    # T is the last label, so the last factorization holds T's primes
    factors = [_factorize(label) for label in labels]
    exponent_rows = [[f.get(p, 0) for f in factors] for p in factors[-1]]
    relations = []
    checks = []
    for rel in _nullspace(exponent_rows, len(labels)):
        # never all zero: the lifted logs 1 - d chi_d over the distinct d | T
        # are independent, as their divisibility matrix is unitriangular
        coeffs = _lifted_logs(T, dict(zip(labels, rel)))
        # normalized, the relation's first nonzero entry is minus the
        # witness's first nonzero coefficient, and rel is already coprime
        sign = -1 if next(a for a in coeffs if a) > 0 else 1
        witness = _from_weights(T, [sign * a for a in coeffs])
        ok, result = verify_zero(witness, _WITNESS_EPS)
        if not ok:
            raise ArithmeticError(
                f"witness {witness} failed its zero check: value {result.value} "
                f"outside bound {result.error_bound}"
            )
        # minus the witness's difference-basis coordinates, its prefix sums
        full = [-s for s in accumulate(witness.weights[:-1])]
        full += [0] * (size - T + 1)
        for c, (_, pos) in zip(rel, logs):
            full[pos] = sign * c
        relations.append(tuple(full))
        checks.append((witness, (ok, result)))
    return KernelBasis(vectors=tuple(relations), family_size=size), checks


def divisor_relations(T: int) -> KernelBasis:
    """Exact relations witnessing value collisions for a composite modulus.

    Multiplicative relations among the proper divisors of T and T itself
    (for instance 4 = 2^2 or 6 = 2*3) come exactly from the prime
    exponent matrix, via the nullspace engine of ``kernel``.  Each is a
    kernel relation of ``divisor_family(T)`` in closed form, and only its
    witness is built: the exponent relation over the logarithm vectors
    combines their lifts into a witness of series value 0, checked once
    via ``verify_zero`` at 1e-6; over the difference basis the relation
    is minus the witness's prefix sums, and elsewhere 0.  Only these
    prime-exponent relations are found.  For T <= 64 their witnesses lie
    in the span of the zero series D_{p,i} - D_{p,1}, where D_{p,i} =
    sum_{k<p} e_{i+kT/p} - p e_{pi} for a prime p | T (Gauss's
    multiplication formula); that span has dimension T - phi(T) - omega(T),
    and the witnesses fill 8 of its 41 dimensions at T = 60.
    """
    return _checked_relations(T)[0]


def relation_witnesses(
    T: int, basis: KernelBasis | None = None
) -> list[CoefficientVector]:
    """Zero-series witnesses carried by relations over divisor_family(T).

    Each witness is the non-basis part of one relation recombined over
    the family, that is minus the part over the T-1 difference vectors,
    so slot j is r_{j-1} - r_j with r_0 = r_T = 0 and no family member is
    built; for divisor_relations(T) it has nonzero coefficients and
    series value 0.  Given a basis, T past TERM_LIMIT raises
    BudgetExceeded before T's divisors are scanned.
    """
    if basis is None:
        basis = divisor_relations(T)
    _check_term_limit(T, f"candidate divisors of {T}")
    # T < 2 has no divisor_family
    if T < 2 or basis.family_size != _log_positions(T)[-1][1] + 1:
        raise ValueError("basis does not belong to divisor_family(T)")
    out = []
    for rel in basis.vectors:
        padded = (0, *rel[: T - 1], 0)
        slots = [a - b for a, b in zip(padded, padded[1:])]
        # ints have denominator 1, so an int relation gives scale 1
        scale = math.lcm(*(a.denominator for a in slots))
        weights = [a.numerator * (scale // a.denominator) for a in slots]
        out.append(_from_weights(T, weights, scale))
    return out
