"""Difference basis, exact kernels, zero-series verification."""

import math
import random
import time
from fractions import Fraction
from itertools import accumulate

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logser import (
    BudgetExceeded,
    KernelBasis,
    ModulusMismatch,
    NotComposite,
    divisor_family,
    divisor_relations,
    kernel,
    lift,
    linear_combine,
    ln_vector,
    make_vector,
    relation_witnesses,
    verify_zero,
)

from logser import evaluate, evaluation, relations
from logser.relations import _nullspace
from logser.vectors import _difference_vector, _factorize

from conftest import as_fraction, random_balanced

COMPOSITES = [T for T in range(4, 65) if any(T % d == 0 for d in range(2, T))]


def gauss_jordan_kernel(family):
    """Normalized nullspace of the family's columns, by Gauss-Jordan over Fraction.

    An independent reference for ``kernel``, over the coefficients
    themselves rather than difference-basis coordinates.
    """
    rows = [[v.coeffs[slot] for v in family] for slot in range(family[0].modulus)]
    return gauss_jordan_nullspace(rows, len(family))


def gauss_jordan_nullspace(rows, ncols):
    """Normalized nullspace of a rational matrix given by rows, over Fraction.

    An independent reference for ``_nullspace``: it reduces to RREF with
    the same pivot order (first nonzero entry, columns left to right),
    reads each free column's solution off the reduced rows and scales it
    to coprime integers with a positive first nonzero entry.
    """
    rows = [[Fraction(e) for e in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [e / rows[r][c] for e in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [a - row[c] * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = -rows[i][fc]
        scale = math.lcm(*(e.denominator for e in x))
        ints = [int(e * scale) for e in x]
        g = math.gcd(*ints)
        if next(i for i in ints if i) < 0:
            g = -g
        out.append(tuple(Fraction(i, g) for i in ints))
    return tuple(out)


def weight_row_kernel(family):
    """``_nullspace`` over the family's scaled weights, one row per slot.

    These rows span the same space as the difference-basis coordinates
    that ``kernel`` reduces, so the normalized bases must be equal.
    """
    scale = math.lcm(*(v.scale for v in family))
    columns = [[w * (scale // v.scale) for w in v.weights] for v in family]
    return tuple(_nullspace(zip(*columns), len(family)))


def lifted_family(T):
    """divisor_family(T) built by lifting each divisor's spanning basis.

    The difference vectors come from make_vector, so this shares no
    integer constructor with ``divisor_family``.
    """
    def differences(d):
        return [
            make_vector(d, [0] * i + [1, -1] + [0] * (d - 2 - i)) for i in range(d - 1)
        ]

    family = differences(T)
    for d in range(2, T):
        if T % d == 0:
            family.append(lift(ln_vector(d), T // d))
            family.extend(lift(b, T // d) for b in differences(d))
    family.append(ln_vector(T))
    return family


@st.composite
def integer_matrices(draw):
    """(rows, ncols) of unbalanced integer matrices, often with more rows than rank.

    Pivots are rarely 1, and the rows added as integer combinations of
    drawn rows, the zero row among them, add no rank, so elimination
    meets rows that vanish and divisions by non-unit pivots.
    """
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-6, 6), st.integers(-(10**12), 10**12))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        k, m = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([k * x + m * y for x, y in zip(a, b)])
    return draw(st.permutations(rows)), ncols


@st.composite
def rational_families(draw):
    """Small families of balanced rational vectors, with zero and duplicate columns."""
    T = draw(st.integers(2, 6))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    family = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("random", "zero", "duplicate")))
        if kind == "zero":
            family.append(make_vector(T, [0] * T))
        elif kind == "duplicate" and family:
            family.append(draw(st.sampled_from(family)))
        else:
            head = draw(st.lists(coeff, min_size=T - 1, max_size=T - 1))
            family.append(make_vector(T, head + [-sum(head)]))
    return family


@st.composite
def unit_families(draw):
    """Families of balanced vectors with entries in {-1, 0, 1}.

    Their elimination often meets a pivot equal to the previous one with
    a nonzero entry above it, which rational families rarely do.
    """
    T = draw(st.integers(2, 6))
    family = []
    for _ in range(draw(st.integers(1, 7))):
        k = draw(st.integers(0, T // 2))
        entries = [1] * k + [-1] * k + [0] * (T - 2 * k)
        family.append(make_vector(T, draw(st.permutations(entries))))
    return family


class TestSpanningBasis:
    """The T-1 difference vectors that lead every divisor family."""

    def test_small_moduli(self):
        for T, rows in [
            (2, [[1, -1]]),
            (3, [[1, -1, 0], [0, 1, -1]]),
            (4, [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]),
        ]:
            differences = [_difference_vector(T, j) for j in range(1, T)]
            for basis in (divisor_family(T)[: T - 1], differences):
                assert [[int(c) for c in b.coeffs] for b in basis] == rows

    def test_linearly_independent(self):
        for T in (2, 3, 7, 12):
            assert len(kernel(divisor_family(T)[: T - 1])) == 0

    def test_requires_modulus_two(self):
        with pytest.raises(ValueError):
            divisor_family(1)

    def test_slots_are_bounded_by_the_term_limit(self):
        # sigma(720) - 1 = 2417 members of 720 slots, though (T - 1) T fits
        with pytest.raises(BudgetExceeded):
            divisor_family(720)

    def test_bound_is_checked_before_any_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("work began before the bound was checked")

        monkeypatch.setattr(relations, "_difference_vector", forbidden)
        # past the limit only when every member is counted: divisors, no vector
        with pytest.raises(BudgetExceeded):
            divisor_family(720)
        # past it by the difference vectors alone: no divisor is listed
        monkeypatch.setattr(relations, "_proper_divisors", forbidden)
        with pytest.raises(BudgetExceeded):
            divisor_family(10**12)


class TestExpressInBasis:
    """A balanced vector's coordinates in the difference basis are its prefix sums."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6))
    def test_reconstruction_is_exact(self, seed):
        v = random_balanced(random.Random(seed))
        coords = list(accumulate(v.coeffs[:-1]))
        basis = divisor_family(v.modulus)[: v.modulus - 1]
        assert linear_combine(list(zip(coords, basis))) == v


class TestKernel:
    def test_zero_series_family(self):
        family = [
            make_vector(4, [2, -2, 2, -2]),
            make_vector(4, [1, 1, 1, -3]),
            make_vector(4, [1, -3, 1, 1]),
        ]
        basis = kernel(family)
        assert basis.family_size == 3
        assert basis.vectors == ((Fraction(1), Fraction(-1), Fraction(-1)),)

    def test_duplicate_vector(self):
        v = ln_vector(3)
        basis = kernel([v, v])
        assert basis.vectors == ((Fraction(1), Fraction(-1)),)

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            kernel([ln_vector(2), ln_vector(3)])

    def test_empty_family(self):
        with pytest.raises(ValueError):
            kernel([])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 6))
    def test_relations_combine_to_zero_vector(self, seed, size):
        rng = random.Random(seed)
        T = rng.randint(2, 8)
        family = [random_balanced(rng, modulus=T) for _ in range(size)]
        basis = kernel(family)
        for rel in basis.vectors:
            combo = linear_combine(list(zip(rel, family)))
            assert combo.is_zero()

    # at T = 48, 60 and 64 elimination leaves most rows as they are; a prime T
    # leaves one free column, the ln vector's
    @pytest.mark.parametrize("T", range(2, 65))
    def test_divisor_family_matches_gauss_jordan(self, T):
        family = divisor_family(T)
        basis = kernel(family)
        assert basis.vectors == gauss_jordan_kernel(family)
        assert all(type(c) is int for rel in basis.vectors for c in rel)

    @settings(max_examples=150, deadline=None)
    @given(rational_families())
    def test_matches_gauss_jordan(self, family):
        basis = kernel(family)
        assert basis.vectors == gauss_jordan_kernel(family)
        assert all(type(c) is int for rel in basis.vectors for c in rel)

    def test_update_above_an_equal_pivot(self):
        # the second pivot equals the first, and the row above it has a
        # nonzero entry in the second pivot column that must be cleared
        family = [
            make_vector(3, [1, -1, 0]),
            make_vector(3, [1, 0, -1]),
            make_vector(3, [0, 1, -1]),
        ]
        assert kernel(family).vectors == ((Fraction(1), Fraction(-1), Fraction(1)),)

    @settings(max_examples=150, deadline=None)
    @given(unit_families())
    def test_unit_families_match_gauss_jordan(self, family):
        assert kernel(family).vectors == gauss_jordan_kernel(family)

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_nullspace_matches_gauss_jordan(self, matrix):
        rows, ncols = matrix
        basis = _nullspace(rows, ncols)
        assert tuple(basis) == gauss_jordan_nullspace(rows, ncols)
        assert all(type(c) is int for rel in basis for c in rel)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(rational_families(), unit_families()))
    def test_coordinates_match_the_weight_rows(self, family):
        assert kernel(family).vectors == weight_row_kernel(family)

    @pytest.mark.parametrize("T", COMPOSITES)
    def test_divisor_family_coordinates_match_the_weight_rows(self, T):
        family = divisor_family(T)
        assert kernel(family).vectors == weight_row_kernel(family)

    def test_rational_coefficients_handled_exactly(self):
        family = [
            make_vector(2, [Fraction(1, 3), Fraction(-1, 3)]),
            make_vector(2, [Fraction(1, 7), Fraction(-1, 7)]),
        ]
        basis = kernel(family)
        assert basis.vectors == ((Fraction(3), Fraction(-7)),)


class TestVerifyZero:
    def test_known_zero_series(self):
        ok, result = verify_zero(make_vector(4, [1, -3, 1, 1]), 1e-6)
        assert ok
        assert abs(float(result.value)) <= result.error_bound

    def test_zero_vector(self):
        ok, result = verify_zero(make_vector(3, [0, 0, 0]), 1e-3)
        assert ok and result.value == 0

    def test_nonzero_series_rejected(self):
        ok, result = verify_zero(ln_vector(2), 1e-6)
        assert not ok
        assert float(result.value) == pytest.approx(0.6931471805599453, abs=1e-6)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            verify_zero(ln_vector(2), 0.0)

    @pytest.mark.parametrize("T", COMPOSITES)
    def test_the_integer_check_is_the_mpf_check(self, T):
        # for every witness divisor_relations checks, for ln 2 (nonzero) and for
        # the zero vector: the bool is abs(value) <= bound over evaluate's mpf,
        # and the value built on first read is that mpf, bit for bit
        vectors = [witness for witness, _ in relations._checked_relations(T)[1]]
        vectors += [ln_vector(2), make_vector(T, [0] * T)]
        for v in vectors:
            ok, result = verify_zero(v, 1e-6)
            eager = evaluate(v, 1e-6)
            assert ok is (abs(eager.value) <= eager.error_bound)
            assert ok is (abs(as_fraction(eager.value)) <= Fraction(eager.error_bound))
            assert "value" not in vars(result)
            assert result.value._mpf_ == eager.value._mpf_
            assert result == eager and hash(result) == hash(eager)
        assert [verify_zero(v, 1e-6)[0] for v in vectors[-2:]] == [False, True]

    # 3/4 is 3 2^104 at prec 96 (scale 2^106): 106 bits, so rounding to 96 bits
    # keeps multiples of 2^10, and 3 2^94 is even.  The reference compares the
    # prec-bit mpf with the bound exactly, as Fractions: abs() of an mpf would
    # round it to mpmath's context precision first, 53 bits by default
    @pytest.mark.parametrize("fixed, bound, inside", [
        pytest.param(3 << 104, 0.75, True, id="on"),
        pytest.param((3 << 104) - 1, 0.75, True, id="below-rounds-onto"),
        pytest.param((3 << 104) + (1 << 9), 0.75, True, id="tie-to-even-onto"),
        pytest.param((3 << 104) + (1 << 9) + 1, 0.75, False, id="rounds-one-unit-above"),
        pytest.param((3 << 104) - (1 << 10), 0.75, True, id="one-unit-below"),
        pytest.param(-((3 << 104) + (1 << 9)), 0.75, True, id="negative-tie-onto"),
        pytest.param(-((3 << 104) + (1 << 9) + 1), 0.75, False, id="negative-above"),
        pytest.param((3 << 104) + (3 << 9), 0.75, False, id="tie-to-even-past"),
        pytest.param((3 << 104) + (1 << 10), math.nextafter(0.75, 1.0), True,
                     id="under-the-next-double"),
        pytest.param((1 << 106) - 1, 1.0, True, id="carry-onto"),
        pytest.param((1 << 106) - 1, math.nextafter(1.0, 0.0), False, id="carry-past"),
        pytest.param(0, 0.0, True, id="zero-on-zero"),
        pytest.param(1, 0.0, False, id="tiny-past-zero"),
    ])
    def test_rounding_on_at_and_past_the_bound(self, fixed, bound, inside, monkeypatch):
        # _evaluate hands out fixed rounded to 96 bits by _round; the reference
        # is mpmath's round_nearest of the same integer
        value = evaluation._round(fixed, -106, 96)
        monkeypatch.setattr(relations, "_evaluate", lambda v, eps, method: (value, bound, 0))
        ok, result = verify_zero(ln_vector(2), 1e-6)
        libmp = mpmath.libmp
        reference = mpmath.mp.make_mpf(libmp.from_man_exp(fixed, -106, 96, libmp.round_nearest))
        assert ok is inside
        assert inside is (abs(as_fraction(reference)) <= Fraction(bound))
        assert result.value._mpf_ == reference._mpf_ and result.error_bound == bound


class TestDivisorRelations:
    def test_a_failed_witness_check_raises(self, monkeypatch):
        # verify_zero passes every witness of T <= 64; one it fails is named
        check = relations.verify_zero
        monkeypatch.setattr(relations, "verify_zero", lambda v, eps: (False, check(v, eps)[1]))
        with pytest.raises(ArithmeticError, match=r"witness S_12\([-0-9, ]+\) failed"):
            divisor_relations(12)

    def test_modulus_four_reproduces_zero_series(self):
        basis = divisor_relations(4)
        witnesses = relation_witnesses(4, basis)
        target = make_vector(4, [1, -3, 1, 1])
        matches = []
        for w in witnesses:
            coords = [(a, b) for a, b in zip(w.coeffs, target.coeffs) if b]
            scale = coords[0][0] / coords[0][1]
            if scale and all(a == scale * b for a, b in zip(w.coeffs, target.coeffs)):
                matches.append(w)
        assert matches, f"no witness proportional to {target} in {witnesses}"

    @pytest.mark.parametrize("T", COMPOSITES)
    def test_composite_moduli_have_verified_witnesses(self, T):
        basis = divisor_relations(T)
        assert len(basis) >= 1
        for witness in relation_witnesses(T, basis):
            assert not witness.is_zero()
            ok, _ = verify_zero(witness, 1e-6)
            assert ok
        # the CLI prints a checked witness's integer weights as its coefficients
        _, checks = relations._checked_relations(T)
        assert all(witness.scale == 1 for witness, _ in checks)

    def test_relations_are_exact_kernel_elements(self):
        # divisor_relations never builds divisor_family; this ties the two
        for T in COMPOSITES:
            family = divisor_family(T)
            basis = divisor_relations(T)
            assert basis.family_size == len(family)
            for rel in basis.vectors:
                assert all(type(c) is int for c in rel)
                assert next(c for c in rel if c) > 0
                assert math.gcd(*rel) == 1
                combo = linear_combine(list(zip(rel, family)))
                assert combo.is_zero()

    def test_prime_modulus_rejected(self):
        with pytest.raises(NotComposite):
            divisor_relations(7)

    def test_modulus_cap(self):
        with pytest.raises(ValueError):
            divisor_relations(66)

    @pytest.mark.parametrize("T", COMPOSITES)
    def test_family_matches_the_lifted_construction(self, T):
        def members(family):
            return [(v, v.weights, v.scale) for v in family]

        reference = lifted_family(T)
        assert members(divisor_family(T)) == members(reference)
        differences = [_difference_vector(T, j) for j in range(1, T)]
        assert members(differences) == members(reference[: T - 1])

    @pytest.mark.parametrize("T", COMPOSITES)
    def test_family_members_hold_fractions(self, T):
        for v in divisor_family(T):
            assert all(type(c) is Fraction for c in v.coeffs), v
            assert all(type(w) is int for w in v.weights), v
            assert type(v.scale) is int

    def test_family_layout(self):
        family = divisor_family(6)
        # 5 difference vectors, ln lift and diffs for d = 2 and d = 3, ln 6
        assert len(family) == 5 + 2 + 3 + 1
        assert family[5] == lift(ln_vector(2), 3)
        assert family[7] == lift(ln_vector(3), 2)
        assert family[-1] == ln_vector(6)

    @pytest.mark.parametrize("T", COMPOSITES)
    def test_witnesses_of_a_kernel_basis(self, T):
        # the reference recombines each relation's non-basis part over the family
        family = divisor_family(T)
        basis = kernel(family)
        for rels in (basis, divisor_relations(T)):
            expected = [_recombined(rel, family, T) for rel in rels.vectors]
            witnesses = relation_witnesses(T, rels)
            assert witnesses == expected
            assert [(w.weights, w.scale) for w in witnesses] == [
                (w.weights, w.scale) for w in expected
            ]
        # these relations also use the lifted difference vectors
        logs, idx = {T - 1}, T - 1
        for d in range(2, T):
            if T % d == 0:
                idx += d
                logs.add(idx)
        lifted_differences = set(range(T - 1, len(family))) - logs
        assert any(rel[i] for rel in basis.vectors for i in lifted_differences)

    def test_witnesses_of_a_rational_basis(self):
        # half of each relation is still a relation, with Fraction entries
        family = divisor_family(12)
        basis = divisor_relations(12)
        half = KernelBasis(
            vectors=tuple(tuple(Fraction(c, 2) for c in rel) for rel in basis.vectors),
            family_size=basis.family_size,
        )
        witnesses = relation_witnesses(12, half)
        expected = [_recombined(rel, family, 12) for rel in half.vectors]
        assert witnesses == expected
        assert [(w.weights, w.scale) for w in witnesses] == [
            (w.weights, w.scale) for w in expected
        ]
        assert any(c.denominator == 2 for w in witnesses for c in w.coeffs)

    def test_witnesses_reject_a_basis_of_another_family(self):
        with pytest.raises(ValueError):
            relation_witnesses(12, divisor_relations(6))
        with pytest.raises(ValueError):
            differences = [_difference_vector(6, j) for j in range(1, 6)]
            relation_witnesses(6, kernel(differences + [ln_vector(6)]))

    def test_witnesses_bound_the_modulus_before_scanning_its_divisors(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("divisors were scanned before the bound was checked")

        basis = KernelBasis(vectors=((1,),), family_size=1)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            relation_witnesses(10**12, basis)
        assert time.perf_counter() - start < 1.0
        monkeypatch.setattr(relations, "_proper_divisors", forbidden)
        with pytest.raises(BudgetExceeded, match="term limit"):
            relation_witnesses(10**6 + 1, basis)

    def test_witnesses_need_a_modulus_of_two(self):
        with pytest.raises(NotComposite):
            relation_witnesses(1)
        # these bases have the sizes that T = 1 and T = 0 would give
        with pytest.raises(ValueError):
            relation_witnesses(1, KernelBasis(vectors=((1,),), family_size=1))
        with pytest.raises(ValueError):
            relation_witnesses(0, KernelBasis(vectors=(), family_size=0))


def _recombined(rel, family, T):
    """The non-basis part of rel recombined over family by linear_combine."""
    terms = [(c, v) for c, v in zip(rel[T - 1 :], family[T - 1 :]) if c]
    return linear_combine(terms) if terms else make_vector(T, [0] * T)


def _distribution_differences(T):
    """D_{p,i} - D_{p,1} for each prime p | T and i = 2..T/p, as slot columns.

    D_{p,i} = sum_{k<p} e_{i+k*T/p} - p*e_{p*i} is Gauss's multiplication
    formula for psi at z = i/T; its series is (p/T) ln p for every i, so
    each difference is a zero series.
    """
    def gauss(p, i):
        col = [0] * T
        for k in range(p):
            col[i + k * (T // p) - 1] += 1
        col[p * i - 1] -= p
        return col

    return [
        [a - b for a, b in zip(gauss(p, i), gauss(p, 1))]
        for p in _factorize(T)
        for i in range(2, T // p + 1)
    ]


def _rank(columns):
    return len(columns) - len(_nullspace(zip(*columns), len(columns)))


class TestZeroSeriesSpace:
    def test_distribution_differences_span_the_expected_dimension(self):
        # the rank is T - phi(T) - omega(T) for every T <= 64, and the
        # divisor_relations witnesses lie in that span
        for T in range(2, 65):
            columns = _distribution_differences(T)
            phi = sum(1 for j in range(1, T + 1) if math.gcd(j, T) == 1)
            rank = _rank(columns)
            assert rank == T - phi - len(_factorize(T)), T
            if T in COMPOSITES:
                witnesses = relation_witnesses(T)
                assert all(w.scale == 1 for w in witnesses), T
                assert _rank(columns + [w.weights for w in witnesses]) == rank, T
