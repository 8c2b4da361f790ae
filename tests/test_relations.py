"""Spanning basis, exact kernels, zero-series verification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logser import (
    ModulusMismatch,
    NotComposite,
    divisor_family,
    divisor_relations,
    express_in_basis,
    kernel,
    lift,
    linear_combine,
    ln_vector,
    make_vector,
    relation_witnesses,
    spanning_basis,
    verify_zero,
)

from conftest import random_balanced


class TestSpanningBasis:
    def test_small_moduli(self):
        assert [[int(c) for c in b.coeffs] for b in spanning_basis(2)] == [[1, -1]]
        assert [[int(c) for c in b.coeffs] for b in spanning_basis(3)] == [
            [1, -1, 0],
            [0, 1, -1],
        ]
        assert [[int(c) for c in b.coeffs] for b in spanning_basis(4)] == [
            [1, -1, 0, 0],
            [0, 1, -1, 0],
            [0, 0, 1, -1],
        ]

    def test_linearly_independent(self):
        for T in (2, 3, 7, 12):
            assert len(kernel(spanning_basis(T))) == 0

    def test_requires_modulus_two(self):
        with pytest.raises(ValueError):
            spanning_basis(1)


class TestExpressInBasis:
    def test_basis_element(self):
        assert express_in_basis(make_vector(2, [1, -1])) == [Fraction(1)]

    def test_ln_vector(self):
        assert express_in_basis(ln_vector(3)) == [Fraction(1), Fraction(2)]

    def test_zero_vector(self):
        assert express_in_basis(make_vector(4, [0] * 4)) == [Fraction(0)] * 3

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6))
    def test_reconstruction_is_exact(self, seed):
        v = random_balanced(random.Random(seed))
        coords = express_in_basis(v)
        rebuilt = linear_combine(list(zip(coords, spanning_basis(v.modulus))))
        assert rebuilt == v


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


class TestDivisorRelations:
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

    @pytest.mark.parametrize(
        "T", [T for T in range(4, 65) if any(T % d == 0 for d in range(2, T))]
    )
    def test_composite_moduli_have_verified_witnesses(self, T):
        basis = divisor_relations(T)
        assert len(basis) >= 1
        for witness in relation_witnesses(T, basis):
            assert not witness.is_zero()
            ok, _ = verify_zero(witness, 1e-6)
            assert ok

    def test_relations_are_exact_kernel_elements(self):
        for T in (4, 6, 9, 10):
            family = divisor_family(T)
            basis = divisor_relations(T)
            assert basis.family_size == len(family)
            for rel in basis.vectors:
                combo = linear_combine(list(zip(rel, family)))
                assert combo.is_zero()

    def test_prime_modulus_rejected(self):
        with pytest.raises(NotComposite):
            divisor_relations(7)

    def test_modulus_cap(self):
        with pytest.raises(ValueError):
            divisor_relations(66)

    def test_family_layout(self):
        family = divisor_family(6)
        # 5 difference vectors, ln lift and diffs for d = 2 and d = 3, ln 6
        assert len(family) == 5 + 2 + 3 + 1
        assert family[5] == lift(ln_vector(2), 3)
        assert family[7] == lift(ln_vector(3), 2)
        assert family[-1] == ln_vector(6)
