"""Construction and exact algebra of balanced vectors."""

import functools
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logser import (
    TERM_LIMIT,
    BudgetExceeded,
    CoefficientVector,
    LengthMismatch,
    ModulusMismatch,
    UnbalancedCoefficients,
    decomposition_check,
    divisor_family,
    fixed_panel_integral,
    harmonic,
    integrand,
    integrate,
    lift,
    linear_combine,
    ln_rational_vector,
    ln_vector,
    make_vector,
    partial_sum_exact,
    rearranged_terms,
    relation_witnesses,
    vectors,
)
from logser.relations import _checked_relations, _difference_vectors
from logser.vectors import _factorize, _from_weights

from conftest import exact_block_oracle, random_balanced


@st.composite
def balanced_vectors(draw, max_modulus=10):
    modulus = draw(st.integers(min_value=1, max_value=max_modulus))
    if modulus == 1:
        return make_vector(1, [0])
    head = draw(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=6),
            min_size=modulus - 1,
            max_size=modulus - 1,
        )
    )
    return make_vector(modulus, head + [-sum(head)])


class TestMakeVector:
    def test_ln2_vector(self):
        v = make_vector(2, [1, -1])
        assert v.modulus == 2
        assert v.coeffs == (Fraction(1), Fraction(-1))

    def test_rejects_unbalanced(self):
        with pytest.raises(UnbalancedCoefficients):
            make_vector(3, [1, 1, 1])

    def test_modulus_one_zero_vector(self):
        v = make_vector(1, [0])
        assert v.coeffs == (Fraction(0),)
        assert v.is_zero()

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            make_vector(3, [1, -1])

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            make_vector(0, [])

    def test_accepts_rational_strings(self):
        v = make_vector(2, ["1/3", "-1/3"])
        assert v.coeffs == (Fraction(1, 3), Fraction(-1, 3))

    def test_mixed_inputs_become_plain_fractions(self):
        class Half(Fraction):
            pass

        exact = Fraction(-3, 2)
        mixed = [1, "1/2", True, exact, Half(-1)]
        for v in (make_vector(5, mixed), CoefficientVector(5, mixed)):
            assert v.coeffs == (1, Fraction(1, 2), 1, Fraction(-3, 2), -1)
            assert all(type(c) is Fraction for c in v.coeffs)

    def test_rejects_imbalance_of_one_part_in_2_120(self):
        # coprime denominators near 2^61: the sum is 1/(pq), about 2^-122
        p, q = 2**61 - 1, 2**61 + 1
        head = [Fraction(1, p), Fraction(-1, q)]
        make_vector(3, head + [-sum(head)])
        with pytest.raises(UnbalancedCoefficients, match=f"got sum 1/{p * q}$"):
            make_vector(3, head + [-sum(head) + Fraction(1, p * q)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(max_denominator=10**20), min_size=1, max_size=12))
def test_integer_weights_match_fraction_products(head):
    v = make_vector(len(head) + 1, head + [-sum(head)])
    assert v.weights == tuple(a * v.scale for a in v.coeffs)
    assert all(type(w) is int for w in v.weights)


@functools.cache
def _witnesses(T):
    """relation_witnesses(T) and the witnesses divisor_relations checks."""
    return relation_witnesses(T) + [w for w, _ in _checked_relations(T)[1]]


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
every_constructor = st.one_of(
    balanced_vectors(),
    balanced_vectors().map(lambda v: CoefficientVector(v.modulus, list(map(str, v.coeffs)))),
    st.integers(1, 40).map(ln_vector),
    st.builds(lift, balanced_vectors(max_modulus=6), st.integers(1, 4)),
    st.builds(
        lambda v, a, b: linear_combine([(a, v), (b, ln_vector(v.modulus))]),
        balanced_vectors(), small_fractions, small_fractions,
    ),
    st.integers(2, 12).flatmap(lambda T: st.sampled_from(_difference_vectors(T))),
    st.builds(ln_rational_vector, st.integers(1, 200), st.integers(1, 200)),
    st.sampled_from([4, 6, 12, 30, 64]).flatmap(lambda T: st.sampled_from(_witnesses(T))),
)


@settings(max_examples=200, deadline=None)
@given(every_constructor)
def test_every_constructor_carries_its_integer_form(v):
    assert v.weights == tuple(a * v.scale for a in v.coeffs)
    assert all(type(w) is int for w in v.weights)
    assert v.scale == math.lcm(*(a.denominator for a in v.coeffs))
    rebuilt = make_vector(v.modulus, v.coeffs)
    assert v == rebuilt and hash(v) == hash(rebuilt)
    assert (rebuilt.weights, rebuilt.scale) == (v.weights, v.scale)
    assert all(type(c) is Fraction for c in v.coeffs)


class TestIntegerConstructor:
    def test_rejects_unbalanced(self):
        with pytest.raises(UnbalancedCoefficients, match="got sum 1$"):
            _from_weights(3, [1, 1, -1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            _from_weights(3, [1, -1])

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            _from_weights(0, [])

    def test_shares_one_fraction_per_distinct_weight(self):
        v = ln_vector(50)
        assert len({id(c) for c in v.coeffs}) == 2
        lifted = lift(make_vector(3, ["1/2", "-1/3", "-1/6"]), 4)
        assert all(a is b for a, b in zip(lifted.coeffs, lifted.coeffs[3:]))
        assert (lifted.weights, lifted.scale) == ((3, -2, -1) * 4, 6)


class TestStoredForm:
    """A vector stores its modulus, weights and scale; coeffs is read off them."""

    def test_str_lists_the_coefficients(self):
        assert str(make_vector(3, ["1/2", "-1/3", "-1/6"])) == "S_3(1/2, -1/3, -1/6)"
        assert str(ln_vector(2)) == "S_2(1, -1)"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ln_vector(24),
            lambda: lift(make_vector(3, ["1/2", "-1/3", "-1/6"]), 4),
            lambda: ln_rational_vector(1001, 1000),
            lambda: _difference_vectors(6)[2],
            lambda: divisor_family(12)[-1],
            lambda: divisor_family(12)[0],
            lambda: _checked_relations(12)[1][0][0],
            lambda: linear_combine([(Fraction(1, 3), ln_vector(4)), (2, lift(ln_vector(2), 2))]),
        ],
        ids=["ln_vector", "lift", "ln_rational_vector", "spanning_basis",
             "divisor_family_log", "divisor_family_difference",
             "divisor_relations_witness", "linear_combine"],
    )
    def test_coeffs_are_built_on_first_read(self, build):
        v = build()
        assert "coeffs" not in vars(v)
        coeffs = v.coeffs
        assert vars(v)["coeffs"] is coeffs
        assert coeffs == tuple(Fraction(w, v.scale) for w in v.weights)

    def test_linear_combine_builds_no_input_coeffs(self):
        a, b = make_vector(3, ["1/2", "-1/3", "-1/6"]), ln_vector(3)
        linear_combine([(Fraction(-2, 5), a), (3, b), (0, b)])
        assert "coeffs" not in vars(a) and "coeffs" not in vars(b)

    def test_repr_prints_the_coefficients(self):
        assert repr(make_vector(3, ["1/2", "-1/3", "-1/6"])) == (
            "CoefficientVector(modulus=3, coeffs=(Fraction(1, 2), Fraction(-1, 3), "
            "Fraction(-1, 6)))"
        )
        assert repr(ln_vector(3)) == (
            "CoefficientVector(modulus=3, coeffs=(Fraction(1, 1), Fraction(1, 1), "
            "Fraction(-2, 1)))"
        )

    @pytest.mark.parametrize("read_coeffs", [False, True])
    def test_pickle_round_trip_keeps_equality_and_hash(self, read_coeffs):
        for v in (ln_vector(5), make_vector(3, ["1/2", "-1/3", "-1/6"])):
            if read_coeffs:
                v.coeffs
            back = pickle.loads(pickle.dumps(v))
            assert back == v and hash(back) == hash(v)
            assert (back.weights, back.scale, back.coeffs) == (v.weights, v.scale, v.coeffs)


class TestLnVector:
    def test_modulus_two(self):
        assert ln_vector(2).coeffs == (Fraction(1), Fraction(-1))

    def test_modulus_three(self):
        assert ln_vector(3).coeffs == (Fraction(1), Fraction(1), Fraction(-2))

    def test_modulus_one(self):
        assert ln_vector(1).coeffs == (Fraction(0),)

    @pytest.mark.parametrize("T", range(1, 20))
    def test_always_balanced(self, T):
        assert sum(ln_vector(T).coeffs) == 0

    def test_modulus_limit(self):
        # one slot per unit of the modulus, refused before any is built
        with pytest.raises(BudgetExceeded, match="term limit"):
            ln_vector(TERM_LIMIT + 1)


class TestLift:
    def test_doubling_ln2(self):
        lifted = lift(ln_vector(2), 2)
        assert lifted.modulus == 4
        assert lifted.coeffs == (Fraction(1), Fraction(-1), Fraction(1), Fraction(-1))

    def test_identity(self):
        v = ln_vector(3)
        assert lift(v, 1) is v

    def test_triple_modulus(self):
        lifted = lift(ln_vector(3), 2)
        assert lifted.modulus == 6
        assert [int(c) for c in lifted.coeffs] == [1, 1, -2, 1, 1, -2]

    @settings(max_examples=60, deadline=None)
    @given(balanced_vectors(max_modulus=6), st.integers(1, 4), st.integers(0, 12))
    def test_partial_sums_regroup_exactly(self, v, m, K):
        # blocks of the lifted series regroup into blocks of the original
        assert exact_block_oracle(lift(v, m), K) == exact_block_oracle(v, m * K)

    def test_modulus_limit(self):
        with pytest.raises(BudgetExceeded, match="term limit"):
            lift(ln_vector(2), TERM_LIMIT // 2 + 1)

    def test_rejects_nonpositive_repeats(self):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            lift(ln_vector(2), 0)


class TestLinearCombine:
    def test_zero_series_construction(self):
        # 2*(1,-1,1,-1) - (1,1,1,-3) collapses to the zero-valued (1,-3,1,1)
        a = make_vector(4, [1, -1, 1, -1])
        b = make_vector(4, [1, 1, 1, -3])
        out = linear_combine([(2, a), (-1, b)])
        assert [int(c) for c in out.coeffs] == [1, -3, 1, 1]

    def test_self_cancellation(self):
        v = ln_vector(5)
        assert linear_combine([(1, v), (-1, v)]).is_zero()

    def test_rational_scaling(self):
        v = make_vector(2, [2, -2])
        out = linear_combine([(Fraction(1, 2), v)])
        assert out.coeffs == (Fraction(1), Fraction(-1))

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            linear_combine([(1, ln_vector(2)), (1, ln_vector(3))])

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            linear_combine([])

    @settings(max_examples=50, deadline=None)
    @given(
        balanced_vectors(max_modulus=8),
        balanced_vectors(max_modulus=8),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )
    def test_balance_closure(self, u, v, alpha, beta):
        if u.modulus != v.modulus:
            return
        out = linear_combine([(alpha, u), (beta, v)])
        assert sum(out.coeffs) == 0


class TestFactorRadical:
    """The distinct primes of n, the keys of _factorize(n), and the bounds
    ln_rational_vector puts on its arguments before it factorizes them."""

    def test_composite(self):
        assert sorted(_factorize(12)) == [2, 3]

    def test_one(self):
        assert _factorize(1) == {}

    def test_prime(self):
        assert _factorize(97) == {97: 1}

    def test_prime_power(self):
        assert _factorize(1024) == {2: 10}

    def test_bounds(self):
        with pytest.raises(ValueError):
            ln_rational_vector(0, 1)
        with pytest.raises(ValueError, match="63 bits"):
            ln_rational_vector(2**63, 1)
        with pytest.raises(ValueError, match="63 bits"):
            ln_rational_vector(1, 2**63)

    def test_a_prime_past_the_limit_squared_raises_at_once(self):
        # trial division to sqrt(2^61 - 1) would take about 5e8 steps; it
        # stops at the limit, and the cofactor left takes the modulus past it
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="term limit"):
            ln_rational_vector(2**61 - 1, 1)
        assert time.perf_counter() - start < 1.0

    def test_two_primes_below_the_limit(self):
        # the cofactor left, 999983, is below the limit and so certified prime
        assert _factorize(999983 * 999979) == {999979: 1, 999983: 1}

    @pytest.mark.parametrize("n", [2, 30, 360, 104729, 2**31 - 1])
    def test_factorization_reconstructs(self, n):
        total = 1
        for p, e in _factorize(n).items():
            total *= p**e
        assert total == n


class TestLnRationalVector:
    def test_four_over_one(self):
        v = ln_rational_vector(4, 1)
        assert v.modulus == 2
        assert [int(c) for c in v.coeffs] == [2, -2]

    def test_four_thirds(self):
        v = ln_rational_vector(4, 3)
        assert v.modulus == 6
        assert [int(c) for c in v.coeffs] == [1, -3, 4, -3, 1, 0]

    def test_equal_arguments(self):
        v = ln_rational_vector(5, 5)
        assert v.modulus == 1 and v.is_zero()

    def test_ratio_not_in_lowest_terms(self):
        assert ln_rational_vector(12, 3) == ln_rational_vector(4, 1)
        assert ln_rational_vector(12, 3).modulus == 2

    def test_prime_matches_ln_vector(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert ln_rational_vector(p, 1) == ln_vector(p)

    def test_squarefree_composite_matches_ln_vector_in_value(self):
        # for composite squarefree T the prime-by-prime construction lands
        # on a different coefficient vector with the same series value;
        # the difference is a zero series
        from logser import linear_combine as combine
        from logser import verify_zero

        for T in (6, 10, 15):
            built = ln_rational_vector(T, 1)
            direct = ln_vector(T)
            assert built.modulus == direct.modulus == T
            assert built != direct
            ok, _ = verify_zero(combine([(1, built), (-1, direct)]), 1e-6)
            assert ok

    def test_antisymmetry_exact(self):
        rng = random.Random(7)
        pairs = [(rng.randint(1, 60), rng.randint(1, 60)) for _ in range(40)]
        pairs += [(360, 7), (1, 64), (97, 96)]
        for m, l in pairs:
            forward = ln_rational_vector(m, l)
            backward = ln_rational_vector(l, m)
            assert forward.modulus == backward.modulus
            assert tuple(-c for c in forward.coeffs) == backward.coeffs

    def test_modulus_is_radical(self):
        # the product of the primes whose exponents in m and l differ
        rng = random.Random(11)
        for _ in range(30):
            m = rng.randint(1, 60)
            l = rng.randint(1, 60)
            if m == l:
                continue
            top, bottom = _factorize(m), _factorize(l)
            expected = 1
            for p in sorted(set(top) | set(bottom)):
                if top.get(p, 0) != bottom.get(p, 0):
                    expected *= p
            assert ln_rational_vector(m, l).modulus == expected

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=5).map(math.prod),
        st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=5).map(math.prod),
    )
    def test_matches_lifted_prime_logs(self, m, l):
        # the construction the docstring states, lift by lift in Fractions
        top, bottom = _factorize(m), _factorize(l)
        primes = sorted(p for p in set(top) | set(bottom) if top.get(p, 0) != bottom.get(p, 0))
        modulus = math.prod(primes)
        terms = [
            (top.get(p, 0) - bottom.get(p, 0), lift(ln_vector(p), modulus // p))
            for p in primes
        ]
        expected = linear_combine(terms) if terms else make_vector(1, [0])
        assert ln_rational_vector(m, l) == expected

    def test_modulus_limit(self):
        # one slot per unit of the modulus: 1000003 is a prime past TERM_LIMIT
        with pytest.raises(BudgetExceeded, match="term limit"):
            ln_rational_vector(1000003, 1)
        v = ln_rational_vector(1000003, 1000003)
        assert v.modulus == 1 and v.is_zero()

    @pytest.mark.parametrize(
        "m,l",
        [
            (2**61 - 1, 1),  # a 61-bit prime
            (1, (10**6 + 3) * (10**6 + 33)),  # two primes past the limit
            (6 * (10**6 + 3) ** 2, 5),  # a square cofactor past the limit
        ],
    )
    def test_a_prime_past_the_limit_stops_trial_division(self, m, l):
        # trial division stops at TERM_LIMIT instead of running to sqrt(n)
        with pytest.raises(BudgetExceeded, match="term limit"):
            ln_rational_vector(m, l)

    def test_a_shared_large_prime_cancels(self):
        p = 2**61 - 1
        assert ln_rational_vector(4 * p, 2 * p) == ln_rational_vector(2, 1)
        assert ln_rational_vector(p, p) == make_vector(1, [0])

    def test_trial_division_stops_at_its_limit(self, monkeypatch):
        # the cofactor past the limit is returned whole; one within it is prime
        assert _factorize(12 * 101 * 103) == {2: 2, 3: 1, 101: 1, 103: 1}
        monkeypatch.setattr(vectors, "TERM_LIMIT", 100)
        assert _factorize(12 * 101 * 103) == {2: 2, 3: 1, 101 * 103: 1}
        assert _factorize(12 * 97) == {2: 2, 3: 1, 97: 1}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ln_rational_vector(0, 1)
        with pytest.raises(ValueError):
            ln_rational_vector(1, -2)


# (site, its count of terms or slots): each succeeds at a limit equal to its
# count and raises one below it
_COUNTED_SITES = {
    "ln_vector": (lambda: ln_vector(60), 60),
    "lift": (lambda: lift(ln_vector(6), 10), 60),
    # 60 / 1 has the primes 2, 3 and 5
    "ln_rational_vector": (lambda: ln_rational_vector(60, 1), 30),
    # sigma(60) - 1 = 167 members of 60 slots
    "divisor_family": (lambda: divisor_family(60), 167 * 60),
    "harmonic": (lambda: harmonic(60), 60),
    "partial_sum_exact": (lambda: partial_sum_exact(ln_vector(10), 6), 60),
    "rearranged_terms": (lambda: rearranged_terms(3, 60), 60),
    "integrate": (lambda: integrate(60, 1, 1e-9), 60),
    # 60 Horner slots per node on each of 4 panels
    "fixed_panel_integral": (lambda: fixed_panel_integral(60, 1, 4), 60 * 4),
    # one integrand over modulus 8, bounded by 8 * 8
    "decomposition_check": (lambda: decomposition_check(8, 1e-9), 64),
    "integrand": (lambda: integrand(60, 1, 0.5), 60),
}


@pytest.mark.parametrize("site", _COUNTED_SITES)
def test_every_count_passes_the_one_term_limit(site, monkeypatch):
    # every site reads vectors.TERM_LIMIT at call time, through _check_term_limit
    build, count = _COUNTED_SITES[site]
    monkeypatch.setattr(vectors, "TERM_LIMIT", count)
    build()
    monkeypatch.setattr(vectors, "TERM_LIMIT", count - 1)
    message = f"{count} .* exceed the term limit of {count - 1}"
    with pytest.raises(BudgetExceeded, match=message):
        build()


def test_random_balanced_helper_respects_bounds():
    rng = random.Random(3)
    for _ in range(50):
        v = random_balanced(rng)
        assert all(abs(c) <= 9 for c in v.coeffs)
        assert sum(v.coeffs) == 0
