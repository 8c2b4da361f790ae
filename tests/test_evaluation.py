"""Evaluator: exact partial sums, bounds, both evaluation routes."""

import math
import pickle
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp

from logser import evaluation
from logser import (
    TERM_LIMIT,
    BudgetExceeded,
    Unachievable,
    block_term,
    divisor_relations,
    evaluate,
    gamma_partial,
    harmonic,
    lift,
    linear_combine,
    ln_rational_vector,
    ln_vector,
    make_vector,
    partial_sum_exact,
    partial_sum_float,
    rearranged_terms,
    relation_witnesses,
    tail_bound,
)

from conftest import (
    exact_block_oracle,
    float_block_oracle,
    gauss_digamma_limit,
    random_balanced,
)

LN2 = 0.6931471805599453094
# pi / (3 sqrt 3), the series value of (1, -1, 0) over modulus 3
S3_DIFF = 0.6045997880780726169
COMPOSITES = [T for T in range(4, 65) if any(T % d == 0 for d in range(2, T))]


class TestBlockTerm:
    def test_first_block_ln2(self):
        assert block_term(ln_vector(2), 0) == Fraction(1, 2)

    def test_second_block_ln2(self):
        # 1/3 - 1/4
        assert block_term(ln_vector(2), 1) == Fraction(1, 12)

    def test_zero_series_first_block(self):
        # 1 - 3/2 + 1/3 + 1/4
        v = make_vector(4, [1, -3, 1, 1])
        assert block_term(v, 0) == Fraction(1, 12)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            block_term(ln_vector(2), -1)

    def test_block_past_one_span(self):
        # a block of many leaves merges the leaves' Fractions in balanced halves
        rng = random.Random(17)
        for T in (2 * 1024 + 37, 2 * evaluation._LEAF + 37):
            v = random_balanced(rng, T)
            for k in (0, 1, 3):
                running = Fraction(0)
                for j, w in enumerate(v.weights, start=1):
                    running += Fraction(w, k * T + j)
                assert block_term(v, k) == running / v.scale


class TestPartialSumExact:
    def test_two_blocks_ln2(self):
        # 1 - 1/2 + 1/3 - 1/4
        assert partial_sum_exact(ln_vector(2), 2) == Fraction(7, 12)

    def test_empty_sum(self):
        assert partial_sum_exact(ln_vector(5), 0) == 0

    def test_lifted_block_equals_two_base_blocks(self):
        lifted = lift(ln_vector(2), 2)
        assert partial_sum_exact(lifted, 1) == Fraction(7, 12)

    def test_matches_independent_oracle(self):
        rng = random.Random(5)
        for _ in range(10):
            v = random_balanced(rng)
            K = rng.randint(0, 40)
            assert partial_sum_exact(v, K) == exact_block_oracle(v, K)
        # mixed denominators and zero coefficients; K * T spans several leaves
        for _ in range(10):
            T = rng.randint(2, 7)
            head = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.7
                else 0
                for _ in range(T - 1)
            ]
            v = make_vector(T, head + [-sum(head)])
            K = rng.randint(20, 60)
            assert partial_sum_exact(v, K) == exact_block_oracle(v, K)

    @pytest.mark.parametrize("T", [3, 4, 5])
    def test_random_prefix_past_one_span(self, T):
        # N T spans three spans of 1024 terms, and three leaves
        v = random_balanced(random.Random(T), T)
        for span in (1024, evaluation._LEAF):
            K = 3 * span // T + 5
            assert partial_sum_exact(v, K) == exact_block_oracle(v, K)

    @pytest.mark.parametrize("T", [1, 2, 64])
    @pytest.mark.parametrize("c", [Fraction(1), Fraction(-3), Fraction(-5, 7)])
    def test_ln_multiples_take_the_range(self, T, c):
        # c ln T sums to c (H_{NT} - H_N) through _harmonic_range, over short
        # ranges and long ones
        v = make_vector(T, [c] * (T - 1) + [-(T - 1) * c])
        for N in (0, 1, 2, 40, 300):
            assert partial_sum_exact(v, N) == (
                evaluation._weighted_harmonic(v.weights, N * T) / v.scale
            )

    @pytest.mark.parametrize("T", [2, 3, 64])
    def test_near_miss_vectors_keep_the_periodic_weights(self, T):
        # one slot off c, the last one excepted, is not a multiple of ln T
        c = Fraction(-5, 7)
        for slot in range(T - 1):
            head = [c] * (T - 1)
            head[slot] += 1
            v = make_vector(T, head + [-sum(head)])
            for N in (0, 1, 2):
                assert partial_sum_exact(v, N) == (
                    evaluation._weighted_harmonic(v.weights, N * T) / v.scale
                )

    def test_ln_multiples_sum_no_periodic_weights(self, monkeypatch):
        # a multiple of ln T is one range over odd denominators, short or long:
        # nothing sums over the integers, with the vector's weights or unit ones
        def no_integer_sum(*args):
            raise AssertionError("a multiple of ln T summed over the integers")

        monkeypatch.setattr(evaluation, "_weighted_harmonic", no_integer_sum)
        for T in (1, 2, 3, 64):
            for c in (1, -2):
                v = make_vector(T, [c] * (T - 1) + [-(T - 1) * c])
                for N in (0, 1, 2, 50):
                    partial_sum_exact(v, N)


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(4) == Fraction(25, 12)
        # small n, and ranges of up to a few leaves
        for n in (0, 31, 32, 33, 64, 65, 1000):
            plain = Fraction(0)
            for i in range(1, n + 1):
                plain += Fraction(1, i)
            assert harmonic(n) == plain

    def test_limit_enforced(self):
        with pytest.raises(BudgetExceeded):
            harmonic(10**6 + 1)

    @pytest.mark.parametrize(
        "n", sorted({0, 1, 2, 3} | {2**k + d for k in range(1, 14) for d in (-1, 0, 1)})
    )
    def test_dyadic_block_edges(self, n):
        # the odd o in (n >> (l+1), n >> l] change block as n crosses 2^k
        plain = sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))
        assert harmonic(n) == plain

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5000))
    def test_matches_the_all_integers_route(self, n):
        # _weighted_harmonic splits [1, n] whole and shares no block code
        assert harmonic(n) == evaluation._weighted_harmonic((1,), n)

    def test_range_matches_a_running_sum(self):
        prefix = [Fraction(0)]
        for m in range(1, 301):
            prefix.append(prefix[-1] + Fraction(1, m))
        for b in range(301):
            for a in range(b + 1):
                assert evaluation._harmonic_range(a, b) == prefix[b] - prefix[a]

    def test_range_at_dyadic_edges_and_spans(self):
        # cuts a >> i and b >> i that meet, or straddle a power of 2; and
        # blocks of many leaves of odd terms, for spans of 1024 terms and of a leaf
        edges = sorted({2**k + d for k in range(1, 14) for d in (-1, 0, 1)}
                       | {4 * span + d for span in (1024, evaluation._LEAF) for d in (-1, 1)}
                       | {6 * span + 3 for span in (1024, evaluation._LEAF)})
        prefix = [Fraction(0)]
        for m in range(1, edges[-1] + 1):
            prefix.append(prefix[-1] + Fraction(1, m))
        for b in edges:
            for a in sorted({0} | {e for e in edges if e <= b}):
                assert evaluation._harmonic_range(a, b) == prefix[b] - prefix[a]

    @pytest.mark.parametrize("a", [10**4, 10**4 + 1, 3 * 10**5 + 7])
    @pytest.mark.parametrize("d", [-1, 0, 1])
    def test_range_blocks_around_one_leaf(self, monkeypatch, a, d):
        # (a, a + 2K] for a >= 2K is one block of K odd terms, the cuts a >> i and
        # b >> i, i >= 1, all lying below a: at most _LEAF odd terms join the
        # running pair as one leaf, and a longer block goes through _balanced
        K = evaluation._LEAF + d
        b = a + 2 * K
        spans = []
        real = evaluation._balanced

        def recorded(lo, hi, leaf):
            spans.append(hi - lo)
            return real(lo, hi, leaf)

        monkeypatch.setattr(evaluation, "_balanced", recorded)
        plain = sum((Fraction(1, m) for m in range(a + 1, b + 1)), Fraction(0))
        assert evaluation._harmonic_range(a, b) == plain
        # the first call is the block's own; the rest are its halves
        assert spans[:1] == ([K] if K > evaluation._LEAF else [])

    def test_balanced_leaves_tile_the_range(self):
        # a range of at most _LEAF terms is one leaf; a longer one is halved into
        # leaves of at most _LEAF terms that tile it in order
        leaf_size = evaluation._LEAF
        for n in (1, 2, leaf_size - 1, leaf_size, leaf_size + 1, 3 * leaf_size + 5):
            calls = []

            def leaf(lo, hi):
                calls.append((lo, hi))
                return evaluation._odd_leaf(lo, hi)

            total = evaluation._balanced(7, 7 + n, leaf)
            assert total == sum((Fraction(1, 2 * k + 1) for k in range(7, 7 + n)), Fraction(0))
            assert [lo for lo, _ in calls] == [7] + [hi for _, hi in calls[:-1]]
            assert calls[-1][1] == 7 + n
            assert all(0 < hi - lo <= leaf_size for lo, hi in calls)
            if n <= leaf_size:
                assert calls == [(7, 7 + n)]

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("d", [-1, 1])
    def test_weighted_harmonic_around_leaf_multiples(self, k, d):
        # k leaves of integers, one term short of that or one past it
        rng = random.Random(100 * k + d)
        n = k * evaluation._LEAF + d
        for weights in ((1,), tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 7)))):
            for start in (0, 37):
                plain = sum(
                    (Fraction(weights[(m - 1) % len(weights)], m)
                     for m in range(start + 1, start + n + 1)),
                    Fraction(0),
                )
                assert evaluation._weighted_harmonic(weights, start + n, start) == plain

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 6000), st.integers(0, 6000))
    def test_range_matches_the_all_integers_route(self, a, b):
        # _weighted_harmonic splits (a, b] over all integers and shares no block code
        a, b = min(a, b), max(a, b)
        assert evaluation._harmonic_range(a, b) == evaluation._weighted_harmonic((1,), b, a)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 60))
    def test_finite_log_identity(self, T, n):
        # the T-block partial sum telescopes against harmonic numbers
        assert partial_sum_exact(ln_vector(T), n) == harmonic(n * T) - harmonic(n)


class TestTailBound:
    def test_ln2_bound_value(self):
        assert tail_bound(ln_vector(2), 101) == pytest.approx(0.0025, abs=1e-12)

    def test_ln2_bound_is_sound_at_101(self):
        gap = abs(LN2 - float(partial_sum_exact(ln_vector(2), 101)))
        assert gap <= tail_bound(ln_vector(2), 101)

    def test_zero_vector(self):
        for v in (make_vector(3, [0, 0, 0]), ln_vector(1)):
            assert tail_bound(v, 2) == 0.0

    def test_ln3_at_two_blocks(self):
        assert tail_bound(ln_vector(3), 2) == pytest.approx(1 / 3, rel=1e-12)

    def test_requires_two_blocks(self):
        with pytest.raises(ValueError):
            tail_bound(ln_vector(2), 1)

    def test_past_the_double_range_is_inf(self):
        # M / (T^2 (K - 1)) = 10^400 / 4 is no double; inf still bounds it
        assert tail_bound(make_vector(2, [10**400, -(10**400)]), 2) == math.inf

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([2, 10, 100]))
    def test_sound_for_random_vectors(self, seed, K):
        v = random_balanced(random.Random(seed))
        reference = float_block_oracle(v, K * 200)
        assert abs(reference - float(partial_sum_exact(v, K))) <= tail_bound(v, K)


class TestEvaluateRaw:
    def test_ln2_within_tolerance(self):
        result = evaluate(ln_vector(2), 1e-6, "raw")
        assert result.method == "raw"
        assert not result.bound_is_heuristic
        assert abs(float(result.value) - LN2) <= 1e-6
        assert abs(float(result.value) - LN2) <= result.error_bound

    def test_zero_vector_shortcut(self):
        result = evaluate(make_vector(3, [0, 0, 0]), 1e-9, "raw")
        assert result.value == 0
        assert result.error_bound == 0.0
        assert result.blocks_used == 2

    def test_truncation_past_the_block_budget(self):
        # ln 2 at 1e-9 needs ~2.5e8 blocks; the K-block sum is two psi tails
        result = evaluate(ln_vector(2), 1e-9, "raw")
        assert result.blocks_used > TERM_LIMIT
        assert abs(float(result.value) - LN2) <= result.error_bound <= 1e-9

    def test_bound_is_rigorous_vs_oracle(self):
        rng = random.Random(17)
        for _ in range(15):
            v = random_balanced(rng, max_modulus=8)
            result = evaluate(v, 1e-5, "raw")
            with mp.workdps(60):
                gap = abs(result.value - gauss_digamma_limit(v))
            assert gap <= result.error_bound, v.coeffs

    def test_bound_stays_within_abs_err_when_the_tail_fills_it(self):
        # M / (T^2 abs_err) is an integer here, so a truncation picked for
        # the whole of abs_err leaves no room for the rounding allowance
        for T in (2, 3, 4, 6, 8):
            for k in range(4, 22):
                abs_err = 2.0**-k
                result = evaluate(ln_vector(T), abs_err, "raw")
                assert result.error_bound <= abs_err, (T, k)
                assert abs(float(result.value) - math.log(T)) <= abs_err, (T, k)

    def test_matches_float_partial_sum(self):
        v = ln_vector(4)
        via_psi = float(partial_sum_float(v, 300))
        via_oracle = float_block_oracle(v, 300)
        assert via_psi == pytest.approx(via_oracle, abs=5e-13)

    @pytest.mark.parametrize("prec", [95, 1025, -20])
    def test_partial_sum_float_rejects_prec_outside_the_analysed_range(self, prec):
        # [96, 1024] is the range the kernel's error analysis covers
        with pytest.raises(ValueError, match="prec must be in"):
            partial_sum_float(ln_vector(3), 10, prec=prec)

    def test_partial_sum_float_at_1024_bits(self):
        # the largest Stirling table; K = 1 and 2 also take the upward
        # recurrence on the tail side, K = 500 only on the j/T side
        v = make_vector(7, [3, -1, Fraction(5, 2), 0, -4, 1, Fraction(-3, 2)])
        for K in (1, 2, 500):
            value = partial_sum_float(v, K, prec=1024)
            with mp.workprec(2200):
                identity = sum(
                    mp.mpf(a.numerator) / a.denominator
                    * (mp.digamma(K + mp.mpf(j) / 7) - mp.digamma(mp.mpf(j) / 7))
                    for j, a in enumerate(v.coeffs, start=1)
                    if a
                ) / 7
                assert abs(value - identity) <= mp.mpf(2) ** -1000, K


class TestEvaluateAccelerated:
    def test_modulus3_difference_series(self):
        result = evaluate(make_vector(3, (1, -1, 0)), 1e-9, "accelerated")
        assert not result.bound_is_heuristic
        assert abs(float(result.value) - S3_DIFF) <= 1e-9

    def test_ln_values_high_accuracy(self):
        with mp.workprec(120):
            for T in range(2, 8):
                result = evaluate(ln_vector(T), 1e-12)
                assert abs(result.value - mp.ln(T)) <= 1e-12

    def test_agrees_with_raw(self):
        for T in range(2, 11):
            accel = evaluate(ln_vector(T), 1e-9, "accelerated")
            raw = evaluate(ln_vector(T), 1e-9, "raw")
            assert abs(float(accel.value) - float(raw.value)) <= 2e-9

    def test_small_prefix_still_honest(self):
        result = evaluate(ln_vector(2), 1e-8, prefix_blocks=10)
        assert abs(float(result.value) - LN2) <= result.error_bound

    @pytest.mark.parametrize(
        "abs_err, method",
        [
            pytest.param(e, m, id=f"{e:g}" if m == "accelerated" else f"{e:g}-raw")
            for m in ("accelerated", "raw")
            for e in (1e-10, 1e-20, 1e-30, 1e-45, 1e-60)
        ],
    )
    def test_bound_is_rigorous_vs_digamma_limit(self, abs_err, method, monkeypatch):
        # the default route is the digamma tail from block 0 alone, and raw's
        # truncation, up to 1e62 blocks here, is two digamma tails
        monkeypatch.setattr(evaluation, "partial_sum_exact", _no_exact_prefix)
        rng = random.Random(round(-math.log10(abs_err)))
        # at least twice the working precision the evaluator picks for these vectors
        bits = 2 * (math.ceil(-math.log2(abs_err)) + 64)
        for _ in range(8):
            v = random_balanced(rng, max_modulus=12)
            result = evaluate(v, abs_err, method)
            if method == "accelerated":
                assert result.blocks_used == 0
            assert result.error_bound <= abs_err
            with mp.workprec(bits):
                gap = abs(result.value - _digamma_limit(v))
            assert gap <= result.error_bound, f"{v.coeffs} at {abs_err}"

    def test_ln2_at_1e60(self):
        result = evaluate(ln_vector(2), 1e-60)
        with mp.workprec(400):
            assert abs(result.value - mp.ln(2)) <= result.error_bound <= 1e-60

    def test_ln7_at_the_precision_ceiling(self):
        # 983 bits of working precision, near the 1024-bit ceiling
        result = evaluate(ln_vector(7), 1e-280)
        with mp.workprec(2200):
            assert abs(result.value - mp.ln(7)) <= result.error_bound <= 1e-280

    def test_ln64_at_1e30_uses_a_short_prefix(self):
        result = evaluate(ln_vector(64), 1e-30)
        assert result.blocks_used < 1000
        with mp.workprec(250):
            assert abs(result.value - mp.ln(64)) <= result.error_bound <= 1e-30

    def test_explicit_prefixes_agree_within_bounds(self):
        rng = random.Random(31)
        for v in (ln_vector(5), random_balanced(rng, modulus=7)):
            prefixes = [0, 1, 2, 10, 1000]
            results = [evaluate(v, 1e-25, prefix_blocks=k) for k in prefixes]
            assert [r.blocks_used for r in results] == prefixes
            with mp.workprec(200):
                for a in results:
                    for b in results:
                        assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    @pytest.mark.parametrize("T", [13, 1000, 10007])
    def test_dominant_weight_at_the_zero_of_psi_within_bounds(self, T):
        # one block puts slot s at x = 1 + s/T, next to psi's zero 1.4616...,
        # so the dominant weight's psi is near 0 there; the allowance is
        # charged against the weights, not against each |psi|
        s = round(0.4616 * T)
        for sign in (1, -1):
            weights = [0] * T
            weights[s - 1], weights[-1] = sign * 10**9, -sign * 10**9
            v = make_vector(T, weights)
            with mp.workprec(2200):
                reference = _digamma_limit(v)
            for abs_err in (1e-6, 1e-30, 1e-100, 1e-250):
                results = [evaluate(v, abs_err, prefix_blocks=k) for k in (0, 1, 2)]
                results.append(evaluate(v, abs_err, "raw"))
                with mp.workprec(2200):
                    for result in results:
                        gap = abs(result.value - reference)
                        assert gap <= result.error_bound <= abs_err, (sign, abs_err, result)

    @pytest.mark.parametrize("T", [7, 64, 67, 1000])
    def test_every_route_within_its_bound_of_a_200_bit_ln(self, T):
        # ln_vector(T) takes its common weight 1 in closed form on every route
        # but the row's: raw's tail, and prefixes below, at and past the
        # threshold, where the formula leaves ln T, ln(K0/threshold) or nothing
        v = ln_vector(T)
        threshold = evaluation._shift_threshold(evaluation._working_prec(1e-30, v))
        results = [evaluate(v, abs_err, "raw") for abs_err in (1e-6, 1e-30)]
        for k in (0, 1, threshold - 1, threshold, threshold + 1):
            results.append(evaluate(v, 1e-30, prefix_blocks=k))
        with mp.workprec(200):
            reference = mp.log(T)
            for result in results:
                assert abs(result.value - reference) <= result.error_bound, result

    def test_ln_of_a_million_in_under_two_seconds(self):
        # one psi slot and one ln through Gauss's multiplication formula,
        # where each of the 10^6 slots used to take its own psi
        start = time.perf_counter()
        result = evaluate(ln_vector(10**6), 1e-9)
        assert time.perf_counter() - start < 2
        with mp.workprec(200):
            assert abs(result.value - mp.log(10**6)) <= result.error_bound <= 1e-9

    def test_budget_caps_an_explicit_prefix(self):
        # 200,001 blocks over modulus 5 are 1,000,005 block-terms
        with pytest.raises(BudgetExceeded):
            evaluate(ln_vector(5), 1e-20, prefix_blocks=200_001)

    def test_lnq_1001_1000_needs_no_exact_prefix(self):
        # modulus 10010: even a 32-block exact prefix is 320,320 Fraction terms
        v = ln_rational_vector(1001, 1000)
        result = evaluate(v, 1e-12)
        assert result.blocks_used == 0
        with mp.workprec(300):
            gap = abs(result.value - mp.log(mp.mpf(1001) / 1000))
        assert gap <= result.error_bound <= 1e-12

    def test_zero_vector_sums_no_blocks(self):
        result = evaluate(make_vector(3, [0, 0, 0]), 1e-9)
        assert result.value == 0
        assert result.error_bound == 0.0
        assert result.blocks_used == 0

    def test_linearity_within_bounds(self):
        rng = random.Random(23)
        for _ in range(10):
            T = rng.randint(2, 9)
            u = random_balanced(rng, modulus=T)
            v = random_balanced(rng, modulus=T)
            alpha = Fraction(rng.randint(-4, 4))
            beta = Fraction(rng.randint(-4, 4))
            combo = linear_combine([(alpha, u), (beta, v)])
            ru = evaluate(u, 1e-10)
            rv = evaluate(v, 1e-10)
            rc = evaluate(combo, 1e-10)
            lhs = float(rc.value)
            rhs = float(alpha) * float(ru.value) + float(beta) * float(rv.value)
            budget = (
                rc.error_bound
                + abs(float(alpha)) * ru.error_bound
                + abs(float(beta)) * rv.error_bound
            )
            assert abs(lhs - rhs) <= budget + 1e-14

    def test_unachievable_accuracy(self):
        with pytest.raises(Unachievable):
            evaluate(ln_vector(2), 1e-300)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            evaluate(ln_vector(2), 0.0)
        with pytest.raises(ValueError):
            evaluate(ln_vector(2), 1e-6, "fancy")
        with pytest.raises(ValueError):
            evaluate(ln_vector(2), 1e-6, prefix_blocks=-1)

    def test_raw_rejects_prefix_blocks(self):
        # raw picks its own truncation, so it cannot honour a prefix_blocks request
        with pytest.raises(ValueError, match="prefix_blocks"):
            evaluate(ln_vector(2), 1e-6, "raw", prefix_blocks=50)
        with pytest.raises(ValueError, match="prefix_blocks"):
            evaluate(make_vector(3, [0, 0, 0]), 1e-6, "raw", prefix_blocks=0)


def _no_exact_prefix(*args, **kwargs):
    raise AssertionError("the default accelerated route summed an exact prefix")


def _digamma_limit(v):
    """-(1/T) sum_j a_j psi(j/T) at the current mpmath precision."""
    T = v.modulus
    return -sum(
        mp.mpf(a.numerator) / a.denominator * mp.digamma(mp.mpf(j) / T)
        for j, a in enumerate(v.coeffs, start=1)
        if a
    ) / T


class TestRearrangedTerms:
    def test_modulus_two(self):
        assert rearranged_terms(2, 3) == [Fraction(1), Fraction(1, 2), Fraction(-1)]

    def test_modulus_one(self):
        assert rearranged_terms(1, 4) == [
            Fraction(1),
            Fraction(-1),
            Fraction(1, 2),
            Fraction(-1, 2),
        ]

    def test_modulus_three(self):
        assert rearranged_terms(3, 4) == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(-1),
        ]

    def test_limit_enforced(self):
        with pytest.raises(BudgetExceeded):
            rearranged_terms(2, 10**6 + 1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 40))
    def test_block_sums_match_block_terms(self, T, k):
        stream = rearranged_terms(T, (k + 1) * (T + 1))
        block = stream[k * (T + 1) : (k + 1) * (T + 1)]
        assert sum(block) == block_term(ln_vector(T), k)

    @pytest.mark.parametrize("T", [*range(1, 9), 64])
    def test_terms_are_the_public_fractions(self, T):
        # every term is the Fraction the public constructor builds: same type,
        # pair, equality, hash, text and pickle; and the stream sums to the
        # range the CLI's rearranged reading takes, H_{cT+r} - H_c
        for count in [*range(1, 3 * (T + 1) + 2), 999, 1000, 1001]:
            terms = rearranged_terms(T, count)
            assert len(terms) == count
            for i, t in enumerate(terms):
                k, j = divmod(i, T + 1)
                ref = Fraction(-1, k + 1) if j == T else Fraction(1, k * T + j + 1)
                assert type(t) is Fraction
                assert (t.numerator, t.denominator) == (ref.numerator, ref.denominator)
                assert t == ref and hash(t) == hash(ref)
                assert (str(t), repr(t)) == (str(ref), repr(ref))
                assert pickle.dumps(t) == pickle.dumps(ref)
                back = pickle.loads(pickle.dumps(t))
                assert type(back) is Fraction and back == ref
            c, r = divmod(count, T + 1)
            assert sum(terms, Fraction(0)) == evaluation._harmonic_range(c, c * T + r)

    def test_cost_does_not_grow_with_modulus(self):
        start = time.perf_counter()
        terms = rearranged_terms(10**9, 5)
        assert time.perf_counter() - start < 1.0
        assert terms == [Fraction(1, m) for m in range(1, 6)]


class TestGammaPartial:
    def test_first_partial(self):
        assert float(gamma_partial(1).value) == pytest.approx(1.0, abs=1e-15)

    def test_second_partial(self):
        assert float(gamma_partial(2).value) == pytest.approx(
            1.5 - math.log(2), abs=1e-15
        )

    def test_large_partial_near_limit(self):
        gamma_ref = 0.5772156649015328606
        a = float(gamma_partial(10000).value)
        assert abs(a - gamma_ref) <= 1e-4
        assert a == pytest.approx(gamma_ref + 1 / 20000, abs=1e-8)

    def test_bracket_on_consecutive_partials(self):
        # -1/(n(n+1)) < A_{n+1} - A_n < 0, with a margin of about 1/(2n^2)
        # against an error under 1e-29 in each partial
        sampled = random.Random(8).sample(range(400, TERM_LIMIT), 60)
        for n in [*range(1, 401), *sampled, TERM_LIMIT - 1]:
            step = _fraction(gamma_partial(n + 1).value) - _fraction(
                gamma_partial(n).value
            )
            assert Fraction(-1, n * (n + 1)) < step < 0, n

    def test_within_1e25_of_reference_without_a_harmonic_sum(self, monkeypatch):
        def no_harmonic(n):
            raise AssertionError("gamma_partial summed a harmonic number")

        monkeypatch.setattr(evaluation, "harmonic", no_harmonic)
        # psi(n+1) recurs up to its threshold 32 for n <= 30 and not past it
        sampled = random.Random(9).sample(range(65, 10**6), 40)
        with mp.workprec(300):
            # past the term limit too, as no harmonic sum is formed
            for n in [*range(1, 65), *sampled, 10**6, 10**7, 10**12, 10**30]:
                reference = mp.harmonic(n) - mp.log(n)
                # the bound that gamma_partial's docstring derives
                assert abs(gamma_partial(n).value - reference) <= 7.6e-30, n

    def test_gamma_memo_window_changes_no_partial(self):
        # mpmath's constant memo stores memo_val before memo_prec, so a reader
        # between the two stores of a higher-precision call pairs a 2000-bit
        # gamma with the old precision; gamma_partial takes gamma as -psi(1)
        ns = (1, 10, 10**6)
        expected = [gamma_partial(n).value._mpf_ for n in ns]
        memo = libmp.gammazeta.euler_fixed
        inner = memo.__closure__[0].cell_contents
        saved = inner.memo_prec, inner.memo_val
        try:
            inner.memo_prec, inner.memo_val = -1, None
            memo(300)
            # the value a 2000-bit call computes, at 1.05 * 2000 + 10 bits
            inner.memo_val = inner(2110)
            # a cold kernel: every cache of the module
            for cached in vars(evaluation).values():
                if hasattr(cached, "cache_clear"):
                    cached.cache_clear()
            assert [gamma_partial(n).value._mpf_ for n in ns] == expected
        finally:
            inner.memo_prec, inner.memo_val = saved

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_partial(0)
        # no harmonic sum is formed, so no term limit bounds n
        assert gamma_partial(TERM_LIMIT + 1).n == TERM_LIMIT + 1


def _psi_unit_bound(prec):
    """threshold + N + K + 11, the per-psi error that evaluate's docstring states."""
    threshold = evaluation._shift_threshold(prec)
    terms = len(evaluation._stirling(prec))
    # K counts the powers 2y^(2k+1), k >= 1, that can reach one unit,
    # as y <= 1/(2 threshold + 1)
    k = 0
    while (2 * threshold + 1) ** (2 * k + 3) < 2 ** (prec + 11):
        k += 1
    return threshold + terms + k + 11


class TestPsiKernel:
    @pytest.mark.parametrize("prec", [96, 200, 512, 1024])
    def test_units_of_error_against_digamma(self, prec):
        points = [(j, T) for T in range(1, 25) for j in range(1, T + 1)]
        # T = 1 as gamma_partial calls it, below and past the threshold
        points += [(n, 1) for n in (2, 31, 32, 33, 342, 10**6 + 1)]
        # r = T past the threshold: x = a + 1, the largest atanh argument 1/(2a+1)
        points += [(c * T, T) for T in (2, 7, 24) for c in (341, 1000)]
        # large c, as partial_sum_float reaches it
        points += [(10**5 * T + j, T) for T in (3, 24, 1000) for j in (1, T // 2, T - 1)]
        unit = mpmath.mpf(2) ** -(prec + 10)
        bound = _psi_unit_bound(prec)
        threshold = evaluation._shift_threshold(prec)
        with mp.workprec(2 * prec + 64):
            reference = {}
            for p, T in points:
                x = Fraction(p, T)
                if x not in reference:
                    w = 1 - x
                    if w in reference:
                        # reflection, psi(1 - w) = psi(w) + pi cot(pi w), halves
                        # the digamma calls on (0, 1)
                        w_mpf = mpmath.mpf(w.numerator) / w.denominator
                        reference[x] = reference[w] + mp.pi * mp.cot(mp.pi * w_mpf)
                    else:
                        reference[x] = mp.digamma(mpmath.mpf(p) / T)
                # _psi leaves out ln a, the anchor every slot of one sum shares
                anchor = mp.log(max(threshold, (p - 1) // T))
                error = abs(evaluation._psi(p, T, prec) * unit - reference[x] + anchor) / unit
                assert error <= bound, (p, T, float(error))

    @pytest.mark.parametrize("constant", ["ln2_fixed", "pi_fixed"])
    def test_constant_memo_window_changes_no_result(self, constant):
        # mpmath's constant memo stores memo_val before memo_prec, so a reader
        # between the two stores of a higher-precision call pairs a 2000-bit
        # constant with the old precision.  ln 2 would reach the kernel
        # through mpf_log, pi through mpmath's Bernoulli numbers
        vectors = [ln_vector(T) for T in (2, 7, 24)]

        def results():
            partials = [gamma_partial(n).value._mpf_ for n in (1, 10, 40, 10**6)]
            evals = [
                (r.value._mpf_, r.error_bound)
                for v in vectors
                for method in ("raw", "accelerated")
                for r in [evaluate(v, 1e-20, method)]
            ]
            return partials, evals

        def clear_caches():
            for cached in vars(evaluation).values():
                if hasattr(cached, "cache_clear"):
                    cached.cache_clear()

        expected = results()
        memo = getattr(libmp.libelefun, constant)
        inner = memo.__closure__[0].cell_contents
        saved = inner.memo_prec, inner.memo_val
        try:
            inner.memo_prec, inner.memo_val = -1, None
            memo(300)
            # the value a 2000-bit call computes, at 1.05 * 2000 + 10 bits
            inner.memo_val = inner(2110)
            clear_caches()
            assert results() == expected
        finally:
            inner.memo_prec, inner.memo_val = saved
            clear_caches()

    @pytest.mark.parametrize("prec", [96, 97, 200, 512, 1024])
    def test_stirling_coefficients_match_bernfrac(self, prec):
        # the tangent numbers give B_2n/(2n) exactly, so every floor agrees
        threshold = evaluation._shift_threshold(prec)
        want = []
        while True:
            n = 2 * len(want) + 2
            p, q = map(int, mpmath.bernfrac(n))
            if abs(p) << (prec + 8) <= n * q * threshold**n:
                break
            want.append((p << (prec + 10)) // (n * q))
        assert evaluation._stirling(prec) == tuple(want)

    @pytest.mark.parametrize("prec", [96, 1024])
    def test_lowest_terms_change_no_bit(self, prec):
        # psi of an unreduced fraction is the integer of its lowest terms,
        # so the rows over T and g T agree bit for bit on their shared slots
        for T in range(1, 25):
            for j in range(1, T + 1):
                want = evaluation._psi(j, T, prec)
                for g in (2, 3, 7):
                    assert evaluation._psi(g * j, g * T, prec) == want, (j, T, g)

    def test_memo_changes_no_result(self):
        rng = random.Random(14)
        vectors = [ln_vector(T) for T in (2, 6, 12, 24)]
        vectors += [ln_rational_vector(5, 3), random_balanced(rng, modulus=9)]

        def grid():
            return [
                (r.value._mpf_, r.error_bound, r.blocks_used)
                for v in vectors
                for method in ("raw", "accelerated")
                for eps in (1e-6, 1e-20, 1e-60)
                for r in [evaluate(v, eps, method)]
            ]

        grid()
        warm = grid()
        evaluation._psi_row.cache_clear()
        assert grid() == warm

    def test_tails_past_the_threshold_add_no_memo_entry(self):
        # raw's tail and partial_sum_float's take psi(K + j/T) slot by slot,
        # so they leave the row memo as the whole term psi(j/T) left it
        v = ln_rational_vector(5, 3)
        assert 0 in v.weights
        evaluation._psi_row.cache_clear()
        evaluate(v, 1e-60, "accelerated")
        partial_sum_float(v, 0)
        # one row at each of two precisions
        assert evaluation._psi_row.cache_info().currsize == 2
        evaluate(v, 1e-60, "raw")
        partial_sum_float(v, 10**7)
        assert evaluation._psi_row.cache_info().currsize == 2

    def test_one_off_tails_evict_no_recurrence(self):
        # raw tails at hundreds of block counts between two divisor_relations
        # sweeps must not push the sweep's rows out of the memo
        evaluation._psi_row.cache_clear()
        for T in COMPOSITES:
            divisor_relations(T)
        v = ln_vector(12)
        blocks = {evaluate(v, 1e-6 * (1 + k / 100), "raw").blocks_used for k in range(220)}
        assert len(blocks) > 200
        rows_before = evaluation._psi_row.cache_info()
        for T in COMPOSITES:
            divisor_relations(T)
        rows_after = evaluation._psi_row.cache_info()
        assert rows_after.misses == rows_before.misses
        assert rows_after.hits > rows_before.hits

    def test_row_memo_is_bounded(self):
        assert evaluation._psi_row.cache_info().maxsize == 128
        evaluation._psi_row.cache_clear()
        evaluate(ln_vector(64), 1e-12)
        assert evaluation._psi_row.cache_info().currsize == 1
        # moduli past the cap take psi slot by slot and add no row
        evaluate(ln_vector(65), 1e-12)
        evaluate(ln_rational_vector(1001, 1000), 1e-12)
        partial_sum_float(ln_vector(100), 0)
        assert evaluation._psi_row.cache_info().currsize == 1


def _slot_psi_tail(v, blocks, prec):
    """The tail summed slot by slot: the reference for _psi_tail."""
    T = v.modulus
    total = 0
    for j, w in enumerate(v.weights, start=1):
        if w:
            total -= w * evaluation._psi(blocks * T + j, T, prec)
    return total // (v.scale * T)


def _common_weight(v, blocks):
    """The weight _psi_tail splits off, by its documented rule.

    0 for the whole series over a modulus up to the row cap, 64; otherwise
    the most common weight, the first in slot order among ties, when it
    fills at least two more slots than 0 does, and else 0.
    """
    if not blocks and v.modulus <= 64:
        return 0
    c = max(v.weights, key=v.weights.count)
    return c if v.weights.count(c) >= v.weights.count(0) + 2 else 0


def _carried(v, c):
    """|c| T + sum_j |w_j - c|: the magnitude a tail that splits off c carries."""
    return abs(c) * v.modulus + sum(abs(w - c) for w in v.weights)


@st.composite
def _tail_vectors(draw):
    """Vectors with zero slots over moduli on both sides of the row cap, planted
    dominant weights (negative and rational too), ln(M/L) and witnesses."""
    # planted twice, as the row route takes no c over T <= 64 at K = 0
    kind = draw(st.sampled_from(("random", "planted", "planted", "ln_rational", "witness")))
    if kind == "ln_rational":
        return ln_rational_vector(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    if kind == "witness":
        return draw(st.sampled_from(relation_witnesses(draw(st.sampled_from(COMPOSITES)))))
    T = draw(st.integers(3 if kind == "planted" else 1, 72))
    coeff = st.one_of(
        st.just(0),
        st.integers(-9, 9),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
    )
    head = draw(st.lists(coeff, min_size=T - 1, max_size=T - 1))
    if kind == "planted":
        # c fills at least two slots more than 0 does, so _psi_tail takes it
        c = draw(coeff.filter(bool))
        share = draw(st.integers(2, T - 1))
        head = draw(st.permutations([c] * share + head[share:]))
    return make_vector(T, head + [-sum(head)])


_TAIL_BLOCKS = (0, 1, "threshold - 1", "threshold", 10**3, 10**12)


def _tail_blocks(K, prec):
    threshold = evaluation._shift_threshold(prec)
    return {"threshold - 1": threshold - 1, "threshold": threshold}.get(K, K)


@settings(max_examples=200, deadline=None)
@given(
    v=_tail_vectors(),
    K=st.sampled_from(_TAIL_BLOCKS),
    prec=st.sampled_from((96, 97, 200, 512, 1024)),
)
def test_psi_tail_matches_the_slot_loop(v, K, prec):
    blocks = _tail_blocks(K, prec)
    common = _common_weight(v, blocks)
    route, carried = evaluation._psi_tail(v, blocks, prec)
    assert carried == _carried(v, common)
    c = Fraction(common, v.scale)
    slots = _slot_psi_tail(v, blocks, prec)
    if not c:
        # the row's dot product and the plain slot loop: the same integer
        assert route == slots
    else:
        # the two differ by c (T (psi(KT + 1) + ln ratio) - sum_j psi(K + j/T)),
        # zero by Gauss's multiplication formula: T + 1 psi within the unit
        # bound, the ln within 2 units, and one floor each
        assert abs(route - slots) <= abs(c) * (2 * _psi_unit_bound(prec) + 2) + 1


@pytest.mark.parametrize("prec", [96, 1024])
@pytest.mark.parametrize("K", _TAIL_BLOCKS)
@pytest.mark.parametrize(
    "v",
    [
        ln_vector(24),
        ln_vector(67),
        make_vector(9, [Fraction(-7, 3)] * 6 + [5, 0, 9]),
        make_vector(66, [0] * 40 + [3, -3] * 13),
    ],
    ids=["ln24", "ln67", "negative-rational-c", "zeros-past-the-cap"],
)
def test_each_route_within_its_unit_count(v, K, prec):
    # every _psi within _psi_unit_bound units and the ln within 2: the tail
    # errs by under (|c| T + sum_j |a_j - c|) bound + 2 |c| T units over D T, plus
    # the floor; the row route and the slot loop are the case c = 0
    blocks = _tail_blocks(K, prec)
    T, D = v.modulus, v.scale
    c = _common_weight(v, blocks)
    value, carried = evaluation._psi_tail(v, blocks, prec)
    assert carried == _carried(v, c)
    allowed = Fraction(carried * _psi_unit_bound(prec) + 2 * abs(c) * T, D * T) + 1
    unit = mpmath.mpf(2) ** -(prec + 10)
    with mp.workprec(2 * prec + 64):
        reference = -sum(
            mp.mpf(a.numerator) / a.denominator * mp.digamma(blocks + mp.mpf(j) / T)
            for j, a in enumerate(v.coeffs, start=1)
            if a
        ) / T
        error = abs(value * unit - reference) / unit
        assert error <= mp.mpf(allowed.numerator) / allowed.denominator, float(error)


@pytest.mark.parametrize("prec", [96, 97, 200, 512, 1024])
def test_integer_ln_within_two_units(prec):
    threshold = evaluation._shift_threshold(prec)
    ns = [2, 3, 5, 31, 32, 33, 341, 342, 10**6, 2**40 - 1, 2**40, 10**12]
    ns += random.Random(prec).sample(range(2, 10**12), 30)
    unit = mpmath.mpf(2) ** -(prec + 10)
    with mp.workprec(2 * prec):
        for n in ns:
            for p, q in ((n, 1), (1, n), (n, threshold), (threshold, n)):
                exact = mp.log(mp.mpf(p) / q)
                error = abs(evaluation._ln(p, q, prec) * unit - exact) / unit
                assert error <= 2, (p, q, float(error))
    assert evaluation._ln(10**12, 10**12, prec) == 0


def _fraction_working_prec(abs_err, v):
    """The working precision read off the Fraction coefficients: the reference."""
    err_bits = 0 if math.isinf(abs_err) else max(0, -math.floor(math.log2(abs_err)))
    coeff_bits = max(
        a.numerator.bit_length() + a.denominator.bit_length() for a in v.coeffs
    )
    return max(96, err_bits + coeff_bits + 48)


@st.composite
def _prec_vectors(draw):
    """Random vectors with zero slots and 30-digit coefficients, ln(M/L), witnesses."""
    kind = draw(st.sampled_from(("random", "ln_rational", "witness")))
    if kind == "ln_rational":
        return ln_rational_vector(draw(st.integers(1, 60)), draw(st.integers(1, 60)))
    if kind == "witness":
        return draw(st.sampled_from(relation_witnesses(draw(st.sampled_from(COMPOSITES)))))
    big = 10**30
    coeff = st.one_of(
        st.just(0),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        st.builds(Fraction, st.integers(-big, big), st.integers(1, big)),
    )
    head = draw(st.lists(coeff, max_size=7))
    return make_vector(len(head) + 1, head + [-sum(head)])


@settings(max_examples=300, deadline=None)
@given(
    v=_prec_vectors(),
    abs_err=st.one_of(st.just(math.inf), st.floats(min_value=1e-300, max_value=1e3)),
)
def test_working_prec_matches_the_fraction_reference(v, abs_err):
    want = _fraction_working_prec(abs_err, v)
    if want > 1024:
        with pytest.raises(Unachievable):
            evaluation._working_prec(abs_err, v)
    else:
        assert evaluation._working_prec(abs_err, v) == want


def _fraction_raw_bookkeeping(v, abs_err):
    """raw's truncation K and tail bound in Fractions: the reference."""
    T = v.modulus
    mass = sum(abs(a) * (T - j) for j, a in enumerate(v.coeffs, start=1))
    tail_err = Fraction(abs_err) * (1 - Fraction(1, 1 << 20))
    blocks = max(2, math.ceil(mass / (T * T * tail_err)) + 1)
    x = mass / (T * T * (blocks - 1))
    f = float(x)
    return blocks, f if Fraction(f) >= x else math.nextafter(f, math.inf)


@settings(max_examples=300, deadline=None)
@given(
    v=_prec_vectors().filter(lambda v: not v.is_zero()),
    abs_err=st.floats(min_value=1e-15, max_value=10.0),
)
def test_raw_bookkeeping_matches_the_fraction_reference(v, abs_err):
    blocks, bound = _fraction_raw_bookkeeping(v, abs_err)
    assert tail_bound(v, blocks) == bound
    try:
        result = evaluate(v, abs_err, "raw")
    except Unachievable:
        return
    assert result.blocks_used == blocks


def test_eval_result_value_is_high_precision():
    # more working precision than a double carries
    result = evaluate(ln_vector(2), 1e-12)
    with mp.workprec(200):
        err = abs(result.value - mp.ln(2))
    assert err < 1e-20
    assert isinstance(result.value, mpmath.mpf)


def _fraction(x):
    """The exact value of an mpf, read from its raw tuple."""
    p, q = libmp.to_rational(x._mpf_)
    return Fraction(int(p), int(q))


class TestConcurrency:
    def test_threads_and_a_precision_flipper_leave_results_unchanged(self):
        moduli = range(2, 10)
        vectors = {T: ln_vector(T) for T in moduli}
        with mp.workprec(400):
            logs = {T: _fraction(mp.ln(T)) for T in moduli}

        def work():
            evals = [evaluate(vectors[T], e) for T in moduli for e in (1e-12, 1e-30)]
            sums = [partial_sum_float(vectors[T], 1000)._mpf_ for T in moduli]
            return evals, sums

        expected = work()
        # the threads below race to fill the row memo
        evaluation._psi_row.cache_clear()
        stop = threading.Event()

        def flip_precision():
            while not stop.is_set():
                mp.prec = 20
                mp.prec = 53

        saved_prec, saved_interval = mp.prec, sys.getswitchinterval()
        flipper = threading.Thread(target=flip_precision)
        sys.setswitchinterval(1e-5)
        try:
            flipper.start()
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [pool.submit(work) for _ in range(6)]
                outcomes = [f.result(timeout=120) for f in futures]
        finally:
            stop.set()
            flipper.join(timeout=10)
            sys.setswitchinterval(saved_interval)
            mp.prec = saved_prec
        assert not flipper.is_alive()
        for evals, sums in [expected] + outcomes:
            assert sums == expected[1]
            for result, want in zip(evals, expected[0]):
                assert result.value._mpf_ == want.value._mpf_
                assert result.error_bound == want.error_bound
            for result, T in zip(evals, (T for T in moduli for _ in range(2))):
                error = abs(_fraction(result.value) - logs[T])
                assert error <= Fraction(result.error_bound), (T, result.error_bound)

    def test_threads_and_a_gamma_memo_writer_leave_partials_unchanged(self):
        # a thread evaluating mpmath.euler at rising precision keeps rewriting
        # mpmath's constant memos, and ln 2 still comes from one of them
        ns = [*range(1, 65), 999, 10**4, 123457, 10**6]

        def work():
            return [gamma_partial(n).value._mpf_ for n in ns]

        expected = work()
        risen = threading.Event()

        def raise_memo_and_flip_precision():
            prec = 128
            while prec <= 4096:
                mp.prec = prec
                +mpmath.euler
                mp.prec = 20
                prec += prec // 8
            risen.set()

        def work_while_rising():
            outcomes = [work()]
            while not risen.is_set():
                outcomes.append(work())
            return outcomes

        saved_prec, saved_interval = mp.prec, sys.getswitchinterval()
        writer = threading.Thread(target=raise_memo_and_flip_precision)
        # the threads below race to build the row of modulus 1, which holds psi(1)
        evaluation._psi_row.cache_clear()
        sys.setswitchinterval(1e-5)
        try:
            writer.start()
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [pool.submit(work_while_rising) for _ in range(3)]
                outcomes = [o for f in futures for o in f.result(timeout=120)]
        finally:
            writer.join(timeout=60)
            sys.setswitchinterval(saved_interval)
            mp.prec = saved_prec
        assert not writer.is_alive()
        assert risen.is_set()
        for outcome in outcomes:
            assert outcome == expected
