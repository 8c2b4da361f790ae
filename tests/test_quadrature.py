"""Integral route: integrand smoothness, quadrature, reconstruction, pi."""

import math
import time
from fractions import Fraction
from itertools import accumulate

import pytest
from conftest import gauss_digamma_limit
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from logser import quadrature
from logser import (
    TERM_LIMIT,
    BudgetExceeded,
    NoConvergence,
    decomposition_check,
    evaluate,
    fixed_panel_integral,
    integral_series_check,
    integrand,
    integrate,
    ln_rational_vector,
    make_vector,
    pi_arctan,
    pi_estimate,
)

S3_DIFF = 0.6045997880780726169  # pi / (3 sqrt 3)


class TestIntegrand:
    @pytest.mark.parametrize("T,j", [(2, 1), (3, 2), (8, 5), (64, 63)])
    def test_value_at_one_is_reciprocal_modulus(self, T, j):
        assert integrand(T, j, 1.0) == pytest.approx(1.0 / T, rel=1e-15)

    def test_value_at_zero(self):
        assert integrand(2, 1, 0.0) == 1.0

    def test_halfway(self):
        assert integrand(2, 1, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_matches_raw_quotient_form(self):
        # (u^j - u^(j-1)) / (u^T - 1) away from the removable singularity;
        # the quotient cancels catastrophically in doubles near u = 1, so
        # the reference is evaluated at 50 digits
        with mp.workprec(170):
            for T in range(2, 9):
                for j in range(1, T):
                    for i in range(1000):
                        u = (1.0 - 1e-6) * i / 999
                        um = mp.mpf(u)
                        raw = (um**j - um ** (j - 1)) / (um**T - 1)
                        assert abs(float(raw) - integrand(T, j, u)) <= 1e-14

    def test_nonnegative_on_unit_interval(self):
        for T in (2, 5, 16):
            for j in (1, T - 1):
                assert all(integrand(T, j, i / 200) >= 0.0 for i in range(201))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            integrand(2, 1, 1.5)
        with pytest.raises(ValueError):
            integrand(2, 2, 0.5)
        with pytest.raises(ValueError):
            integrand(1, 1, 0.5)


class TestIntegrate:
    def test_ln2(self):
        assert integrate(2, 1, 1e-10) == pytest.approx(math.log(2), abs=1e-10)

    def test_modulus3_difference(self):
        assert integrate(3, 1, 1e-10) == pytest.approx(S3_DIFF, abs=1e-10)

    def test_against_series_route(self):
        value = integrate(4, 2, 1e-10)
        series = evaluate(make_vector(4, (0, 1, -1, 0)), 1e-10)
        assert abs(value - float(series.value)) <= 2e-10

    def test_sharp_integrand_high_modulus(self):
        # steep near u = 1; adaptive refinement must still converge
        value = integrate(64, 63, 1e-11)
        series = evaluate(make_vector(64, (0,) * 62 + (1, -1)), 1e-11)
        assert abs(value - float(series.value)) <= 1e-10

    def test_tolerance_floor(self):
        with pytest.raises(ValueError):
            integrate(2, 1, 1e-14)

    def test_every_pair_up_to_64_within_tol_of_200_bits(self):
        # the integral of u^(j-1)/P is (psi((j+1)/T) - psi(j/T))/T
        with mp.workprec(200):
            for T in range(2, 65):
                psi = [mp.psi(0, mp.mpf(j) / T) for j in range(1, T + 1)]
                for j in range(1, T):
                    for tol in (1e-9, 1e-12):
                        error = abs(integrate(T, j, tol) - (psi[j] - psi[j - 1]) / T)
                        assert error <= tol, (T, j, tol)


class TestFixedPanels:
    def test_converges_with_panel_count(self):
        errors = [
            abs(fixed_panel_integral(2, 1, p) - math.log(2)) for p in (1, 2, 4)
        ]
        assert errors[-1] <= errors[0]
        assert errors[-1] < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            fixed_panel_integral(2, 1, 0)

    def test_panel_limit(self):
        # integrate's limit; the fixed rule stops there too
        with pytest.raises(BudgetExceeded, match="20001 panels"):
            fixed_panel_integral(2, 1, quadrature._PANEL_LIMIT + 1)


class TestIntegralSeriesCheck:
    @pytest.mark.parametrize("T,j", [(3, 1), (2, 1), (8, 7)])
    def test_agreement(self, T, j):
        check = integral_series_check(T, j, 1e-9)
        assert check.discrepancy <= 2e-9
        assert check.tolerance == 1e-9

    def test_discrepancy_field_is_distance(self):
        check = integral_series_check(5, 2, 1e-9)
        assert check.discrepancy == abs(check.integral_value - check.series_value)


class TestDecomposition:
    @pytest.mark.parametrize("T,ref", [(2, math.log(2)), (3, math.log(3)), (5, math.log(5))])
    def test_reconstructs_log(self, T, ref):
        assert decomposition_check(T, 1e-10) == pytest.approx(ref, abs=1e-8)

    def test_tolerance_floor(self):
        with pytest.raises(ValueError):
            decomposition_check(3, 1e-13)

    def test_modulus_below_two_rejected(self):
        with pytest.raises(ValueError, match="T must be >= 2"):
            decomposition_check(1, 1e-8)

    def test_bisection_past_the_panel_limit_does_not_converge(self, monkeypatch):
        # T = 1000 takes 31 panels at the default limit
        monkeypatch.setattr(quadrature, "_PANEL_LIMIT", 3)
        with pytest.raises(NoConvergence, match="within 3 panels"):
            decomposition_check(1000, 1e-10)

    @pytest.mark.parametrize("T", [4, 12])
    def test_builds_the_panels_of_one_adaptive_integral(self, T, monkeypatch):
        # one integral of P'/P: every panel has ln_vector(T)'s numerator
        # r_j = j, the first is [0, 1], and each later pair halves a panel
        # built before it
        panels = []
        real = quadrature._panel

        def recording(numerator, a, b):
            panels.append((numerator, a, b))
            return real(numerator, a, b)

        monkeypatch.setattr(quadrature, "_panel", recording)
        decomposition_check(T, 1e-8)
        assert {numerator for numerator, _, _ in panels} == {
            tuple(float(j) for j in range(T - 1, 0, -1))
        }
        edges = [(a, b) for _, a, b in panels]
        assert edges[0] == (0.0, 1.0) and len(edges) % 2 == 1
        for i in range(1, len(edges), 2):
            (a, mid), (mid2, b) = edges[i], edges[i + 1]
            assert mid == mid2 == 0.5 * (a + b) and (a, b) in edges[:i]

    @pytest.mark.parametrize("T", [2, 3, 5, 12, 64, 200, 1000])
    def test_within_tol_of_ln_at_200_bits(self, T):
        start = time.perf_counter()
        value = decomposition_check(T, 1e-10)
        assert time.perf_counter() - start < 1.0
        with mp.workprec(200):
            assert abs(mp.mpf(value) - mp.log(T)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12).flatmap(
    lambda T: st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        min_size=T - 1, max_size=T - 1,
    )
))
def test_a_vector_is_the_integral_of_its_numerator(head):
    # the integral of R/P, R read off the difference-basis coordinates
    v = make_vector(len(head) + 1, head + [-sum(head)])
    value = quadrature._adaptive(quadrature._numerator(v), 1e-12)
    with mp.workprec(200):
        reference = gauss_digamma_limit(v)
        assert abs(mp.mpf(value) - reference) <= 1e-11 * (1 + sum(map(abs, v.coeffs)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.integers(2, 40).flatmap(lambda T: st.lists(
        st.one_of(
            st.just(0),
            st.fractions(min_value=-9, max_value=9, max_denominator=12),
            st.builds(Fraction, st.integers(-(10**200), 10**200), st.integers(1, 10**200)),
        ),
        min_size=T - 1, max_size=T - 1,
    )).map(lambda head: make_vector(len(head) + 1, head + [-sum(head)])),
    st.builds(ln_rational_vector, st.integers(1, 40), st.integers(1, 40)),
))
def test_numerator_rounds_as_the_fraction_coordinates_do(v):
    # int true division of the integer prefix sums by D is correctly rounded,
    # as float(Fraction) is, signed zeros included; the reference sums the
    # Fraction coefficients, not the weights
    reference = tuple(map(float, reversed(list(accumulate(v.coeffs[:-1])))))
    assert list(map(float.hex, quadrature._numerator(v))) == list(map(float.hex, reference))


class TestPi:
    def test_estimate(self):
        assert abs(pi_estimate(1e-9) - math.pi) <= 1e-8

    def test_arctan_route_is_library_exact(self):
        assert abs(pi_arctan() - math.pi) <= 1e-14

    def test_partial_blocks_bracket_pi(self):
        # 3 sqrt 3 (1/1 - 1/2 + 1/4 - 1/5 + 1/7 - 1/8) undershoots pi,
        # and the series has positive blocks, so prefixes increase to pi
        prefix = 3 * math.sqrt(3) * (1 - 1 / 2 + 1 / 4 - 1 / 5 + 1 / 7 - 1 / 8)
        assert prefix < math.pi
        next_prefix = prefix + 3 * math.sqrt(3) * (1 / 10 - 1 / 11)
        assert prefix < next_prefix < math.pi

    def test_tolerance_floor(self):
        with pytest.raises(ValueError):
            pi_estimate(1e-13)


def _no_work(*args, **kwargs):
    raise AssertionError("a NaN tolerance reached the quadrature or the series")


@pytest.mark.parametrize(
    "call",
    [
        lambda tol: quadrature.integrate(3, 1, tol),
        lambda tol: quadrature.decomposition_check(5, tol),
        quadrature.pi_with_series,
    ],
    ids=["integrate", "decomposition_check", "pi_with_series"],
)
def test_nan_tolerance_is_rejected_before_any_panel(call, monkeypatch):
    # NaN compares false both ways, so a guard written as tol < floor lets it in
    monkeypatch.setattr(quadrature, "_panel", _no_work)
    monkeypatch.setattr(quadrature, "evaluate", _no_work)
    with pytest.raises(ValueError):
        call(math.nan)


def _no_panel(*args, **kwargs):
    raise AssertionError("a panel was built before the term limit was checked")


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate(TERM_LIMIT + 1, 1, 1e-9),
        lambda: fixed_panel_integral(TERM_LIMIT + 1, 1, 1),
        # T * T past the limit, where bisection would outrun the rounding
        lambda: decomposition_check(1001, 1e-9),
        lambda: integrand(10**7, 1, 0.5),
    ],
    ids=["integrate", "fixed_panel_integral", "decomposition_check", "integrand"],
)
def test_horner_slots_past_the_term_limit_build_no_panel(call, monkeypatch):
    # each integrand call is a T-term Horner loop
    monkeypatch.setattr(quadrature, "_panel", _no_panel)
    monkeypatch.setattr(quadrature, "_ratio", _no_panel)
    with pytest.raises(BudgetExceeded, match="term limit"):
        call()
