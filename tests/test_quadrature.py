"""Integral route: integrand smoothness, quadrature, reconstruction, pi."""

import math

import pytest
from mpmath import mp

from logser import quadrature
from logser import (
    TERM_LIMIT,
    BudgetExceeded,
    decomposition_check,
    evaluate,
    fixed_panel_integral,
    integral_series_check,
    integrand,
    integrate,
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

    @pytest.mark.parametrize("T", [4, 12])
    def test_weighted_budget_is_tol(self, T, monkeypatch):
        # the result is sum_j j * integral_j, so integral j's error counts j times
        calls = []
        real = quadrature.integrate

        def recording(T_, j, tol):
            calls.append((j, tol))
            return real(T_, j, tol)

        monkeypatch.setattr(quadrature, "integrate", recording)
        decomposition_check(T, 1e-8)
        assert [j for j, _ in calls] == list(range(1, T))
        assert math.fsum(j * inner for j, inner in calls) <= 1e-8


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
        # (T - 1) T Horner slots: 999,000 at T = 1000, past the limit at 1001
        lambda: decomposition_check(1001, 1e-9),
    ],
    ids=["integrate", "fixed_panel_integral", "decomposition_check"],
)
def test_horner_slots_past_the_term_limit_build_no_panel(call, monkeypatch):
    # each integrand call is a T-term Horner loop
    monkeypatch.setattr(quadrature, "_panel", _no_panel)
    with pytest.raises(BudgetExceeded, match="term limit"):
        call()
