"""CLI contract: exit codes, JSON schema, CSV benchmark output."""

import json
import math
from types import SimpleNamespace

import pytest
from mpmath import mp

from logser import cli, evaluate, make_vector
from logser.cli import CSV_HEADER, bench, run


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_ln_json_success(self, capsys):
        code, out, _ = run_capture(
            capsys, ["ln", "2", "--abs-err", "1e-9", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "ln"
        assert float(payload["value"]) == pytest.approx(0.693147181, abs=2e-9)
        assert float(payload["error_bound"]) <= 1e-9

    def test_unbalanced_eval_is_domain_error(self, capsys):
        code, _, err = run_capture(capsys, ["eval", "--T", "3", "--coeffs", "1,1,1"])
        assert code == 1
        assert "sum to zero" in err

    def test_malformed_flag_is_usage_error(self, capsys):
        code, _, _ = run_capture(capsys, ["ln", "2", "--no-such-flag"])
        assert code == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run_capture(capsys, [])[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_capture(capsys, ["--help"])[0] == 0

    def test_prime_modulus_relations_is_domain_error(self, capsys):
        code, _, err = run_capture(capsys, ["relations", "--T", "7"])
        assert code == 1
        assert "proper divisor" in err


class TestJsonOutput:
    def test_pi(self, capsys):
        code, out, _ = run_capture(capsys, ["pi", "--abs-err", "1e-9"])
        assert code == 0
        payload = json.loads(out)
        assert float(payload["value"]) == pytest.approx(math.pi, abs=1e-8)
        assert float(payload["arctan_cross_check"]) == pytest.approx(
            math.pi, abs=1e-12
        )
        assert payload["bound_is_heuristic"] is False
        with mp.workdps(30):
            error = abs(mp.mpf(payload["value"]) - mp.pi)
        assert error <= float(payload["error_bound"]) <= 1e-14

    def test_pi_reports_blocks_of_its_series(self, capsys):
        _, out, _ = run_capture(capsys, ["pi", "--abs-err", "1e-9"])
        series = evaluate(make_vector(3, (1, -1, 0)), 1e-9 / 6, "accelerated")
        assert json.loads(out)["blocks_used"] == series.blocks_used

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--T", "2", "--coeffs", "1,-1"],
            ["ln", "3"],
            ["lnq", "4/3"],
            ["pi"],
            ["gamma", "--n", "5"],
            ["integral-check", "--T", "3", "--j", "1"],
            ["decompose", "--T", "2"],
            ["rearranged", "--T", "2", "--n", "6"],
        ],
    )
    def test_schema_fields_present(self, capsys, argv):
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        for key in (
            "command",
            "inputs",
            "value",
            "error_bound",
            "bound_is_heuristic",
            "blocks_used",
            "wall_time_micros",
        ):
            assert key in payload, f"{argv}: missing {key}"
        assert isinstance(payload["value"], str)
        assert isinstance(payload["error_bound"], str)

    def test_round_trip_is_bit_stable(self, capsys):
        _, out, _ = run_capture(capsys, ["lnq", "4/3", "--abs-err", "1e-9"])
        payload = json.loads(out)
        again = json.loads(json.dumps(payload))
        assert again["value"] == payload["value"]
        assert again["error_bound"] == payload["error_bound"]
        assert float(payload["value"]) == pytest.approx(math.log(4 / 3), abs=2e-9)

    def test_rationals_cross_boundary_as_strings(self, capsys):
        _, out, _ = run_capture(capsys, ["rearranged", "--T", "3", "--n", "4"])
        payload = json.loads(out)
        assert payload["terms"] == ["1/1", "1/2", "1/3", "-1/1"]

    def test_gamma(self, capsys):
        _, out, _ = run_capture(capsys, ["gamma", "--n", "2"])
        payload = json.loads(out)
        assert float(payload["value"]) == pytest.approx(1.5 - math.log(2), abs=1e-12)
        assert float(payload["error_bound"]) == 0.5

    def test_integral_check(self, capsys):
        code, out, _ = run_capture(capsys, ["integral-check", "--T", "3", "--j", "1"])
        assert code == 0
        payload = json.loads(out)
        assert float(payload["discrepancy"]) <= 2e-9

    def test_decompose(self, capsys):
        code, out, _ = run_capture(capsys, ["decompose", "--T", "3"])
        assert code == 0
        payload = json.loads(out)
        assert float(payload["abs_error_vs_reference"]) <= 1e-8

    def test_relations(self, capsys):
        code, out, _ = run_capture(capsys, ["relations", "--T", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["relation_count"] >= 1
        assert all(entry["verified_zero"] for entry in payload["relations"])

    def test_value_carries_more_than_double_precision(self, capsys):
        _, out, _ = run_capture(capsys, ["ln", "2", "--abs-err", "1e-25"])
        with mp.workprec(200):
            assert abs(mp.mpf(json.loads(out)["value"]) - mp.ln(2)) <= 1e-25


class TestTextOutput:
    def test_ln_text(self, capsys):
        code, out, _ = run_capture(capsys, ["ln", "2", "--format", "text"])
        assert code == 0
        assert "0.6931471805" in out


class TestBlockBudgetEnv:
    def test_budget_env_is_honoured(self, capsys, monkeypatch):
        monkeypatch.setenv("LOGSER_BLOCK_BUDGET", "100")
        code, _, err = run_capture(
            capsys, ["ln", "2", "--abs-err", "1e-9", "--method", "raw"]
        )
        assert code == 1
        assert "budget" in err

    def test_bad_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LOGSER_BLOCK_BUDGET", "many")
        code, _, err = run_capture(capsys, ["ln", "2"])
        assert code == 1
        assert "LOGSER_BLOCK_BUDGET" in err


class TestBench:
    def test_csv_header_and_monotone_error(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["bench", "--target", "ln:2", "--methods", "raw", "--work", "10,100,1000"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        errors = []
        for line in lines[1:]:
            method, work, value, bound, abs_err, micros = line.split(",")
            assert method == "raw"
            assert float(abs_err) <= float(bound)
            assert int(micros) >= 0
            errors.append(float(abs_err))
        assert errors == sorted(errors, reverse=True)

    def test_accelerated_hits_reference_fast(self):
        rows = bench("ln:2", ["accelerated"], [1000])
        assert rows[0].abs_error_vs_reference <= 1e-12

    def test_vector_reference_is_the_limit(self):
        row = bench("vector:3:1,-1,0", ["accelerated"], [1000])[0]
        assert row.abs_error_vs_reference <= row.error_bound + 1e-15

    def test_zero_vector_target(self):
        rows = bench("vector:4:1,-3,1,1", ["raw"], [100])
        assert abs(rows[0].value) <= rows[0].error_bound

    def test_pi_target_quadrature(self):
        rows = bench("pi", ["quadrature"], [4])
        assert rows[0].abs_error_vs_reference <= 1e-10

    def test_rearranged_requires_ln_target(self):
        with pytest.raises(Exception):
            bench("pi", ["rearranged"], [10])

    def test_wall_time_is_fastest_of_three_runs(self, monkeypatch):
        # the first (cold) run takes a second, the two after it 7 and 5 us
        ticks = iter([0, 10**9, 0, 7000, 0, 5000])
        monkeypatch.setattr(
            cli, "time", SimpleNamespace(perf_counter_ns=lambda: next(ticks))
        )
        row = bench("ln:2", ["raw"], [10])[0]
        assert row.wall_time_micros == 5

    def test_unknown_method_rejected(self, capsys):
        code, _, _ = run_capture(
            capsys,
            ["bench", "--target", "ln:2", "--methods", "psychic", "--work", "10"],
        )
        assert code == 1
