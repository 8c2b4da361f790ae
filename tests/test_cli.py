"""CLI contract: exit codes, JSON schema, CSV benchmark output."""

import builtins
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from logser import (
    TERM_LIMIT,
    BudgetExceeded,
    EvalResult,
    cli,
    evaluate,
    evaluation,
    make_vector,
    quadrature,
    rearranged_terms,
    relations,
    vectors,
)
from logser.cli import CSV_HEADER, bench, run

from conftest import as_fraction, digamma_limit


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

    def test_pi_takes_no_method(self, capsys):
        assert run_capture(capsys, ["pi", "--method", "raw"])[0] == 2
        assert run_capture(capsys, ["pi", "--abs-err", "1e-9", "--format", "text"])[0] == 0

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run_capture(capsys, [])[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_capture(capsys, ["--help"])[0] == 0

    def test_lnq_modulus_over_the_term_limit_is_domain_error(self, capsys):
        code, _, err = run_capture(capsys, ["lnq", "1000003/1"])
        assert code == 1
        assert "term limit" in err

    def test_ln_modulus_over_the_term_limit_is_domain_error(self, capsys):
        code, _, err = run_capture(capsys, ["ln", "1000001"])
        assert code == 1
        assert "term limit" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # trial division stops at the term limit, not at sqrt(2^61 - 1)
            ["lnq", "2305843009213693951/1"],
            # each integrand call would be a Horner loop of T terms
            ["integral-check", "--T", "1000001", "--j", "1"],
            # 999 coordinates, 1000 Horner slots, 1000 + 1001 panels
            ["bench", "--target", "ln:1000", "--methods", "quadrature", "--work", "1000"],
            # one integral, but its bisection would chase Horner rounding for minutes
            ["decompose", "--T", "100000"],
        ],
        ids=["lnq-61-bit-prime", "integral-check", "bench-quadrature", "decompose"],
    )
    def test_term_limit_is_checked_before_the_work(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_capture(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == "" and "term limit" in err

    @pytest.mark.parametrize(
        "target, message",
        [
            # a difference-basis coordinate of 10^400 is no double
            (f"vector:2:{10**400},-{10**400}", "double range"),
            # its sums in a quadrature panel would pass the double range
            (f"vector:3:{17 * 10**307},-{17 * 10**307},0", "double range"),
            ("vector:3", "unknown bench target"),
            ("vector:x:1,-1", "unknown bench target"),
            ("ln:", "unknown bench target"),
            ("ln:3:4", "unknown bench target"),
        ],
        ids=["coordinate-past-doubles", "panel-past-doubles", "no-coeffs", "bad-modulus",
             "ln-no-modulus", "ln-extra-field"],
    )
    @pytest.mark.parametrize("method", ["raw", "quadrature"])
    def test_bad_bench_target_is_one_error_line(self, capsys, target, message, method):
        argv = ["bench", "--target", target, "--methods", method, "--work", "10"]
        code, out, err = run_capture(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # pi's floor is stated without naming pi_estimate's tol
            (["pi", "--abs-err", "1e-300"], "at least 1e-12, got 1e-300"),
            (["pi", "--abs-err", "nan"], "at least 1e-12, got nan"),
            (["pi", "--abs-err", "-1"], "at least 1e-12, got -1.0"),
            (["eval", "--T", "3", "--coeffs", "1,x,-1"], "cannot parse coefficient list"),
            (["lnq", "abc"], "expected M/L with positive integers"),
            (["bench", "--target", "ln:3", "--methods", ",", "--work", "10"],
             "need at least one method"),
            (["bench", "--target", "ln:3", "--methods", "raw", "--work", "0"],
             "work schedule must be positive"),
        ],
        ids=["pi-1e-300", "pi-nan", "pi-negative", "eval-malformed-coeffs",
             "lnq-malformed-ratio", "bench-no-method", "bench-zero-work"],
    )
    def test_bad_input_is_one_error_line(self, capsys, argv, message):
        code, out, err = run_capture(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert "tol" not in err

    def test_bench_quadrature_over_the_panel_limit_is_domain_error(self, capsys):
        argv = ["bench", "--target", "ln:3", "--methods", "quadrature", "--work", "20001"]
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == "" and "panels exceed" in err

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
        # the shared fields lead in this order, the extras follow, and
        # wall_time_micros closes every value payload
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        keys = list(payload)
        assert keys[:7] == [
            "command",
            "inputs",
            "value",
            "precision",
            "error_bound",
            "bound_is_heuristic",
            "blocks_used",
        ], argv
        assert keys[-1] == "wall_time_micros", argv
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
        # partial_sum is summed as whole blocks plus leftover terms; check
        # it against the stream at and around the block boundaries
        for T in range(1, 8):
            for n in (1, T, T + 1, T + 2, 2 * T + 3, 400):
                _, out, _ = run_capture(
                    capsys, ["rearranged", "--T", str(T), "--n", str(n)]
                )
                total = sum(rearranged_terms(T, n), Fraction(0))
                expected = f"{total.numerator}/{total.denominator}"
                assert json.loads(out)["partial_sum"] == expected, (T, n)

    def test_rearranged_partial_sum_beyond_int_str_limit(self, capsys):
        code, out, err = run_capture(capsys, ["rearranged", "--T", "2", "--n", "20000"])
        assert code == 0, err
        total = sum(rearranged_terms(2, 20000), Fraction(0))
        assert len(str(Decimal(total.denominator))) > 4300
        expected = f"{Decimal(total.numerator)}/{Decimal(total.denominator)}"
        assert json.loads(out)["partial_sum"] == expected

    def test_rearranged_cost_does_not_grow_with_modulus(self, capsys):
        # the exact sum needs only the n terms, never a vector of length T
        code, out, err = run_capture(
            capsys, ["rearranged", "--T", "1000000000", "--n", "5"]
        )
        assert code == 0, err
        total = sum(rearranged_terms(10**9, 5), Fraction(0))
        assert json.loads(out)["partial_sum"] == f"{total.numerator}/{total.denominator}"

    def test_rearranged_sums_each_term_once(self, capsys, monkeypatch):
        # the partial sum is 1/(c+1) + ... + 1/(cT+r), not H_{cT+r} - H_c
        def no_harmonic(n):
            raise AssertionError("harmonic called")

        monkeypatch.setattr(evaluation, "harmonic", no_harmonic)
        monkeypatch.setattr(cli, "harmonic", no_harmonic, raising=False)
        # T = 1, n = 20001: c = 10000 whole blocks 1 - 1/(k+1) and the
        # leftover 1/10001, which is all that survives
        code, out, err = run_capture(capsys, ["rearranged", "--T", "1", "--n", "20001"])
        assert code == 0, err
        assert json.loads(out)["partial_sum"] == "1/10001"

    def test_gamma(self, capsys):
        _, out, _ = run_capture(capsys, ["gamma", "--n", "2"])
        payload = json.loads(out)
        assert float(payload["value"]) == pytest.approx(1.5 - math.log(2), abs=1e-12)
        # 1/2 to the limit, rounded up, and the printed digits
        bound = Fraction(payload["error_bound"])
        assert Fraction(1, 2) < bound < Fraction(1, 2) + Fraction(1, 10**15)

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
        # each witness is checked on the accelerated route, which sums no block
        for T in ("4", "8"):
            code, out, _ = run_capture(capsys, ["relations", "--T", T])
            assert code == 0
            payload = json.loads(out)
            assert payload["relation_count"] >= 1
            assert all(entry["verified_zero"] for entry in payload["relations"])

    def test_relations_checks_each_witness_once(self, capsys, monkeypatch):
        calls = []
        verify_zero = relations.verify_zero

        def counting(v, eps):
            calls.append(v)
            return verify_zero(v, eps)

        monkeypatch.setattr(relations, "verify_zero", counting)
        code, out, _ = run_capture(capsys, ["relations", "--T", "12"])
        assert code == 0
        payload = json.loads(out)
        assert len(calls) == payload["relation_count"] >= 1
        printed = [[Fraction(c) for c in e["witness_coeffs"]] for e in payload["relations"]]
        assert [list(v.coeffs) for v in calls] == printed

    def test_raw_truncates_past_the_block_budget(self, capsys):
        # ln 2 at 1e-9 truncates after about 2.5e8 blocks, summed as two psi tails
        code, out, _ = run_capture(
            capsys, ["ln", "2", "--method", "raw", "--abs-err", "1e-9"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["blocks_used"] > TERM_LIMIT
        with mp.workprec(200):
            assert abs(mp.mpf(payload["value"]) - mp.ln(2)) <= 1e-9

    def test_value_carries_more_than_double_precision(self, capsys):
        _, out, _ = run_capture(capsys, ["ln", "2", "--abs-err", "1e-25"])
        with mp.workprec(200):
            assert abs(mp.mpf(json.loads(out)["value"]) - mp.ln(2)) <= 1e-25


class TestTextOutput:
    def test_ln_text(self, capsys):
        code, out, _ = run_capture(capsys, ["ln", "2", "--format", "text"])
        assert code == 0
        assert "0.6931471805" in out


GOLDEN_FILE = pathlib.Path(__file__).with_name("cli_goldens.json")

# (argv, output fields whose digits come from libm, so other libm builds
# may move them): only pi's arctan cross-check, from libm's atan.  The
# quadrature's nodes take IEEE arithmetic and fsum alone, so its values
# are compared exactly
GOLDEN_CASES = [
    (["eval", "--T", "3", "--coeffs", "1,1,-2", "--method", "raw", "--abs-err", "1e-5"], ()),
    (["eval", "--T", "4", "--coeffs", "1,-1,1,-1", "--abs-err", "1e-20"], ()),
    (["ln", "7", "--abs-err", "1e-25"], ()),
    (["lnq", "5/3", "--abs-err", "1e-12"], ()),
    (["pi", "--abs-err", "1e-12"], ("arctan_cross_check",)),
    (["gamma", "--n", "100"], ()),
    (["integral-check", "--T", "4", "--j", "2"], ()),
    (["decompose", "--T", "3"], ()),
    (["relations", "--T", "6"], ()),
    (["rearranged", "--T", "1", "--n", "7"], ()),
    (["rearranged", "--T", "3", "--n", "11"], ()),
]


def capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


def golden_outputs():
    """Every golden case in both formats, keyed by its command line."""
    goldens = {}
    for argv, _ in GOLDEN_CASES:
        code, out = capture(argv + ["--format", "json"])
        assert code == 0, argv
        payload = json.loads(out)
        payload.pop("wall_time_micros")
        code, text = capture(argv + ["--format", "text"])
        assert code == 0, argv
        goldens[" ".join(argv)] = {"json": payload, "text": text.splitlines()}
    return goldens


def close(expected: str, actual: str) -> bool:
    # the field compared this way is an O(1) value, hence the absolute floor
    return math.isclose(float(expected), float(actual), rel_tol=1e-15, abs_tol=1e-15)


class TestGolden:
    """The CLI surface, field by field and line by line, against a capture."""

    @pytest.mark.parametrize(
        "argv, approx", GOLDEN_CASES, ids=[" ".join(a) for a, _ in GOLDEN_CASES]
    )
    def test_output_matches_golden(self, argv, approx):
        golden = json.loads(GOLDEN_FILE.read_text())[" ".join(argv)]
        code, out = capture(argv + ["--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload.pop("wall_time_micros"), int)
        assert payload.keys() == golden["json"].keys()
        for key, expected in golden["json"].items():
            if key in approx:
                assert close(expected, payload[key]), key
            else:
                assert payload[key] == expected, key
        code, out = capture(argv + ["--format", "text"])
        assert code == 0
        loose = {golden["json"][key] for key in approx}
        lines = out.splitlines()
        assert len(lines) == len(golden["text"])
        for expected, actual in zip(golden["text"], lines):
            want, got = expected.split(" "), actual.split(" ")
            assert len(want) == len(got), expected
            for w, g in zip(want, got):
                assert w == g or (w in loose and close(w, g)), expected


def _rearranged_sum(T, n):
    return lambda: sum(rearranged_terms(T, n), Fraction(0))


# every value golden, and two payloads past its range: what each printed
# value approximates, within its printed error_bound
PRINTED_REFERENCES = {
    "eval --T 3 --coeffs 1,1,-2 --method raw --abs-err 1e-5": lambda: mp.log(3),
    "eval --T 4 --coeffs 1,-1,1,-1 --abs-err 1e-20": lambda: mp.log(2),
    "ln 7 --abs-err 1e-25": lambda: mp.log(7),
    "lnq 5/3 --abs-err 1e-12": lambda: mp.log(mp.mpf(5) / 3),
    "pi --abs-err 1e-12": lambda: +mp.pi,
    # the limit, not the partial
    "gamma --n 100": lambda: +mp.euler,
    "gamma --n 1000000000000000000000000000000": lambda: +mp.euler,
    "integral-check --T 4 --j 2": lambda: digamma_limit(make_vector(4, (0, 1, -1, 0))),
    "decompose --T 3": lambda: mp.log(3),
    "rearranged --T 1 --n 7": _rearranged_sum(1, 7),
    "rearranged --T 3 --n 11": _rearranged_sum(3, 11),
    # six digits before the point need six more printed digits
    "eval --T 2 --coeffs 1000000,-1000000 --abs-err 1e-20": lambda: 10**6 * mp.log(2),
}


class TestPrintedBound:
    """The printed value lies within the printed error_bound of its target."""

    @pytest.mark.parametrize("argv", PRINTED_REFERENCES)
    def test_value_within_error_bound_of_a_300_bit_reference(self, argv):
        code, out = capture(argv.split())
        assert code == 0
        payload = json.loads(out)
        with mp.workprec(300):
            reference = as_fraction(PRINTED_REFERENCES[argv]())
        error = abs(Fraction(payload["value"]) - reference)
        assert error <= Fraction(payload["error_bound"]), (payload["value"], error)


def _to_str(man: int, exp: int, prec: int, digits: int) -> str:
    """man 2^exp printed through mpmath, as the CLI printed reals before _decimal.

    Rounded to nearest at prec bits (as a prec-bit mpf holds it), then at
    ceil(digits log2 10) + 16 bits, then libmp.to_str.
    """
    libmp = mpmath.libmp
    raw = libmp.from_man_exp(man, exp, prec, libmp.round_nearest)
    bits = math.ceil(digits * math.log2(10)) + 16
    return libmp.to_str(libmp.mpf_pos(raw, bits, libmp.round_nearest), digits)


@st.composite
def _binary_values(draw):
    """(man, exp, prec, digits), the value's leading digit near either form switch or far off."""
    prec = draw(st.integers(96, 1024))
    digits = draw(st.integers(17, 400))
    size = draw(st.integers(0, prec + 40))
    man = draw(st.one_of(
        st.integers(0, (1 << size) - 1),
        # runs of nines and round decimals, which carry when rounded
        st.builds(lambda k, d: (10**k + d) << (size % 7), st.integers(1, 300), st.integers(-3, 3)),
    )) * draw(st.sampled_from((1, -1)))
    # fixed form holds for min(-(digits // 3), -5) < point < digits
    point = draw(st.one_of(
        st.integers(-150, 420),
        st.sampled_from([min(-(digits // 3), -5) + k for k in (-1, 0, 1, 2)]
                        + [digits + k for k in (-2, -1, 0, 1)]),
    ))
    exp = round(point * math.log2(10)) - abs(man).bit_length() + draw(st.integers(-4, 4))
    return man, exp, prec, digits


class TestDecimal:
    """_decimal prints what mpmath's to_str printed after the same roundings."""

    @settings(max_examples=400, deadline=None)
    @given(_binary_values())
    def test_matches_to_str(self, value):
        man, exp, prec, digits = value
        rounded = evaluation._round(man, exp, prec)
        assert cli._decimal(*rounded, digits) == _to_str(man, exp, prec, digits)
        # the double the digit count and the charge read is float(mpf), in
        # the double range
        if exp + abs(man).bit_length() < 1023:
            as_mpf = mp.make_mpf(mpmath.libmp.from_man_exp(man, exp, prec, "n"))
            assert evaluation._double(rounded) == float(as_mpf)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(17, 400))
    def test_doubles_match_to_str(self, x, digits):
        man, exp = cli._binary(x)
        assert man * Fraction(2) ** exp == x
        assert cli._real(x, digits) == _to_str(man, exp, 53, digits)
        assert evaluation._double((man, exp)) == x

    @pytest.mark.parametrize("man, exp, digits, text", [
        (0, 0, 17, "0.0"),
        (1, 0, 17, "1.0"),
        (-3, -2, 17, "-0.75"),
        (10**17 - 1, 0, 17, "99999999999999999.0"),
        (10**17 - 1, 0, 16, "1.0e+17"),
        (123, -20, 17, "0.00011730194091796875"),   # fixed form down to 1e-5
        (1, -30, 17, "9.3132257461547852e-10"),
        (1, 200, 17, "1.6069380442589903e+60"),
    ])
    def test_examples(self, man, exp, digits, text):
        assert cli._decimal(man, exp, digits) == text == _to_str(man, exp, 2000, digits)


class TestJsonLayout:
    """The JSON writer is json.dumps(payload): one compact line."""

    @pytest.mark.parametrize("argv", [a for a, _ in GOLDEN_CASES], ids=" ".join)
    def test_golden_output_is_one_compact_line(self, argv):
        code, out = capture(argv + ["--format", "json"])
        assert code == 0
        assert out == json.dumps(json.loads(out)) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            *(" ".join(a) for a, _ in GOLDEN_CASES),
            "eval --T 2 --coeffs 1,-1",
            "ln 3",
            "lnq 4/3",
            "pi",
            "gamma --n 5",
            "integral-check --T 3 --j 1",
            "decompose --T 2",
            "relations --T 12",
            "rearranged --T 2 --n 6",
        ],
    )
    def test_payloads_hold_only_dicts_lists_strings_ints_and_bools(self, argv):
        # no float, None or tuple reaches a payload, so the goldens never
        # depend on binary float formatting; json.loads reads a JSON number
        # with a fraction or exponent as a float and null as None
        code, out = capture(argv.split())
        assert code == 0
        golden = json.loads(GOLDEN_FILE.read_text()).get(argv, {}).get("json", {})
        stack = [json.loads(out), golden]
        while stack:
            node = stack.pop()
            assert type(node) in (dict, list, str, int, bool), (argv, node)
            if type(node) is dict:
                stack.extend(node.values())
            elif type(node) is list:
                stack.extend(node)


def parse_outcome(parse, argv):
    """(namespace as a dict, or the exit code; stdout; stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = vars(parse(argv))
        except SystemExit as exc:
            outcome = exc.code
    return outcome, out.getvalue(), err.getvalue()


def top_level(argv):
    """The reference: the top-level parser's own parse_args."""
    return cli._parsers()[0].parse_args(argv)


USAGE_CASES = [
    ["ln", "2", "--no-such-flag"],
    ["ln"],
    [],
    ["nope", "2"],
    ["--help"],
    ["ln", "--help"],
    ["ln", "2", "3"],
    ["relations", "--T", "6", "--T"],
    ["--format", "json", "ln", "2"],
    ["ln", "--", "2"],
    ["pi", "--method", "raw"],
]


class TestSubcommandDispatch:
    @pytest.mark.parametrize("argv", USAGE_CASES, ids=" ".join)
    def test_usage_paths_match_the_top_level_parser(self, argv):
        assert parse_outcome(cli._parse, argv) == parse_outcome(top_level, argv)

    @pytest.mark.parametrize("argv", [a for a, _ in GOLDEN_CASES], ids=" ".join)
    def test_namespaces_match_the_top_level_parser(self, argv):
        for fmt in ([], ["--format", "text"]):
            direct = parse_outcome(cli._parse, argv + fmt)
            assert isinstance(direct[0], dict)
            assert direct == parse_outcome(top_level, argv + fmt)


def _cli_env() -> dict:
    """The environment for a `python -m logser.cli` child: this tree's src first.

    PYTHONUNBUFFERED is dropped, so the child's stdout is block-buffered as
    under a shell and the interpreter's exit flush has something to write.
    """
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    return env


class TestEntryPoint:
    def test_module_main_in_a_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "logser.cli", "ln", "2", "--abs-err", "1e-9"],
            capture_output=True,
            text=True,
            env=_cli_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["command"] == "ln"

    def test_a_closed_pipe_exits_1_without_a_traceback(self):
        # 20,000 terms print far more than a pipe buffer holds, so the writer is
        # still blocked when the reader takes one byte and closes its end; the
        # payload is one line, so reading a line would drain all of it
        proc = subprocess.Popen(
            [sys.executable, "-m", "logser.cli", "rearranged", "--T", "3", "--n", "20000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_cli_env(),
        )
        try:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            code = proc.wait(timeout=120)
            err = proc.stderr.read().decode()
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
        assert code == 1

    def test_a_pipe_closed_before_the_payload_exits_1(self):
        # the small payload sits in stdout's buffer until main's flush fails; the
        # interpreter's exit flush must then find nothing to write
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "logser.cli", "ln", "2"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=_cli_env(),
                timeout=120,
            )
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
        assert proc.returncode == 1


class TestCachedParser:
    def test_parser_is_built_once(self):
        assert cli._parsers() is cli._parsers()

    def test_no_option_carries_over_to_the_next_call(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["eval", "--T", "2", "--coeffs", "1,-1", "--method", "raw",
             "--abs-err", "1e-5", "--format", "text"],
        )
        assert code == 0 and "method=raw" in out
        code, out, _ = run_capture(capsys, ["ln", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["inputs"] == {"T": 2, "abs_err": "1e-09", "method": "accelerated"}

    def test_valid_call_after_a_usage_error(self, capsys):
        assert run_capture(capsys, ["lnq", "5/3", "--no-such-flag"])[0] == 2
        code, out, _ = run_capture(capsys, ["lnq", "5/3", "--abs-err", "1e-12"])
        assert code == 0
        payload = json.loads(out)
        assert payload["inputs"]["M"] == 5 and payload["inputs"]["L"] == 3
        assert payload["value"].startswith("0.510825623765990")


THREAD_CASES = [
    ["ln", "2", "--abs-err", "1e-25"],
    ["ln", "3"],
    ["lnq", "5/3", "--abs-err", "1e-30"],
    ["decompose", "--T", "3"],
    ["pi"],
]


class TestThreads:
    def test_concurrent_calls_print_what_one_call_prints(self, monkeypatch):
        expected = []
        for argv in THREAD_CASES:
            code, out = capture(argv)
            assert code == 0, argv
            payload = json.loads(out)
            payload.pop("wall_time_micros")
            expected.append(payload)
        prec = mp.prec
        # redirect_stdout is process-wide, so each thread prints to its own buffer
        local = threading.local()

        def thread_print(*args, **kwargs):
            kwargs.setdefault("file", local.out)
            builtins.print(*args, **kwargs)

        monkeypatch.setattr(cli, "print", thread_print, raising=False)
        results = []

        def worker():
            for i in range(150):
                case = i % len(THREAD_CASES)
                local.out = io.StringIO()
                code = run(THREAD_CASES[case])
                results.append((case, code, local.out.getvalue()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 450
        for case, code, out in results:
            assert code == 0, THREAD_CASES[case]
            payload = json.loads(out)
            payload.pop("wall_time_micros")
            assert payload == expected[case], THREAD_CASES[case]
        assert mp.prec == prec


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
        assert row.abs_error_vs_reference <= row.error_bound

    @pytest.mark.parametrize(
        "target",
        ["ln:2", "ln:3", "ln:7", "pi", "vector:4:1,-3,1,1", "vector:3:1/2,-1/3,-1/6"],
    )
    def test_every_row_lies_within_its_bound_of_a_200_bit_reference(self, target):
        kind, _, rest = target.partition(":")
        with mp.workprec(200):
            if kind == "ln":
                reference = mp.log(int(rest))
            elif kind == "pi":
                reference = +mp.pi
            else:
                T, coeffs = rest.split(":")
                vec = make_vector(int(T), [Fraction(c) for c in coeffs.split(",")])
                reference = digamma_limit(vec)
            reference = as_fraction(reference)
        methods = ["raw", "accelerated", "quadrature"] + ["rearranged"] * (kind == "ln")
        schedule = [1, 2, 7, 100, 1000]
        rows = bench(target, methods, schedule)
        assert len(rows) == len(methods) * len(schedule)
        if kind == "ln":
            # dense works end inside a block at every offset, so a rearranged
            # bound that drops its partial-block charge fails on some row
            dense = list(range(1, 61)) + [10**k + d for k in (2, 3, 4) for d in (-1, 1)]
            rows += bench(target, ["rearranged"], dense)
        for row in rows:
            assert abs(Fraction(row.value) - reference) <= Fraction(row.error_bound), row

    def test_quadrature_row_checks_its_horner_slots_first(self, monkeypatch):
        # ln:3 is one integrand over modulus 3, and work 10 takes rules of 10
        # and 11 panels: 3 * 21 = 63 slots per node
        monkeypatch.setattr(vectors, "TERM_LIMIT", 63)
        assert len(bench("ln:3", ["quadrature"], [10])) == 1

        def no_panel(*args):
            raise AssertionError("a panel was built")

        monkeypatch.setattr(quadrature, "_panel", no_panel)
        monkeypatch.setattr(vectors, "TERM_LIMIT", 62)
        with pytest.raises(BudgetExceeded, match="63 Horner slots .* term limit of 62"):
            bench("ln:3", ["quadrature"], [10])

    def test_vector_reference_is_independent_of_evaluate(self, monkeypatch):
        # an evaluate that is off by 1e-6 must show in the error column, by 1e-6
        def shifted(*args, **kwargs):
            result = evaluate(*args, **kwargs)
            return EvalResult(value=result.value + 1e-6, error_bound=result.error_bound,
                              blocks_used=result.blocks_used, method=result.method,
                              bound_is_heuristic=result.bound_is_heuristic)

        monkeypatch.setattr(cli, "evaluate", shifted)
        row = bench("vector:3:1/2,-1/3,-1/6", ["accelerated"], [100])[0]
        assert row.abs_error_vs_reference == pytest.approx(1e-6, rel=1e-6)

    def test_zero_vector_target(self):
        rows = bench("vector:4:1,-3,1,1", ["raw"], [100])
        assert abs(rows[0].value) <= rows[0].error_bound

    def test_quadrature_at_the_panel_limit_steps_down(self, monkeypatch):
        # the error estimate takes work + 1 panels, or work - 1 where work + 1
        # would pass the limit; each row runs three times, one rule per count
        panels = []

        def record(numerator, *counts):
            panels.append((numerator, counts))
            return [1.0 / n for n in counts]

        monkeypatch.setattr(quadrature, "_composite", record)
        bench("pi", ["quadrature"], [19999, 20000])
        # pi's vector (1, -1, 0) has numerator u^0, ln:3's (1, 1, -2) 1 + 2u
        assert set(numerator for numerator, _ in panels) == {(0.0, 1.0)}
        assert [n for _, n in panels] == [(19999, 20000)] * 3 + [(20000, 19999)] * 3
        panels.clear()
        bench("ln:3", ["quadrature"], [20000])
        assert panels == [((2.0, 1.0), (20000, 19999))] * 3

    def test_pi_target_quadrature(self):
        rows = bench("pi", ["quadrature"], [4])
        assert rows[0].abs_error_vs_reference <= 1e-10

    @pytest.mark.parametrize("T", [1, 2, 3, 7])
    def test_rearranged_rows_bound_their_error(self, T):
        schedule = [1, T, T + 1, T + 2, 1000, 10**5]
        rows = bench(f"ln:{T}", ["rearranged"], schedule)
        assert [row.work for row in rows] == schedule
        for row in rows:
            assert abs(row.value - math.log(T)) <= row.error_bound, row
            if row.work <= 1000:
                # the bound is loose; pin the value to the stream's own sum
                exact = float(sum(rearranged_terms(T, row.work), Fraction(0)))
                assert row.value == pytest.approx(exact, rel=1e-14, abs=1e-15), row

    def test_negative_ln_target_is_domain_error(self, capsys):
        code, _, err = run_capture(
            capsys, ["bench", "--target", "ln:-2", "--methods", "raw", "--work", "10"]
        )
        assert code == 1
        assert "modulus must be >= 1" in err

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


if __name__ == "__main__":
    # `python tests/test_cli.py --write-goldens` recaptures the goldens
    if sys.argv[1:] == ["--write-goldens"]:
        GOLDEN_FILE.write_text(json.dumps(golden_outputs(), indent=2) + "\n")
