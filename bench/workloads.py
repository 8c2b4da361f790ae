"""Request grids of the three workloads, with a reference for every request.

Each workload is a fixed grid of requests, one cycle, which the runner
repeats (see ``CYCLE_SECONDS``).  The grid fixes the expensive dimensions
(modulus, term counts, which requests go through the CLI), so every run
does the same mix of work; the seed picks the cheap ones: the order of
the cycle, the requested accuracy of library requests within the
workload's range, the coefficients of random balanced vectors, and a
+-1 % jitter on term counts.  A fifth of every cycle goes in-process
through ``logser.cli.run(argv)``, and every cycle holds at least 100
successful requests.

Requests reach logser through module attributes looked up at call time
(``lib.evaluation.evaluate``, not a name bound at import), so the traced
run's wrappers see every call.  References come from ``oracle`` and are
computed when the grid is built, before anything is timed.

* accel: the default accelerated ``evaluate``.  The exact block prefix
  does nearly all the work, so an adaptive prefix or a tail change shows
  here.
* rigorous: raw ``evaluate``, digamma partial sums, divisor relations
  for every composite T <= 64 and Bareiss kernels.  No exact prefix
  runs, so prefix changes should not move it.
* exact: long exact Fraction sums (harmonic numbers, Euler-Mascheroni
  partials, long prefixes, the rearranged stream).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from oracle import (
    MIN_BITS,
    Oracle,
    bits_for,
    check_kernel_basis,
    composite_moduli,
    divisor_family,
    ln_coeffs,
    recombine,
)

WORKLOADS = ("accel", "rigorous", "exact")

# The first request of a fresh interpreter, per workload, for setup_s.
SETUP_PROBES = {
    "accel": "logser.evaluate(logser.ln_vector(10), 1e-12)",
    "rigorous": "logser.divisor_relations(12)",
    "exact": "logser.harmonic(5000)",
}

# Seconds one pass over the cycle takes on a 2-core x86_64 host, Python
# 3.11, in a fast stretch and without the reference runs between
# requests (see run.py), which add about a fifth.  An untraced run of --seconds S makes round(S / CYCLE_SECONDS)
# passes, so every commit measures the same number of each request.
CYCLE_SECONDS = {"accel": 5.0, "rigorous": 4.5, "exact": 4.0}

# A zero witness must vanish to this accuracy at the oracle's precision.
_ZERO_TOL = 1e-40
_EXACT_TOL = 1e-60
# partial_sum_float works at 96 bits; allow 2^-66 relative to the mass.
_FLOAT_REL_TOL = 2.0**-66

LN_RATIOS = ((3, 2), (4, 3), (8, 7), (5, 3), (10, 9), (28, 27))


class CliExit(Exception):
    """The CLI returned a nonzero exit code."""


@dataclass
class Request:
    kind: str
    label: str
    call: Callable[[], Any]
    # returns (achieved abs error, None) or (error, reason it is wrong)
    check: Callable[[Any], tuple[float, str | None]]
    via_cli: bool = False


def _within(err: float, tol: float) -> tuple[float, str | None]:
    return err, None if err <= tol else f"error {err:.3g} exceeds {tol:.3g}"


def _coeff_text(coeffs) -> str:
    return ",".join(str(Fraction(c)) for c in coeffs)


def random_balanced(rng: random.Random, T: int, bound: int = 9,
                    rational: bool = False) -> list[Fraction]:
    """Nonzero balanced coefficients: T-1 draws of size <= bound, then the balancing one.

    The last coefficient carries no weight in the raw truncation bound, so
    bound=1 keeps raw evaluation at abs_err >= 1e-6 within the default
    block budget.
    """
    while True:
        head = []
        for _ in range(T - 1):
            q = rng.randint(1, 4) if rational else 1
            head.append(Fraction(rng.randint(-bound * q, bound * q), q))
        if any(head):
            return head + [-sum(head)]


class _Cycle:
    def __init__(self, lib, oracle: Oracle, rng: random.Random) -> None:
        self.lib = lib
        self.oracle = oracle
        self.rng = rng
        self.requests: list[Request] = []
        self._pools: dict[tuple[str, int, int], list[int]] = {}

    def add(self, kind, label, call, check, via_cli=False) -> None:
        self.requests.append(Request(kind, label, call, check, via_cli))

    def eps(self, lo: int, hi: int, group: str = "") -> float:
        """10^-e, e drawn from [lo, hi] without replacement within `group`.

        Each group's draws cover its range evenly, so the seed changes which
        request gets which accuracy but hardly the mix of accuracies.
        """
        pool = self._pools.setdefault((group, lo, hi), [])
        if not pool:
            pool.extend(range(lo, hi + 1))
            self.rng.shuffle(pool)
        return 10.0 ** -pool.pop()

    def jitter(self, n: int) -> int:
        return n + self.rng.randint(-n // 100, n // 100)

    # -- library requests -------------------------------------------------

    def evaluate(self, make, reference, abs_err, method, label, **options) -> None:
        """evaluate(make(), abs_err, method, **options) against reference(bits)."""
        bits = bits_for(abs_err)
        ref = reference(bits)
        lib, oracle = self.lib, self.oracle

        def call():
            return lib.evaluation.evaluate(make(), abs_err, method, **options)

        def check(result):
            return _within(oracle.distance(result.value, ref, bits), abs_err)

        extra = "".join(f", {k}={v}" for k, v in options.items())
        self.add(f"evaluate.{method}", f"evaluate({label}, {abs_err:.0e}, {method}{extra})",
                 call, check)

    def evaluate_ln(self, T, abs_err, method, **options) -> None:
        lib, oracle = self.lib, self.oracle
        self.evaluate(lambda: lib.vectors.ln_vector(T),
                      lambda bits: oracle.series(ln_coeffs(T), bits), abs_err, method,
                      f"ln_vector({T})", **options)

    def evaluate_coeffs(self, coeffs, abs_err, method) -> None:
        lib, oracle, T = self.lib, self.oracle, len(coeffs)
        self.evaluate(lambda: lib.vectors.make_vector(T, coeffs),
                      lambda bits: oracle.series(coeffs, bits), abs_err, method,
                      f"make_vector({T}, [{_coeff_text(coeffs)}])")

    def evaluate_lnq(self, M, L, abs_err, method) -> None:
        lib, oracle = self.lib, self.oracle
        self.evaluate(lambda: lib.vectors.ln_rational_vector(M, L),
                      lambda bits: oracle.ln(M, L, bits), abs_err, method,
                      f"ln_rational_vector({M}, {L})")

    def partial_sum_float(self, coeffs, blocks) -> None:
        ref = self.oracle.partial(coeffs, blocks)
        mass = float(1 + sum(abs(Fraction(a)) for a in coeffs))
        tol = _FLOAT_REL_TOL * mass * math.log(blocks + 2)
        lib, oracle, T = self.lib, self.oracle, len(coeffs)

        def call():
            return lib.evaluation.partial_sum_float(lib.vectors.make_vector(T, coeffs), blocks)

        self.add("partial_sum_float", f"partial_sum_float([{_coeff_text(coeffs)}], {blocks})",
                 call, lambda value: _within(oracle.distance(value, ref), tol))

    def _exact(self, ref):
        """Check of an exact Fraction result against the reference."""
        oracle = self.oracle

        def check(value):
            if not isinstance(value, Fraction):
                return math.inf, f"expected a Fraction, got {type(value).__name__}"
            return _within(oracle.distance(value, ref), _EXACT_TOL)

        return check

    def partial_sum_exact(self, coeffs, blocks) -> None:
        lib, T = self.lib, len(coeffs)

        def call():
            return lib.evaluation.partial_sum_exact(lib.vectors.make_vector(T, coeffs), blocks)

        self.add("partial_sum_exact", f"partial_sum_exact([{_coeff_text(coeffs)}], {blocks})",
                 call, self._exact(self.oracle.partial(coeffs, blocks)))

    def harmonic(self, n) -> None:
        lib = self.lib
        self.add("harmonic", f"harmonic({n})", lambda: lib.evaluation.harmonic(n),
                 self._exact(self.oracle.harmonic(n)))

    def gamma_partial(self, n) -> None:
        ref = self.oracle.harmonic(n) - self.oracle.ln(n)
        lib, oracle = self.lib, self.oracle

        def check(result):
            if result.n != n:
                return math.inf, f"result is for n={result.n}"
            return _within(oracle.distance(result.value, ref), 1e-25)

        self.add("gamma_partial", f"gamma_partial({n})", lambda: lib.evaluation.gamma_partial(n),
                 check)

    def rearranged_terms(self, T, n) -> None:
        expected = rearranged_stream(T, n)
        lib = self.lib

        def check(terms):
            if list(terms) != expected:
                return math.inf, "terms differ from the rearranged stream"
            return 0.0, None

        self.add("rearranged_terms", f"rearranged_terms({T}, {n})",
                 lambda: lib.evaluation.rearranged_terms(T, n), check)

    def divisor_relations(self, T) -> None:
        lib = self.lib
        self.add("divisor_relations", f"divisor_relations({T})",
                 lambda: lib.relations.divisor_relations(T),
                 lambda basis: self._check_relations(T, basis.family_size, basis.vectors))

    def _check_relations(self, T, family_size, relations) -> tuple[float, str | None]:
        """Relations recombine to zero, and each witness sums to zero."""
        family = divisor_family(T)
        if family_size != len(family):
            return math.inf, f"family size {family_size}, expected {len(family)}"
        if not relations:
            return math.inf, "no relations"
        problem = check_kernel_basis(relations, T, complete=False)
        if problem:
            return math.inf, problem
        worst = 0.0
        for rel in relations:
            witness = recombine([0] * (T - 1) + list(rel[T - 1:]), family)
            worst = max(worst, abs(float(self.oracle.series(witness))))
        return _within(worst, _ZERO_TOL)

    def kernel(self, T) -> None:
        lib = self.lib

        def call():
            return lib.relations.kernel(lib.relations.divisor_family(T))

        def check(basis):
            problem = check_kernel_basis(basis.vectors, T, complete=True)
            return (math.inf, problem) if problem else (0.0, None)

        self.add("kernel", f"kernel(divisor_family({T}))", call, check)

    def integral_series_check(self, T, j, tol) -> None:
        coeffs = [0] * T
        coeffs[j - 1], coeffs[j] = 1, -1
        ref = self.oracle.series(coeffs)
        lib, oracle = self.lib, self.oracle

        def check(result):
            err = max(oracle.distance(result.integral_value, ref),
                      oracle.distance(result.series_value, ref))
            return _within(err, tol)

        self.add("quadrature", f"integral_series_check({T}, {j}, {tol:.0e})",
                 lambda: lib.quadrature.integral_series_check(T, j, tol), check)

    def decomposition_check(self, T, tol) -> None:
        ref = self.oracle.ln(T)
        lib, oracle = self.lib, self.oracle
        self.add("quadrature", f"decomposition_check({T}, {tol:.0e})",
                 lambda: lib.quadrature.decomposition_check(T, tol),
                 lambda value: _within(oracle.distance(value, ref), tol))

    def pi_estimate(self, tol) -> None:
        ref = self.oracle.pi()
        lib, oracle = self.lib, self.oracle
        self.add("quadrature", f"pi_estimate({tol:.0e})",
                 lambda: lib.quadrature.pi_estimate(tol),
                 lambda value: _within(oracle.distance(value, ref), tol))

    # -- CLI requests -----------------------------------------------------

    def cli(self, argv: list[str], check_payload) -> None:
        lib = self.lib

        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = lib.cli.run(argv)
            if code:
                raise CliExit(f"exit {code}: {err.getvalue().strip()}")
            return out.getvalue()

        def check(stdout):
            try:
                payload = json.loads(stdout)
            except json.JSONDecodeError as exc:
                return math.inf, f"stdout is not JSON: {exc}"
            return check_payload(payload)

        self.add(f"cli.{argv[0]}", "logser " + " ".join(argv), call, check, via_cli=True)

    def cli_value(self, argv, ref, tol, bits=MIN_BITS) -> None:
        oracle = self.oracle
        rounding = 2.0**-52 * abs(float(ref))

        def check(payload):
            err, problem = _within(oracle.distance(payload["value"], ref, bits), tol)
            if problem and err <= rounding + tol:
                problem += ", the printed value carries only double precision"
            return err, problem

        self.cli(argv, check)

    def cli_relations(self, T) -> None:
        oracle = self.oracle

        def check(payload):
            rels = [[Fraction(c) for c in e["relation"]] for e in payload["relations"]]
            if payload["relation_count"] != len(rels):
                return math.inf, "relation_count disagrees with the relation list"
            if not all(e["verified_zero"] for e in payload["relations"]):
                return math.inf, "a witness is reported as not verified"
            err, problem = self._check_relations(T, payload["family_size"], rels)
            if problem:
                return err, problem
            for entry in payload["relations"]:
                coeffs = [Fraction(c) for c in entry["witness_coeffs"]]
                err = max(err, abs(float(oracle.series(coeffs))))
            return _within(err, _ZERO_TOL)

        self.cli(["relations", "--T", str(T)], check)

    def cli_rearranged(self, T, n) -> None:
        expected = rearranged_stream(T, n)
        total = sum(expected, Fraction(0))

        def check(payload):
            if Fraction(payload["partial_sum"]) != total:
                return math.inf, "partial_sum differs from the exact sum"
            if [Fraction(t) for t in payload["terms"]] != expected:
                return math.inf, "terms differ from the rearranged stream"
            return 0.0, None

        self.cli(["rearranged", "--T", str(T), "--n", str(n)], check)


def rearranged_stream(T: int, n: int) -> list[Fraction]:
    """1/(kT+1), ..., 1/(kT+T), -1/(k+1) for k = 0, 1, ..., cut at n terms."""
    out = []
    k = 0
    while len(out) < n:
        out.extend(Fraction(1, k * T + j) for j in range(1, T + 1))
        out.append(Fraction(-1, k + 1))
        k += 1
    return out[:n]


# ----------------------------------------------------------------------
# the grids
# ----------------------------------------------------------------------


def _light(b: _Cycle, *layers: str) -> None:
    """One small request per layer that the workload's own grid leaves idle.

    Every layer then runs on every workload, so a change that slows a
    layer shows even where the layer is light.  These take about 1 % of a
    cycle's time.
    """
    for layer in layers:
        if layer == "prefix":
            b.evaluate_ln(2, 1e-3, "accelerated", prefix_blocks=2)
        elif layer == "float":
            b.partial_sum_float(ln_coeffs(2), 100)
        elif layer == "harmonic":
            b.gamma_partial(200)
            b.rearranged_terms(2, 30)
        elif layer == "relations":
            b.divisor_relations(4)
            b.kernel(4)
        elif layer == "quadrature":
            b.decomposition_check(3, 1e-8)


def _accel(b: _Cycle) -> None:
    o = b.oracle

    # CLI value requests take the accuracies 1e-9 ... 1e-20 in turn, in grid
    # order and not from the seed, so the same ones meet the
    # cli-double-precision defect in every run.
    cli_exponents = itertools.cycle(range(9, 21))

    def cli_value(argv, ref_at):
        eps = 10.0 ** -next(cli_exponents)
        b.cli_value([*argv, "--abs-err", repr(eps)], ref_at(bits_for(eps)), eps, bits_for(eps))

    for T in range(2, 25):
        b.evaluate_ln(T, b.eps(8, 20), "accelerated")
    # past the fixed Euler-Maclaurin order, so the level/k0 growth loop runs
    for T in (2, 3):
        b.evaluate_ln(T, 1e-30, "accelerated")
    for M, L in LN_RATIOS:
        b.evaluate_lnq(M, L, b.eps(8, 20), "accelerated")
    for _ in range(18):
        b.evaluate_coeffs([1, -1, 0], b.eps(8, 20), "accelerated")
    for T in [*range(3, 9)] * 4:
        b.evaluate_coeffs(random_balanced(b.rng, T), b.eps(8, 20), "accelerated")
    for T in range(2, 10):
        cli_value(["ln", str(T)], lambda bits: o.ln(T, 1, bits))
    for M, L in LN_RATIOS[:3]:
        cli_value(["lnq", f"{M}/{L}"], lambda bits: o.ln(M, L, bits))
    for T in (3, 5, 7, 9, 11, 12):
        coeffs = random_balanced(b.rng, T)
        cli_value(["eval", "--T", str(T), f"--coeffs={_coeff_text(coeffs)}"],
                  lambda bits: o.series(coeffs, bits))
    for _ in range(2):
        eps = b.eps(9, 12, "quadrature")
        b.cli_value(["pi", "--abs-err", repr(eps)], o.pi(), eps)
        b.pi_estimate(b.eps(9, 12, "quadrature"))
    for T in (3, 5, 7, 9, 11, 12):
        b.integral_series_check(T, b.rng.randint(1, T - 1), b.eps(9, 12, "quadrature"))
    for T in (4, 6, 9, 12):
        b.decomposition_check(T, b.eps(10, 12, "quadrature"))
    _light(b, "float", "harmonic", "relations")


def _rigorous(b: _Cycle) -> None:
    o = b.oracle
    composites = composite_moduli(64)
    for T in composites:
        b.divisor_relations(T)
    for T in composites[::4]:
        b.cli_relations(T)
    for T in composites:
        if T <= 32 or T in (48, 64):
            b.kernel(T)
    for T in range(2, 65, 4):
        b.evaluate_ln(T, b.eps(3, 6), "raw")
    for T in (3, 5, 8, 12, 16, 20, 24):
        b.evaluate_coeffs(random_balanced(b.rng, T, 1, rational=True), b.eps(3, 6, "vector"),
                          "raw")
    # ratios whose raw truncation at 1e-6 fits the default block budget
    for M, L in ((3, 2), (5, 3), (7, 5), (5, 7)):
        b.evaluate_lnq(M, L, b.eps(3, 6, "lnq"), "raw")
    for coeffs in (ln_coeffs(3), ln_coeffs(10), ln_coeffs(30),
                   random_balanced(b.rng, 4), random_balanced(b.rng, 8, rational=True),
                   random_balanced(b.rng, 12)):
        b.partial_sum_float(coeffs, 10 ** b.rng.randint(2, 7))
    for T in [*range(2, 25, 2), *range(3, 14, 2)]:
        coeffs = random_balanced(b.rng, T, 1, rational=T % 3 == 0)
        eps = b.eps(3, 6, "cli")
        b.cli_value(["eval", "--T", str(T), f"--coeffs={_coeff_text(coeffs)}", "--abs-err",
                     repr(eps), "--method", "raw"], o.series(coeffs, bits_for(eps)), eps,
                    bits_for(eps))
    _light(b, "prefix", "harmonic", "quadrature")


def _exact(b: _Cycle) -> None:
    o = b.oracle
    for n in range(1000, 10001, 200):
        b.harmonic(b.jitter(n))
    for n in range(1500, 10000, 1000):
        b.gamma_partial(b.jitter(n))
    for n in range(1000, 10001, 1000):
        n = b.jitter(n)
        b.cli_value(["gamma", "--n", str(n)], o.harmonic(n) - o.ln(n), 1e-15)
    for T, blocks in ((2, 1000), (2, 4000), (3, 1000), (3, 3000), (4, 1000), (4, 2500),
                      (5, 1000), (5, 2000)):
        coeffs = ln_coeffs(T) if T < 4 else random_balanced(b.rng, T)
        b.partial_sum_exact(coeffs, b.jitter(blocks))
    for T in range(2, 8):
        for n in (3000, 9000):
            b.rearranged_terms(T, b.jitter(n))
        for n in (150, 400):
            b.cli_rearranged(T, b.jitter(n))
    _light(b, "prefix", "float", "relations", "quadrature")


_GRIDS = {"accel": _accel, "rigorous": _rigorous, "exact": _exact}


def build(workload: str, seed: int, lib, oracle: Oracle) -> list[Request]:
    """One cycle of the workload, in seed-shuffled order."""
    rng = random.Random(f"{workload}:{seed}")
    cycle = _Cycle(lib, oracle, rng)
    _GRIDS[workload](cycle)
    rng.shuffle(cycle.requests)
    return cycle.requests
