"""Command-line surface: `logser <subcommand> ...`.

Every library capability is reachable from here with machine-readable
output: JSON (default) or text, and CSV tables from `bench`.  Every
subcommand but `relations` and `bench` prints one value payload, built
by `_cmd_value`: command, inputs, value, precision, error_bound,
bound_is_heuristic, blocks_used, the subcommand's extra fields, then
wall_time_micros, which times the library calls alone.  Rationals
cross as "p/q" strings and reals as decimal strings with a precision
field, so goldens never depend on binary float formatting.  precision
is three digits past abs_err's place, at least 17, plus one for each
digit of |value| before the point past the first.  error_bound covers
the printed digits: it is the reading's bound plus the exact distance
|printed - value|, the digits read back as integers by _printed, rounded
up once by evaluation._float_upper.  No reading counts a kernel error of
its own: each takes the bound that evaluation hands out with its pair,
and adds only what it does past the pair.  Reals are printed from
integers by _decimal: each reading holds its value as (m, e), the exact
m 2^e (the kernel's value as evaluation hands it out, already rounded
to prec bits, or a double read through as_integer_ratio), and the
digits come from the rule mpmath's to_str applies, ported to integers.
No mpmath context is read or set, so concurrent calls print what
single calls print.  ln, lnq, eval, gamma
and relations take the pairs of _evaluate, _gamma_partial and
verify_zero's unread result as they come, pi and integral-check take
doubles that quadrature reads off _evaluate's pair, and rearranged sums
exactly, so none of them imports mpmath, and nor do bench's rows, which
read the pairs of evaluation._partial, or bench's pi reference, math.pi.
mpmath is imported by the ln and vector references that decompose and
bench take (_ln_float, _bench_target), not with this module.  So are
`quadrature` (by pi, integral-check, decompose and bench) and
`relations` (by relations) in the handlers that use them, argparse
in _parsers and _parse, and json by the first payload printed
(_cmd_value, _cmd_relations): importing this module loads none of them.
ConvergenceRow is a vectors._Record and _Reading a plain class, so
dataclasses is not imported either.

`bench` prints one CSV row per method and work, and each row is one
library call.  A raw, accelerated or rearranged row is one
evaluation._partial sum at _working_prec(inf, vec), the precision that
the target's weights set, or at the precision ceiling where they pass
it, and its value and bound are exact, the kernel's allowance included.
A quadrature row is one quadrature._fixed_panel call, which owns its
rule and its step to the next panel count, and its bound is a heuristic
estimate.  `bench` scales each value to the target and charges the
printed double's rounding in one place: the exact distance to the
printed double, or for pi the argument of quadrature._pi_bound, which
the pi reading shares, and for a quadrature row 1e-15 (1 + |value|).

Exit codes: 0 success, 1 domain error (for example unbalanced
coefficients) or a standard output closed before the payload was
written (`logser ... | head -c 1`), 2 usage error.  `--method raw`
reaches every abs_err that the precision ceiling admits, at a cost that
does not grow with its truncation.

`run` hands a known subcommand's arguments straight to its own parser
and everything else to the top-level one, with the top-level parser's
messages and exit codes (see _parse).  JSON is printed by
json.dumps(payload), the standard library's C encoder: one line, with
", " and ": " separators and ASCII escapes.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction

from .errors import SeriesError, Unachievable
from .evaluation import (
    _MAX_PREC,
    _double,
    _evaluate,
    _float_upper,
    _gamma_partial,
    _harmonic_range,
    _partial,
    _round,
    _truncation,
    _working_prec,
    rearranged_terms,
)
from .vectors import _difference_vector, _Record, ln_rational_vector, ln_vector, make_vector

CSV_HEADER = "method,work,value,error_bound,abs_error_vs_reference,wall_time_micros"

_BENCH_METHODS = ("raw", "accelerated", "rearranged", "quadrature")
_BENCH_RUNS = 3
_DOUBLE_MAX = int(sys.float_info.max)


class ConvergenceRow(_Record):
    """One benchmark measurement: method and work versus accuracy."""

    method: str
    work: int
    value: float
    error_bound: float
    abs_error_vs_reference: float
    wall_time_micros: int

    def __init__(self, method: str, work: int, value: float, error_bound: float,
                 abs_error_vs_reference: float, wall_time_micros: int) -> None:
        vars(self).update(method=method, work=work, value=value, error_bound=error_bound,
                          abs_error_vs_reference=abs_error_vs_reference,
                          wall_time_micros=wall_time_micros)

    def as_csv(self) -> str:
        return (
            f"{self.method},{self.work},{self.value!r},{self.error_bound!r},"
            f"{self.abs_error_vs_reference!r},{self.wall_time_micros}"
        )


def _digits_for(abs_err: float, value: float) -> int:
    # three digits past abs_err's place, at least 17, and one more for each
    # digit of |value| before the decimal point past the first
    magnitude = abs(value)
    extra = max(0, math.floor(math.log10(magnitude))) if magnitude else 0
    if abs_err <= 0 or math.isinf(abs_err):
        return 17 + extra
    return max(17, int(math.ceil(-math.log10(abs_err))) + 3) + extra


def _binary(x: float) -> tuple[int, int]:
    """A double as (m, e), its exact value m 2^e."""
    m, den = x.as_integer_ratio()
    return m, 1 - den.bit_length()


def _decimal(man: int, exp: int, digits: int) -> str:
    """man 2^exp as a decimal string of at most `digits` significant digits.

    The rule is the one mpmath's to_str applies, ported to integers.  The
    value is first rounded to nearest at ceil(digits log2 10) + 16 bits,
    enough for every printed digit.  to_str then floors it to digits + 3
    or more digits and rounds up on the digit after the first `digits`:
    that is round half up at `digits` significant digits, with the
    leading digit's exponent point = floor(log10 |value|).  For
    min(-(digits // 3), -5) < point < digits the digits print in fixed
    form (0.000ddd, or d.ddd with the point inside), else as d.ddde+N or
    d.ddde-N.  Trailing zeros are stripped, keeping one after the point,
    and zero prints as 0.0.  The rule holds while |log2 |value|| <= 3500,
    past which to_str divides by a power of ten in floating point; no
    value printed here comes near that.
    """
    m, e = _round(man, exp, math.ceil(digits * math.log2(10)) + 16)
    if not m:
        return "0.0"
    sign, m = ("-" if m < 0 else ""), abs(m)
    # 2^(b-1) <= value < 2^b puts the leading digit's exponent at low or
    # low + 1, so value 10^shift, floored, keeps digits + 1 or + 2 digits
    low = math.floor((m.bit_length() + e - 1) * math.log10(2))
    shift = digits - low
    if shift >= 0:
        m *= 10**shift
        floored = m << e if e >= 0 else m >> -e
    else:
        floored = (m << e) // 10**-shift if e >= 0 else m // (10**-shift << -e)
    point = len(str(floored)) - 1 - shift
    # round half up on the first digit past `digits`
    kept, next_digit = divmod(floored if point == low else floored // 10, 10)
    kept += next_digit >= 5
    text = str(kept)
    if len(text) > digits:  # rounding carried into a new digit
        text, point = text[:digits], point + 1
    if min(-(digits // 3), -5) < point < digits:
        if point < 0:
            text = "0." + "0" * (-point - 1) + text
        else:
            text = text[: point + 1] + "." + text[point + 1 :]
        suffix = ""
    else:
        text = text[0] + "." + text[1:]
        suffix = f"e+{point}" if point >= 0 else f"e{point}"
    text = text.rstrip("0")
    if text.endswith("."):
        text += "0"
    return sign + text + suffix


def _real(x: float, digits: int) -> str:
    return _decimal(*_binary(x), digits)


def _ln_float(n: int) -> float:
    """ln n as the nearest double, from mpmath at 120 bits."""
    from mpmath import libmp

    # a reference, from mpmath and not the kernel.  mpf_log reads mpmath's
    # memo of ln 2, which stores a new value before its precision; a read
    # between the two stores takes ln 2 shifted by a power of two.  Only
    # this request's displayed reference would be off: nothing is kept.
    # Round to nearest, as float(mpf) does; to_float's default round_fast may not
    raw = libmp.mpf_log(libmp.from_int(n), 120, libmp.round_nearest)
    return libmp.to_float(raw, rnd=libmp.round_nearest)


def _parse_coeffs(raw: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in raw.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise SeriesError(f"cannot parse coefficient list {raw!r}: {exc}") from exc


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------


def _timed(fn, *args, **kwargs):
    start = time.perf_counter_ns()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter_ns() - start) // 1000


def _eval_vector(args):
    vec = make_vector(args.T, _parse_coeffs(args.coeffs))
    return vec, {"T": args.T, "coeffs": [str(c) for c in vec.coeffs]}


def _ln_vector(args):
    return ln_vector(args.T), {"T": args.T}


def _lnq_vector(args):
    top, slash, bottom = args.ratio.partition("/")
    try:
        top, bottom = int(top), int(bottom) if slash else 1
    except ValueError:
        raise SeriesError(f"expected M/L with positive integers, got {args.ratio!r}") from None
    vec = ln_rational_vector(top, bottom)
    return vec, {"M": top, "L": bottom, "modulus": vec.modulus}


class _Reading:
    """What one value subcommand computed; `_cmd_value` prints it.

    `value` is (m, e), the exact value m 2^e that is printed,
    `error_bound` an exact float or Fraction, `micros` times the library
    calls alone, and `extras` holds the subcommand's own fields.
    """

    def __init__(self, inputs: dict, value: tuple[int, int], digits: int,
                 error_bound: float | Fraction, bound_is_heuristic: bool, micros: int,
                 blocks_used: int = 0, extras: dict | None = None) -> None:
        vars(self).update(inputs=inputs, value=value, digits=digits, error_bound=error_bound,
                          bound_is_heuristic=bound_is_heuristic, micros=micros,
                          blocks_used=blocks_used, extras={} if extras is None else extras)


def _read_series(args) -> _Reading:
    """eval, ln and lnq: evaluate the vector that `args.vector` builds."""
    vec, inputs = args.vector(args)
    (value, bound, blocks), micros = _timed(_evaluate, vec, args.abs_err, args.method)
    return _Reading(
        inputs={**inputs, "abs_err": repr(args.abs_err), "method": args.method},
        value=value, digits=_digits_for(args.abs_err, _double(value)),
        error_bound=bound, bound_is_heuristic=False, micros=micros, blocks_used=blocks,
    )


def _read_pi(args) -> _Reading:
    from . import quadrature

    (value, series), micros = _timed(quadrature.pi_with_series, args.abs_err)
    digits = _digits_for(args.abs_err, value)
    return _Reading(
        inputs={"abs_err": repr(args.abs_err)}, value=_binary(value), digits=digits,
        error_bound=quadrature._pi_bound(value, series.error_bound), bound_is_heuristic=False,
        micros=micros, blocks_used=series.blocks_used,
        extras={"arctan_cross_check": _real(quadrature.pi_arctan(), digits)},
    )


def _read_gamma(args) -> _Reading:
    (value, (bn, bd)), micros = _timed(_gamma_partial, args.n)
    # distance to the limit: the steps A_n - A_{n+1} lie in (0, 1/(n(n+1)))
    # and telescope to at most 1/n, plus the kernel's proved bn/bd
    return _Reading(
        inputs={"n": args.n}, value=value, digits=17,
        error_bound=Fraction(bd + bn * args.n, args.n * bd),
        bound_is_heuristic=False, micros=micros,
    )


def _read_integral_check(args) -> _Reading:
    from . import quadrature

    check, micros = _timed(quadrature.integral_series_check, args.T, args.j, args.tol)
    digits = _digits_for(args.tol, check.integral_value)
    return _Reading(
        inputs={"T": args.T, "j": args.j, "tol": repr(args.tol)},
        value=_binary(check.integral_value), digits=digits,
        error_bound=check.tolerance, bound_is_heuristic=True, micros=micros,
        extras={
            "series_value": _real(check.series_value, digits),
            "discrepancy": repr(check.discrepancy),
            "tolerance": repr(check.tolerance),
        },
    )


def _read_decompose(args) -> _Reading:
    from . import quadrature

    value, micros = _timed(quadrature.decomposition_check, args.T, args.tol)
    digits = _digits_for(args.tol, value)
    reference = _ln_float(args.T)
    return _Reading(
        inputs={"T": args.T, "tol": repr(args.tol)}, value=_binary(value), digits=digits,
        error_bound=args.tol, bound_is_heuristic=True, micros=micros,
        extras={
            "reference_log": _real(reference, digits),
            "abs_error_vs_reference": repr(abs(value - reference)),
        },
    )


def _read_rearranged(args) -> _Reading:
    terms, micros = _timed(rearranged_terms, args.T, args.n)
    # whole groups of T + 1 terms are blocks of ln_vector(T), which sum to
    # H_{cT} - H_c; the r <= T leftover terms 1/(cT + j) extend H_{cT}, so
    # the partial sum is 1/(c+1) + ... + 1/(cT+r), one unit-weight range,
    # summed over the denominators prime to 6
    c, r = divmod(args.n, args.T + 1)
    total, sum_micros = _timed(_harmonic_range, c, c * args.T + r)
    value = float(total)
    return _Reading(
        inputs={"T": args.T, "n": args.n}, value=_binary(value),
        digits=_digits_for(math.inf, value),
        # the partial sum itself is exact; float() rounds it to nearest
        error_bound=Fraction(abs(value)) / 2**53, bound_is_heuristic=False,
        micros=micros + sum_micros, blocks_used=c,
        extras={
            # Decimal prints integers of any length; str(int) stops at 4300 digits
            "partial_sum": f"{Decimal(total.numerator)}/{Decimal(total.denominator)}",
            "terms": [f"{t.numerator}/{t.denominator}" for t in terms],
        },
    )


def _printed(text: str) -> tuple[int, int]:
    """(p, q), q > 0: the exact value p/q of a decimal string that _decimal prints."""
    mantissa, _, exponent = text.partition("e")
    whole, _, decimals = mantissa.partition(".")
    power = int(exponent or 0) - len(decimals)
    return int(whole + decimals) * 10**max(power, 0), 10**max(-power, 0)


def _cmd_value(args) -> int:
    """Every value subcommand: print the reading that `args.reading` takes."""
    reading = args.reading(args)
    text = _decimal(*reading.value, reading.digits)
    # the reading's bound n/d plus the exact |p/q - m 2^e| of the printed
    # digits, rounded up once; e <= 0 for a double and for a kernel pair, whose
    # prec passes |value|'s bits.  Only a heuristic float tolerance can be inf,
    # which is n/d = 1/0
    (p, q), (m, e), bound = _printed(text), reading.value, reading.error_bound
    charge, unit = abs((p << -e) - q * m), q << -e
    n, d = (1, 0) if reading.bound_is_heuristic and math.isinf(bound) else bound.as_integer_ratio()
    payload = {
        "command": args.command,
        "inputs": reading.inputs,
        "value": text,
        "precision": reading.digits,
        "error_bound": repr(_float_upper(n * unit + charge * d, d * unit)),
        "bound_is_heuristic": reading.bound_is_heuristic,
        "blocks_used": reading.blocks_used,
        **reading.extras,
        "wall_time_micros": reading.micros,
    }
    if args.format == "json":
        import json

        print(json.dumps(payload))
        return 0
    inputs = ", ".join(f"{k}={v}" for k, v in reading.inputs.items())
    kind = "heuristic" if reading.bound_is_heuristic else "rigorous"
    print(
        f"{args.command} ({inputs}) = {payload['value']} "
        f"+- {payload['error_bound']} ({kind}) [{reading.blocks_used} blocks]"
    )
    for key, value in reading.extras.items():
        print(f"  {key}: {value}")
    return 0


def _cmd_relations(args) -> int:
    from . import relations

    (basis, checks), micros = _timed(relations._checked_relations, args.T)
    entries = []
    for rel, (witness, (ok, result)) in zip(basis.vectors, checks):
        entries.append(
            {
                "relation": [str(c) for c in rel],
                "witness_modulus": witness.modulus,
                # every checked witness has scale 1, so its weights are its coefficients
                "witness_coeffs": [str(w) for w in witness.weights],
                # the pair verify_zero's result holds until its value is read
                "witness_value": _decimal(*result._value, 17),
                "witness_bound": repr(result.error_bound),
                "verified_zero": ok,
            }
        )
    payload = {
        "command": "relations",
        "inputs": {"T": args.T},
        "family_size": basis.family_size,
        "relation_count": len(basis.vectors),
        "relations": entries,
        "wall_time_micros": micros,
    }
    if args.format == "json":
        import json

        print(json.dumps(payload))
    else:
        print(
            f"relations (T={args.T}) found {len(entries)} over a family of "
            f"{basis.family_size}"
        )
        for entry in entries:
            coeffs = ", ".join(entry["witness_coeffs"])
            print(
                f"  zero series ({coeffs}) value={entry['witness_value']} "
                f"verified={entry['verified_zero']}"
            )
    return 0


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------


def _bench_target(target: str):
    """Returns (vector, scale, reference, kind).

    pi's reference is math.pi, the double nearest pi, and its scale
    3 sqrt 3 the double that quadrature.pi_with_series multiplies by, so
    a pi target loads no mpmath.  The ln and vector references come from
    mpmath, not the kernel they check.  mpmath's memos of pi and ln 2,
    which mpf_log and mpf_psi0 read, store a new value before its
    precision, so a read from another thread between the two stores takes
    the constant shifted by a power of two.  Only this request's reference
    would be off: nothing is kept.
    """
    if target == "pi":
        from . import quadrature

        return _difference_vector(3, 1), quadrature._PI_SCALE, math.pi, "pi"
    match = re.fullmatch(r"ln:([+-]?\d+)|vector:([+-]?\d+):(.+)", target)
    if match is None:
        raise SeriesError(f"unknown bench target {target!r}; use ln:T, pi, or vector:T:c1,...")
    ln_T, T, coeffs = match.groups()
    if ln_T is not None:
        # build the vector first: it rejects T < 1, where ln is complex
        vec = ln_vector(int(ln_T))
        return vec, 1.0, _ln_float(vec.modulus), "ln"
    from mpmath import libmp

    vec = make_vector(int(T), _parse_coeffs(coeffs))
    # every row is a double, and a quadrature panel's partial sums reach twice
    # the coordinates' absolute sum: keep four times that sum in range
    if 4 * sum(map(abs, itertools.accumulate(vec.weights[:-1]))) > _DOUBLE_MAX * vec.scale:
        raise SeriesError(
            "the vector target's difference-basis coordinates pass the double "
            "range, and every bench row is a double"
        )
    # Gauss's digamma theorem, S = -(1/T) sum_j a_j psi(j/T), by mpmath
    # at 140 bits: no code of logser's own evaluation runs
    total = libmp.fzero
    for j, w in enumerate(vec.weights, 1):
        psi = libmp.mpf_psi0(libmp.from_rational(j, vec.modulus, 140), 140)
        total = libmp.mpf_add(total, libmp.mpf_mul(libmp.from_int(w), psi), 140)
    total = libmp.mpf_div(total, libmp.from_int(-vec.modulus * vec.scale), 140)
    return vec, 1.0, libmp.to_float(total, rnd=libmp.round_nearest), "vector"


def _bench_value(method, work, vec):
    """(value, error bound) of one bench row, before scaling and rounding.

    Each row is one library call.  A quadrature row is
    quadrature._fixed_panel's two doubles, its value and the heuristic
    estimate of its error.  A raw, accelerated or rearranged row is one
    _partial sum at _working_prec(inf, vec), the precision that the
    weights set, or at the ceiling where they pass it: _partial's
    allowance grows with the weights, so its bound stays rigorous.  It
    gives two Fractions: the exact value of its pair, with any leftover
    terms, and the exact sum of its bound's parts.  An accelerated row
    is the whole series with its allowance alone, so it ignores work.
    raw sums c = max(2, work) blocks, with the allowance and the
    truncation after them.  A rearranged row of `work` terms is c whole
    groups of T + 1 terms, which are blocks of vec = ln_vector(T), and r
    leftover terms 1/(cT + j), which extend H_{cT}: the kernel's c blocks
    and their bound as raw's, plus H_{cT+r} - H_{cT} summed exactly, and
    the charge for the block that the truncation skips or that the
    leftover terms leave.
    """
    if method == "quadrature":
        from . import quadrature

        return quadrature._fixed_panel(vec, work)
    try:
        prec = _working_prec(math.inf, vec)
    except Unachievable:
        prec = _MAX_PREC
    if method == "accelerated":
        (m, e), (n, d) = _partial(vec, None, prec)
        return m * Fraction(2) ** e, Fraction(n, d)
    T = vec.modulus
    c, r = (max(2, work), 0) if method == "raw" else divmod(work, T + 1)
    (m, e), (n, d) = _partial(vec, c, prec)
    bound = Fraction(n, d) + Fraction(*_truncation(vec, max(2, c)))
    if c < 2 or r:
        # the truncation starts at two blocks, so the skipped ones are charged
        # whole; the terms of partial block c sum to less than 2(T+1)/(cT)
        bound += 2 * (Fraction(math.log(T + 1)) + 2) if c < 2 else Fraction(2 * (T + 1), c * T)
    return m * Fraction(2) ** e + _harmonic_range(c * T, c * T + r), bound


def bench(target: str, methods: list[str], work_schedule: list[int]) -> list[ConvergenceRow]:
    """One ConvergenceRow per (method, work) pair, in schedule order.

    Each row is _bench_value's one library call, made three times;
    wall_time_micros is the fastest of the three.  Every row's value is
    scaled to the target and rounded to a double in one place, which
    charges that rounding to its error_bound.  A raw, accelerated or
    rearranged row's error_bound is the exact sum of its parts rounded
    up once: _partial's allowance and any truncation from _bench_value,
    and the exact |value - x| of the double nearest its exact x, or for
    pi the argument of quadrature._pi_bound.  A quadrature row's stays
    heuristic.
    """
    if not methods:
        raise SeriesError("need at least one method")
    if not work_schedule or any(w < 1 for w in work_schedule):
        raise SeriesError("work schedule must be positive integers")
    for method in methods:
        if method not in _BENCH_METHODS:
            raise SeriesError(
                f"unknown method {method!r}; choose from {', '.join(_BENCH_METHODS)}"
            )
    vec, scale, reference, kind = _bench_target(target)
    if kind == "pi":
        from .quadrature import _pi_bound
    rows = []
    for method in methods:
        if method == "rearranged" and kind != "ln":
            raise SeriesError("rearranged benches only apply to ln:T targets")
        for work in work_schedule:
            # the first run of a row pays cold caches; report the fastest
            runs = [_timed(_bench_value, method, work, vec) for _ in range(_BENCH_RUNS)]
            x, b = runs[0][0]
            value = scale * float(x)
            # an exact x is charged its exact distance to its double, or pi's
            # 3 sqrt(3) argument.  A quadrature x is a double near the series
            # and value = fl(c' x), where c' is 1, or for pi quadrature's
            # _PI_SCALE, within 2.01u of c = 3 sqrt 3 (u = 2^-53), and c' b falls
            # at most 3.01u short of c b; 1e-15 (1 + |value|) covers both while
            # b estimates x's error
            bound = (Fraction(scale) * Fraction(b) + Fraction(1e-15) * (1 + Fraction(abs(value)))
                     if method == "quadrature" else _pi_bound(value, b) if kind == "pi"
                     else b + abs(Fraction(value) - x))
            rows.append(ConvergenceRow(method, work, value,
                                       _float_upper(bound.numerator, bound.denominator),
                                       abs(value - reference), min(m for _, m in runs)))
    return rows


def _cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    schedule = [int(w) for w in args.work.split(",") if w.strip()]
    rows = bench(args.target, methods, schedule)
    print(CSV_HEADER)
    for row in rows:
        print(row.as_csv())
    return 0


# ----------------------------------------------------------------------
# parser and entry point
# ----------------------------------------------------------------------


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="logser",
        description=(
            "Natural logarithms, pi and the Euler-Mascheroni partials via "
            "balanced cyclic harmonic series, with exact rational algebra."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    add = commands.add_parser
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json")
    err = argparse.ArgumentParser(add_help=False, parents=[fmt])
    err.add_argument("--abs-err", type=float, default=1e-9)
    series = argparse.ArgumentParser(add_help=False, parents=[err])
    series.add_argument("--method", choices=("raw", "accelerated"), default="accelerated")

    p = add("eval", parents=[series], help="evaluate a coefficient vector")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--coeffs", type=str, required=True)
    p.set_defaults(handler=_cmd_value, reading=_read_series, vector=_eval_vector)

    p = add("ln", parents=[series], help="ln of a natural number")
    p.add_argument("T", type=int)
    p.set_defaults(handler=_cmd_value, reading=_read_series, vector=_ln_vector)

    p = add("lnq", parents=[series], help="ln of a positive rational M/L")
    p.add_argument("ratio", type=str, metavar="M/L")
    p.set_defaults(handler=_cmd_value, reading=_read_series, vector=_lnq_vector)

    p = add("pi", parents=[err], help="pi from the modulus-3 difference series")
    p.set_defaults(handler=_cmd_value, reading=_read_pi)

    p = add("gamma", parents=[fmt], help="partial H_n - ln n of the Euler-Mascheroni limit")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_value, reading=_read_gamma)

    p = add("integral-check", parents=[fmt], help="integral vs series agreement")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_value, reading=_read_integral_check)

    p = add("decompose", parents=[fmt], help="rebuild ln T from weighted integrals")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(handler=_cmd_value, reading=_read_decompose)

    p = add("relations", parents=[fmt], help="zero-series relations for a composite modulus")
    p.add_argument("--T", type=int, required=True)
    p.set_defaults(handler=_cmd_relations)

    p = add("rearranged", parents=[fmt], help="terms of the rearranged stream")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_value, reading=_read_rearranged)

    p = add("bench", help="convergence benchmark (CSV to stdout)")
    p.add_argument("--target", type=str, required=True, metavar="ln:T|pi|vector:T:c1,...")
    p.add_argument("--methods", type=str, required=True)
    p.add_argument("--work", type=str, required=True)
    p.set_defaults(handler=_cmd_bench)

    return parser, commands.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """What the top-level parser's parse_args(argv) returns, or raises.

    A known subcommand's own parser takes the rest of argv, as the
    top-level parser would hand it over, and leftovers go to the
    top-level error, so output and exit codes are the same; anything
    else (no arguments, --help, an unknown command) goes to the
    top-level parser.
    """
    import argparse

    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    return args


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (SeriesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """The console script: run(), with a reader that closes the pipe early.

    A closed stdout (`logser ... | head -c 1`) exits 1 with no traceback.
    stdout then points at os.devnull, so the interpreter's final flush
    cannot raise again (the recipe in the Python signal docs).
    """
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
