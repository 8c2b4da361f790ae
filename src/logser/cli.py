"""Command-line surface: `logser <subcommand> ...`.

Every library capability is reachable from here with machine-readable
output: JSON (default) or text, and CSV tables from `bench`.  Every
subcommand but `relations` and `bench` prints one value payload, built
by `_cmd_value`: command, inputs, value, precision, error_bound,
bound_is_heuristic, blocks_used, the subcommand's extra fields, then
wall_time_micros, which times the library calls alone.  Rationals
cross as "p/q" strings and reals as decimal strings with a precision
field, so goldens never depend on binary float formatting.  Reals are
rounded by mpmath.libmp at explicit precisions; no mpmath context is
read or set, so concurrent calls print what single calls print.

Exit codes: 0 success, 1 domain error (for example unbalanced
coefficients), 2 usage error.  `--method raw` reaches every abs_err
that the precision ceiling admits, at a cost that does not grow with
its truncation.

`run` hands a known subcommand's arguments straight to its own parser
and everything else to the top-level one, with the top-level parser's
messages and exit codes (see _parse).  JSON is printed by
_indented_json, the bytes of json.dumps(payload, indent=2) without its
pure-Python encoder.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import mpmath
from mpmath import libmp

from . import quadrature, relations
from .errors import SeriesError
from .evaluation import (
    _weighted_harmonic,
    evaluate,
    gamma_partial,
    partial_sum_float,
    rearranged_terms,
    tail_bound,
)
from .vectors import ln_rational_vector, ln_vector, make_vector

CSV_HEADER = "method,work,value,error_bound,abs_error_vs_reference,wall_time_micros"

_BENCH_METHODS = ("raw", "accelerated", "rearranged", "quadrature")
_BENCH_RUNS = 3


@dataclass(frozen=True)
class ConvergenceRow:
    """One benchmark measurement: method and work versus accuracy."""

    method: str
    work: int
    value: float
    error_bound: float
    abs_error_vs_reference: float
    wall_time_micros: int

    def as_csv(self) -> str:
        return (
            f"{self.method},{self.work},{self.value!r},{self.error_bound!r},"
            f"{self.abs_error_vs_reference!r},{self.wall_time_micros}"
        )


def _digits_for(abs_err: float) -> int:
    if abs_err <= 0 or math.isinf(abs_err):
        return 17
    return max(17, int(math.ceil(-math.log10(abs_err))) + 3)


def _real(value, digits: int) -> str:
    # round to enough bits for every printed digit, not mpmath's default 53
    raw = value._mpf_ if isinstance(value, mpmath.mpf) else libmp.from_float(value)
    bits = math.ceil(digits * math.log2(10)) + 16
    return libmp.to_str(libmp.mpf_pos(raw, bits, libmp.round_nearest), digits)


def _ln_float(n: int, prec: int) -> float:
    # a reference, from mpmath and not the kernel.  mpf_log's ln 2 memo has
    # the window evaluation._ln_fixed describes; nothing read in it is kept.
    # Round to nearest, as float(mpf) does; to_float's default round_fast may not
    raw = libmp.mpf_log(libmp.from_int(n), prec, libmp.round_nearest)
    return libmp.to_float(raw, rnd=libmp.round_nearest)


def _parse_coeffs(raw: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in raw.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise SeriesError(f"cannot parse coefficient list {raw!r}: {exc}") from exc


def _indented_json(obj, indent: str = "") -> str:
    """Exactly what json.dumps(obj, indent=2) prints, for the payload types.

    dumps falls back to json's pure-Python encoder whenever it indents;
    this prints the same bytes for dicts with str keys, lists, str, int
    and bool, and raises TypeError on any other type.
    """
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is bool:
        return "true" if obj else "false"
    if type(obj) is int:
        return int.__repr__(obj)
    inner = indent + "  "
    if type(obj) is dict:
        items = [
            f"{encode_basestring_ascii(k)}: {_indented_json(v, inner)}"
            for k, v in obj.items()
        ]
        brackets = "{}"
    elif type(obj) is list:
        # the long lists are of strings, which then take no call each
        items = [
            encode_basestring_ascii(v) if type(v) is str else _indented_json(v, inner)
            for v in obj
        ]
        brackets = "[]"
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")
    if not items:
        return brackets
    body = f",\n{inner}".join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


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


@dataclass
class _Reading:
    """What one value subcommand computed; `_cmd_value` prints it.

    `micros` times the library calls alone, and `extras` holds the
    subcommand's own fields, already rendered.
    """

    inputs: dict
    value: mpmath.mpf | float
    digits: int
    error_bound: float
    bound_is_heuristic: bool
    micros: int
    blocks_used: int = 0
    extras: dict = field(default_factory=dict)


def _read_series(args) -> _Reading:
    """eval, ln and lnq: evaluate the vector that `args.vector` builds."""
    vec, inputs = args.vector(args)
    result, micros = _timed(evaluate, vec, args.abs_err, args.method)
    return _Reading(
        inputs={**inputs, "abs_err": repr(args.abs_err), "method": args.method},
        value=result.value, digits=_digits_for(args.abs_err),
        error_bound=result.error_bound, bound_is_heuristic=result.bound_is_heuristic,
        micros=micros, blocks_used=result.blocks_used,
    )


def _read_pi(args) -> _Reading:
    (value, series), micros = _timed(quadrature.pi_with_series, args.abs_err)
    digits = _digits_for(args.abs_err)
    # pi = 3 sqrt(3) S exactly, and value = fl(fl(3 fl(sqrt 3)) float(S~))
    # with |S~ - S| <= series.error_bound.  The square root and the two
    # products round to nearest (relative error <= u = 2^-53 each) and the
    # conversion of S~ errs by less than one unit in the last place (2u),
    # so |value - 3 sqrt(3) S~| < 5.01u |value|.  Printing `digits` >= 17
    # significant digits adds at most 0.5e-16 |value| < 0.46u |value|.
    # 5.2 > 3 sqrt(3), and 2^-50 = 8u leaves room for rounding this sum.
    bound = 5.2 * series.error_bound + 2.0**-50 * abs(value)
    return _Reading(
        inputs={"abs_err": repr(args.abs_err)}, value=value, digits=digits,
        error_bound=bound, bound_is_heuristic=False,
        micros=micros, blocks_used=series.blocks_used,
        extras={"arctan_cross_check": _real(quadrature.pi_arctan(), digits)},
    )


def _read_gamma(args) -> _Reading:
    partial, micros = _timed(gamma_partial, args.n)
    # distance to the limit: the steps A_n - A_{n+1} lie in
    # (0, 1/(n(n+1))) and telescope to at most 1/n
    return _Reading(
        inputs={"n": args.n}, value=partial.value, digits=17,
        error_bound=1.0 / args.n, bound_is_heuristic=False, micros=micros,
    )


def _read_integral_check(args) -> _Reading:
    check, micros = _timed(quadrature.integral_series_check, args.T, args.j, args.tol)
    digits = _digits_for(args.tol)
    return _Reading(
        inputs={"T": args.T, "j": args.j, "tol": repr(args.tol)},
        value=check.integral_value, digits=digits,
        error_bound=check.tolerance, bound_is_heuristic=True, micros=micros,
        extras={
            "series_value": _real(check.series_value, digits),
            "discrepancy": repr(check.discrepancy),
            "tolerance": repr(check.tolerance),
        },
    )


def _read_decompose(args) -> _Reading:
    value, micros = _timed(quadrature.decomposition_check, args.T, args.tol)
    digits = _digits_for(args.tol)
    reference = _ln_float(args.T, 96)
    return _Reading(
        inputs={"T": args.T, "tol": repr(args.tol)}, value=value, digits=digits,
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
    # the partial sum is 1/(c+1) + ... + 1/(cT+r)
    c, r = divmod(args.n, args.T + 1)
    total, sum_micros = _timed(_weighted_harmonic, (1,), c * args.T + r, c)
    value = float(total)
    return _Reading(
        inputs={"T": args.T, "n": args.n}, value=value, digits=17,
        # the partial sum itself is exact; only the decimal rendering rounds
        error_bound=math.ldexp(abs(value) + 1.0, -52), bound_is_heuristic=False,
        micros=micros + sum_micros, blocks_used=c,
        extras={
            # Decimal prints integers of any length; str(int) stops at 4300 digits
            "partial_sum": f"{Decimal(total.numerator)}/{Decimal(total.denominator)}",
            "terms": [f"{t.numerator}/{t.denominator}" for t in terms],
        },
    )


def _cmd_value(args) -> int:
    """Every value subcommand: print the reading that `args.reading` takes."""
    reading = args.reading(args)
    payload = {
        "command": args.command,
        "inputs": reading.inputs,
        "value": _real(reading.value, reading.digits),
        "precision": reading.digits,
        "error_bound": repr(reading.error_bound),
        "bound_is_heuristic": reading.bound_is_heuristic,
        "blocks_used": reading.blocks_used,
        **reading.extras,
        "wall_time_micros": reading.micros,
    }
    if args.format == "json":
        print(_indented_json(payload))
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
    (basis, checks), micros = _timed(relations._checked_relations, args.T)
    entries = []
    for rel, (witness, (ok, result)) in zip(basis.vectors, checks):
        entries.append(
            {
                "relation": [str(c) for c in rel],
                "witness_modulus": witness.modulus,
                # every checked witness has scale 1, so its weights are its coefficients
                "witness_coeffs": [str(w) for w in witness.weights],
                "witness_value": _real(result.value, 17),
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
        print(_indented_json(payload))
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

    References come from mpmath, not the kernel they check.  Its memos of
    pi and ln 2 and mpf_psi0's Bernoulli cache have the window that
    evaluation._ln_fixed describes; nothing read in it is kept.
    """
    if target == "pi":
        pi = libmp.mpf_pi(120, libmp.round_nearest)
        reference = libmp.to_float(pi, rnd=libmp.round_nearest)
        return make_vector(3, (1, -1, 0)), 3.0 * math.sqrt(3.0), reference, "pi"
    if target.startswith("ln:"):
        # build the vector first: it rejects T < 1, where ln is complex
        vec = ln_vector(int(target.split(":", 1)[1]))
        return vec, 1.0, _ln_float(vec.modulus, 120), "ln"
    if target.startswith("vector:"):
        _, T, coeffs = target.split(":", 2)
        vec = make_vector(int(T), _parse_coeffs(coeffs))
        # Gauss's digamma theorem, S = -(1/T) sum_j a_j psi(j/T), by mpmath
        # at 140 bits: no code of logser's own evaluation runs
        total = libmp.fzero
        for j, w in enumerate(vec.weights, 1):
            psi = libmp.mpf_psi0(libmp.from_rational(j, vec.modulus, 140), 140)
            total = libmp.mpf_add(total, libmp.mpf_mul(libmp.from_int(w), psi), 140)
        total = libmp.mpf_div(total, libmp.from_int(-vec.modulus * vec.scale), 140)
        return vec, 1.0, libmp.to_float(total, rnd=libmp.round_nearest), "vector"
    raise SeriesError(f"unknown bench target {target!r}; use ln:T, pi, or vector:T:c1,...")


def _rearranged_prefix(vec, count: int) -> tuple[float, float]:
    """(float prefix sum of the stream, rigorous error bound vs ln T).

    The first `complete` groups of T + 1 terms are blocks of vec =
    ln_vector(T); the leftover terms are 1/(complete * T + j).
    """
    T = vec.modulus
    complete, leftover = divmod(count, T + 1)
    total = float(partial_sum_float(vec, complete)) + math.fsum(
        1.0 / (complete * T + j) for j in range(1, leftover + 1)
    )
    bound = tail_bound(vec, max(2, complete))
    if complete < 2:
        # the tail bound starts at two blocks; charge the skipped ones whole
        bound += 2.0 * (math.log(T + 1) + 2.0)
    elif leftover:
        # partial block k: its terms sum to less than 2(T+1)/(kT)
        bound += 2.0 * (T + 1) / (complete * T)
    return total, bound + 1e-12 * (1.0 + abs(total))


def _bench_value(method, work, vec, scale, kind) -> tuple[float, float]:
    """(value, error bound) of one bench row."""
    T = vec.modulus
    if method == "raw":
        blocks = max(2, work)
        value = scale * float(partial_sum_float(vec, blocks))
        return value, scale * (tail_bound(vec, blocks) + 1e-15 * (1.0 + abs(value)))
    if method == "accelerated":
        result = evaluate(vec, float("inf"), prefix_blocks=max(2, work))
        return scale * float(result.value), scale * result.error_bound
    if method == "rearranged":
        return _rearranged_prefix(vec, work)
    # quadrature: the step to work + 1 panels estimates the error, or to
    # work - 1 at the panel limit, which work + 1 would pass
    step = work + 1 if work < quadrature._PANEL_LIMIT else work - 1
    if kind == "pi":
        value = scale * quadrature.fixed_panel_integral(3, 1, work)
        other = scale * quadrature.fixed_panel_integral(3, 1, step)
    else:
        value = math.fsum(
            j * quadrature.fixed_panel_integral(T, j, work) for j in range(1, T)
        )
        other = math.fsum(
            j * quadrature.fixed_panel_integral(T, j, step) for j in range(1, T)
        )
    return value, abs(value - other) + 1e-15 * (1.0 + abs(value))


def bench(target: str, methods: list[str], work_schedule: list[int]) -> list[ConvergenceRow]:
    """One ConvergenceRow per (method, work) pair, in schedule order.

    Each row is computed three times; wall_time_micros is the fastest.
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
    rows = []
    for method in methods:
        if method == "rearranged" and kind != "ln":
            raise SeriesError("rearranged benches only apply to ln:T targets")
        if method == "quadrature" and kind == "vector":
            raise SeriesError("quadrature benches only apply to ln:T and pi targets")
        for work in work_schedule:
            # the first run of a row pays cold caches; report the fastest
            runs = [
                _timed(_bench_value, method, work, vec, scale, kind)
                for _ in range(_BENCH_RUNS)
            ]
            value, bound = runs[0][0]
            rows.append(
                ConvergenceRow(
                    method=method,
                    work=work,
                    value=value,
                    error_bound=bound,
                    abs_error_vs_reference=abs(value - reference),
                    wall_time_micros=min(micros for _, micros in runs),
                )
            )
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


def _build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """What the top-level parser's parse_args(argv) returns, or raises.

    A known subcommand's own parser takes the rest of argv, as the
    top-level parser would hand it over, and leftovers go to the
    top-level error, so output and exit codes are the same; anything
    else (no arguments, --help, an unknown command) goes to the
    top-level parser.
    """
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
    sys.exit(run())


if __name__ == "__main__":
    main()
