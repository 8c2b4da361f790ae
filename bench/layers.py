"""Standalone timing of the six kernels, each through its smallest public call.

Each kernel is timed on prebuilt inputs, repeated until it has run for
``_MIN_SECONDS`` and at least ``_MIN_REPS`` times; min and median are in
microseconds, with the achieved error of the last result beside them.

* partial_sum_exact: the exact block prefix
* partial_sum_float: the digamma kernel
* evaluate_tail: ``evaluate(v, inf, prefix_blocks=2)``, which is almost
  only the moment / Euler-Maclaurin tail expansion
* panel: ``fixed_panel_integral(T, j, 1)``, one Gauss-Legendre panel
* bareiss: ``kernel`` on a prebuilt divisor family
* harmonic: the exact harmonic number
"""

from __future__ import annotations

import math
import statistics
import time

from oracle import Oracle, check_kernel_basis, ln_coeffs

KERNELS = ("partial_sum_exact", "partial_sum_float", "evaluate_tail", "panel", "bareiss",
           "harmonic")

_MIN_SECONDS = 0.25
_MIN_REPS = 7


def _cases(lib, oracle: Oracle):
    ev, vec, rel, quad = lib.evaluation, lib.vectors, lib.relations, lib.quadrature
    v12 = vec.ln_vector(12)
    family = rel.divisor_family(24)
    psi_ref = oracle.partial(ln_coeffs(12), 10**5)
    prefix_ref = oracle.partial(ln_coeffs(12), 200)
    pi_ref = oracle.series([1, -1, 0])
    yield ("partial_sum_exact", "partial_sum_exact(ln_vector(12), 200)",
           lambda: ev.partial_sum_exact(v12, 200), lambda r: oracle.distance(r, prefix_ref))
    yield ("partial_sum_float", "partial_sum_float(ln_vector(12), 10**5)",
           lambda: ev.partial_sum_float(v12, 10**5), lambda r: oracle.distance(r, psi_ref))
    yield ("evaluate_tail", "evaluate(ln_vector(12), inf, prefix_blocks=2)",
           lambda: ev.evaluate(v12, math.inf, prefix_blocks=2),
           lambda r: oracle.distance(r.value, oracle.ln(12)))
    yield ("panel", "fixed_panel_integral(3, 1, 1)",
           lambda: quad.fixed_panel_integral(3, 1, 1),
           lambda r: oracle.distance(r, pi_ref))
    yield ("bareiss", "kernel(divisor_family(24))",
           lambda: rel.kernel(family),
           lambda r: math.inf if check_kernel_basis(r.vectors, 24, complete=True) else 0.0)
    yield ("harmonic", "harmonic(2000)",
           lambda: ev.harmonic(2000), lambda r: oracle.distance(r, oracle.harmonic(2000)))


def table(lib, oracle: Oracle) -> list[dict]:
    rows = []
    for name, call_text, call, error in _cases(lib, oracle):
        times = []
        start = time.perf_counter()
        while len(times) < _MIN_REPS or time.perf_counter() - start < _MIN_SECONDS:
            t0 = time.perf_counter_ns()
            result = call()
            times.append((time.perf_counter_ns() - t0) / 1e3)
        rows.append({
            "kernel": name,
            "call": call_text,
            "reps": len(times),
            "min_us": min(times),
            "median_us": statistics.median(times),
            "abs_error": error(result),
        })
    return rows
