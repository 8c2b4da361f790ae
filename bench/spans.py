"""Per-layer tracing from outside logser, by wrapping its public functions.

A ``Tracer`` replaces each public function of ``vectors``,
``evaluation``, ``quadrature``, ``relations`` and ``cli`` with a wrapper
that records a span (name, start, end, parent, request).  A name such as
``evaluate`` is bound in several modules (``from .evaluation import
evaluate`` copies it into ``relations``, ``quadrature``, ``cli`` and the
package), so the wrapper is installed on every module binding of the
function; patching only the defining module would miss those callers.
Spans stay in memory; a layer's self time is its spans' durations minus
the durations of their direct children.

``block_term`` and ``integrand`` are left unwrapped: they are the inner
loops of ``partial_sum_exact`` and the quadrature panels, called
thousands of times per request, and their time stays in their callers'
self time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYER_MODULES = ("vectors", "evaluation", "quadrature", "relations", "cli")
_UNWRAPPED = {"evaluation.block_term", "quadrature.integrand"}

# A span named like one of these layers is its own layer; spanning_basis
# and divisor_family form relations.family; other evaluation and relations
# spans fall into "<module>.other", and every vectors, quadrature and cli
# span into its module's layer.
SELF_TIME_LAYERS = (
    "evaluation.partial_sum_exact",
    "evaluation.evaluate.accelerated",
    "evaluation.moments",
    "evaluation.evaluate.raw",
    "evaluation.partial_sum_float",
    "evaluation.harmonic",
    "evaluation.gamma_partial",
    "evaluation.rearranged_terms",
    "evaluation.other",
    "vectors",
    "relations.family",
    "relations.kernel",
    "relations.divisor_relations",
    "relations.other",
    "quadrature",
    "cli.run",
)
_FAMILY = {"relations.spanning_basis", "relations.divisor_family"}


def layer_of(span: str) -> str:
    if span in SELF_TIME_LAYERS:
        return span
    if span in _FAMILY:
        return "relations.family"
    module = span.split(".", 1)[0]
    if module in ("evaluation", "relations"):
        return f"{module}.other"
    return "cli.run" if module == "cli" else module


# span fields
_NAME, _START, _END, _PARENT, _REQUEST, _FAILED, _WORK = range(7)


class Tracer:
    """Context manager that wraps logser's public functions while active."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        modules = [getattr(self.package, name) for name in LAYER_MODULES]
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and f"{short}.{name}" not in _UNWRAPPED
                ):
                    wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for module in [self.package, *modules]:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, name, value))
                    setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, value in reversed(self._restore):
            setattr(module, name, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)
        is_evaluate = name == "evaluation.evaluate"
        is_prefix = name == "evaluation.partial_sum_exact"
        is_verify = name == "relations.verify_zero"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label, work = name, 0
            if is_evaluate or is_prefix:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if is_evaluate:
                    label = f"{name}.{bound.arguments['method']}"
                else:
                    work = bound.arguments["blocks"] * bound.arguments["v"].modulus
            span = [label, 0, 0, stack[-1] if stack else -1, self.request, False, work]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[_FAILED] = True
                raise
            finally:
                span[_END] = time.perf_counter_ns()
                stack.pop()
            if is_verify and not out[0]:
                span[_FAILED] = True
            return out

        return wrapper

    def summary(self, requests: list[tuple[int, int]]) -> dict[str, float]:
        """Self time per layer (ms) and counts for the spans recorded so far.

        ``requests`` holds the (perf_counter_ns start, duration) of each
        request, indexed by the request number the runner set in
        ``self.request``.  Every span must lie inside its parent span, or
        inside its request if it has none.
        """
        child_ns = defaultdict(int)
        top_ns = defaultdict(int)
        for span in self.spans:
            duration = span[_END] - span[_START]
            if span[_PARENT] >= 0:
                child_ns[span[_PARENT]] += duration
                outer = self.spans[span[_PARENT]]
                lo, hi = outer[_START], outer[_END]
            else:
                top_ns[span[_REQUEST]] += duration
                lo, ns = requests[span[_REQUEST]]
                hi = lo + ns
            if not lo <= span[_START] <= span[_END] <= hi:
                raise RuntimeError(f"span {span[_NAME]} of request {span[_REQUEST]} "
                                   "lies outside its parent or request")
        residual_ns = [ns - top_ns[i] for i, (_, ns) in enumerate(requests)]
        if min(residual_ns) < 0:
            raise RuntimeError("the spans of a request outlast the request")
        self_ns = dict.fromkeys(SELF_TIME_LAYERS, 0)
        calls, work, failed = defaultdict(int), defaultdict(int), defaultdict(int)
        for i, span in enumerate(self.spans):
            name = span[_NAME]
            self_ns[layer_of(name)] += span[_END] - span[_START] - child_ns[i]
            calls[name] += 1
            work[name] += span[_WORK]
            failed[name] += span[_FAILED]
        out = {f"{layer}.self_ms": ns / 1e6 for layer, ns in self_ns.items()}
        out["evaluation.partial_sum_exact.terms"] = work["evaluation.partial_sum_exact"]
        out["vectors.calls"] = sum(n for name, n in calls.items() if name.startswith("vectors."))
        out["relations.verify_zero.calls"] = calls["relations.verify_zero"]
        out["relations.witness_failures"] = failed["relations.verify_zero"]
        out["bench.residual_ms"] = sum(residual_ns) / 1e6
        out["bench.traced_request_ms"] = sum(ns for _, ns in requests) / 1e6
        return out
