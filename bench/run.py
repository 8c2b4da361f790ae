"""Benchmark of logser: closed-loop workloads checked against an independent oracle.

Run from the root of a checkout:

    python3 bench/run.py --workload accel --seed 1 --seconds 20 --trace 0

One client thread sends the requests of one workload cycle (see
``workloads.py``) one after the other, each only after the previous one
finished.  Every answer is checked against a reference from
``oracle.py``, which shares no code with logser.  A request fails when it
raises, or when its answer is farther from the reference than the
accuracy it asked for.

``--trace 0`` runs a fixed number of whole cycles,
``round(seconds / workloads.CYCLE_SECONDS[workload])`` and at least one,
so every commit takes the same number of samples of every request.  It
stops early, and says so, when one more cycle would end the run after
1.6 times ``--seconds``.  Every cycle holds at least 100 successful
requests, so p90 has at least 10 beyond it.

Times are paced.  The speed of a shared host drifts by up to 2x within
seconds, and slows all pure-Python code by much the same factor; a
whole run can fall into a slow or a fast stretch.  So a fixed reference kernel
(``reference_kernel``: an exact Fraction sum that shares no code with
logser) runs between consecutive requests, and each request's wall time
is scaled by ``REFERENCE_NS`` over the mean time of the reference runs
just before and after it.  Every time below is therefore the time on a
host where the reference kernel takes ``REFERENCE_NS`` (5 ms); the
reference kernel itself is not counted.  The unpaced wall-clock figures
are printed beside them as notes.

* requests_per_s: successful requests per cycle over the cycle's time,
  summing each request's median paced time over the cycles
* latency_p50_ms, latency_p90_ms: over the median paced times of the
  successful requests
* setup_s: median paced time of ``SETUP_STARTS`` fresh interpreters that
  import logser and finish a first request of the workload
  (``workloads.SETUP_PROBES``), started between the cycles so that they
  meet the same host conditions as the requests
* peak_rss_mb: peak resident memory of the benchmark process

``--trace 1`` alternates untraced and traced passes over the cycle and
reports per-layer self times (medians over traced passes), per-pass call
and work counts, the request time no span covers, the tracing overhead,
and a standalone timing table of six kernels (``layers.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``correct`` is
false when a request fails, by raising or by a wrong answer, and no
entry of KNOWN_DEFECTS.json explains it.  The lines before it give the
run metadata, every metric with its unit, and each failed request with
its reason, tagged with its entry in KNOWN_DEFECTS.json when the defect
is known.  Exit code 2 means the logser sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_STARTS = 15
_MAX_STRETCH = 1.6
_MIN_SUCCESSES = 20
_REASON_CHARS = 240

# Nominal time of one reference run; paced times are wall times scaled to it.
REFERENCE_NS = 5_000_000


def reference_kernel() -> Fraction:
    """Fixed work that shares no code with logser: the exact harmonic sum H_1499."""
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction(1, k)
    return total


def reference_ns() -> int:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - t0


@dataclass
class Row:
    request: int
    start: int  # perf_counter_ns when the request was sent
    ns: int
    reference_ns: float  # mean reference time just before and after the request
    status: str  # "ok", "raised" or "wrong"
    abs_error: float | None
    reason: str | None


def run_pass(cycle, tracer=None) -> list[Row]:
    """Send every request of the cycle once, in order, and check each answer."""
    rows = []
    before = reference_ns()
    for i, req in enumerate(cycle):
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter_ns()
        try:
            out = req.call()
        except Exception as exc:  # a failed request is recorded, not fatal
            ns = time.perf_counter_ns() - t0
            after = reference_ns()
            rows.append(Row(i, t0, ns, (before + after) / 2, "raised", None,
                            f"{type(exc).__name__}: {exc}"[:_REASON_CHARS]))
            before = after
            continue
        ns = time.perf_counter_ns() - t0
        after = reference_ns()
        try:
            err, problem = req.check(out)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            err, problem = math.inf, f"malformed answer: {type(exc).__name__}: {exc}"
        rows.append(Row(i, t0, ns, (before + after) / 2, "wrong" if problem else "ok", err,
                        problem))
        before = after
    return rows


def paced_ns(row: Row) -> float:
    return row.ns * REFERENCE_NS / row.reference_ns


def repeat_for(seconds: float, step) -> None:
    """Call step() at least once, and as long as that ends nearest to `seconds`."""
    start = time.perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / calls >= seconds:
            return


def warm_up(cycle, seconds: float = 1.5) -> None:
    """Untimed requests: every kind once, and the whole cycle for `seconds`.

    The first second or so of heavy work in a fresh process runs
    measurably slower, and first calls fill mpmath's caches.
    """
    for _ in range(20):
        reference_ns()
    seen = set()
    start = time.perf_counter()
    for req in cycle:
        if req.kind in seen and time.perf_counter() - start >= seconds:
            continue
        seen.add(req.kind)
        try:
            req.call()
        except Exception:  # the timed passes record failures
            pass


def setup_start(probe: str) -> tuple[float, float]:
    """Wall and paced time for a fresh interpreter to import logser and finish `probe`.

    The child prints the system-wide monotonic clock once the probe is
    done, so its exit and the parent's wait are not counted.  It then
    times the reference kernel, which the parent timed just before it
    started the child; their mean paces the start.
    """
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import logser, logser.cli; "
            f"{probe}; done = time.monotonic(); sys.path.insert(0, {str(BENCH)!r}); "
            f"from run import reference_ns; print(done, min(reference_ns(), reference_ns()))")
    before = min(reference_ns(), reference_ns())
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120,
                          capture_output=True, text=True)
    done, after = proc.stdout.split()[-2:]
    wall = float(done) - start
    return wall, wall * REFERENCE_NS / ((before + int(after)) / 2)


def measure(cycle, cycles: int, seconds: float,
            probe: str) -> tuple[list[Row], int, list[tuple[float, float]]]:
    """Rows of `cycles` passes, the passes run, and the (wall, paced) setup times.

    The setup starts are spread evenly between the passes.  No pass
    starts once it would end the run after _MAX_STRETCH * seconds.
    """
    rows, setup_times = [], []
    start = time.perf_counter()
    done = 0
    while done < cycles:
        rows.extend(run_pass(cycle))
        done += 1
        while len(setup_times) < SETUP_STARTS * done // cycles:
            setup_times.append(setup_start(probe))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > _MAX_STRETCH * seconds:
            break
    while len(setup_times) < SETUP_STARTS:
        setup_times.append(setup_start(probe))
    return rows, done, setup_times


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, cycle) -> dict:
    import mpmath
    import numpy

    mix = Counter(req.kind for req in cycle)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "cycle_requests": len(cycle),
        "cycle_via_cli": sum(req.via_cli for req in cycle),
        "request_mix": dict(sorted(mix.items())),
    }


def end_to_end(rows: list[Row], cycles: int, setup_s: float,
               time_ns=paced_ns) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics from each request's median time over the cycles."""
    times, times_ok = defaultdict(list), defaultdict(list)
    for r in rows:
        times[r.request].append(time_ns(r))
        if r.status == "ok":
            times_ok[r.request].append(time_ns(r))
    deciles = statistics.quantiles([statistics.median(t) / 1e6 for t in times_ok.values()],
                                   n=10, method="inclusive")
    successes_per_cycle = sum(r.status == "ok" for r in rows) / cycles
    cycle_ns = sum(statistics.median(t) for t in times.values())
    return {
        "requests_per_s": (successes_per_cycle / (cycle_ns / 1e9), "1/s"),
        "latency_p50_ms": (deciles[4], "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(lib, oracle, cycle, seconds: float) -> tuple[dict, list[Row], list[str]]:
    """Alternate untraced and traced passes; per-layer metrics and notes."""
    from layers import table
    from spans import Tracer

    plain_ns, traced_ns, summaries, rows = [], [], [], []

    def pair():
        plain = run_pass(cycle)
        with Tracer(lib) as tracer:
            traced = run_pass(cycle, tracer)
        summaries.append(tracer.summary([(r.start, r.ns) for r in traced]))
        plain_ns.append(sum(r.ns for r in plain))
        traced_ns.append(sum(r.ns for r in traced))
        rows.extend(plain + traced)

    repeat_for(seconds, pair)
    notes = [f"{len(summaries)} traced and {len(summaries)} untraced passes"]
    metrics = {}
    for key, value in summaries[0].items():
        if key.endswith("_ms"):
            metrics[key] = (statistics.median(s[key] for s in summaries), "ms")
        else:
            metrics[key] = (value, "count")
            if any(s[key] != value for s in summaries):
                notes.append(f"count {key} differs between passes")
    overhead = statistics.median(traced_ns) / statistics.median(plain_ns) - 1
    metrics["trace_overhead_frac"] = (overhead, "frac")
    for row in table(lib, oracle):
        metrics[f"layer.{row['kernel']}.median_us"] = (row["median_us"], "us")
        metrics[f"layer.{row['kernel']}.min_us"] = (row["min_us"], "us")
        notes.append(
            f"layer {row['call']}: min {row['min_us']:.1f} us, median "
            f"{row['median_us']:.1f} us over {row['reps']}, abs error {row['abs_error']:.3g}"
        )
    total = metrics["bench.traced_request_ms"][0]
    for key, (value, _) in metrics.items():
        if key.endswith(".self_ms") or key == "bench.residual_ms":
            notes.append(f"share of traced request time, {key}: {100 * value / total:.1f} %")
    return metrics, rows, notes


def known_defect(label: str, row: Row, ledger: list[dict]) -> str | None:
    """Id of the first ledger entry that explains this failed request."""
    for entry in ledger:
        match = entry.get("match")
        if (
            match
            and match["status"] == row.status
            and re.fullmatch(match.get("label", ".*"), label)
            and re.search(match.get("reason", ""), row.reason or "")
        ):
            return entry["id"]
    return None


def failure_lines(failures) -> list[str]:
    grouped = Counter((label, row.status, row.reason, known) for row, label, known in failures)
    lines = []
    for (label, status, reason, known), count in sorted(grouped.items(), key=str):
        tag = f"known:{known}" if known else "new"
        lines.append(f"  [{tag}] {label} x{count} ({status}): {reason}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "logser" / "__init__.py").is_file():
        print(f"error: the logser sources are missing ({SRC / 'logser'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import logser
    import logser.cli  # noqa: F401  (binds logser.cli for the CLI requests)

    if Path(logser.__file__).resolve().parent != SRC / "logser":
        print(f"error: imported logser from {logser.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from oracle import Oracle

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    oracle = Oracle()
    cycle = workloads.build(args.workload, args.seed, logser, oracle)
    meta = metadata(args, cycle)
    warm_up(cycle)

    if args.trace:
        metrics, rows, notes = per_layer(logser, oracle, cycle, args.seconds)
    else:
        planned = max(1, round(args.seconds / workloads.CYCLE_SECONDS[args.workload]))
        rows, cycles, setup_times = measure(cycle, planned, args.seconds,
                                            workloads.SETUP_PROBES[args.workload])
        successes = sum(r.status == "ok" for r in rows)
        if successes < _MIN_SUCCESSES:
            print(f"error: only {successes} successful requests; no percentiles",
                  file=sys.stderr)
            return 1
        meta["cycles"] = cycles
        paced_setup = [paced for _, paced in setup_times]
        metrics = end_to_end(rows, cycles, statistics.median(paced_setup))
        wall = end_to_end(rows, cycles, statistics.median(w for w, _ in setup_times),
                          time_ns=lambda r: r.ns)
        reference_ms = [r.reference_ns / 1e6 for r in rows]
        notes = [f"{cycles} of {planned} planned cycles, {successes} successful requests",
                 f"{len(setup_times)} setup starts, paced: min {min(paced_setup):.4f} s, "
                 f"max {max(paced_setup):.4f} s",
                 f"reference kernel: median {statistics.median(reference_ms):.3f} ms, min "
                 f"{min(reference_ms):.3f} ms, max {max(reference_ms):.3f} ms "
                 f"(paced times assume {REFERENCE_NS / 1e6:g} ms)",
                 "unpaced wall clock: " + ", ".join(f"{k} {v:.6g} {u}"
                                                   for k, (v, u) in wall.items()
                                                   if k != "peak_rss_mb")]
        if cycles < planned:
            notes.append(f"stopped early: one more cycle would end after "
                         f"{_MAX_STRETCH} x --seconds")

    ledger = json.loads((BENCH / "KNOWN_DEFECTS.json").read_text())["defects"]
    failures = []
    for row in rows:
        if row.status != "ok":
            label = cycle[row.request].label
            failures.append((row, label, known_defect(label, row, ledger)))
    failed = len(failures)
    wrong = sum(row.status == "wrong" for row, _, _ in failures)
    unexplained = sum(not known for _, _, known in failures)

    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(rows)} requests, {failed} failed "
          f"(fail_frac {failed / len(rows):.4f}), {wrong} wrong answers, "
          f"{unexplained} failures not in KNOWN_DEFECTS.json")
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    if failures:
        print("failures:")
        print("\n".join(failure_lines(failures)))
    print(json.dumps({
        "correct": unexplained == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
