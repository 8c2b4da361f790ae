"""Steadiness check and smoke test of the benchmark.

Run from the root of a checkout:

    python3 bench/steady.py                      # seeds 1..10 on every workload
    python3 bench/steady.py --workloads accel --seeds 1,2,3,4,5
    python3 bench/steady.py --trace 1 --seeds 3,3  # per-layer counts must repeat
    python3 bench/steady.py --smoke              # fast self-test of the benchmark

Every run is a fresh ``bench/run.py`` process.  Its result line is checked
against BENCHMARK.json (keys, metric names and units, ``correct``), its
failures are echoed, and per workload each metric's median and quartiles
are printed with the spread (q3 - q1) / median next to the metric's bound.
A spread under a third of the bound is marked steady.  Count metrics of
runs with the same seed must agree exactly.

``--smoke`` runs every workload for one second in both modes on a tiny
seed, then checks that the benchmark exits nonzero, without a result, in
a directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
_RUN_TIMEOUT = 180


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec, workload: str, seed: int, seconds: int, trace: int, cwd=ROOT):
    """(returncode, stdout lines) of one benchmark run."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=_RUN_TIMEOUT)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def contract_problems(spec, result: dict, trace: int) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    if not isinstance(result.get("failed"), int):
        problems.append("failed is not an integer")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    for name, entry in got.items():
        if name in wanted and entry.get("unit") != wanted[name]:
            problems.append(f"{name} has unit {entry.get('unit')}, expected {wanted[name]}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name} is not a number")
    return problems


def summarize(spec, workload: str, results: list[tuple[int, dict]], trace: int) -> bool:
    metrics = spec["per_layer" if trace else "end_to_end"]
    steady = True
    print(f"\n{workload}: {len(results)} runs")
    print(f"  {'metric':44s} {'unit':>6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for _, r in results]
        if len(values) > 1:
            q1, median, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = median = q3 = values[0]
        spread = (q3 - q1) / abs(median) if median else 0.0
        bound = m.get("bound")
        mark = ""
        if bound is not None:
            mark = "steady" if spread < bound / 3 else "WIDE" if spread <= bound else "OVER"
            steady &= spread <= bound
        print(f"  {m['name']:44s} {m['unit']:>6s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6} {mark}")
    by_seed = defaultdict(list)
    for seed, r in results:
        by_seed[seed].append(r)
    for seed, group in by_seed.items():
        for m in metrics:
            if m["unit"] == "count" and len({r["metrics"][m["name"]]["value"] for r in group}) > 1:
                print(f"  count {m['name']} differs between runs of seed {seed}")
                steady = False
    return steady


def bare_directory_check(spec) -> bool:
    """The benchmark must fail, without a result, when logser is absent."""
    tmp = Path(tempfile.mkdtemp(prefix=".bench_bare_", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, tmp / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run_once(spec, spec["workloads"][0]["name"], 1, 1, 0, cwd=tmp)
    finally:
        shutil.rmtree(tmp)
    ok = code != 0 and not (lines and lines[-1].startswith("{"))
    print(f"bare directory: exit {code}, {'ok' if ok else 'PRINTED A RESULT OR EXITED 0'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds or spec["run_seconds"]
    modes = [args.trace]
    if args.smoke:
        seeds, seconds, modes = [0], 1, [0, 1]

    ok = True
    for trace in modes:
        for workload in workloads:
            results = []
            for seed in seeds:
                code, lines = run_once(spec, workload, seed, seconds, trace)
                if code or not lines:
                    print(f"{workload} seed {seed}: exit {code}")
                    ok = False
                    continue
                result = json.loads(lines[-1])
                for line in lines:
                    # every failure of the first run, and new ones of later runs
                    if (line.startswith(f"{workload} seed") or line.startswith("  [new]")
                            or (line.startswith("  [") and not results)):
                        print(line)
                if not trace:
                    print("  " + "  ".join(f"{name} {entry['value']:.4g}"
                                           for name, entry in result["metrics"].items()))
                problems = contract_problems(spec, result, trace)
                for problem in problems:
                    print(f"  CONTRACT: {problem}")
                ok &= not problems
                results.append((seed, result))
            if results:
                ok &= summarize(spec, workload, results, trace)
    if args.smoke:
        ok &= bare_directory_check(spec)
    print("\nall runs valid and steady" if ok else "\nproblems found (see above)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
