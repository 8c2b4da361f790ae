"""Paired benchmark runs of a parent tree against a change tree.

Run from anywhere, standard library only:

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload exact --seeds 33401-33410 --seconds 20 --out BENCH_33.json

Each seed is one pair: ``bench/run.py --workload W --seed S --seconds X
--trace 0`` runs once in each tree, from that tree's root, so each tree's
own bench measures its own ``src/``.

Each tree runs from a fresh copy in a temporary directory, made once
per invocation without any ``__pycache__`` directory, and every run
has ``PYTHONDONTWRITEBYTECODE=1``.  So no tree's cached bytecode, valid
or stale, is read, nothing is written, and both sides compile their
own sources at every setup start, as a run from a new checkout does.
The interpreter's and mpmath's installed bytecode is still read: a
fresh ``PYTHONPYCACHEPREFIX`` would hide it too, and on a 2-vCPU host
``import mpmath, json, fractions, decimal, argparse`` then took 553-583
ms against 122-145 ms, a cost that no new checkout pays.

The side that runs first
alternates from pair to pair (the parent first on even pairs), as a
shared host drifts in speed.  Each run's last line of standard output
is its JSON summary; a run whose ``correct`` is false or whose
``failed`` is not 0 is flagged.

For every end-to-end metric named in the change tree's BENCHMARK.json
the script prints, and writes under the workload's key in ``--out``,
each side's median and quartiles over the pairs, the number of pairs
in which the change is better, whether the change's median lies outside
the parent's [q1, q3] (``outside_parent_quartiles``) and whether the
medians differ by more than the parent's q3 - q1
(``beyond_parent_spread``), the spread a claimed gain must pass.  Under
``operations`` it also prints and writes each side's requests attempted
and failed, summed over its runs, since a larger share of failed
operations counts against a change as a slower metric does.  Each run
is kept whole under ``runs``: its ``correct``, ``attempted``, ``failed``
and ``metrics``, or an ``error``.  Other workloads already in ``--out``
are kept.  The exit code is 1 when a run was flagged or failed to
finish.

With ``--trace`` every run is traced (``--trace 1``) and kept under the
key ``<workload>_traced``.  The summary then covers the per-layer
metrics of BENCHMARK.json as well, and each run keeps its ``layers``:
the min and median µs, repetitions and achieved abs error of every
``layer`` line the run prints.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def seeds(text: str) -> list[int]:
    """'33401-33410' or '5,7,9' as a list of seeds."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


# a traced run's line for one kernel of bench/layers.py
LAYER = re.compile(r"\s*layer (.+): min (\S+) us, median (\S+) us over (\d+), abs error (\S+)")


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One bench/run.py in `tree`: its last JSON line, or an error record.

    A traced run also keeps its layer lines under ``layers``.
    """
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    if trace:
        summary["layers"] = {
            m[1]: {"min_us": float(m[2]), "median_us": float(m[3]), "reps": int(m[4]),
                   "abs_error": float(m[5])}
            for m in map(LAYER.fullmatch, lines) if m
        }
    return summary


def fresh_copy(tree: Path, dest: Path) -> Path:
    """`tree` copied to `dest` with no bytecode cache and no test caches."""
    caches = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks")
    shutil.copytree(tree, dest, ignore=caches)
    return dest


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    """Median, quartiles and the change's wins for each end-to-end metric."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in ("parent", "change")}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        parent, change = spread(values["parent"]), spread(values["change"])
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "parent": parent, "change": change, "wins": wins, "pairs": len(pairs),
                     "outside_parent_quartiles":
                         not parent["q1"] <= change["median"] <= parent["q3"],
                     "beyond_parent_spread":
                         abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]}
    return out


def operations(pairs: list[dict]) -> dict:
    """Each side's requests attempted and failed, summed over its finished runs."""
    out = {}
    for side in ("parent", "change"):
        runs = [p[side] for p in pairs if "attempted" in p[side]]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        out[side] = {"runs": len(runs), "attempted": attempted, "failed": failed,
                     "fail_frac": failed / attempted if attempted else None}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="first-last or a,b,c")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true",
                        help="trace every run and summarise the per-layer metrics too")
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = declared["end_to_end"] + (declared["per_layer"] if args.trace else [])
    key = f"{args.workload}_traced" if args.trace else args.workload
    # a traced run reports no end-to-end metric, so it is followed by its traced time
    headline, unit = (("bench.traced_request_ms", "ms") if args.trace
                      else ("requests_per_s", "/s"))
    pairs, flags = [], []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {side: fresh_copy(tree.resolve(), Path(scratch) / side)
                 for side, tree in (("parent", args.parent), ("change", args.change))}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = bench_run(trees[side], args.workload, seed, args.seconds, args.trace)
                pair[side] = run
                if "error" in run or run["correct"] is not True or run["failed"]:
                    flags.append(f"{side} seed {seed}: "
                                 + run.get("error", f"correct {run.get('correct')}, "
                                                    f"failed {run.get('failed')}"))
            pairs.append(pair)
            print(f"seed {seed} ({order[0]} first): " + ", ".join(
                f"{side} {pair[side]['metrics'][headline]['value']:.1f} {unit}"
                for side in ("parent", "change") if "metrics" in pair[side]), flush=True)

    complete = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
    # a metric that some run lacks is left out
    metrics = [m for m in metrics
               if all(m["name"] in p[side]["metrics"] for p in complete for side in trees)]
    summary = summarise(complete, metrics) if len(complete) >= 2 else {}
    totals = operations(pairs)
    print(f"{key}: {len(complete)} pairs, median [q1, q3]")
    for name, s in summary.items():
        print(f"  {name:16s} parent {s['parent']['median']:10.4g} "
              f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}]  change "
              f"{s['change']['median']:10.4g} [{s['change']['q1']:.4g}, "
              f"{s['change']['q3']:.4g}]  {s['unit']}, change better in "
              f"{s['wins']}/{s['pairs']} ({s['better']} is better); change median "
              + ("outside" if s["outside_parent_quartiles"] else "inside")
              + " parent [q1, q3], moved "
              + ("more" if s["beyond_parent_spread"] else "no more")
              + " than parent q3 - q1")
    print("  operations       " + "  ".join(
        f"{side} {t['failed']} of {t['attempted']} failed in {t['runs']} runs"
        for side, t in totals.items()))
    for flag in flags:
        print("FLAG " + flag)

    if args.out:
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
        record[key] = {
            "seconds": args.seconds, "seeds": args.seeds, "trace": args.trace,
            "summary": {**summary, "operations": totals}, "flags": flags, "runs": pairs,
        }
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 1 if flags or len(complete) < len(pairs) else 0


if __name__ == "__main__":
    sys.exit(main())
