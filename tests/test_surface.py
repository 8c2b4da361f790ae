"""The public surface: what ``logser`` exports and what the benchmark calls."""

import ast
import importlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import logser

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_lists_exactly_the_public_bindings():
    # both lists in logser/__init__ are kept by hand: every public function
    # and class it binds at import or on first use, and TERM_LIMIT, is
    # exported, and nothing else is.  A lazy name is in vars(logser) only
    # once its module has loaded, so the eager bindings exclude the lazy table
    lazy = logser._LAZY_MODULE
    eager = {
        name
        for name, value in vars(logser).items()
        if not name.startswith("_")
        and name not in lazy
        and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert len(set(logser.__all__)) == len(logser.__all__)
    assert set(logser.__all__) == eager | set(lazy) | {"TERM_LIMIT"}
    for name in logser.__all__:
        assert getattr(logser, name) is not None, name
    for name, module in lazy.items():
        value = getattr(logser, name)
        assert value is getattr(getattr(logser, module), name), name
        assert value.__module__ == f"logser.{module}", name
    assert set(logser.__all__) <= set(dir(logser))
    assert {"quadrature", "relations"} <= set(dir(logser))
    assert logser.verify_zero is logser.relations.verify_zero


def _bench_entry_points():
    """(module, name) of every logser attribute the benchmark's requests reach.

    bench/workloads.py reaches them as ``lib.<module>.<name>``, and
    bench/layers.py through the aliases ev, vec, rel and quad of four modules.
    """
    aliases = {"ev": "evaluation", "vec": "vectors", "rel": "relations", "quad": "quadrature"}
    found = set(re.findall(r"\blib\.(\w+)\.(\w+)", (BENCH / "workloads.py").read_text()))
    for alias, name in re.findall(r"\b(ev|vec|rel|quad)\.(\w+)", (BENCH / "layers.py").read_text()):
        found.add((aliases[alias], name))
    return sorted(found)


def test_the_benchmark_finds_entry_points():
    assert ("evaluation", "evaluate") in _bench_entry_points()
    assert ("relations", "kernel") in _bench_entry_points()


@pytest.mark.parametrize("module,name", _bench_entry_points())
def test_every_benchmark_entry_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"logser.{module}"), name))


# the exact sums and a first float, then the first use of each lazy part
_LAZY_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import logser, logser.cli
logser.harmonic(5000)
logser.partial_sum_exact(logser.ln_vector(3), 1000)
logser.rearranged_terms(3, 100)
logser.evaluate(logser.ln_vector(7), 1e-12)
watched = ("logser.relations", "logser.quadrature", "argparse")
before = [m for m in watched if m in sys.modules]
logser.divisor_relations
after_access = [m for m in watched if m in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = logser.cli.run(["relations", "--T", "12"])
print(json.dumps({
    "before": before,
    "after_access": after_access,
    "code": code,
    "relation_count": json.loads(out.getvalue())["relation_count"],
}))
"""

# without site, nothing else loads typing: every logser module, the parser built
_NO_SITE_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import logser, logser.cli
logser.harmonic(5000)
logser.partial_sum_exact(logser.ln_vector(3), 1000)
logser.rearranged_terms(3, 100)
logser.kernel(logser.divisor_family(12))
logser.decomposition_check(4, 1e-8)
logser.cli._parsers()
print(json.dumps("typing" in sys.modules))
"""


# every logser module, then one setup probe of the benchmark (argv[2]); the
# modules are read before this child imports json to print them
_START_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import logser, logser.cli, logser.errors, logser.evaluation, logser.quadrature
import logser.relations, logser.vectors
exec(sys.argv[2])
loaded = sorted({"dataclasses", "inspect", "json", "mpmath", "numpy"} & set(sys.modules))
import json
print(json.dumps(loaded))
"""

# the value subcommands and relations, whose values leave the CLI as integers,
# and pi and integral-check, whose series values leave as doubles
_CLI_CHILD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import logser.cli
for argv in (["ln", "10"], ["lnq", "3/2"], ["eval", "--T", "3", "--coeffs", "1,-1,0"],
             ["gamma", "--n", "10"], ["rearranged", "--T", "2", "--n", "10"],
             ["relations", "--T", "12"], ["pi", "--abs-err", "1e-9"],
             ["integral-check", "--T", "5", "--j", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert logser.cli.run(argv) == 0, argv
loaded = "mpmath" in sys.modules
import json
print(json.dumps(loaded))
"""

# bench's pi rows: math.pi is the reference, and every method reads the kernel's pair
_PI_BENCH_CHILD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import logser.cli
argv = ["bench", "--target", "pi", "--methods", "raw,accelerated,quadrature", "--work", "1,10"]
with contextlib.redirect_stdout(io.StringIO()):
    assert logser.cli.run(argv) == 0
loaded = "mpmath" in sys.modules
import json
print(json.dumps(loaded))
"""


def _setup_probes() -> dict[str, str]:
    """bench/workloads.py's SETUP_PROBES, read without importing the bench."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    (probes,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SETUP_PROBES"]
    return probes


class TestLazyModules:
    """A start loads only what it runs.

    Exact sums load no relations, quadrature or argparse, and no start
    loads dataclasses, inspect, json or numpy.  Of the benchmark's setup
    probes only accel's, which returns an mpf, loads mpmath, and the CLI's
    ln, lnq, eval, gamma, rearranged, relations, pi and integral-check
    print without it, as does bench of the pi target.
    """

    def _child(self, *flags, code, args=()):
        proc = subprocess.run([sys.executable, *flags, "-c", code, str(SRC), *args],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_exact_sums_load_neither_module_nor_argparse(self):
        out = self._child(code=_LAZY_CHILD)
        assert out["before"] == []
        assert out["after_access"] == ["logser.relations"]
        assert out["code"] == 0
        assert out["relation_count"] == 3

    def test_no_module_imports_typing(self):
        assert self._child("-S", code=_NO_SITE_CHILD) is False

    @pytest.mark.parametrize("workload", sorted(_setup_probes()))
    def test_a_start_loads_only_what_its_probe_runs(self, workload):
        loaded = self._child(code=_START_CHILD, args=(_setup_probes()[workload],))
        # accel's probe returns an mpf, and only mpmath makes one
        assert set(loaded) <= ({"mpmath"} if workload == "accel" else set())

    def test_cli_values_and_relations_load_no_mpmath(self):
        assert self._child(code=_CLI_CHILD) is False

    def test_bench_of_pi_loads_no_mpmath(self):
        assert self._child(code=_PI_BENCH_CHILD) is False
