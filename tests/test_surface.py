"""The public surface: what ``logser`` exports and what the benchmark calls."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import logser

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_all_lists_exactly_the_public_bindings():
    # both lists in logser/__init__ are kept by hand: every public function
    # and class it binds, and TERM_LIMIT, is exported, and nothing else is
    bound = {
        name
        for name, value in vars(logser).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert len(set(logser.__all__)) == len(logser.__all__)
    assert set(logser.__all__) == bound | {"TERM_LIMIT"}
    for name in logser.__all__:
        assert getattr(logser, name) is not None, name


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
