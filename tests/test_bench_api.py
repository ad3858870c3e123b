"""The library names the benchmark reaches, resolved against the package.

The benchmark (``bench/``) calls into ``nonadd`` from outside, so removing a
name it uses breaks a benchmark run but no library test.  These tests read
the benchmark's sources, unchanged, and resolve every ``nonadd.…`` attribute
chain and every ``from nonadd… import …`` name in them; the names the
benchmark reaches another way (a keyword, a result field, a name passed to
``getattr``, the tracer's per-layer list) are checked by hand.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import nonadd
from nonadd.conditions import CONDITIONS
from nonadd.integrals import IntegralResult
from nonadd.measures import MEASURE_PROPERTIES, MonotoneMeasure

BENCH = Path(__file__).resolve().parent.parent / "bench"
SOURCES = sorted(BENCH.glob("*.py"))


def resolve(dotted: str):
    """The object a dotted name starting at ``nonadd`` names, importing
    submodules on the way; AttributeError or ImportError when it is gone."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part) and inspect.ismodule(obj):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def chain(node) -> str | None:
    """``a.b.c`` for an attribute chain on a plain name, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def bench_names(path: Path) -> list[str]:
    """Every ``nonadd`` name the module's code (not its strings) reaches."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nonadd":
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name.split(".")[0] == "nonadd"]
        elif isinstance(node, ast.Attribute):
            dotted = chain(node)
            if dotted and dotted.split(".")[0] == "nonadd":
                names.append(dotted)
    return names


def test_the_benchmark_reaches_the_library():
    assert {p.name for p in SOURCES} >= {"tracer.py", "workloads.py", "spec.py"}
    assert "nonadd.MonotoneMeasure.distortion" in bench_names(BENCH / "workloads.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_bench_name_resolves(path):
    for dotted in bench_names(path):
        resolve(dotted)


def test_names_reached_by_hand():
    # workloads.py passes name= and reads the three result fields
    assert "name" in inspect.signature(MonotoneMeasure.distortion).parameters
    assert set(IntegralResult._fields) >= {"value", "exact", "level"}
    # workloads.py reads both result forms through getattr(nonadd, name)
    for name in ("upper_integral_result", "lower_integral_result"):
        assert callable(getattr(nonadd, name))
    # tracer.py patches these methods and reads the cached table
    for attr in ("table", "__call__"):
        assert attr in MonotoneMeasure.__dict__
    assert hasattr(MonotoneMeasure.possibility(nonadd.FiniteSpace(1), [1.0]), "_table")


def test_per_layer_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spec", BENCH / "spec.py")
    bench_spec = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_spec)
    metrics = {metric for metric, _ in bench_spec.PER_LAYER}
    # a traced span has a call count and a self time; a bare layer has no name
    timed = {m[:-len(".calls")] for m in metrics
             if m.endswith(".calls") and m.replace(".calls", ".self_ms") in metrics}
    for metric in sorted(t for t in timed if "." in t):
        layer, name = metric.split(".", 1)
        if layer == "conditions":
            assert name in CONDITIONS, metric
        elif name.startswith("check_property."):
            assert name.split(".", 1)[1] in MEASURE_PROPERTIES, metric
        elif name == "table_build":
            assert "table" in MonotoneMeasure.__dict__
        elif metric == "theorems.verify":   # the tracer sums every verify_*
            assert any(k.startswith("verify_") for k in vars(nonadd.theorems))
        else:
            assert callable(resolve(f"nonadd.{layer}.{name}")), metric
