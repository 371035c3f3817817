"""The package root: one public surface, the union of the modules' lists."""

import ast
import importlib
from pathlib import Path

import mpwmdac
from mpwmdac import analog, metrics, modwave, periph, spectral


def test_root_exports_the_union_of_the_module_lists():
    modules = (analog, metrics, modwave, periph, spectral)
    expected = {"ParameterError"}.union(*(m.__all__ for m in modules))
    assert len(mpwmdac.__all__) == len(set(mpwmdac.__all__))
    assert set(mpwmdac.__all__) == expected
    for m in modules:
        for name in m.__all__:
            assert getattr(mpwmdac, name) is getattr(m, name), name
    assert mpwmdac.ParameterError is mpwmdac.errors.ParameterError


def test_every_traced_benchmark_name_resolves():
    # the benchmark's tracer wraps these by name; a rename would break every traced run
    source = (Path(__file__).parents[1] / "bench" / "tracer.py").read_text()
    traced = next(
        ast.literal_eval(node.value) for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    )
    assert "MetricsReport.gather" in traced["metrics"]
    for module, names in traced.items():
        for name in names:
            obj = importlib.import_module(f"mpwmdac.{module}")
            for part in name.split("."):
                obj = getattr(obj, part)
            assert callable(obj), f"{module}.{name}"
