"""The package root: one public surface, the union of the modules' lists, every
public parameter annotated, and one type rule read from those annotations."""

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import numpy as np

import mpwmdac
from mpwmdac import (
    AnalogTrace,
    BitWaveform,
    EdgeModel,
    FilterModel,
    ModulatorConfig,
    ParameterError,
    analog,
    metrics,
    modwave,
    mpwm_wave,
    periph,
    spectral,
)


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


def _public():
    """(name, function, owning class or None) for every public function, and every public
    method and classmethod of every public class; a classmethod comes bound to its class."""
    for name in mpwmdac.__all__:
        obj = getattr(mpwmdac, name)
        if inspect.isfunction(obj):
            yield name, obj, None
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(getattr(raw, "__func__", raw)):
                    yield f"{name}.{attr}", getattr(obj, attr), obj


def test_every_public_parameter_is_annotated():
    # the type rule reads the annotations: a bare parameter would escape it unseen
    bare = [f"{name}({param.name})" for name, fn, _ in _public()
            for param in inspect.signature(fn, eval_str=True).parameters.values()
            if param.name not in ("self", "cls") and param.annotation is param.empty]
    assert not bare


def _kinds(hint) -> tuple:
    """The classes of a union annotation, NoneType included."""
    return hint.__args__ if isinstance(hint, types.UnionType) else (hint,)


def _typed_by_the_rule(hint) -> bool:
    """Whether the rule checks a parameter: its annotation names package classes or str
    only, None aside."""
    return all(k in (str, type(None)) or k.__module__.startswith("mpwmdac.")
               for k in _kinds(hint))


_CFG = ModulatorConfig.mpwm(5, 1)
# One valid example of each class that fills the other required arguments of a call
# below, taken by the first class of their annotation; a class that has none fails the
# test with a KeyError naming it.
_EXAMPLES = {
    ModulatorConfig: _CFG,
    BitWaveform: mpwm_wave(_CFG, 3),
    EdgeModel: EdgeModel(t_dr=1e-9),
    FilterModel: FilterModel(1e6),
    AnalogTrace: AnalogTrace(np.ones(4), 4.0, 1.0),
    str: "harmonic",
    int: 3,
    float: 0.5,
    bool: False,
}
_WRONG = (None, 5.0, "x", [1, 2])


def test_every_model_parameter_refuses_a_wrong_type_by_name():
    """Every public parameter the type rule covers, required and optional, refuses each
    wrong-typed value with a ParameterError that names it; the other arguments come
    from _EXAMPLES."""
    covered, leaks = set(), []
    for qual, fn, owner in _public():
        params = list(inspect.signature(fn, eval_str=True).parameters.values())
        required = [param for param in params if param.default is param.empty]
        for param in params:
            if not _typed_by_the_rule(param.annotation):
                continue
            covered.add(f"{qual}({param.name})")
            for wrong in _WRONG:
                if isinstance(wrong, _kinds(param.annotation)):
                    continue
                args = [wrong if p is param else _EXAMPLES[owner] if p.annotation is p.empty
                        else _EXAMPLES[_kinds(p.annotation)[0]] for p in required]
                kwargs = {} if param in required else {param.name: wrong}
                try:
                    fn(*args, **kwargs)
                    leaks.append(f"{qual}({param.name}={wrong!r}) returned")
                except Exception as error:  # every escape is a leak
                    if not (isinstance(error, ParameterError)
                            and re.match(rf"{param.name} must be of type ", str(error))):
                        leaks.append(f"{qual}({param.name}={wrong!r}): {error!r}")
    assert not leaks
    assert {"mpwm_wave(cfg)", "run_script(text)", "run_script(periph)", "dc_average(arg)",
            "EdgeList.from_bits(wave)", "MetricsReport.gather(fm)"} <= covered
