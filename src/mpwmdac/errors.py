"""Exception types and checks shared across the package: one type rule for the
public API (`_typed`, applied on import) and the value checks `_require_*`."""

import functools
import inspect
import math
import types

import numpy as np


class ParameterError(ValueError):
    """An argument violates a documented bound or precondition.

    The message always names the offending parameter and the bound so that
    callers (and the CLI error records) can report something actionable.
    """


def _checked(fn):
    """`fn` with an entry check of each parameter annotated with package classes, str or None
    only (no public function takes *args); `fn` itself if no parameter is."""
    checks, absent = [], object()  # (position, name, the classes it takes, their names)
    for at, param in enumerate(inspect.signature(fn, eval_str=True).parameters.values()):
        hint = param.annotation
        kinds = hint.__args__ if isinstance(hint, types.UnionType) else (hint,)
        if all(k in (str, types.NoneType) or k.__module__.startswith(__package__) for k in kinds):
            names = " or ".join(k.__name__ for k in kinds if k is not types.NoneType)
            checks.append((at, param.name, kinds, names))
    if not checks:
        return fn

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        for at, name, kinds, names in checks:
            value = args[at] if at < len(args) else kwargs.get(name, absent)
            if not isinstance(value, kinds) and value is not absent:
                raise ParameterError(f"{name} must be of type {names}, got {type(value).__name__}")
        return fn(*args, **kwargs)

    return checked


def _typed(*modules: types.ModuleType) -> None:
    """Apply `_checked` to each function that a module's __all__ names, at every name the
    modules hold it by, and to each public method and classmethod of each class it names."""
    swaps = {}  # id of a function -> its checked version
    for obj in (vars(module)[name] for module in modules for name in module.__all__):
        if isinstance(obj, types.FunctionType):
            swaps[id(obj)] = _checked(obj)
        for attr, raw in list(vars(obj).items()) if isinstance(obj, type) else ():
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if not attr.startswith("_") and isinstance(fn, types.FunctionType):
                setattr(obj, attr, _checked(fn) if fn is raw else classmethod(_checked(fn)))
    for space in map(vars, modules):
        space.update({k: swaps[id(v)] for k, v in space.items() if id(v) in swaps})


def _require_real(name: str, value, lo: float = 0, above: bool = True) -> float:
    """`value` as a finite Python float above `lo` (or at least `lo` when `above` is
    False), else a ParameterError naming `name` and the bound.  NumPy ints and floats
    pass; bool, str, None, complex and an int too large for a float do not."""
    bound = "positive" if (lo, above) == (0, True) else f"{'>' if above else '>='} {lo}"
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{name} must be a real number, finite and {bound}, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int too large for a float is reported as inf
        value = real = math.inf if value > 0 else -math.inf
    if math.isfinite(real) and (real > lo if above else real >= lo):
        return real
    raise ParameterError(f"{name} must be finite and {bound}, got {value}")


def _require_int(name: str, value, lo: int, hi: float = math.inf, why: str = "") -> int:
    """`value` as a Python int in [lo, hi], else a ParameterError naming `name` (and
    `why` after the upper bound).  NumPy ints pass; bool, float, str and None do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if lo <= value <= hi:
        return value
    side = f"{name} >= {lo}" if value < lo else f"{name} must be at most {hi}{why}"
    raise ParameterError(f"{name} must be in [{lo}, {hi}], got {value} ({side})")


def _require_array(name: str, value, dtype=None) -> np.ndarray:
    """`value` as a NumPy array of real numbers (complex ones too when `dtype` is complex),
    cast to `dtype` when given, else a ParameterError naming `name`.  A ragged sequence and
    an array of str or objects are refused."""
    try:
        array = np.asarray(value)
    except ValueError:  # numpy's refusal of a ragged sequence
        raise ParameterError(f"{name} must be an array of numbers, got a ragged sequence") from None
    if array.dtype.kind not in ("biufc" if dtype is complex else "biuf"):
        raise ParameterError(f"{name} must be an array of numbers, got dtype {array.dtype}")
    return array if dtype is None else array.astype(dtype, copy=False)


def _require_bits(bits, name: str = "bits") -> np.ndarray:
    """`bits` as a uint8 array: a 1-D array of 0/1 values (bool is fine), else a
    ParameterError naming `name`."""
    bits = _require_array(name, bits)
    if bits.ndim != 1:
        raise ParameterError(f"{name} must be a 1-D array of 0/1 values, got shape {bits.shape}")
    bad = bits > 1 if bits.dtype.kind in "bu" else (bits != 0) & (bits != 1)  # one test if unsigned
    if bad.any():
        i = int(np.argmax(bad))
        raise ParameterError(f"{name} must be 0 or 1, got {bits[i].item()!r} at index {i}")
    return bits.astype(np.uint8, copy=False)
