"""Exception types and checks shared across the package."""

import math

import numpy as np


class ParameterError(ValueError):
    """An argument violates a documented bound or precondition.

    The message always names the offending parameter and the bound so that
    callers (and the CLI error records) can report something actionable.
    """


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be finite and positive, got {value}")


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
