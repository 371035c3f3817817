"""Exception types and checks shared across the package."""

import math


class ParameterError(ValueError):
    """An argument violates a documented bound or precondition.

    The message always names the offending parameter and the bound so that
    callers (and the CLI error records) can report something actionable.
    """


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be finite and positive, got {value}")
