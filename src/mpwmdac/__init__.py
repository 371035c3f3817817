"""Bit-accurate behavioral simulator and measurement toolkit for
pulse-modulation DACs (PWM, PCM, first-order noise shaping, and the
split-period MPWM scheme with an optional sub-clock fine stage).

The package root checks each module's `__all__` by `errors._typed` and
re-exports it, so each public name is listed once, where it is defined."""

from . import analog, metrics, modwave, periph, spectral
from .errors import ParameterError, _typed

_typed(analog, metrics, modwave, periph, spectral)
from .analog import *  # noqa: E402, F403
from .metrics import *  # noqa: E402, F403
from .modwave import *  # noqa: E402, F403
from .periph import *  # noqa: E402, F403
from .spectral import *  # noqa: E402, F403

__version__ = "0.1.0"

__all__ = [
    "ParameterError", *analog.__all__, *metrics.__all__, *modwave.__all__,
    *periph.__all__, *spectral.__all__,
]
