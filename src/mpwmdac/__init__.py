"""Bit-accurate behavioral simulator and measurement toolkit for
pulse-modulation DACs (PWM, PCM, first-order noise shaping, and the
split-period MPWM scheme with an optional sub-clock fine stage).

The package root re-exports the `__all__` of every module, so each public
name is listed once, in the module that defines it."""

from . import analog, metrics, modwave, periph, spectral
from .analog import *  # noqa: F403
from .errors import ParameterError
from .metrics import *  # noqa: F403
from .modwave import *  # noqa: F403
from .periph import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "ParameterError", *analog.__all__, *metrics.__all__, *modwave.__all__,
    *periph.__all__, *spectral.__all__,
]
