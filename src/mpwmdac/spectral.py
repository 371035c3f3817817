"""Exact spectra of unfiltered modulator periods.

A period of 2**n clock cycles is a zero-order-hold signal built from unit
slots: slot m is high on [m*T/2**n, (m+1)*T/2**n).  Its exponential Fourier
series x(t) = sum_k a_k exp(+j k 2 pi t / T) has the closed-form slot
coefficients

    a_0 = 1 / 2**n
    a_k = exp(-j k (2 m + 1) pi / 2**n) * sin(k pi / 2**n) / (k pi)

and the spectrum of any 0/1 waveform is the sum of its occupied slots'
coefficients (linearity).  `superpose_coeffs` evaluates that sum directly;
`dft_period` reaches the same numbers through an FFT plus the zero-order-hold
bin correction, giving an independent numeric cross-check.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .modwave import BitWaveform, ModulatorConfig, mpwm_wave, _coerce_duty

__all__ = [
    "Spectrum",
    "HarmonicSummary",
    "unit_signal_coeffs",
    "superpose_coeffs",
    "dft_period",
    "dominant_harmonics",
    "NO_HARMONIC",
]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Fourier-series coefficients a_k for harmonics k = 0..K.

    `fundamental_hz` is 1/T.  `samples_per_period` is the slot count 2**n of
    the generating waveform; it fixes the zero-order-hold envelope needed to
    extend coefficients beyond K and to evaluate the total power in closed
    form.
    """

    coeffs: np.ndarray
    fundamental_hz: float
    samples_per_period: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.size == 0:
            raise ParameterError("a spectrum needs k_max >= 0")

    @property
    def k_max(self) -> int:
        return self.coeffs.size - 1

    @property
    def dc(self) -> float:
        return float(self.coeffs[0].real)

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.coeffs)

    def frequencies(self) -> np.ndarray:
        return np.arange(self.coeffs.size) * self.fundamental_hz

    def total_power(self) -> float:
        """Two-sided sum over all k in Z of |a_k|**2, in closed form.

        Coefficient towers k = k0 + t*N share the DFT bin value X_k0 under
        the hold envelope, and sum_t sinc(u+t)**2 == 1, so the doubly
        infinite series collapses to the one-period bin power
        sum_{k0=0}^{N-1} |X_k0|**2.  Requires coefficients up to the
        half-sample harmonic k = N/2 (conjugate symmetry covers the rest).
        For a 0/1 waveform the result equals the duty fraction exactly.
        """
        n = self.samples_per_period
        half = n // 2
        if self.k_max < half:
            raise ParameterError(
                f"total_power needs coefficients up to k={half}, have k_max={self.k_max}"
            )
        k = np.arange(half + 1)
        env = np.sinc(k / n)
        bins = np.abs(self.coeffs[: half + 1]) / env
        # slot counts are powers of two, so the Nyquist bin k = N/2 exists
        power = bins[0] ** 2 + 2.0 * np.sum(bins[1:half] ** 2) + bins[half] ** 2
        return float(power)

    def write_csv(self, fp: io.TextIOBase) -> None:
        """Write rows (k, frequency_hz, re, im, magnitude, magnitude_over_dc)."""
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["k", "frequency_hz", "re", "im", "magnitude", "magnitude_over_dc"])
        dc = abs(self.coeffs[0])
        for k, a in enumerate(self.coeffs):
            mag = abs(a)
            over_dc = mag / dc if dc > 0 else float("nan")
            writer.writerow(
                [
                    k,
                    f"{k * self.fundamental_hz:.12g}",
                    f"{a.real:.12g}",
                    f"{a.imag:.12g}",
                    f"{mag:.12g}",
                    f"{over_dc:.12g}",
                ]
            )


@dataclass(frozen=True)
class HarmonicSummary:
    """Strongest two AC harmonics, amplitudes relative to the DC level.

    Amplitudes are single-sided (2*|a_k|) divided by the DC value; ties go to
    the lower frequency.
    """

    k1: int
    f1: float
    amp1_over_dc: float
    k2: int
    f2: float
    amp2_over_dc: float


# Sentinel returned when a spectrum has no AC content at all.
NO_HARMONIC = None
_AC_FLOOR = 1e-12  # AC magnitudes at or below this share of max(DC, 1) count as none


def _slot_coeffs(n: int, slots: np.ndarray, k_max: int) -> np.ndarray:
    """Sum of unit-slot coefficients over `slots` for k = 0..k_max."""
    size = 1 << n
    k = np.arange(k_max + 1)
    # a_k = (1/N) * sinc(k/N) * sum_m exp(-j pi k (2m+1) / N), valid for k = 0 too
    phase = np.exp(-1j * np.pi * np.outer(k, 2 * slots + 1) / size)
    return np.sinc(k / size) / size * phase.sum(axis=1)


def unit_signal_coeffs(
    n: int, m: int, k_max: int | None = None, f_clk: float | None = None
) -> Spectrum:
    """Spectrum of the single-slot unit signal at slot m of 2**n.

    a_0 = 1/2**n and a_k = exp(-j k (pi/2**n + 2 m pi/2**n)) *
    sin(k pi/2**n) / (k pi) for k >= 1.  With f_clk omitted the period is
    normalized to 1 s.
    """
    if not 2 <= n <= 16:
        raise ParameterError(f"n must be in [2, 16], got {n}")
    size = 1 << n
    if not 0 <= m < size:
        raise ParameterError(f"m must be in [0, {size - 1}] for n={n}, got {m}")
    if k_max is None:
        k_max = size // 2
    fundamental = (f_clk / size) if f_clk else 1.0
    coeffs = _slot_coeffs(n, np.array([m]), k_max)
    return Spectrum(coeffs, fundamental, size)


def superpose_coeffs(
    cfg: ModulatorConfig, duty, k_max: int | None = None
) -> Spectrum:
    """Analytic spectrum of the generated waveform by slot superposition.

    Sums the closed-form unit-slot coefficients over the occupied slots of
    mpwm_wave(cfg, duty); independent of (and checked against) `dft_period`.
    """
    if cfg.n > 12:
        raise ParameterError(f"superpose_coeffs supports n <= 12, got n={cfg.n}")
    duty = _coerce_duty(cfg, duty)
    wave = mpwm_wave(cfg, duty)
    if k_max is None:
        k_max = cfg.steps // 2
    slots = np.nonzero(wave.bits)[0]
    if slots.size == 0:
        coeffs = np.zeros(max(k_max + 1, 0), dtype=complex)
    else:
        coeffs = _slot_coeffs(cfg.n, slots, k_max)
    return Spectrum(coeffs, cfg.f_clk / cfg.steps, cfg.steps)


def _hold_envelope(k: np.ndarray, size: int) -> np.ndarray:
    """Zero-order-hold factor exp(-j pi k/N) * sinc(k/N) for harmonics k.

    Multiplying DFT bin X_(k mod N) of an N-sample period by it gives the
    series coefficient a_k of the held (staircase) continuous waveform.
    """
    return np.exp(-1j * np.pi * k / size) * np.sinc(k / size)


def dft_period(wave: BitWaveform, k_max: int | None = None) -> Spectrum:
    """Numeric spectrum of one period via FFT plus hold correction.

    The DFT bin X_k describes the sample train; `_hold_envelope` converts it
    to the series coefficient of the held (zero-order) continuous waveform,
    so analytic and numeric spectra agree to machine precision.
    """
    size = len(wave)
    if size & (size - 1):
        raise ParameterError(f"waveform length must be a power of two, got {size}")
    half = size // 2
    if k_max is None:
        k_max = half
    if k_max > half:
        raise ParameterError(
            f"dft_period resolves k <= {half} for {size} samples, got k_max={k_max}"
        )
    bins = np.fft.rfft(wave.bits.astype(float)) / size
    k = np.arange(k_max + 1)
    return Spectrum(bins[k] * _hold_envelope(k, size), wave.f_clk / size, size)


def dominant_harmonics(spec: Spectrum) -> HarmonicSummary | None:
    """Locate the two largest-amplitude AC harmonics.

    Returns NO_HARMONIC (None) when every AC coefficient is below
    `_AC_FLOOR` relative to max(DC, 1); ties resolve to the lower frequency.
    """
    if spec.k_max < 3:
        raise ParameterError(f"need at least 3 harmonics, got k_max={spec.k_max}")
    mags = spec.magnitudes()
    dc = mags[0]
    ac = mags[1:]
    if ac.max() <= _AC_FLOOR * max(dc, 1.0):
        return NO_HARMONIC
    k1 = int(np.argmax(ac)) + 1
    rest = ac.copy()
    rest[k1 - 1] = -1.0
    k2 = int(np.argmax(rest)) + 1
    norm = dc if dc > 0 else float("nan")
    return HarmonicSummary(
        k1=k1,
        f1=k1 * spec.fundamental_hz,
        amp1_over_dc=2.0 * mags[k1] / norm,
        k2=k2,
        f2=k2 * spec.fundamental_hz,
        amp2_over_dc=2.0 * mags[k2] / norm,
    )
