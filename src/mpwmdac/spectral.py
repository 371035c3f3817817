"""Exact spectra of unfiltered modulator periods.

A period of N = 2**n clock cycles is a zero-order-hold signal built from
runs: a run of w slots starting at slot s is high on [s*T/N, (s+w)*T/N).
Its exponential Fourier series x(t) = sum_k a_k exp(+j k 2 pi t / T) has the
closed-form rectangle coefficients

    a_k = (w/N) * sinc(k w/N) * exp(-j pi k (2 s + w) / N),   a_0 = w/N

and the spectrum of any 0/1 waveform is the sum over its runs (linearity).
A unit slot is the run of width 1.  `superpose_coeffs` evaluates that sum
directly for every kind and every n <= 16, in chunks of bounded size;
`dft_period` reaches the same numbers through an FFT plus the
zero-order-hold bin correction, giving an independent numeric cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ParameterError, _require_array, _require_int, _require_real
from .modwave import BitWaveform, DutyCode, ModulatorConfig, _slot_wave

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

    `fundamental_hz` is 1/T, finite and positive, and the coefficients are
    finite.  `samples_per_period` is the slot count 2**n of the generating
    waveform; it fixes the zero-order-hold envelope needed to extend
    coefficients beyond K and to evaluate the total power in closed form.
    """

    coeffs: np.ndarray
    fundamental_hz: float
    samples_per_period: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _require_array("coeffs", self.coeffs, complex))
        if self.coeffs.size == 0:
            raise ParameterError("a spectrum needs k_max >= 0")
        if not np.isfinite(self.coeffs).all():
            raise ParameterError("spectrum coefficients must be finite")
        fundamental = _require_real("fundamental_hz", self.fundamental_hz)
        object.__setattr__(self, "fundamental_hz", fundamental)

    @property
    def k_max(self) -> int:
        return self.coeffs.size - 1

    @property
    def dc(self) -> float:
        return float(self.coeffs[0].real)

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.coeffs)

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
_TILE_TERMS = 1 << 16  # k x run terms per tile: about 1 MiB per complex temporary
_TILE_RUNS = 1 << 8  # about the runs per tile, and per gemv sum, once k_max >= 255
# Its own bound on the k grid, not a tile's: the output is 16 bytes a
# harmonic, so the cap holds one call's output to 16 MiB, and a huge k_max
# is refused before anything is allocated.
_K_MAX_LIMIT = (1 << 20) - 1


@cache
def _roots(n: int) -> np.ndarray:
    """The 2N roots of unity exp(-j pi i / N), i = 0..2N-1, for N = 2**n.

    Read-only and kept per n: at most 4 MiB over n = 2..16."""
    size = 1 << n
    roots = np.exp(-1j * np.pi / size * np.arange(2 * size))
    roots.flags.writeable = False
    return roots


def _block(total: int, most: int) -> int:
    """Length of the equal blocks that cover range(total), each at most `most`."""
    return -(-total // -(-total // most))


def _run_coeffs(n: int, starts: np.ndarray, widths: np.ndarray, k_max: int | None) -> np.ndarray:
    """Sum of rectangle coefficients over runs (starts, widths) for k = 0..k_max.

    k_max defaults to N/2.  The phase index k (2 s + w) is reduced mod 2N in
    integers (a mask, 2N being a power of two) before it picks its root of
    unity, so the phase is exact at every k and a_0 sums w/N exactly.  The
    k x run terms are summed in tiles of at most `_TILE_TERMS`, split over
    the harmonics and the runs, so the working memory does not grow with
    k_max or the run count.  sinc is evaluated once per harmonic and distinct
    width, at most sqrt(2N) widths since the runs fit in N slots, and
    gathered into each tile's run columns.
    """
    size = 1 << n
    k_max = _require_int("k_max", size // 2 if k_max is None else k_max, 0, _K_MAX_LIMIT)
    coeffs = np.zeros(k_max + 1, dtype=complex)
    if not starts.size:
        return coeffs
    roots = _roots(n)
    distinct, column = np.unique(widths, return_inverse=True)
    phase, weight = 2 * starts + widths, widths / size
    k_step = _block(k_max + 1, _TILE_TERMS // min(starts.size, _TILE_RUNS))
    run_step = _block(starts.size, _TILE_TERMS // k_step)
    for k0 in range(0, k_max + 1, k_step):
        k = np.arange(k0, min(k0 + k_step, k_max + 1))
        sinc = np.sinc(np.outer(k, distinct) / size)
        for i in range(0, starts.size, run_step):
            runs = slice(i, i + run_step)
            terms = sinc[:, column[runs]] * roots[np.outer(k, phase[runs]) & (2 * size - 1)]
            coeffs[k0 : k0 + k.size] += terms @ weight[runs]
    return coeffs


def unit_signal_coeffs(
    n: int, m: int, k_max: int | None = None, f_clk: float | None = None
) -> Spectrum:
    """Spectrum of the unit signal at slot m of 2**n: the run of width 1.

    With f_clk omitted (None) the period is normalized to 1 s.
    """
    n = _require_int("n", n, 2, 16)
    size = 1 << n
    m = _require_int("m", m, 0, size - 1)
    f_clk = float(size) if f_clk is None else _require_real("f_clk", f_clk)
    fundamental = _require_real("f_clk / 2**n", f_clk / size)  # may underflow to 0
    coeffs = _run_coeffs(n, np.array([m]), np.array([1]), k_max)
    return Spectrum(coeffs, fundamental, size)


def superpose_coeffs(cfg: ModulatorConfig, duty: int | DutyCode,
                     k_max: int | None = None) -> Spectrum:
    """Analytic spectrum of the generated waveform by run superposition.

    Sums the closed-form rectangle coefficients over the runs of high slots
    of generate(cfg, duty); a pulse that wraps the period is two runs.
    Independent of (and checked against) `dft_period`.
    """
    wave = _slot_wave(cfg, duty)
    edges = np.diff(wave.bits.astype(np.int8), prepend=0, append=0)
    starts = np.nonzero(edges == 1)[0]
    coeffs = _run_coeffs(cfg.n, starts, np.nonzero(edges == -1)[0] - starts, k_max)
    return Spectrum(coeffs, cfg.f_clk / cfg.steps, cfg.steps)


def _dft_bins(bits: np.ndarray) -> np.ndarray:
    """DFT bins X_0..X_(N-1) of the N-sample period, scaled by 1/N."""
    return np.fft.fft(bits.astype(float)) / bits.size


def _hold_envelope(k: np.ndarray, size: int) -> np.ndarray:
    """Zero-order-hold factor exp(-j pi k/N) * sinc(k/N): the series coefficient
    a_k of a held N-slot period is its DFT bin X_(k mod N) times it, for any k."""
    return np.exp(-1j * np.pi * k / size) * np.sinc(k / size)


def dft_period(wave: BitWaveform, k_max: int | None = None) -> Spectrum:
    """Numeric spectrum of one period via FFT plus hold correction.

    The DFT bin X_k describes the sample train; the zero-order-hold factor
    converts it to the series coefficient a_k of the held continuous
    waveform, so analytic and numeric spectra agree to machine precision.
    """
    size = len(wave)
    if size & (size - 1):
        raise ParameterError(f"waveform length must be a power of two, got {size}")
    half = size // 2
    why = f"; dft_period resolves k <= {half} for {size} samples"
    k = np.arange(_require_int("k_max", half if k_max is None else k_max, 0, half, why) + 1)
    return Spectrum(_dft_bins(wave.bits)[k] * _hold_envelope(k, size), wave.f_clk / size, size)


def dominant_harmonics(spec: Spectrum) -> HarmonicSummary | None:
    """Locate the two largest-amplitude AC harmonics.

    Returns NO_HARMONIC (None) when every AC coefficient is below
    `_AC_FLOOR` relative to max(DC, 1); ties resolve to the lower frequency.
    A spectrum with AC content but zero DC is refused.
    """
    if spec.k_max < 3:
        raise ParameterError(f"need at least 3 harmonics, got k_max={spec.k_max}")
    mags = spec.magnitudes()
    dc = mags[0]
    ac = mags[1:]
    if ac.max() <= _AC_FLOOR * max(dc, 1.0):
        return NO_HARMONIC
    if dc == 0:
        raise ParameterError("amplitudes over DC need a nonzero DC, got DC 0 with AC content")
    k1 = int(np.argmax(ac)) + 1
    rest = ac.copy()
    rest[k1 - 1] = -1.0
    k2 = int(np.argmax(rest)) + 1
    return HarmonicSummary(
        k1=k1,
        f1=k1 * spec.fundamental_hz,
        amp1_over_dc=2.0 * mags[k1] / dc,
        k2=k2,
        f2=k2 * spec.fundamental_hz,
        amp2_over_dc=2.0 * mags[k2] / dc,
    )
