"""Continuous-time reconstruction: edge model, filtering, ripple, settling.

Digital periods become piecewise-linear voltage traces under a trapezoid
edge model, then pass through a second-order Butterworth low-pass filter.
Filtering uses closed-form state propagation over the piecewise-linear
input (no fixed-step integration error), which keeps the DC-preservation
and ripple invariants testable at machine precision.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy import signal
from scipy.linalg import expm
from scipy.optimize import brentq

from .errors import ParameterError
from .modwave import (
    BitWaveform,
    DutyCode,
    EdgeList,
    ModulatorConfig,
    _coerce_duty,
    count_pulses,
    generate,
)
from .spectral import _hold_envelope

__all__ = [
    "EdgeModel",
    "FilterModel",
    "AnalogTrace",
    "IDEAL_EDGES",
    "to_analog",
    "dc_average",
    "filter_response",
    "steady_ripple",
    "settling_time",
]


@dataclass(frozen=True)
class EdgeModel:
    """Trapezoid edge nonideality.

    t_dr / t_df are the mid-amplitude delays of the output's rising and
    falling transitions relative to the nominal clock grid; t_rise / t_fall
    are 10-90% swing times (0 means an ideal step).  The pulse-width
    deviation dw = t_dr - t_df is realized as pulse widening: each pulse's
    leading edge lands t_df after its nominal time and its trailing edge
    t_dr after, so a positive dw stretches every pulse and the period
    average rises by pulse_count * dw * f_clk LSB.  supply_rel_err is the
    relative deviation of u_s from the nominal supply that defines the LSB.
    """

    t_dr: float = 0.0
    t_df: float = 0.0
    t_rise: float = 0.5e-9
    t_fall: float = 0.5e-9
    u_s: float = 1.0
    supply_rel_err: float = 0.0

    def __post_init__(self) -> None:
        for name in ("t_dr", "t_df", "t_rise", "t_fall", "u_s", "supply_rel_err"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("t_dr", "t_df", "t_rise", "t_fall"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.u_s <= 0:
            raise ParameterError(f"u_s must be positive, got {self.u_s}")
        if self.supply_rel_err <= -1:
            raise ParameterError(f"supply_rel_err must be > -1, got {self.supply_rel_err}")

    @property
    def dw(self) -> float:
        """Pulse width deviation t_dr - t_df (may be negative)."""
        return self.t_dr - self.t_df

    @property
    def u_nominal(self) -> float:
        """Nominal supply from which the LSB is defined."""
        return self.u_s / (1.0 + self.supply_rel_err)


IDEAL_EDGES = EdgeModel(t_rise=0.0, t_fall=0.0)


@dataclass(frozen=True)
class FilterModel:
    """Second-order Butterworth low-pass with -3 dB cutoff f_c (Hz).

    H(s) = wc**2 / (s**2 + sqrt(2) wc s + wc**2); |H(0)| = 1 and
    |H(j wc)| = 1/sqrt(2).
    """

    f_c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f_c) and self.f_c > 0):
            raise ParameterError(f"f_c must be finite and positive, got {self.f_c}")

    @property
    def omega_c(self) -> float:
        return 2.0 * np.pi * self.f_c

    def state_space(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        wc = self.omega_c
        a = np.array([[0.0, 1.0], [-wc * wc, -np.sqrt(2.0) * wc]])
        b = np.array([[0.0], [wc * wc]])
        c = np.array([[1.0, 0.0]])
        return a, b, c

    def freq_response(self, f_hz) -> np.ndarray:
        """Complex H at frequency f_hz (array ok)."""
        x = np.asarray(f_hz, dtype=float) / self.f_c
        return 1.0 / ((1.0 - x * x) + 1j * np.sqrt(2.0) * x)

    def unit_step(self, t) -> np.ndarray:
        """Closed-form unit step response (0 for t < 0)."""
        t = np.asarray(t, dtype=float)
        theta = self.omega_c * np.clip(t, 0.0, None) / np.sqrt(2.0)
        return np.where(t < 0, 0.0, 1.0 - np.exp(-theta) * (np.cos(theta) + np.sin(theta)))

    def write_response_table(self, fp: io.TextIOBase, f_hz: np.ndarray) -> None:
        """Write rows (frequency_hz, magnitude, magnitude_db, phase_rad)."""
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["frequency_hz", "magnitude", "magnitude_db", "phase_rad"])
        h = self.freq_response(f_hz)
        for f, v in zip(np.asarray(f_hz, dtype=float), h):
            mag = abs(v)
            writer.writerow(
                [
                    f"{f:.12g}",
                    f"{mag:.12g}",
                    f"{20.0 * np.log10(mag):.12g}",
                    f"{np.angle(v):.12g}",
                ]
            )


@dataclass(frozen=True, eq=False)
class AnalogTrace:
    """Uniformly sampled voltage trace; samples are the vertices of a
    piecewise-linear signal."""

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0
    period_s: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))

    def __len__(self) -> int:
        return int(self.samples.size)

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size) / self.sample_rate

    def write_csv(self, fp: io.TextIOBase) -> None:
        """Write rows (time_s, volts)."""
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["time_s", "volts"])
        for t, v in zip(self.times(), self.samples):
            writer.writerow([f"{t:.12g}", f"{v:.12g}"])


def _as_edges(wave: BitWaveform | EdgeList) -> EdgeList:
    if isinstance(wave, EdgeList):
        return wave
    if isinstance(wave, BitWaveform):
        return EdgeList.from_bits(wave)
    raise ParameterError(f"wave must be a BitWaveform or EdgeList, got {type(wave)!r}")


def to_analog(
    wave: BitWaveform | EdgeList, em: EdgeModel = IDEAL_EDGES, oversample: int = 64
) -> AnalogTrace:
    """Render one period as a sampled piecewise-linear voltage trace.

    Leading (rising) edges cross mid-amplitude at nominal + t_df and
    trailing edges at nominal + t_dr, with finite ramps of 10-90% duration
    t_rise / t_fall; see EdgeModel for the width convention.  The trace is
    periodic: ramps spilling over the period boundary wrap around.
    """
    if oversample < 4:
        raise ParameterError(f"oversample must be >= 4, got {oversample}")
    edges = _as_edges(wave)
    period = edges.period
    n_samples = int(round(period * edges.f_clk)) * oversample
    rate = n_samples / period

    if not edges.times.size:
        return AnalogTrace(np.zeros(n_samples), rate, 0.0, period)

    # 10-90% time covers 80% of the swing; full ramp duration is t/0.8
    dur = np.where(edges.risings, em.t_rise, em.t_fall) / 0.8
    mid = edges.times + np.where(edges.risings, em.t_df, em.t_dr)
    start = mid - dur / 2.0
    end = mid + dur / 2.0

    gaps = np.diff(np.concatenate([start, [start[0] + period]]))
    overlap = end[:-1] > start[1:] if edges.times.size > 1 else np.array([False])
    wrap_overlap = end[-1] > start[0] + period
    if np.any(overlap) or wrap_overlap:
        worst = float(np.min(gaps))
        raise ParameterError(
            "edge ramps overlap; the limiting rate is "
            f"{1.0 / max(worst, 1e-300):.6g} Hz between consecutive edges "
            "(reduce t_rise/t_fall or the edge delays)"
        )

    levels = np.where(edges.risings, em.u_s, 0.0)
    prev_levels = np.where(edges.risings, 0.0, em.u_s)
    bp_t = np.empty(2 * edges.times.size)
    bp_v = np.empty_like(bp_t)
    bp_t[0::2] = start
    bp_t[1::2] = end
    bp_v[0::2] = prev_levels
    bp_v[1::2] = levels
    # evaluate against three periodic images so ramps spilling over either
    # period boundary land on the grid correctly
    bp_t = np.concatenate([bp_t - period, bp_t, bp_t + period])
    bp_v = np.tile(bp_v, 3)
    grid = np.arange(n_samples) / rate
    samples = np.interp(grid, bp_t, bp_v)
    return AnalogTrace(samples, rate, 0.0, period)


def _ideal_fraction(cfg: ModulatorConfig, duty: DutyCode) -> float:
    """Duty fraction including the fine code, exact dyadic arithmetic."""
    fine_den = 1 << cfg.fine_bits
    return (duty.coarse * fine_den + duty.fine) / (cfg.steps * fine_den)


def dc_average(
    arg: AnalogTrace | ModulatorConfig,
    duty: int | DutyCode | None = None,
    em: EdgeModel = IDEAL_EDGES,
    period_s: float | None = None,
) -> float:
    """Period average of the output voltage.

    With an AnalogTrace the samples are averaged (the trace must cover an
    integer number of periods when one is known).  With a config + duty the
    value is computed analytically without sampling:
    fraction * u_s + pulse_count * dw * f_clk * u_lsb.
    """
    if isinstance(arg, AnalogTrace):
        period = period_s if period_s is not None else arg.period_s
        if period is not None:
            covered = len(arg) / arg.sample_rate / period
            if abs(covered - round(covered)) > 1e-9 or round(covered) < 1:
                raise ParameterError(
                    f"trace covers {covered:.6g} periods; an integer count is required"
                )
        return float(np.mean(arg.samples))
    if not isinstance(arg, ModulatorConfig) or duty is None:
        raise ParameterError("dc_average takes an AnalogTrace or (config, duty[, em])")
    cfg = arg
    duty = _coerce_duty(cfg, duty)
    pulses = count_pulses(generate(cfg, duty))
    u_lsb = em.u_nominal / cfg.steps
    return _ideal_fraction(cfg, duty) * em.u_s + pulses * em.dw * cfg.f_clk * u_lsb


def filter_response(
    trace: AnalogTrace,
    fm: FilterModel,
    x0: np.ndarray | None = None,
    steady_state: bool = False,
) -> AnalogTrace:
    """Filter a trace through the two-pole low-pass.

    The input is the piecewise-linear signal through the samples; state
    propagation is closed-form per segment.  With steady_state=True the
    trace is treated as one period of a periodic input and the returned
    period is the exact periodic steady state (initial condition solved
    from x* = Phi_T x* + forced response).
    """
    a, b, c = fm.state_space()
    u = trace.samples
    dt = 1.0 / trace.sample_rate
    if steady_state:
        u_closed = np.concatenate([u, u[:1]])
        t = np.arange(u_closed.size) * dt
        _, _, xout = signal.lsim((a, b, c, 0.0), u_closed, t, X0=np.zeros(2), interp=True)
        x_forced = xout[-1]
        phi = expm(a * (u.size * dt))
        x_star = np.linalg.solve(np.eye(2) - phi, x_forced)
        _, yout, _ = signal.lsim((a, b, c, 0.0), u_closed, t, X0=x_star, interp=True)
        y = yout[: u.size]
    else:
        t = np.arange(u.size) * dt
        x_init = np.zeros(2) if x0 is None else np.asarray(x0, dtype=float)
        _, yout, _ = signal.lsim((a, b, c, 0.0), u, t, X0=x_init, interp=True)
        y = yout
    return AnalogTrace(y, trace.sample_rate, trace.t0, trace.period_s)


def _harmonic_period(bits: np.ndarray, cfg: ModulatorConfig, fm: FilterModel) -> np.ndarray:
    """Filtered steady-state period of a bit pattern on 16 samples per slot.

    Sums the hold-corrected series coefficients a_k times H(j 2 pi k / T)
    for k = 0..4 * 2**n; harmonics beyond the bins repeat the DFT bin of
    k mod 2**n under the hold envelope.
    """
    size = cfg.steps
    k_max = 4 * size
    grid = 16 * size
    dft = np.fft.fft(bits.astype(float)) / size
    k = np.arange(k_max + 1)
    coeffs = dft[k % size] * _hold_envelope(k, size)
    h = fm.freq_response(k * cfg.f_clk / size)  # harmonic k sits at k/T
    spec = np.zeros(grid // 2 + 1, dtype=complex)
    spec[: k_max + 1] = coeffs * h * grid
    return np.fft.irfft(spec, n=grid)


def steady_ripple(
    cfg: ModulatorConfig,
    duty: int | DutyCode,
    fm: FilterModel,
    method: str = "harmonic",
    oversample: int = 64,
) -> float:
    """Steady-state peak-to-peak output deviation in LSB (ideal edges).

    harmonic: sums a_k * H(j 2 pi k / T) over enough harmonic towers and
    reads the peak-to-peak off a dense grid (primary path).  time: renders
    the period, filters it at its exact periodic steady state and measures
    the swing (cross-check path); the two agree within 1%.
    """
    duty = _coerce_duty(cfg, duty)
    wave = generate(cfg, duty)
    if isinstance(wave, EdgeList):
        raise ParameterError("steady_ripple expects a cycle-quantized modulator kind")
    if method == "time":
        trace = to_analog(wave, IDEAL_EDGES, oversample)
        out = filter_response(trace, fm, steady_state=True)
        return float(out.samples.max() - out.samples.min()) * cfg.steps
    if method != "harmonic":
        raise ParameterError(f"method must be 'harmonic' or 'time', got {method!r}")
    y = _harmonic_period(wave.bits, cfg, fm)
    return float(y.max() - y.min()) * cfg.steps


def settling_time(
    fm: FilterModel,
    step: str = "one_lsb",
    band_lsb: float = 0.5,
    n_bits: int = 12,
) -> float:
    """Time for the filter step response to stay within +/-band of final.

    step selects the step amplitude: 'one_lsb' (band relative to one LSB
    step) or 'full_scale' (band_lsb relative to a 2**n_bits LSB step).  The
    settling instant is the last crossing of the closed-form response
    envelope, found by bracketed root search; it scales exactly as 1/f_c.
    """
    if not (math.isfinite(band_lsb) and band_lsb > 0):
        raise ParameterError(f"band_lsb must be finite and positive, got {band_lsb}")
    if not 2 <= n_bits <= 16:
        raise ParameterError(f"n_bits must be in [2, 16], got {n_bits}")
    if step == "one_lsb":
        b = band_lsb
    elif step == "full_scale":
        b = band_lsb / (1 << n_bits)
    else:
        raise ParameterError(f"step must be 'one_lsb' or 'full_scale', got {step!r}")
    if b >= 1.0:
        return 0.0

    # normalized deviation y(t)-1 = -exp(-th)(cos th + sin th), th = wc t / sqrt(2);
    # extrema sit at th = m*pi with |dev| = exp(-m*pi), so the last band crossing
    # lies in the final interval whose entry extremum still exceeds the band
    def dev(theta: float) -> float:
        return np.exp(-theta) * (np.cos(theta) + np.sin(theta))

    m = int(np.floor(np.log(1.0 / b) / np.pi))
    while np.exp(-m * np.pi) <= b:  # guard against floor landing one high
        m -= 1
    sign = 1.0 if m % 2 == 0 else -1.0
    theta = brentq(lambda th: dev(th) - sign * b, m * np.pi, (m + 1) * np.pi)
    seconds = math.sqrt(2.0) * theta / float(fm.omega_c)
    if not math.isfinite(seconds):
        raise ParameterError(f"settling time overflows for f_c = {fm.f_c} Hz")
    return seconds
