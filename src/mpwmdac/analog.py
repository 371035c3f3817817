"""Continuous-time reconstruction: edge model, filtering, ripple, settling.

Digital periods become piecewise-linear voltage traces under a trapezoid
edge model, then pass through a second-order Butterworth low-pass filter.
Filtering uses closed-form state propagation over the piecewise-linear
input (no fixed-step integration error), which keeps the DC-preservation
and ripple invariants testable at machine precision.  Only the time-domain
filter needs `scipy.linalg.expm`; it imports it on its first call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ParameterError, _require_array, _require_int, _require_real
from .modwave import (
    BitWaveform,
    DutyCode,
    EdgeList,
    ModulatorConfig,
    _coerce_duty,
    _slot_wave,
    count_pulses,
    generate,
)
from .spectral import _dft_bins, _hold_envelope

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
    The fields are stored as Python floats.
    """

    t_dr: float = 0.0
    t_df: float = 0.0
    t_rise: float = 0.5e-9
    t_fall: float = 0.5e-9
    u_s: float = 1.0
    supply_rel_err: float = 0.0

    def __post_init__(self) -> None:
        for name, lo, above in (("t_dr", 0, False), ("t_df", 0, False), ("t_rise", 0, False),
                                ("t_fall", 0, False), ("u_s", 0, True),
                                ("supply_rel_err", -1, True)):
            object.__setattr__(self, name, _require_real(name, getattr(self, name), lo, above))
        _require_real("u_s / (1 + supply_rel_err)", self.u_nominal)  # may overflow or underflow

    @property
    def dw(self) -> float:
        """Pulse width deviation t_dr - t_df (may be negative)."""
        return self.t_dr - self.t_df

    @property
    def u_nominal(self) -> float:
        """Nominal supply from which the LSB is defined."""
        return self.u_s / (1.0 + self.supply_rel_err)


IDEAL_EDGES = EdgeModel(t_rise=0.0, t_fall=0.0)
_MAX_TRACE_SAMPLES = 1 << 22  # samples per trace: n = 16 at the default oversample of 64


@dataclass(frozen=True)
class FilterModel:
    """Second-order Butterworth low-pass with -3 dB cutoff f_c (Hz).

    H(s) = wc**2 / (s**2 + sqrt(2) wc s + wc**2); |H(0)| = 1 and
    |H(j wc)| = 1/sqrt(2).  wc**2 must be a finite normal float, which
    bounds f_c to about 2.4e-155 .. 2.1e153 Hz.
    """

    f_c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "f_c", _require_real("f_c", self.f_c))
        square = self.omega_c * self.omega_c
        if not (math.isfinite(square) and square >= sys.float_info.min):
            raise ParameterError(
                f"f_c must keep (2*pi*f_c)**2 a finite normal float, about "
                f"2.4e-155 to 2.1e153 Hz, got {self.f_c}"
            )

    @property
    def omega_c(self) -> float:
        return 2.0 * np.pi * self.f_c

    def state_space(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        wc = self.omega_c
        a = np.array([[0.0, 1.0], [-wc * wc, -np.sqrt(2.0) * wc]])
        b = np.array([[0.0], [wc * wc]])
        c = np.array([[1.0, 0.0]])
        return a, b, c

    def freq_response(self, f_hz: float | np.ndarray) -> np.ndarray:
        """Complex H at frequency f_hz (array ok).  Where (f_hz / f_c)**2
        overflows, +-inf included, |H| is below every float and H is its
        limit, 0.  A NaN frequency is refused."""
        with np.errstate(over="ignore"):
            x = np.asarray(f_hz, dtype=float) / self.f_c
            x2 = x * x
        peak = x2.max(initial=0.0)  # NaN if any f_hz is NaN
        if np.isnan(peak):
            raise ParameterError("f_hz must be a number or +-inf, got NaN")
        if peak == np.inf:
            far = np.isinf(x2)
            return np.where(far, 0j, self.freq_response(np.where(far, 0.0, f_hz)))[()]
        return 1.0 / ((1.0 - x2) + 1j * np.sqrt(2.0) * x)

    def unit_step(self, t: float | np.ndarray) -> np.ndarray:
        """Closed-form unit step response (0 for t < 0)."""
        t = np.asarray(t, dtype=float)
        theta = self.omega_c * np.clip(t, 0.0, None) / np.sqrt(2.0)
        return np.where(t < 0, 0.0, 1.0 - np.exp(-theta) * (np.cos(theta) + np.sin(theta)))


@dataclass(frozen=True, eq=False)
class AnalogTrace:
    """Uniformly sampled voltage trace; samples are the vertices of a
    piecewise-linear signal.  The samples are finite, the rate finite and
    positive, and the period, when known, finite and positive."""

    samples: np.ndarray
    sample_rate: float
    period_s: float | None = None

    def __post_init__(self) -> None:
        samples = _require_array("samples", self.samples, float)
        if samples.ndim != 1 or not samples.size:
            raise ParameterError(
                f"a trace needs a 1-D array of at least one sample, got shape {samples.shape}"
            )
        if not np.isfinite(samples).all():
            raise ParameterError("trace samples must be finite")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", _require_real("sample_rate", self.sample_rate))
        if self.period_s is not None:
            object.__setattr__(self, "period_s", _require_real("period_s", self.period_s))

    def __len__(self) -> int:
        return int(self.samples.size)


def _as_edges(wave: BitWaveform | EdgeList) -> EdgeList:
    return wave if isinstance(wave, EdgeList) else EdgeList.from_bits(wave)


def to_analog(
    wave: BitWaveform | EdgeList, em: EdgeModel = IDEAL_EDGES, oversample: int = 64
) -> AnalogTrace:
    """Render one period as a sampled piecewise-linear voltage trace.

    Leading (rising) edges cross mid-amplitude at nominal + t_df and
    trailing edges at nominal + t_dr, with finite ramps of 10-90% duration
    t_rise / t_fall; see EdgeModel for the width convention.  The trace is
    periodic: ramps spilling over the period boundary wrap around.
    """
    oversample = _require_int("oversample", oversample, 4)
    edges = _as_edges(wave)
    period = edges.period
    n_samples = int(round(period * edges.f_clk)) * oversample
    if n_samples > _MAX_TRACE_SAMPLES:
        raise ParameterError(
            f"a trace of {n_samples} samples exceeds the limit of {_MAX_TRACE_SAMPLES}; "
            "lower the oversample"
        )
    rate = n_samples / period

    if not edges.times.size:
        return AnalogTrace(np.zeros(n_samples), rate, period)

    # 10-90% time covers 80% of the swing; full ramp duration is t/0.8
    dur = np.where(edges.risings, em.t_rise, em.t_fall) / 0.8
    mid = edges.times + np.where(edges.risings, em.t_df, em.t_dr)
    start = mid - dur / 2.0
    end = mid + dur / 2.0

    next_start = np.append(start[1:], start[0] + period)  # cyclically
    if np.any(end > next_start):
        worst = float(np.min(next_start - start))
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
    return AnalogTrace(samples, rate, period)


def _ideal_fraction(cfg: ModulatorConfig, duty: DutyCode) -> float:
    """Duty fraction including the fine code, exact dyadic arithmetic."""
    fine_den = 1 << cfg.fine_bits
    return (duty.coarse * fine_den + duty.fine) / (cfg.steps * fine_den)


def dc_average(
    arg: AnalogTrace | ModulatorConfig,
    duty: int | DutyCode | None = None,
    em: EdgeModel = IDEAL_EDGES,
) -> float:
    """Period average of the output voltage.

    With an AnalogTrace the samples are averaged (the trace must cover an
    integer number of periods when one is known).  With a config + duty the
    value is computed analytically without sampling:
    fraction * u_s + pulse_count * dw * f_clk * u_lsb.
    """
    if isinstance(arg, AnalogTrace):
        if arg.period_s is not None:
            covered = len(arg) / arg.sample_rate / arg.period_s
            if abs(covered - round(covered)) > 1e-9 or round(covered) < 1:
                raise ParameterError(
                    f"trace covers {covered:.6g} periods; an integer count is required"
                )
        return float(np.mean(arg.samples))
    if duty is None:
        raise ParameterError("duty must be given with a ModulatorConfig: dc_average takes an "
                             "AnalogTrace or (config, duty[, em])")
    cfg = arg
    duty = _coerce_duty(cfg, duty)
    pulses = count_pulses(generate(cfg, duty))
    u_lsb = em.u_nominal / cfg.steps
    return _ideal_fraction(cfg, duty) * em.u_s + pulses * em.dw * cfg.f_clk * u_lsb


def _expm_finite(m: np.ndarray, fm: FilterModel, span: str, seconds: float) -> np.ndarray:
    """expm(m) for m holding A * seconds, refused unless finite: it overflows
    past about omega_c * seconds = 1e35, well inside FilterModel's bound."""
    from scipy.linalg import expm  # only the time-domain filter needs scipy

    e = expm(m)
    if not np.isfinite(e).all():
        raise ParameterError(
            f"f_c = {fm.f_c} Hz is too high for this trace: the filter's discretization "
            f"overflows at omega_c*{span} = {fm.omega_c * seconds:.3g}"
        )
    return e


def _foh_states(ad: np.ndarray, bd0: np.ndarray, bd1: np.ndarray, u: np.ndarray,
                states: np.ndarray) -> None:
    """Fill states[1:] with the states at the samples of the piecewise-linear
    input u, from the state in states[0].

    This is the first-order-hold recurrence of `scipy.signal.lsim(...,
    interp=True)`, x[i+1] = (x[i] @ Ad + u[i] Bd0) + u[i+1] Bd1, with lsim's
    Ad, Bd0 and Bd1 and its arithmetic, so the states equal lsim's bit for bit
    (up to the sign of an exact zero):

    - x[i] @ Ad stays one BLAS gemv per step, written straight into the next
      row.  The kernel rounds a 2-vector product as fma(x1, a1, x0 * a0),
      which a loop over Python floats cannot reproduce.
    - The steps fall into runs over which the pair (u[i], u[i+1]) is
      constant, and each run computes q = u[i] Bd0 and r = u[i+1] Bd1 once,
      as Python floats.
    - The adds are Python float adds on the gemv's result v, written back as
      x[i+1][j] = (v[j] + q[j]) + r[j]: CPython's float add is numpy's IEEE
      binary64 add, rounded to nearest, and this is lsim's order, so the
      states keep their bits without a numpy add call per step.
    - In an idle run, u[i] = u[i+1] = 0, q and r are signed zeros, and those
      two adds are dropped.  Adding a zero returns a nonzero float unchanged,
      and no nonzero value depends on the sign of a zero, so only the sign of
      an exact-zero state could differ from lsim's, which np.array_equal and
      every float comparison ignore.
    """
    if u.size < 2:
        return
    firsts = np.flatnonzero((u[1:-1] != u[:-2]) | (u[2:] != u[1:-1])) + 1
    firsts = np.concatenate(([0], firsts))  # each run's first step
    lengths = np.diff(firsts, append=u.size - 1).tolist()
    # a one-term matmul u[i] @ Bd is the plain product, so q and r are exact
    qs = (u[firsts, None] * bd0).tolist()
    rs = (u[firsts + 1, None] * bd1).tolist()
    idle = ((u[firsts] == 0) & (u[firsts + 1] == 0)).tolist()
    x = states[0]
    rows = iter(states[1:])
    for n, (q0, q1), (r0, r1), skip in zip(lengths, qs, rs, idle):
        for nxt in islice(rows, n):
            x.dot(ad, nxt)  # the method skips np.dot's dispatch
            if not skip:
                v0, v1 = nxt.tolist()
                nxt[0] = (v0 + q0) + r0
                nxt[1] = (v1 + q1) + r1
            x = nxt


def filter_response(
    trace: AnalogTrace, fm: FilterModel, steady_state: bool = False
) -> AnalogTrace:
    """Filter a trace through the two-pole low-pass.

    The input is the piecewise-linear signal through the samples; state
    propagation is closed-form per segment, from the zero state unless
    steady_state is set.  With steady_state=True the trace is treated as
    one period of a periodic input and the returned period is the exact
    periodic steady state (initial condition solved from
    x* = Phi_T x* + forced response).  The output equals that of
    `scipy.signal.lsim(..., interp=True)` bit for bit, up to the sign of an
    exact zero (see `_foh_states`).  A cutoff whose discretization overflows
    is refused.
    """
    a, b, c = fm.state_space()
    size = trace.samples.size
    dt = 1.0 / trace.sample_rate
    # lsim's first-order hold: e = expm(M.T) of the block matrix
    # [[A dt, B dt, 0], [0, 0, 1], [0, 0, 0]], read as lsim reads it
    n = a.shape[0]
    m = np.zeros((n + 2, n + 2))
    m[:n, :n] = a * dt
    m[:n, n : n + 1] = b * dt
    m[n, n + 1] = 1.0
    e = _expm_finite(m.T, fm, "dt", dt)
    ad = np.ascontiguousarray(e[:n, :n])  # rounds as lsim's strided view, at less call cost
    bd1 = e[n + 1, :n]
    bd0 = e[n, :n] - bd1
    u = np.concatenate([trace.samples, trace.samples[:1]]) if steady_state else trace.samples
    states = np.zeros((u.size, n))
    if steady_state:
        phi = _expm_finite(a * (size * dt), fm, "T", size * dt)
        _foh_states(ad, bd0, bd1, u, states)  # from the zero state to x_forced = states[-1]
        states[0] = np.linalg.solve(np.eye(n) - phi, states[-1])
    _foh_states(ad, bd0, bd1, u, states)
    return AnalogTrace(states[:size] @ c[0], trace.sample_rate, trace.period_s)


_SAMPLES_PER_SLOT = 16  # the harmonic route reads each filtered period on this grid


def _series_gap(size: int, omega: float, edges: int, beta: float, harmonics: int,
                per_slot: int) -> float:
    """LSB bound on the gap between the exact ripple of a `size`-slot period and the
    ripple of its Fourier series cut after `harmonics` and read on `per_slot`
    samples per slot by an FFT, both in floating point.

    The period has at most `edges` unit steps, its exact phasors keep |beta|
    <= `beta` and the cutoff is omega rad per slot, f_cT = omega size /
    (2 pi).  The bound, in full-scale units times `size`, sums:

    - truncation: |a_k| <= edges / (2 pi k) and |H| <= (f_cT / k)**2, so the
      harmonics past K = `harmonics` move each sample by at most
      edges f_cT**2 / (2 pi K**2), since sum_(k > K) k**-3 <= 1 / (2 K**2);
    - the grid: |y''| <= omega**2 beta, so samples h = 1 / per_slot slots
      apart miss a peak or a trough by at most omega**2 beta h**2 / 8;
    - rounding of the FFTs: each sample off by at most log2(per_slot size)
      eps for the spectrum and as much for the series, as
      `metrics._ripple_margin` takes it;
    - rounding of the exact route (`_edge_swings`), with E = edges,
      c = 1 / |1 - e^(p size)| and b = beta + sqrt(2): S sums E terms of size
      sqrt(2), so beta's start is off by at most
      eps (c (sqrt(2) E (E + 5) + 3 b) + 4 b); each step of the recurrence
      adds at most 6 b eps, and reading a candidate off beta 15 b eps.

    Each term bounds one sample, so the ripple, a difference of two, takes
    each twice.
    """
    eps = np.finfo(float).eps
    f_ct = omega * size / (2 * np.pi)
    b = beta + math.sqrt(2)
    c = 1 / abs(1 - _phasors(omega, size))
    truncation = edges * f_ct**2 / (2 * np.pi * harmonics**2)
    grid = omega**2 * beta / (8 * per_slot**2)
    series = 2 * math.log2(per_slot * size) * eps
    start = c * (math.sqrt(2) * edges * (edges + 5) + 3 * b) + 4 * b
    exact = eps * (start + (6 * edges + 15) * b)
    return float(2 * size * (truncation + grid + series + exact))


class _HarmonicRoute:
    """The harmonic ripple route of one config, split where f_c enters.

    The held series a_k of a pattern, k = 0..4 * 2**n, is its DFT bin
    k mod 2**n under the zero-order-hold envelope.  `tune(fm)` computes
    H(j 2 pi k / T) once per cutoff, and `period` sums a_k H into the
    steady-state period on _SAMPLES_PER_SLOT samples per slot.
    """

    def __init__(self, cfg: ModulatorConfig) -> None:
        self.cfg = cfg
        k = np.arange(4 * cfg.steps + 1)
        self.f_k = k * cfg.f_clk / cfg.steps
        self.towers = k % cfg.steps
        self.envelope = _hold_envelope(k, cfg.steps)
        self.h = np.ones(0)
        self.f_c = 0.0  # the tuned cutoff in Hz
        self.omega = 0.0  # the tuned cutoff in rad per slot

    def tune(self, fm: FilterModel) -> None:
        if fm.f_c != self.f_c:  # H depends on f_c alone
            self.h = fm.freq_response(self.f_k)
            self.f_c, self.omega = fm.f_c, fm.omega_c / self.cfg.f_clk

    def gap(self, edges: int, beta: float) -> float:
        """LSB bound on |this route's ripple - the exact route's| for a period of at
        most `edges` unit steps whose exact phasors keep |beta| <= `beta`: the
        `_series_gap` of its harmonics k <= 4 * 2**n and its grid."""
        size = self.cfg.steps
        return _series_gap(size, self.omega, edges, beta, 4 * size, _SAMPLES_PER_SLOT)

    def period(self, bins: np.ndarray) -> np.ndarray:
        """Filtered steady-state period of the pattern with DFT bins `bins`."""
        grid = _SAMPLES_PER_SLOT * self.cfg.steps
        spec = np.zeros(grid // 2 + 1, dtype=complex)
        spec[: self.towers.size] = bins[self.towers] * self.envelope * self.h * grid
        return np.fft.irfft(spec, n=grid)


# segments the exact route holds at once: 2**14 kept a sweep's dozen temporaries
# in a 2 MiB L2 and ran mpwm n=10 sf=5 in 4 ms a sweep, against 7 ms at 2**16
_TILE_SEGMENTS = 1 << 14
_JUMP = 1 - 1j  # a step of +1 adds -_JUMP to the phasor


def _phasors(omega: float, t) -> np.ndarray:
    """e^(p t) for the filter pole p = omega (-1 + j) / sqrt(2), omega in rad per unit."""
    return np.exp(omega * (-1 + 1j) / math.sqrt(2) * t)


def _edge_swings(times: np.ndarray, rising: np.ndarray, span: int, omega: float,
                 table: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact peak-to-peak of the filtered periodic steady state of each column of
    `times`, in full-scale units, and each column's largest |beta|.

    Column c is a 0/1 period of `span` time units with its k-th unit step at
    times[k, c], non-decreasing within [times[0, c], times[0, c] + span), up
    when rising[k] and down otherwise; equal times may hold a step up and a
    step down, which cancel.  omega is the cutoff in rad per unit.  Integer
    times may read every e^(p m) off `table`, `_phasors(omega, m)` for
    m = 0..span; else each is computed.

    With p = omega (-1 + j) / sqrt(2), the output on a segment of level u is
    u + Re(beta e^(p tau)), tau the time since the segment's first step.  A
    step of +-1 adds -+(1 - j) to beta, which keeps y and y' continuous, and
    beta runs on by the stable recurrence beta <- beta e^(p L) over a
    segment of length L (|e^(p L)| <= 1).  The steady state starts from
    beta = S / (1 - e^(p span)), S the sum of each step's jump carried on to
    the period's end.  With x = Im(p) tau and a = arg(beta e^(j pi/4)) in
    (-pi, pi], y - u = |beta| e^(-x) cos(a + x - pi/4): the peaks lie at
    x = -a (mod 2 pi), the troughs at x = pi - a (mod 2 pi), each
    |beta| e^(-x) / sqrt(2) from u, and each later one of a kind 2 pi further
    on and smaller.  So a segment's extremes lie among tau = 0 and its first
    peak and first trough, where they fall inside it; its end is the next
    segment's tau = 0.
    """
    events, codes = times.shape
    phasor = (lambda t: _phasors(omega, t)) if table is None else table.__getitem__
    jumps = np.where(rising, -_JUMP, _JUMP)
    lengths = np.diff(times, axis=0, append=times[:1] + span)
    decays = phasor(lengths)
    beta = np.empty((events, codes), dtype=complex)
    beta[0] = jumps @ phasor(times[0] + span - times) / (1 - phasor(span)) + jumps[0]
    for k in range(1, events):
        np.multiply(beta[k - 1], decays[k - 1], out=beta[k])
        beta[k] += jumps[k]
    level = rising.astype(float)[:, None]
    start = level + beta.real
    size = np.abs(beta)
    beta *= np.exp(0.25j * np.pi)
    a = np.angle(beta)
    reach = lengths * (omega / math.sqrt(2))
    excursion = size * np.exp(a) / math.sqrt(2)  # at x = -a; at x = -a + m pi times e^(-m pi)
    late = a > 0  # the first peak lies at 2 pi - a
    peaks = level + np.where(late, math.exp(-2 * np.pi) * excursion, excursion)
    peaks = np.where(np.where(late, 2 * np.pi - a, -a) <= reach, peaks, start)
    troughs = np.where(np.pi - a <= reach, level - math.exp(-np.pi) * excursion, start)
    swings = np.maximum(start, peaks).max(0) - np.minimum(start, troughs).min(0)
    return swings, size.max(0)


def _ripple_lsb(period: np.ndarray, cfg: ModulatorConfig) -> float:
    """Peak-to-peak of a filtered period in LSB of full scale."""
    return float(period.max() - period.min()) * cfg.steps


def steady_ripple(
    cfg: ModulatorConfig,
    duty: int | DutyCode,
    fm: FilterModel,
    method: str = "harmonic",
    oversample: int = 64,
) -> float:
    """Steady-state peak-to-peak output deviation in LSB (ideal edges).

    harmonic: sums a_k * H(j 2 pi k / T) over the harmonics k <= 4 * 2**n
    and reads the peak-to-peak off 16 samples per slot (`_HarmonicRoute`,
    the route the cutoff search reports).  exact: the continuous
    peak-to-peak from the edges' closed-form phasors (`_edge_swings`), with
    no truncation and no grid; it also takes HR-MPWM, whose fine-delayed
    edge falls between slots.  It lies within `_HarmonicRoute.gap` of the
    harmonic route.  time: renders the period, filters it at its exact
    periodic steady state and measures the swing (cross-check path); it
    agrees with the other two within 1%.
    """
    if method not in ("harmonic", "exact", "time"):
        raise ParameterError(f"method must be 'harmonic', 'exact' or 'time', got {method!r}")
    if method == "exact":
        edges = _as_edges(generate(cfg, duty))
        if not edges.times.size:
            return 0.0
        swing, _ = _edge_swings(edges.times[:, None] * cfg.f_clk, edges.risings, cfg.steps,
                                fm.omega_c / cfg.f_clk)
        return float(swing[0]) * cfg.steps
    wave = _slot_wave(cfg, duty)
    if method == "time":
        trace = to_analog(wave, IDEAL_EDGES, oversample)
        return _ripple_lsb(filter_response(trace, fm, steady_state=True).samples, cfg)
    route = _HarmonicRoute(cfg)
    route.tune(fm)
    return _ripple_lsb(route.period(_dft_bins(wave.bits)), cfg)


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
    envelope, found by bisection on its one-crossing bracket; it scales
    exactly as 1/f_c.
    """
    band_lsb = _require_real("band_lsb", band_lsb)
    n_bits = _require_int("n_bits", n_bits, 2, 16)
    if step == "one_lsb":
        b = band_lsb
    elif step == "full_scale":  # the band may underflow to 0
        b = _require_real("band_lsb / 2**n_bits", band_lsb / (1 << n_bits))
    else:
        raise ParameterError(f"step must be 'one_lsb' or 'full_scale', got {step!r}")
    if b >= 1.0:
        return 0.0

    # normalized deviation y(t)-1 = -exp(-th)(cos th + sin th), th = wc t / sqrt(2);
    # extrema sit at th = m*pi with |dev| = exp(-m*pi), so the last band crossing
    # lies in the final interval whose entry extremum still exceeds the band
    def dev(theta: float) -> float:
        return math.exp(-theta) * (math.cos(theta) + math.sin(theta))

    m = int(np.floor(-np.log(b) / np.pi))  # -log(b), not log(1/b): 1/b overflows
    while np.exp(-m * np.pi) <= b:  # guard against floor landing one high
        m -= 1
    sign = 1.0 if m % 2 == 0 else -1.0
    # dev' = -2 exp(-th) sin th keeps one sign on [m pi, (m+1) pi], so the
    # bracket holds one crossing; halve it until no float lies between
    lo, hi = m * np.pi, (m + 1) * np.pi
    theta = 0.5 * (lo + hi)
    while lo < theta < hi:
        if sign * dev(theta) > b:
            lo = theta
        else:
            hi = theta
        theta = 0.5 * (lo + hi)
    seconds = math.sqrt(2.0) * theta / float(fm.omega_c)
    if not math.isfinite(seconds):
        raise ParameterError(f"settling time overflows for f_c = {fm.f_c} Hz")
    return seconds
