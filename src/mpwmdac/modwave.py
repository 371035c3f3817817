"""Digital waveform generators for pulse-modulation DACs.

One modulation period is 2**n clock cycles driven by an n-bit free-running
counter.  The supported modulators are:

* PWM     -- one contiguous pulse per period.
* MPWM    -- the period is split into SN = 2**sf sub-regions, each carrying
             one sub-pulse; sub-pulse widths differ by at most one clock.
* PCM     -- MPWM with sf = n-1, i.e. maximally spread unit pulses.
* FONS    -- first-order noise shaping (error-feedback accumulator).
* HRMPWM  -- MPWM plus a calibrated delay line that moves one falling edge
             with sub-clock resolution t_d = 1 / (2**fine_bits * f_clk).

MPWM waveforms are produced by two deliberately independent constructions,
`mpwm_wave` (counter comparator) and `mpwm_wave_decoder` (sub-region
address/wave decoder), which must agree bit for bit and serve as mutual
oracles in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ParameterError, _require_array, _require_bits, _require_int, _require_real

__all__ = [
    "Kind",
    "ModulatorConfig",
    "DutyCode",
    "BitWaveform",
    "EdgeList",
    "DecoderState",
    "bit_reverse",
    "rearranged_counter",
    "mpwm_wave",
    "mpwm_wave_decoder",
    "decoder_states",
    "fons_wave",
    "hr_mpwm_wave",
    "generate",
    "count_pulses",
    "edge_count_formula",
]


class Kind(str, Enum):
    """Modulator family."""

    PWM = "pwm"
    PCM = "pcm"
    FONS = "fons"
    MPWM = "mpwm"
    HRMPWM = "hrmpwm"


@dataclass(frozen=True)
class ModulatorConfig:
    """Static configuration of one modulator instance.

    kind is a Kind or its value ("pwm", ...).  n is the counter bit width
    (2..16), sf the splitting factor (0..n-1), f_clk the clock in Hz.
    fine_bits is the sub-clock resolution of the HR delay line (1..6) and
    must be 0 for every kind except HRMPWM.  The integers are stored as
    Python ints and f_clk as a Python float.
    """

    kind: Kind
    n: int
    sf: int = 0
    f_clk: float = 100e6
    fine_bits: int = 0

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "kind", Kind(self.kind))
        except ValueError:
            raise ParameterError(
                f"kind must be one of {', '.join(k.value for k in Kind)}, got {self.kind!r}"
            ) from None
        n = _require_int("n", self.n, 2, 16)
        sf = _require_int("sf", self.sf, 0, n - 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sf", sf)
        object.__setattr__(self, "f_clk", _require_real("f_clk", self.f_clk))
        if self.kind == Kind.PWM and sf != 0:
            raise ParameterError(f"PWM requires sf=0, got sf={sf}")
        if self.kind == Kind.PCM and sf != n - 1:
            raise ParameterError(f"PCM requires sf=n-1={n - 1}, got sf={sf}")
        if self.kind == Kind.FONS and sf != 0:
            raise ParameterError(f"FONS requires sf=0, got sf={sf}")
        fine = (1, 6) if self.kind == Kind.HRMPWM else (0, 0)  # bits of the HR delay line
        object.__setattr__(self, "fine_bits", _require_int("fine_bits", self.fine_bits, *fine))

    # -- derived quantities ------------------------------------------------

    @property
    def steps(self) -> int:
        """Clock cycles per modulation period (2**n)."""
        return 1 << self.n

    @property
    def sn(self) -> int:
        """Splitting number SN = 2**sf."""
        return 1 << self.sf

    @property
    def period(self) -> float:
        """Modulation period T = 2**n / f_clk in seconds."""
        return self.steps / self.f_clk

    @property
    def t_d(self) -> float:
        """Fine delay-line tap pitch in seconds (0.0 when fine_bits == 0)."""
        if self.fine_bits == 0:
            return 0.0
        return 1.0 / ((1 << self.fine_bits) * self.f_clk)

    # -- convenience constructors -------------------------------------------

    @classmethod
    def pwm(cls, n: int, f_clk: float = 100e6) -> "ModulatorConfig":
        return cls(Kind.PWM, n, 0, f_clk)

    @classmethod
    def pcm(cls, n: int, f_clk: float = 100e6) -> "ModulatorConfig":
        return cls(Kind.PCM, n, n - 1, f_clk)

    @classmethod
    def fons(cls, n: int, f_clk: float = 100e6) -> "ModulatorConfig":
        return cls(Kind.FONS, n, 0, f_clk)

    @classmethod
    def mpwm(cls, n: int, sf: int, f_clk: float = 100e6) -> "ModulatorConfig":
        return cls(Kind.MPWM, n, sf, f_clk)

    @classmethod
    def hr_mpwm(
        cls, n: int, sf: int, fine_bits: int = 4, f_clk: float = 100e6
    ) -> "ModulatorConfig":
        return cls(Kind.HRMPWM, n, sf, f_clk, fine_bits)


@dataclass(frozen=True)
class DutyCode:
    """Duty target: coarse code in clock cycles plus optional fine code."""

    coarse: int
    fine: int = 0


def _coerce_duty(cfg: ModulatorConfig, duty: int | DutyCode) -> DutyCode:
    coarse, fine = (duty.coarse, duty.fine) if isinstance(duty, DutyCode) else (duty, 0)
    return DutyCode(
        _require_int("duty", coarse, 0, cfg.steps - 1),
        _require_int("duty.fine", fine, 0, (1 << cfg.fine_bits) - 1),
    )


@dataclass(frozen=True, eq=False)
class BitWaveform:
    """One full modulation period as one 0/1 entry per clock cycle, stored as uint8."""

    bits: np.ndarray
    f_clk: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "f_clk", _require_real("f_clk", self.f_clk))
        object.__setattr__(self, "bits", _require_bits(self.bits))
        if not self.bits.size:
            raise ParameterError("bits must hold at least one cycle")
        _require_real("period", self.period)  # bits.size / f_clk overflows for a tiny f_clk

    def __len__(self) -> int:
        return int(self.bits.size)

    @property
    def period(self) -> float:
        return self.bits.size / self.f_clk

    @property
    def duty_count(self) -> int:
        """Number of high cycles in the period."""
        return int(self.bits.sum())


@dataclass(frozen=True, eq=False)
class EdgeList:
    """One period as timed transitions (seconds within [0, period)).

    Polarities alternate cyclically and rising/falling counts are equal.
    An empty list means a constant-low period.
    """

    times: np.ndarray
    risings: np.ndarray
    period: float
    f_clk: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "period", _require_real("period", self.period))
        object.__setattr__(self, "f_clk", _require_real("f_clk", self.f_clk))
        _require_real("period * f_clk (a finite number of clock cycles)",
                      self.period * self.f_clk, 1, above=False)
        times = _require_array("times", self.times, float)
        risings = _require_bits(self.risings, "risings").astype(bool)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "risings", risings)
        if times.shape != risings.shape or times.ndim != 1:
            raise ParameterError("times and risings must be 1-D and equal length")
        if times.size:
            if not np.all(np.diff(times) > 0):  # a NaN time fails here too
                raise ParameterError("transition times must be strictly increasing")
            if times[0] < 0 or times[-1] >= self.period:
                raise ParameterError("transition times must lie in [0, period)")
            adjacent_equal = bool(np.any(risings[1:] == risings[:-1]))
            wrap_equal = times.size > 1 and bool(risings[0]) == bool(risings[-1])
            if adjacent_equal or wrap_equal:
                raise ParameterError("transition polarities must alternate cyclically")
            if int(risings.sum()) * 2 != times.size:
                raise ParameterError("rising and falling transition counts must match")

    @classmethod
    def from_bits(cls, wave: BitWaveform) -> "EdgeList":
        """The transitions of a bit period; an all-high period has none to list."""
        bits = wave.bits
        if bits.all():
            raise ParameterError("an all-high period has no edges; an EdgeList cannot hold it")
        prev = np.roll(bits, 1)
        idx = np.nonzero(bits != prev)[0]
        times = idx / wave.f_clk
        risings = bits[idx] == 1
        return cls(times, risings, wave.period, wave.f_clk)

    @property
    def rising_times(self) -> np.ndarray:
        return self.times[self.risings]

    @property
    def falling_times(self) -> np.ndarray:
        return self.times[~self.risings]

    def high_time(self) -> float:
        """Total high duration per period.

        Pulses wrapping the period boundary are handled cyclically; an empty
        list is a constant-low period (duty 0).
        """
        if not self.times.size:
            return 0.0
        total = float(np.sum(self.falling_times) - np.sum(self.rising_times))
        if not self.risings[0]:  # first event falls: one pulse wraps through 0
            total += self.period
        return total


@dataclass(frozen=True, eq=False)
class DecoderState:
    """Per-sub-region view of the decoder construction.

    sn_pos indexes the sub-region, data is the wave-select value (the upper
    bits of the duty code), and wav is the bit word placed into the
    sub-region (a left-aligned run of ones).
    """

    sn_pos: int
    data: int
    wav: np.ndarray


def bit_reverse(value: int | np.ndarray, bits: int) -> int | np.ndarray:
    """Reverse the low `bits` bits of a non-negative int or int array (0 bits -> zeros)."""
    _require_int("bits", bits, 0)
    array = isinstance(value, np.ndarray) and value.dtype.kind in "iu"
    _require_int("value", value.min(initial=0) if array else value, 0)
    out = value & 0
    for i in range(bits):
        out |= ((value >> i) & 1) << (bits - 1 - i)
    return out


def rearranged_counter(n: int, sf: int) -> np.ndarray:
    """Rearranged counter word C_R for every counter state 0..2**n-1 (n in 2..16, sf < n).

    The counter's low n-sf bits move to the top of the word with their order
    kept; its top sf bits move to the bottom with their significance
    reversed.  The map is a bit permutation, hence a bijection on
    [0, 2**n): exactly D counter states satisfy C_R < D for any duty D.
    """
    n = _require_int("n", n, 2, 16)
    sf = _require_int("sf", sf, 0, n - 1)
    size = 1 << n
    sub = size >> sf
    c = np.arange(size, dtype=np.int64)
    return (c % sub) * (1 << sf) + bit_reverse(c // sub, sf)


def _require_mpwm_family(cfg: ModulatorConfig) -> None:
    if cfg.kind not in (Kind.MPWM, Kind.PWM, Kind.PCM):
        raise ParameterError(f"kind must be one of pwm/pcm/mpwm, got {cfg.kind.value}")


def _fill_order(cfg: ModulatorConfig) -> np.ndarray:
    """Slot that code D+1 adds to code D, for D = 0..2**n-1 (PWM/MPWM/PCM).

    Slot s is high for every code above C_R[s], so the codes are nested and
    the order is argsort(C_R), the inverse permutation of C_R.
    """
    _require_mpwm_family(cfg)
    return np.argsort(rearranged_counter(cfg.n, cfg.sf))


def mpwm_wave(cfg: ModulatorConfig, duty: int | DutyCode) -> BitWaveform:
    """Generate one period through the comparator construction.

    The output is high on every cycle whose rearranged counter word is
    strictly below the coarse duty code, so code D yields exactly D high
    cycles and code 0 is all-low.
    """
    _require_mpwm_family(cfg)
    duty = _coerce_duty(cfg, duty)
    cr = rearranged_counter(cfg.n, cfg.sf)
    return BitWaveform((cr < duty.coarse).astype(np.uint8), cfg.f_clk)


def decoder_states(cfg: ModulatorConfig, duty: int | DutyCode) -> list[DecoderState]:
    """Sub-region decoder view: one wave word per sub-region.

    Every sub-region receives a left-aligned run of `data` ones; the
    remainder r = D mod SN is distributed one extra cycle at a time to the
    sub-regions whose bit-reversed index is below r.
    """
    _require_mpwm_family(cfg)
    duty = _coerce_duty(cfg, duty)
    sub = cfg.steps >> cfg.sf
    data = duty.coarse >> cfg.sf
    rem = duty.coarse & (cfg.sn - 1)
    widths = data + (bit_reverse(np.arange(cfg.sn), cfg.sf) < rem)
    words = (np.arange(sub) < widths[:, None]).astype(np.uint8)
    return [DecoderState(sn_pos=sn_pos, data=data, wav=wav) for sn_pos, wav in enumerate(words)]


def mpwm_wave_decoder(cfg: ModulatorConfig, duty: int | DutyCode) -> BitWaveform:
    """Generate one period through the address/wave decoder construction.

    Must be bit-identical to `mpwm_wave` for all inputs; the two paths are
    mutual oracles.
    """
    states = decoder_states(cfg, duty)
    bits = np.concatenate([st.wav for st in states])
    return BitWaveform(bits, cfg.f_clk)


def fons_wave(cfg: ModulatorConfig, duty: int | DutyCode) -> BitWaveform:
    """First-order noise-shaping (error-feedback) period.

    Recurrence: acc += D each cycle; when acc >= 2**n emit 1 and subtract
    2**n, else emit 0.  Closed form: bit[k] = floor((k+1)*D/2**n) -
    floor(k*D/2**n).  The accumulator starts at 0 and returns to 0 at the
    period end, so every period carries exactly D high cycles.
    """
    if cfg.kind != Kind.FONS:
        raise ParameterError(f"kind must be fons for this generator, got {cfg.kind.value}")
    duty = _coerce_duty(cfg, duty)
    k = np.arange(cfg.steps + 1, dtype=np.int64)
    carry = (k * duty.coarse) // cfg.steps
    return BitWaveform(np.diff(carry).astype(np.uint8), cfg.f_clk)


def hr_mpwm_wave(cfg: ModulatorConfig, duty: int | DutyCode) -> EdgeList:
    """HR-MPWM period: coarse MPWM edges plus one fine-delayed falling edge.

    The chronologically last falling edge is delayed by fine * t_d, adding
    fine * t_d of high time on top of coarse / f_clk.  A zero coarse code
    with a nonzero fine code yields a single sliver pulse of fine * t_d at
    the period start.
    """
    if cfg.kind != Kind.HRMPWM:
        raise ParameterError(f"kind must be hrmpwm for this generator, got {cfg.kind.value}")
    duty = _coerce_duty(cfg, duty)
    base = mpwm_wave(replace(cfg, kind=Kind.MPWM, fine_bits=0), DutyCode(duty.coarse))
    edges = EdgeList.from_bits(base)
    if duty.fine == 0:
        return edges
    shift = duty.fine * cfg.t_d
    if not edges.times.size:
        return EdgeList(np.array([0.0, shift]), np.array([True, False]), cfg.period, cfg.f_clk)
    # the shift is under one clock and the next edge at least one clock
    # later, so the delayed edge keeps its place in time order
    times = edges.times.copy()
    times[np.nonzero(~edges.risings)[0][-1]] += shift
    return EdgeList(times, edges.risings, cfg.period, cfg.f_clk)


def _slot_wave(cfg: ModulatorConfig, duty: int | DutyCode) -> BitWaveform:
    """One period as slots, for the analyses that read them; HRMPWM is refused."""
    if cfg.kind == Kind.HRMPWM:
        raise ParameterError("a slot analysis needs a cycle-quantized kind, got hrmpwm")
    return fons_wave(cfg, duty) if cfg.kind == Kind.FONS else mpwm_wave(cfg, duty)


def generate(cfg: ModulatorConfig, duty: int | DutyCode) -> BitWaveform | EdgeList:
    """One period of any kind: an EdgeList for HRMPWM, else a BitWaveform."""
    return hr_mpwm_wave(cfg, duty) if cfg.kind == Kind.HRMPWM else _slot_wave(cfg, duty)


def count_pulses(wave: BitWaveform | EdgeList) -> int:
    """Rising edges per period, counted cyclically.

    A pulse spanning the period wrap counts once; constant waveforms have
    zero rising edges.
    """
    if isinstance(wave, EdgeList):
        return int(wave.risings.sum())
    bits = wave.bits
    return int(np.sum((bits == 1) & (np.roll(bits, 1) == 0)))


def edge_count_formula(cfg: ModulatorConfig, duty: int | DutyCode) -> int:
    """Pulse count of the MPWM-family waveform by the piecewise duty law.

    D for D <= SN, SN in the middle range, 2**n - D for D > 2**n - SN.
    Equals count_pulses(mpwm_wave(cfg, D)) for every D.
    """
    _require_mpwm_family(cfg)
    duty = _coerce_duty(cfg, duty)
    d = duty.coarse
    sn = cfg.sn
    size = cfg.steps
    if d <= sn:
        return d
    if d <= size - sn:
        return sn
    return size - d
