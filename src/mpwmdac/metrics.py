"""DAC figures of merit: static error, INL, DNL, required cutoff, speed.

Every metric with a closed form is also computed by brute force from the
generated waveforms, and the two routes must agree exactly under the
ideal-ramp edge model; the pairing is exercised by the test suite rather
than hidden inside the functions.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .analog import EdgeModel, FilterModel, IDEAL_EDGES, settling_time, steady_ripple
from .analog import _harmonic_period
from .errors import ParameterError
from .modwave import (
    DutyCode,
    Kind,
    ModulatorConfig,
    _coerce_duty,
    _require_mpwm_family,
    count_pulses,
    generate,
    rearranged_counter,
)

__all__ = [
    "static_error",
    "edge_counts_sweep",
    "inl",
    "inl_closed_form",
    "dnl",
    "dnl_closed_form",
    "required_cutoff",
    "cutoff_rule_of_thumb",
    "worst_steady_ripple",
    "conversion_rate",
    "CutoffResult",
    "MetricsReport",
]


def _pulses(cfg: ModulatorConfig, duty: int | DutyCode) -> int:
    if cfg.kind == Kind.HRMPWM:
        raise ParameterError("static metrics operate on the cycle-quantized kinds")
    return count_pulses(generate(cfg, duty))


def static_error(
    cfg: ModulatorConfig, duty: int | DutyCode, em: EdgeModel = IDEAL_EDGES
) -> float:
    """Static error in LSB: (average output - ideal output) / u_lsb.

    Splits into the supply term (relative supply deviation scaled by the
    duty) and the edge term pulse_count * dw * f_clk.
    """
    duty = _coerce_duty(cfg, duty)
    pulses = _pulses(cfg, duty)
    supply_term = em.supply_rel_err * duty.coarse
    return supply_term + pulses * em.dw * cfg.f_clk


def edge_counts_sweep(cfg: ModulatorConfig) -> np.ndarray:
    """Pulse count of the generated waveform for every duty code."""
    return np.array([_pulses(cfg, d) for d in range(cfg.steps)], dtype=np.int64)


def inl(cfg: ModulatorConfig, em: EdgeModel) -> tuple[float, int]:
    """Integral nonlinearity by exhaustive duty sweep (edge error only).

    Returns (magnitude in LSB, worst-offending duty code).
    """
    return _inl_of_counts(edge_counts_sweep(cfg), cfg, em)


def _inl_of_counts(counts: np.ndarray, cfg: ModulatorConfig, em: EdgeModel):
    worst = int(np.argmax(counts))
    return float(counts[worst] * abs(em.dw) * cfg.f_clk), worst


def inl_closed_form(cfg: ModulatorConfig, em: EdgeModel) -> float:
    """INL from the worst-case pulse count: 2**sf for the split-counter
    kinds (1 for PWM, 2**(n-1) for PCM) and 2**(n-1) for FONS."""
    peak = (1 << (cfg.n - 1)) if cfg.kind == Kind.FONS else cfg.sn
    return peak * abs(em.dw) * cfg.f_clk


def dnl(cfg: ModulatorConfig, em: EdgeModel) -> tuple[float, int]:
    """Differential nonlinearity by exhaustive duty sweep.

    max over D of |(avg(D+1) - avg(D)) / u_lsb - 1|, which reduces to
    |delta pulse_count * dw * f_clk|; returns (magnitude, worst duty).
    """
    return _dnl_of_counts(edge_counts_sweep(cfg), cfg, em)


def _dnl_of_counts(counts: np.ndarray, cfg: ModulatorConfig, em: EdgeModel):
    step_err = np.abs(np.diff(counts)) * abs(em.dw) * cfg.f_clk
    worst = int(np.argmax(step_err))
    return float(step_err[worst]), worst


def dnl_closed_form(cfg: ModulatorConfig, em: EdgeModel) -> float:
    """DNL |dw * f_clk|, identical for all four modulator families."""
    return abs(em.dw) * cfg.f_clk


_REL_TOL = 5e-3  # the cutoff bisection stops at hi / lo <= 1 + _REL_TOL


def cutoff_rule_of_thumb(n: int, ripple_lsb: float) -> float:
    """Classic PWM design rule f_c*T = 0.81 * sqrt(ripple / 2**n)."""
    return 0.81 * np.sqrt(ripple_lsb / (1 << n))


def _ripple_margin(cfg: ModulatorConfig) -> float:
    """LSB bound on |summed - per-duty ripple|: 2**n terms, each off by about
    log2(16 * 2**n) * eps of full scale (2**n LSB) from FFT and add rounding."""
    return cfg.steps**2 * (cfg.n + 4) * np.finfo(float).eps


def _summed_ripples(cfg: ModulatorConfig, fm: FilterModel) -> np.ndarray:
    """Harmonic-route ripple in LSB of codes 1..2**n-1 from one running sum.

    Code D is code D-1 plus the slot whose rearranged counter word is D-1,
    so its filtered period is the previous one plus the unit-slot response
    rolled by 16 grid samples per slot.
    """
    _require_mpwm_family(cfg)
    unit = _harmonic_period(np.eye(1, cfg.steps, dtype=np.uint8)[0], cfg, fm)
    grid = unit.size
    tiled = np.tile(unit, 2)  # tiled[grid - s : 2 * grid - s] is unit rolled by s
    y = np.zeros(grid)
    ripples = np.empty(cfg.steps - 1)
    for d, slot in enumerate(np.argsort(rearranged_counter(cfg.n, cfg.sf))[:-1]):
        y += tiled[grid - 16 * slot : 2 * grid - 16 * slot]
        ripples[d] = y.max() - y.min()
    return ripples * cfg.steps


def worst_steady_ripple(cfg: ModulatorConfig, fm: FilterModel) -> tuple[float, int]:
    """Largest steady-state ripple over duty codes 1..2**n-1 and its code.

    Every code whose summed ripple lies within the rounding margin of the
    largest is re-evaluated with `steady_ripple`, so the result equals the
    per-duty maximum exactly, the lowest code on a tie.  PWM, MPWM and PCM
    only: FONS codes are not nested in the duty.
    """
    ripples = _summed_ripples(cfg, fm)
    near = np.nonzero(ripples >= ripples.max() - _ripple_margin(cfg))[0] + 1
    exact = [steady_ripple(cfg, int(d), fm) for d in near]
    best = int(np.argmax(exact))
    return exact[best], int(near[best])


@dataclass(frozen=True)
class CutoffResult:
    """Outcome of the required-cutoff search."""

    f_ct: float
    f_c_hz: float
    ripple_target_lsb: float
    worst_duty: int
    worst_ripple_lsb: float
    rule_of_thumb_f_ct: float | None


def required_cutoff(cfg: ModulatorConfig, ripple_target: float) -> CutoffResult:
    """Largest normalized cutoff f_c*T keeping worst-case ripple in budget.

    Brackets the rule-of-thumb guess by halving or doubling, then bisects
    geometrically down to hi/lo <= 1 + _REL_TOL against the exact worst
    steady ripple over all duty codes (`worst_steady_ripple`).  Bisection
    assumes that ripple is non-decreasing in f_c*T.  It holds for every
    PWM/MPWM/PCM config with n <= 8 on [1e-3, SN]; the first decrease
    seen lies near 1.45 * SN (PWM), where the ripple exceeds full scale.
    For PWM the rule-of-thumb closed form is reported alongside.
    """
    if not (math.isfinite(ripple_target) and ripple_target > 0):
        raise ParameterError(f"ripple_target must be finite and positive, got {ripple_target}")
    _require_mpwm_family(cfg)

    period = cfg.period

    def worst_at(f_ct: float) -> tuple[float, int]:
        return worst_steady_ripple(cfg, FilterModel(f_ct / period))

    guess = float(cutoff_rule_of_thumb(cfg.n, ripple_target)) * max(1, cfg.sn)
    lo, hi = guess, guess
    at_lo = worst_at(lo)
    r_hi = at_lo[0]
    tested = [lo]
    while at_lo[0] > ripple_target and lo / 2.0 >= 1e-6:
        lo /= 2.0
        tested.append(lo)
        at_lo = worst_at(lo)
    while r_hi <= ripple_target and hi * 2.0 <= 16.0:
        hi *= 2.0
        tested.append(hi)
        r_hi, _ = worst_at(hi)
    if at_lo[0] > ripple_target or r_hi <= ripple_target:
        raise ParameterError(f"cutoff search could not bracket the target; tested f_cT {tested}")
    while hi / lo > 1.0 + _REL_TOL:
        mid = np.sqrt(lo * hi)
        at_mid = worst_at(mid)
        if at_mid[0] > ripple_target:
            hi = mid
        else:
            lo, at_lo = mid, at_mid
    worst_r, worst_duty = at_lo
    rule = cutoff_rule_of_thumb(cfg.n, ripple_target) if cfg.kind == Kind.PWM else None
    return CutoffResult(
        f_ct=float(lo),
        f_c_hz=float(lo / period),
        ripple_target_lsb=float(ripple_target),
        worst_duty=worst_duty,
        worst_ripple_lsb=worst_r,
        rule_of_thumb_f_ct=rule,
    )


def conversion_rate(
    cfg: ModulatorConfig,
    fm: FilterModel,
    band_lsb: float = 0.5,
    step: str = "one_lsb",
) -> tuple[float, float]:
    """(max conversion rate in Hz, settling seconds) for the chosen step."""
    t = settling_time(fm, step=step, band_lsb=band_lsb, n_bits=cfg.n)
    if t == 0.0:
        return float("inf"), 0.0
    return 1.0 / t, t


@dataclass
class MetricsReport:
    """Collected figures of merit for one configuration.

    Curve fields hold one entry per duty code; scalar fields may be None
    when the corresponding analysis was not requested.
    """

    kind: str
    n: int
    sf: int
    f_clk: float
    u_lsb: float
    static_error_lsb: list[float] = field(default_factory=list)
    edge_counts: list[int] = field(default_factory=list)
    inl_lsb: float | None = None
    inl_worst_duty: int | None = None
    inl_formula_lsb: float | None = None
    dnl_lsb: float | None = None
    dnl_worst_duty: int | None = None
    dnl_formula_lsb: float | None = None
    ripple_worst_lsb: float | None = None
    ripple_worst_duty: int | None = None
    f_ct_required: float | None = None
    settling_s: float | None = None
    max_conversion_rate_hz: float | None = None

    @classmethod
    def gather(
        cls,
        cfg: ModulatorConfig,
        em: EdgeModel,
        fm: FilterModel | None = None,
        ripple_target: float | None = None,
        band_lsb: float = 0.5,
    ) -> "MetricsReport":
        """Static-error/INL/DNL sweep, plus dynamics when a filter or ripple
        target is supplied."""
        counts = edge_counts_sweep(cfg)
        supply = em.supply_rel_err * np.arange(cfg.steps)
        errors = supply + counts * em.dw * cfg.f_clk
        report = cls(
            kind=cfg.kind.value,
            n=cfg.n,
            sf=cfg.sf,
            f_clk=cfg.f_clk,
            u_lsb=em.u_nominal / cfg.steps,
            static_error_lsb=[float(e) for e in errors],
            edge_counts=[int(c) for c in counts],
        )
        report.inl_lsb, report.inl_worst_duty = _inl_of_counts(counts, cfg, em)
        report.inl_formula_lsb = inl_closed_form(cfg, em)
        report.dnl_lsb, report.dnl_worst_duty = _dnl_of_counts(counts, cfg, em)
        report.dnl_formula_lsb = dnl_closed_form(cfg, em)
        if ripple_target is not None:
            cut = required_cutoff(cfg, ripple_target)
            report.f_ct_required = cut.f_ct
            report.ripple_worst_lsb = cut.worst_ripple_lsb
            report.ripple_worst_duty = cut.worst_duty
            fm = FilterModel(cut.f_c_hz)
        if fm is not None:
            rate, settle = conversion_rate(cfg, fm, band_lsb=band_lsb)
            report.settling_s = settle
            report.max_conversion_rate_hz = rate
        return report

    def summary(self) -> dict:
        """Scalar fields only, None entries dropped; an unbounded rate is None."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if not isinstance(getattr(self, f.name), (list, type(None)))
        }
        if self.max_conversion_rate_hz == math.inf:
            out["max_conversion_rate_hz"] = None  # unbounded: settles at once
        return out

    def to_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True, indent=2, allow_nan=False)

    def write_curves_csv(self, fp: io.TextIOBase) -> None:
        """Write rows (duty, edge_count, static_error_lsb)."""
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["duty", "edge_count", "static_error_lsb"])
        for d, (count, err) in enumerate(zip(self.edge_counts, self.static_error_lsb)):
            writer.writerow([d, count, f"{err:.12g}"])
