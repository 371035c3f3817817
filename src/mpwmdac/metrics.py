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
from dataclasses import dataclass, field

import numpy as np

from .analog import EdgeModel, FilterModel, IDEAL_EDGES, settling_time, steady_ripple
from .errors import ParameterError
from .modwave import (
    DutyCode,
    Kind,
    ModulatorConfig,
    _coerce_duty,
    _require_mpwm_family,
    count_pulses,
    generate,
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


def cutoff_rule_of_thumb(n: int, ripple_lsb: float) -> float:
    """Classic PWM design rule f_c*T = 0.81 * sqrt(ripple / 2**n)."""
    return 0.81 * np.sqrt(ripple_lsb / (1 << n))


def worst_steady_ripple(
    cfg: ModulatorConfig,
    fm: FilterModel,
    duties: np.ndarray | None = None,
) -> tuple[float, int]:
    """Largest steady-state ripple over the given duty codes (default all)."""
    if duties is None:
        duties = np.arange(1, cfg.steps)
    worst, arg = -1.0, 0
    for d in duties:
        r = steady_ripple(cfg, int(d), fm)
        if r > worst:
            worst, arg = r, int(d)
    return worst, arg


@dataclass(frozen=True)
class CutoffResult:
    """Outcome of the required-cutoff search."""

    f_ct: float
    f_c_hz: float
    ripple_target_lsb: float
    worst_duty: int
    worst_ripple_lsb: float
    rule_of_thumb_f_ct: float | None


def required_cutoff(
    cfg: ModulatorConfig,
    ripple_target: float,
    rel_tol: float = 5e-3,
    candidate_count: int = 64,
) -> CutoffResult:
    """Largest normalized cutoff f_c*T keeping worst-case ripple in budget.

    Bisects the cutoff against the worst steady ripple over all duty codes
    (harmonic-summation path).  For speed at large n the duty search is
    pruned to the strongest candidates found in one full sweep, then the
    final answer is re-verified against every duty; a candidate that breaks
    the budget re-enters the search.  For PWM the rule-of-thumb closed form
    is reported alongside.
    """
    if not (math.isfinite(ripple_target) and ripple_target > 0):
        raise ParameterError(f"ripple_target must be finite and positive, got {ripple_target}")
    _require_mpwm_family(cfg)

    period = cfg.period

    def fm_at(f_ct: float) -> FilterModel:
        return FilterModel(f_ct / period)

    guess = cutoff_rule_of_thumb(cfg.n, ripple_target) * max(1, cfg.sn)
    all_duties = np.arange(1, cfg.steps)
    if cfg.steps <= 512:
        candidates = all_duties
    else:
        ripples = np.array(
            [steady_ripple(cfg, int(d), fm_at(guess)) for d in all_duties]
        )
        order = np.argsort(ripples)[::-1][:candidate_count]
        extremes = np.array([1, cfg.steps // 2 - 1, cfg.steps // 2, cfg.steps - 1])
        candidates = np.unique(np.concatenate([all_duties[order], extremes]))

    for _ in range(4):
        lo, hi = guess, guess
        r_lo, _ = worst_steady_ripple(cfg, fm_at(lo), candidates)
        tested = [lo]
        while r_lo > ripple_target:
            lo /= 2.0
            tested.append(lo)
            if lo < 1e-6:
                raise ParameterError(
                    f"cutoff search could not bracket the target; tested f_cT {tested}"
                )
            r_lo, _ = worst_steady_ripple(cfg, fm_at(lo), candidates)
        r_hi, _ = worst_steady_ripple(cfg, fm_at(hi), candidates)
        while r_hi <= ripple_target:
            hi *= 2.0
            tested.append(hi)
            if hi > 16.0:
                raise ParameterError(
                    f"cutoff search could not bracket the target; tested f_cT {tested}"
                )
            r_hi, _ = worst_steady_ripple(cfg, fm_at(hi), candidates)
        while hi / lo > 1.0 + rel_tol:
            mid = np.sqrt(lo * hi)
            r_mid, _ = worst_steady_ripple(cfg, fm_at(mid), candidates)
            if r_mid > ripple_target:
                hi = mid
            else:
                lo = mid
        f_ct = lo
        # confirm no pruned-away duty breaks the budget at the answer
        worst_r, worst_duty = worst_steady_ripple(cfg, fm_at(f_ct))
        if worst_r <= ripple_target * (1.0 + 1e-9) or worst_duty in candidates:
            rule = cutoff_rule_of_thumb(cfg.n, ripple_target) if cfg.kind == Kind.PWM else None
            return CutoffResult(
                f_ct=float(f_ct),
                f_c_hz=float(f_ct / period),
                ripple_target_lsb=float(ripple_target),
                worst_duty=worst_duty,
                worst_ripple_lsb=worst_r,
                rule_of_thumb_f_ct=rule,
            )
        candidates = np.unique(np.concatenate([candidates, [worst_duty]]))
    raise ParameterError("cutoff search failed to converge on a stable worst duty")


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
        """Scalar fields only, None entries dropped."""
        out = {
            "kind": self.kind,
            "n": self.n,
            "sf": self.sf,
            "f_clk": self.f_clk,
            "u_lsb": self.u_lsb,
        }
        for key in (
            "inl_lsb",
            "inl_worst_duty",
            "inl_formula_lsb",
            "dnl_lsb",
            "dnl_worst_duty",
            "dnl_formula_lsb",
            "ripple_worst_lsb",
            "ripple_worst_duty",
            "f_ct_required",
            "settling_s",
            "max_conversion_rate_hz",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def to_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True, indent=2)

    def write_curves_csv(self, fp: io.TextIOBase) -> None:
        """Write rows (duty, edge_count, static_error_lsb)."""
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["duty", "edge_count", "static_error_lsb"])
        for d, (count, err) in enumerate(zip(self.edge_counts, self.static_error_lsb)):
            writer.writerow([d, count, f"{err:.12g}"])
