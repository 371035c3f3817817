"""DAC figures of merit: static error, INL, DNL, required cutoff, speed.

Every metric with a closed form is also computed by brute force from the
generated waveforms, and the two routes must agree exactly under the
ideal-ramp edge model; the pairing is exercised by the test suite rather
than hidden inside the functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .analog import EdgeModel, FilterModel, IDEAL_EDGES, settling_time
from .analog import (
    _SAMPLES_PER_SLOT,
    _TILE_SEGMENTS,
    _HarmonicRoute,
    _edge_swings,
    _phasors,
    _ripple_lsb,
)
from .errors import ParameterError, _require_int, _require_real
from .modwave import (
    DutyCode,
    Kind,
    ModulatorConfig,
    _coerce_duty,
    _fill_order,
    _slot_wave,
    bit_reverse,
    count_pulses,
)
from .spectral import _dft_bins

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


def static_error(
    cfg: ModulatorConfig, duty: int | DutyCode, em: EdgeModel = IDEAL_EDGES
) -> float:
    """Static error in LSB: (average output - ideal output) / u_lsb.

    Splits into the supply term (relative supply deviation scaled by the
    duty) and the edge term pulse_count * dw * f_clk.
    """
    duty = _coerce_duty(cfg, duty)
    pulses = count_pulses(_slot_wave(cfg, duty))
    supply_term = em.supply_rel_err * duty.coarse
    return supply_term + pulses * em.dw * cfg.f_clk


def edge_counts_sweep(cfg: ModulatorConfig) -> np.ndarray:
    """Pulse count of the generated waveform for every duty code.

    For PWM, MPWM and PCM, code D+1 is code D plus slot s = order[D], which
    opens, extends or merges pulses as none, one or both of its cyclic
    neighbours are already high (C_R[s -/+ 1] < D), so the count changes by
    1 - [C_R[s-1] < D] - [C_R[s+1] < D].  FONS codes are not nested: each
    code is generated and counted (and HRMPWM is refused there).
    """
    if cfg.kind in (Kind.FONS, Kind.HRMPWM):
        return np.array([count_pulses(_slot_wave(cfg, d)) for d in range(cfg.steps)], np.int64)
    order = _fill_order(cfg)
    cr = np.argsort(order)  # the inverse permutation: C_R[s] = D where order[D] = s
    high_neighbours = (np.roll(cr, 1) < cr).astype(np.int64) + (np.roll(cr, -1) < cr)
    return np.concatenate(([0], np.cumsum(1 - high_neighbours[order[:-1]])))


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
_F_CT_FLOOR = 1e-6  # the cutoff bracket tests no f_cT below this
_SCREEN_REL = 0.01  # one sample per slot when the bound is at most this share of code 1's ripple
_BLOCK_CELLS = 1 << 16  # running sums held at once by a ripple sweep
# A ripple sweep screens by exact edge phasors when sf <= min(_EXACT_MAX_SF, n - 3)
# (`_exact_screen`), else by running sums.  Measured on whole required_cutoff
# searches (one BLAS thread, median of 6-14 interleaved runs at targets 0.3 and
# 0.7), the running sums took this many times as long as the exact screen:
# n=6 sf 0-5: 1.29 1.19 1.16 1.02 0.80 0.52; n=7 sf 2-6: 1.60 1.57 1.09 0.68 0.28;
# n=8 sf 0-7: 2.13 1.74 1.69 1.47 1.69 0.74 0.41 0.22; n=10 sf 0-6: 3.86 2.84 3.08
# 1.49 1.08 0.54 0.27; n=12 sf 3-7: 3.74 2.44 1.27 0.64 0.38.  The exact sweep
# costs 2**(n+sf+1) segments; the running sums 4**n cells.
_EXACT_MAX_SF = 4


def cutoff_rule_of_thumb(n: int, ripple_lsb: float) -> float:
    """Classic PWM design rule f_c*T = 0.81 * sqrt(ripple / 2**n)."""
    n = _require_int("n", n, 2, 16)
    ripple_lsb = _require_real("ripple_lsb", ripple_lsb)
    return 0.81 * math.sqrt(ripple_lsb / (1 << n))


def _ripple_margin(cfg: ModulatorConfig) -> float:
    """LSB bound on |summed - per-duty ripple|: 2**n terms, each off by about
    log2(grid) * eps of full scale (2**n LSB) from FFT and add rounding."""
    return cfg.steps**2 * math.log2(_SAMPLES_PER_SLOT * cfg.steps) * np.finfo(float).eps


def _running_ripples(order: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Ripple in LSB of codes 1..2**n-1 from one running sum of the unit response.

    Code D is code D-1 plus slot order[D-1], so its filtered period is the
    previous one plus the unit response rolled by that slot.  `samples`
    holds the unit response on a whole number of samples per slot; the sum
    at a slot's first sample takes the same additions in the same order
    whatever that number is.  The sums of up to _BLOCK_CELLS // grid codes
    are kept at a time and reduced together.
    """
    grid = samples.size
    per_slot = grid // order.size
    tiled = np.tile(samples, 2)  # tiled[grid - s : 2 * grid - s] is samples rolled by s
    starts = (grid - per_slot * order[:-1]).tolist()
    block = np.empty((max(1, _BLOCK_CELLS // grid), grid))
    ripples = np.empty(len(starts))
    y = np.zeros(grid)
    for first in range(0, len(starts), len(block)):
        sums = block[: len(starts) - first]
        for row, start in zip(sums, starts[first : first + len(sums)]):
            y = np.add(y, tiled[start : start + grid], out=row)
        ripples[first : first + len(sums)] = sums.max(1) - sums.min(1)
    return ripples * order.size


def _exact_ripples(cfg: ModulatorConfig, omega: float) -> tuple[np.ndarray, float]:
    """Exact ripple in LSB of codes 1..2**n-1 at omega rad per slot, and the largest
    |beta| of any code (`analog._edge_swings`).

    Sub-region i of code D rises at i * sub and falls at i * sub + w_i, where
    w_i = (D >> sf) + [bitrev(i) < D mod SN], the decoder's widths, so every
    step lands on a whole slot.  The codes are swept in blocks of at most
    _TILE_SEGMENTS segments.
    """
    sn, sub = cfg.sn, cfg.steps >> cfg.sf
    index = np.arange(sn)[:, None]
    starts, reversed_index = index * sub, bit_reverse(index, cfg.sf)
    rising = np.tile([True, False], sn)
    table = _phasors(omega, np.arange(cfg.steps + 1))
    codes = np.arange(1, cfg.steps)
    ripples = np.empty(codes.size)
    beta = 0.0
    step = max(1, _TILE_SEGMENTS // rising.size)
    for first in range(0, codes.size, step):
        block = codes[first : first + step]
        times = np.empty((rising.size, block.size), dtype=np.int64)
        times[0::2] = starts
        times[1::2] = starts + (block >> cfg.sf) + (reversed_index < (block & (sn - 1)))
        swings, betas = _edge_swings(times, rising, cfg.steps, omega, table)
        ripples[first : first + block.size] = swings * cfg.steps
        beta = max(beta, float(betas.max()))
    return ripples, beta


def _exact_screen(cfg: ModulatorConfig) -> bool:
    """Whether a ripple sweep of `cfg` screens by exact edge phasors, which
    measured faster than the running sums there (see _EXACT_MAX_SF)."""
    return cfg.sf <= min(_EXACT_MAX_SF, cfg.n - 3)


def _interpolation_bound(unit: np.ndarray) -> float:
    """c in LSB: no code's full-grid ripple exceeds its one-per-slot ripple by more.

    e_j(m) is the gap between the unit response at sample j of slot m and
    the straight line through the first samples of slots m and m + 1.  A
    code's period minus the line through its slot-start samples is the sum
    of e_j(m - s) over its high slots s, so it lies within [-sum_m
    max(-e_j, 0), sum_m max(e_j, 0)]: the peak rises by at most the largest
    positive sum and the trough falls by at most the largest negative one.
    """
    slots = unit.reshape(-1, _SAMPLES_PER_SLOT)
    ends = np.roll(slots[:, 0], -1)
    j = np.arange(_SAMPLES_PER_SLOT) / _SAMPLES_PER_SLOT
    e = slots - (slots[:, :1] * (1 - j) + ends[:, None] * j)
    return float(np.maximum(e, 0).sum(0).max() + np.maximum(-e, 0).sum(0).max()) * slots.shape[0]


class _Spectra(_HarmonicRoute):
    """The harmonic ripple route of one config, kept for one cutoff search.

    Adds the fill order to the route and keeps the 2**n DFT bins of the last
    code transformed, across retunes too.  Each ripple is kept by code, then
    f_c, for the whole search, so no ripple is filtered twice at one cutoff,
    and `checks` counts the ripples asked for; a code's kept ripples bracket
    where it crosses a target (`bracket`), and `within` decides each step of
    the search from that bracket, filtering only strictly inside it.  Code
    D's bits are the first D slots of the fill order, which are the
    comparator's, and the route is the one `steady_ripple` runs, so each
    ripple equals it bit for bit.
    """

    def __init__(self, cfg: ModulatorConfig) -> None:
        super().__init__(cfg)
        self.order = _fill_order(cfg)
        self.code, self.bins = -1, np.zeros(0)  # the last code transformed and its bins
        self.ripples: dict[int, dict[float, float]] = {}
        self.checks = 0

    def _period_of(self, code: int) -> np.ndarray:
        """Filtered period of duty code `code` at the tuned cutoff."""
        if code != self.code:
            bits = np.zeros(self.cfg.steps, dtype=np.uint8)
            bits[self.order[:code]] = 1
            self.code, self.bins = code, _dft_bins(bits)
        return self.period(self.bins)

    def ripple(self, code: int) -> float:
        """`steady_ripple` of duty code `code` at the tuned cutoff."""
        self.checks += 1
        kept = self.ripples.setdefault(code, {})
        if self.f_c not in kept:
            kept[self.f_c] = _ripple_lsb(self._period_of(code), self.cfg)
        return kept[self.f_c]

    def unit(self) -> np.ndarray:
        """Filtered period of code 1, slot 0 alone since C_R[0] = 0, at the tuned
        cutoff: the unit response.  Its ripple is kept as code 1's, so a later
        `ripple(1)` here filters nothing, but it is not counted as a check."""
        unit = self._period_of(1)
        self.ripples.setdefault(1, {}).setdefault(self.f_c, _ripple_lsb(unit, self.cfg))
        return unit

    def bracket(self, code: int, target: float) -> tuple[float, float]:
        """(a, b): the largest kept f_c where `code` is within `target`, 0 if none,
        and the smallest kept f_c where it is past it, inf if none."""
        kept = self.ripples.get(code, {})
        return (max((f for f, r in kept.items() if r <= target), default=0.0),
                min((f for f, r in kept.items() if r > target), default=math.inf))

    def within(self, code: int, f_c: float, target: float) -> bool:
        """Whether `code` is within `target` at `f_c` Hz: the cutoff search's step rule.

        The code's `bracket` (a, b) decides an f_c not strictly between: within
        below b, past it at or above b.  This holds where the code's ripple does
        not decrease between f_c and the kept cutoff.  Strictly between, the code
        is filtered at a probe and the bracket is read again.  A probe is the
        secant step on log ripple against log f_c between a and b, held to
        [a w, b / w], w = 1 + _REL_TOL / 2, or to b / w where that lies below
        a w, so a probe next to an end lands across the crossing.  Where no
        probe fits strictly between, as where b <= a w or the ends give no
        secant, the code is filtered at f_c itself, which then decides.
        """
        width = 1 + _REL_TOL / 2
        while True:
            a, b = self.bracket(code, target)
            if not a < f_c < b:
                return f_c < b
            at = f_c
            if 0 < a and b < math.inf:
                ra, rb = self.ripples[code][a], self.ripples[code][b]
                rise = math.log(rb / ra) if ra > 0 else 0.0
                if rise > 0:
                    probe = a * (b / a) ** (math.log(target / ra) / rise)
                    probe = min(max(probe, a * width), b / width)
                    at = probe if a < probe < b else f_c
            self.tune(FilterModel(at))
            self.ripple(code)


def _worst_ripple(spectra: _Spectra, target: float = math.inf) -> tuple[float, int]:
    """`worst_steady_ripple` at the tuned cutoff, or the first code found past
    `target` and its ripple.

    One sweep gives every code D a screen ripple r_D, and every code with
    r_D >= max r - w is re-checked on the harmonic route, the width w chosen
    so that the code with the largest `steady_ripple` h, and every code tied
    with it, passes: the re-checks find the maximum and its lowest code
    exactly.  They run in falling screen order, the lowest code first on a
    tie, and stop at the first code whose ripple exceeds `target`: a failing
    confirmation needs only one such code.  Where none does, every near code
    is re-checked and the maximum is returned.

    Where `_exact_screen(cfg)`, r_D is the exact ripple (`_exact_ripples`),
    a sweep of 2**(n+sf+1) segments.  It lies within delta =
    `_HarmonicRoute.gap` of h_D, so the code D_h with the largest h has
    r_(D_h) >= h_(D_h) - delta >= h_(D_r) - delta >= max r - 2 delta, D_r
    the code with the largest r: w = 2 delta.

    Elsewhere, for PCM and high sf, where that sweep costs more than the
    4**n cells of a running sum, r_D is one running sum of the unit response
    (`_running_ripples`).  That sum reads one sample per slot when the
    interpolation bound c is at most _SCREEN_REL of code 1's one-per-slot
    ripple, and the full grid (c = 0) otherwise.  The one-per-slot sums are
    a subset of the full-grid sums, bit for bit, so r1 <= r16 holds in
    floating point, and r16 <= r1 + c holds for the exact sums of the same
    samples.  Each running sum is 2**n roundings of at most eps of full
    scale away from its exact value, at most 4**n * eps LSB, so the computed
    r16 <= r1 + c + 4 * 4**n * eps, and 4 * 4**n * eps is below one
    _ripple_margin.  Each r16 lies within one margin of its `steady_ripple`.
    A code with the largest `steady_ripple` therefore has
    r1 >= max r1 - c - 3 margins: w = c + 4 margins, the fourth for the
    rounding of c itself.
    """
    cfg = spectra.cfg
    if _exact_screen(cfg):
        ripples, beta = _exact_ripples(cfg, spectra.omega)
        width = 2 * spectra.gap(2 * cfg.sn, beta)
    else:
        unit = spectra.unit()
        samples, c = unit[::_SAMPLES_PER_SLOT], _interpolation_bound(unit)
        if c > _SCREEN_REL * (samples.max() - samples.min()) * cfg.steps:
            samples, c = unit, 0.0
        ripples = _running_ripples(spectra.order, samples)
        width = c + 4 * _ripple_margin(cfg)
    near = np.nonzero(ripples >= ripples.max() - width)[0]
    checked = []
    for code in (near[np.argsort(-ripples[near], kind="stable")] + 1).tolist():
        r = spectra.ripple(code)
        if r > target:
            return r, code
        checked.append((-r, code))
    r, code = min(checked)  # the largest ripple, its lowest code on a tie
    return -r, code


def worst_steady_ripple(cfg: ModulatorConfig, fm: FilterModel) -> tuple[float, int]:
    """Largest steady-state ripple over duty codes 1..2**n-1 and its code.

    One sweep screens the codes: the exact edge-phasor ripple of every code
    where sf <= min(4, n - 3), a running sum of the unit response elsewhere
    (see `_worst_ripple`).  Every code the screen cannot rule out is
    re-evaluated on the harmonic route of `steady_ripple`, so the result
    equals its per-duty maximum exactly, the lowest code on a tie.  PWM,
    MPWM and PCM only: FONS codes are not nested in the duty.
    """
    spectra = _Spectra(cfg)
    spectra.tune(fm)
    return _worst_ripple(spectra)


@dataclass(frozen=True)
class CutoffResult:
    """Outcome of the required-cutoff search.

    sweeps counts the full sweeps over every duty code: at each confirmation
    and at the reported cutoff.  ripple_checks counts the harmonic-route
    ripples the search asked for: the watched code's at each probe and at
    each step its kept ripples do not decide (`_Spectra.within`), and the
    screen re-checks up to the first code past the target, whether the
    ripple was filtered then or kept from earlier.  The re-check count
    depends on the screen a sweep runs (`_worst_ripple`), exact edge
    phasors or running sums; the other fields do not.
    """

    f_ct: float
    f_c_hz: float
    ripple_target_lsb: float
    worst_duty: int
    worst_ripple_lsb: float
    rule_of_thumb_f_ct: float | None
    sweeps: int
    ripple_checks: int


def required_cutoff(cfg: ModulatorConfig, ripple_target: float) -> CutoffResult:
    """Largest normalized cutoff f_c*T keeping worst-case ripple in budget.

    Brackets the rule-of-thumb guess by halving or doubling, then bisects
    geometrically down to hi/lo <= 1 + _REL_TOL against the worst steady
    ripple over all duty codes (`worst_steady_ripple`).  Every step, the
    guess included, asks about one watched code alone, code 2**(n-1) at
    first, one past it where sf > 0: if it exceeds the target, so does the
    maximum, and the step is out of budget; else it is held in budget.  One
    rule decides each step (`_Spectra.within`): the watched code's kept
    harmonic ripples hold it in budget at or below the largest kept f_c*T
    where the code is within the target and out at or above the smallest
    where it is past it, with no filtering.  A step strictly between filters
    the code at secant probes until the kept ripples decide it, or at the
    step itself where no probe fits.  This assumes that the watched code's
    ripple does not decrease between the step and the kept f_c*T, the
    monotonicity the bisection relies on anyway.  Each harmonic ripple is
    kept by code, then f_c, so a rerun filters no ripple twice.  Probes move
    neither lo, hi nor the largest f_c*T held in budget, so the bisection
    asks the same steps.  One sweep then confirms the largest f_c*T held in
    budget.  If another code exceeds the target there, the first one the
    sweep finds becomes the watched code (`_worst_ripple`), its ripple past
    the target there kept, so no later step at or above that f_c*T is held
    in budget, and the bracketing and bisection run again.  The reported
    ripple and code come from a sweep at the final lo.  The result is that
    of a sweep at every step wherever the worst ripple is non-decreasing in
    f_c*T, which bisection assumes anyway.  That holds on [1e-3, SN] for
    every PWM/MPWM/PCM config with n <= 8, for PWM, MPWM sf 3 and 7 and PCM
    at n = 10, and for PWM and MPWM sf 3 at n = 12; the first decrease seen
    lies near 1.45 * SN (PWM), where the ripple exceeds full scale.  For PWM
    the rule-of-thumb closed form is reported alongside.
    """
    ripple_target = _require_real("ripple_target", ripple_target)

    period = cfg.period
    spectra = _Spectra(cfg)
    swept: dict[float, tuple[float, int]] = {}  # (worst ripple, its code) by f_cT

    def sweep(f_ct: float) -> tuple[float, int]:
        """(worst ripple, its code) at f_ct, from one sweep per f_ct; where a code
        exceeds the target, the first one found past it (`_worst_ripple`)."""
        if f_ct not in swept:
            spectra.tune(FilterModel(f_ct / period))
            swept[f_ct] = _worst_ripple(spectra, ripple_target)
        return swept[f_ct]

    def within(f_ct: float) -> bool:
        """Whether the watched code is within the target at f_ct (`_Spectra.within`)."""
        nonlocal top
        try:
            held = spectra.within(watched, f_ct / period, ripple_target)
        except ParameterError:
            raise ParameterError(f"f_clk = {cfg.f_clk} Hz takes the search to f_cT = {f_ct}, "
                                 f"f_c = {f_ct / period} Hz, outside FilterModel's range") from None
        if held:
            top = max(top, f_ct)
        return held

    rule = cutoff_rule_of_thumb(cfg.n, ripple_target)
    guess = rule * cfg.sn
    _require_real("f_cT guess", guess, _F_CT_FLOOR, above=False)  # below it, ripples round to 0
    # 2**(n-1) is the worst code where sf = 0; where sf > 0 its pulses are equal and pass, so +1
    watched = (1 << (cfg.n - 1)) + (cfg.sf > 0)  # decides each step until a sweep names another
    while True:
        lo = hi = guess
        tested, top = [lo], 0.0  # top: the largest f_cT held in budget in this run
        lo_within = hi_within = within(guess)
        while not lo_within and lo / 2.0 >= _F_CT_FLOOR:
            lo /= 2.0
            tested.append(lo)
            lo_within = within(lo)
        if not lo_within:  # the guess and each halving exceed the target
            break
        while hi_within and hi * 2.0 <= 16.0:
            hi *= 2.0
            tested.append(hi)
            hi_within = within(hi)
        while not hi_within and hi / lo > 1.0 + _REL_TOL:
            mid = np.sqrt(lo * hi)
            if within(mid):
                lo = mid
            else:
                hi = mid
        confirm = (top,) if hi_within else (top, lo)  # lo is reported only once bracketed
        over = next((f for f in confirm if sweep(f)[0] > ripple_target), None)
        if over is None:
            break
        watched = swept[over][1]
    if not lo_within or hi_within:
        raise ParameterError(f"cutoff search could not bracket the target; tested f_cT {tested}")
    worst_r, worst_duty = swept[lo]
    return CutoffResult(
        f_ct=float(lo),
        f_c_hz=float(lo / period),
        ripple_target_lsb=ripple_target,
        worst_duty=worst_duty,
        worst_ripple_lsb=worst_r,
        rule_of_thumb_f_ct=rule if cfg.kind == Kind.PWM else None,
        sweeps=len(swept),
        ripple_checks=spectra.checks,
    )


def conversion_rate(
    cfg: ModulatorConfig,
    fm: FilterModel,
    band_lsb: float = 0.5,
    step: str = "one_lsb",
) -> tuple[float, float]:
    """(max conversion rate in Hz, settling seconds) for the chosen step."""
    n_bits = cfg.n
    t = settling_time(fm, step=step, band_lsb=band_lsb, n_bits=n_bits)
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
