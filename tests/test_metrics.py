"""Metric tests: closed forms against brute-force sweeps, cutoff search."""

import functools
import inspect
import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpwmdac import (
    EdgeModel,
    FilterModel,
    IDEAL_EDGES,
    MetricsReport,
    ModulatorConfig,
    ParameterError,
    conversion_rate,
    count_pulses,
    cutoff_rule_of_thumb,
    dc_average,
    dnl,
    dnl_closed_form,
    edge_counts_sweep,
    generate,
    inl,
    inl_closed_form,
    required_cutoff,
    static_error,
    steady_ripple,
    worst_steady_ripple,
)
from mpwmdac import metrics
from mpwmdac.analog import _HarmonicRoute
from mpwmdac.metrics import (
    _F_CT_FLOOR,
    _REL_TOL,
    _SCREEN_REL,
    _Spectra,
    _exact_ripples,
    _exact_screen,
    _fill_order,
    _interpolation_bound,
    _ripple_margin,
    _running_ripples,
)

EM_1NS = EdgeModel(t_dr=1e-9, t_df=0.0)


def _unit_response(cfg, fm):
    """Filtered period of slot 0 alone, on the route's grid."""
    spectra = _Spectra(cfg)
    spectra.tune(fm)
    return spectra._period_of(1)  # code 1, since C_R[0] = 0


def _summed_ripples(cfg, fm):
    """Every code's full-grid ripple from one running sum of the unit response."""
    return _running_ripples(_fill_order(cfg), _unit_response(cfg, fm))


def family_configs(n: int):
    yield ModulatorConfig.pwm(n)
    for sf in range(1, n - 1):
        yield ModulatorConfig.mpwm(n, sf)
    yield ModulatorConfig.pcm(n)
    yield ModulatorConfig.fons(n)


def test_static_error_zero_for_symmetric_edges():
    cfg = ModulatorConfig.mpwm(10, 3)
    for duty in (0, 1, 511, 1023):
        assert static_error(cfg, duty, IDEAL_EDGES) == 0.0


def test_static_error_examples():
    assert static_error(ModulatorConfig.mpwm(12, 3), 100, EM_1NS) == pytest.approx(0.8)
    pwm = ModulatorConfig.pwm(12)
    for duty in (1, 100, 2048, 4095):
        assert static_error(pwm, duty, EM_1NS) == pytest.approx(0.1)


def test_static_error_supply_term_scales_with_duty():
    em = EdgeModel(supply_rel_err=1e-3)
    cfg = ModulatorConfig.pwm(8)
    assert static_error(cfg, 200, em) == pytest.approx(0.2)


def test_static_error_matches_dc_average_route():
    # the voltage route and the LSB route must tell the same story
    cfg = ModulatorConfig.mpwm(8, 2)
    em = EdgeModel(t_dr=2e-9, t_df=0.5e-9)
    u_lsb = 1.0 / 256
    for duty in range(256):
        ideal = duty / 256
        by_volts = (dc_average(cfg, duty, em) - ideal) / u_lsb
        assert by_volts == pytest.approx(static_error(cfg, duty, em), abs=1e-9)


def test_inl_examples_and_formula_agreement():
    sweep, _ = inl(ModulatorConfig.pwm(12), EM_1NS)
    assert sweep == 0.1
    sweep, _ = inl(ModulatorConfig.pcm(12), EM_1NS)
    assert sweep == 204.8
    sweep, worst = inl(ModulatorConfig.mpwm(12, 3), EM_1NS)
    assert sweep == 0.8
    assert 8 <= worst <= 4096 - 8  # any duty in the plateau region is valid


def test_inl_formula_equals_sweep_exhaustive():
    for n in (4, 6, 8, 10):
        for cfg in family_configs(n):
            assert inl(cfg, EM_1NS)[0] == inl_closed_form(cfg, EM_1NS), cfg


def test_inl_scaling_law():
    base, _ = inl(ModulatorConfig.pwm(10), EM_1NS)
    for sf in range(1, 9):
        value, _ = inl(ModulatorConfig.mpwm(10, sf), EM_1NS)
        assert value / base == 2.0**sf


def test_dnl_zero_for_symmetric_edges():
    assert dnl(ModulatorConfig.mpwm(8, 3), IDEAL_EDGES)[0] == 0.0


def test_dnl_invariant_across_families():
    values = [dnl(cfg, EM_1NS)[0] for cfg in family_configs(10)]
    assert all(v == values[0] for v in values)
    assert values[0] == dnl_closed_form(ModulatorConfig.pwm(10), EM_1NS) == 0.1


@pytest.mark.parametrize("n", range(2, 9))
def test_edge_counts_sweep_equals_per_code_count(n):
    """The rank-order running count against counting every generated code."""
    configs = [ModulatorConfig.mpwm(n, sf) for sf in range(n)]
    configs += [ModulatorConfig.pwm(n), ModulatorConfig.pcm(n), ModulatorConfig.fons(n)]
    for cfg in configs:
        per_code = [count_pulses(generate(cfg, d)) for d in range(cfg.steps)]
        assert edge_counts_sweep(cfg).tolist() == per_code, cfg
    with pytest.raises(ParameterError):
        edge_counts_sweep(ModulatorConfig.hr_mpwm(n, n - 1))


def test_transfer_curve_monotonic_when_dw_below_one_lsb():
    for dw in (9e-9, -9e-9):  # |dw * f_clk| = 0.9
        em = EdgeModel(t_dr=max(dw, 0.0), t_df=max(-dw, 0.0))
        for cfg in family_configs(10):
            counts = edge_counts_sweep(cfg)
            averages = np.arange(cfg.steps) / cfg.steps + counts * em.dw * cfg.f_clk / cfg.steps
            assert np.all(np.diff(averages) > 0), (cfg, dw)


def ripple_configs(n: int):
    """The kinds whose duty codes are nested: every one but FONS."""
    return [cfg for cfg in family_configs(n) if cfg.kind.value != "fons"]


def _per_duty_worst(cfg, fm):
    """Every duty's steady_ripple and their maximum, first code on a tie."""
    ripples = np.array([steady_ripple(cfg, d, fm) for d in range(1, cfg.steps)])
    return ripples, (float(ripples.max()), int(np.argmax(ripples)) + 1)


def _check_worst_against_per_duty(cfg, f_ct):
    fm = FilterModel(f_ct / cfg.period)
    ripples, expected = _per_duty_worst(cfg, fm)
    assert worst_steady_ripple(cfg, fm) == expected, (cfg, f_ct)
    gap = np.max(np.abs(_summed_ripples(cfg, fm) - ripples))
    assert gap <= _ripple_margin(cfg) / 10, (cfg, f_ct, gap)


@pytest.mark.parametrize("n", range(2, 9))
def test_worst_steady_ripple_equals_per_duty_loop(n):
    for cfg in ripple_configs(n):
        for f_ct in (0.003, 0.05 * cfg.sn, 0.4 * cfg.sn):
            _check_worst_against_per_duty(cfg, f_ct)


@pytest.mark.parametrize("cfg, f_ct", [
    (ModulatorConfig.pwm(12), 0.0099),
    (ModulatorConfig.mpwm(12, 3), 0.0774),
], ids=["pwm", "mpwm_sf3"])
def test_worst_steady_ripple_equals_per_duty_loop_n12(cfg, f_ct):
    _check_worst_against_per_duty(cfg, f_ct)


def _ripple_cutoffs(cfg):
    """The search's bracket ends, 1e-5 and 16, and four cutoffs between, scaled by SN."""
    return (1e-5, 0.003, 0.05 * cfg.sn, 0.4 * cfg.sn, 2.0 * cfg.sn, 16.0)


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_ripple_lies_within_the_derived_gap_of_the_harmonic_route(n):
    # delta is _HarmonicRoute.gap for 2 SN edges and the sweep's largest |beta|:
    # truncation, grid and rounding bounds with no fitted constant.  The sweep
    # and the one-code route steady_ripple(method="exact") both hold it against
    # the harmonic steady_ripple, read through _Spectra (bit for bit the same).
    for cfg in ripple_configs(n):
        spectra = _Spectra(cfg)
        for f_ct in _ripple_cutoffs(cfg):
            fm = FilterModel(f_ct / cfg.period)
            spectra.tune(fm)
            swept, beta = _exact_ripples(cfg, spectra.omega)
            delta = spectra.gap(2 * cfg.sn, beta)
            codes = range(1, cfg.steps)
            harmonic = np.array([spectra.ripple(d) for d in codes])
            one_code = np.array([steady_ripple(cfg, d, fm, method="exact") for d in codes])
            assert np.all(np.abs(swept - harmonic) <= delta), (cfg, f_ct)
            assert np.all(np.abs(one_code - harmonic) <= delta), (cfg, f_ct)


@pytest.mark.parametrize("n", range(2, 9))
def test_worst_steady_ripple_equals_per_duty_loop_at_the_bracket_ends(n, monkeypatch):
    # both screens at the cutoffs the search may test first and last
    for cfg in ripple_configs(n):
        for f_ct in (1e-5, 16.0):
            fm = FilterModel(f_ct / cfg.period)
            expected = _per_duty_worst(cfg, fm)[1]
            for exact in (True, False):
                monkeypatch.setattr(metrics, "_exact_screen", lambda cfg, exact=exact: exact)
                assert worst_steady_ripple(cfg, fm) == expected, (cfg, f_ct, exact)


def test_the_screen_follows_its_rule():
    # exact edge phasors where sf <= min(4, n - 3), running sums elsewhere
    exact = {(n, sf) for n in range(2, 17) for sf in range(n)
             if _exact_screen(ModulatorConfig.mpwm(n, sf))}
    assert exact == {(n, sf) for n in range(3, 17) for sf in range(min(5, n - 2))}
    assert _exact_screen(ModulatorConfig.pwm(8)) and not _exact_screen(ModulatorConfig.pcm(7))


@pytest.mark.parametrize("n", range(2, 9))
def test_one_sample_per_slot_bounds_the_summed_ripple(n):
    # r1 <= r16 <= r1 + c at every code, c from the interpolation gaps alone
    screens = set()
    for cfg in ripple_configs(n):
        for f_ct in (0.003, 0.05 * cfg.sn, 0.4 * cfg.sn, 2.0 * cfg.sn):
            fm = FilterModel(f_ct / cfg.period)
            unit = _unit_response(cfg, fm)
            r1 = _running_ripples(_fill_order(cfg), unit[::16])
            r16 = _summed_ripples(cfg, fm)
            c = _interpolation_bound(unit)
            assert np.all(r1 <= r16), (cfg, f_ct)
            assert np.all(r16 <= r1 + c + _ripple_margin(cfg)), (cfg, f_ct)
            screens.add(bool(c <= _SCREEN_REL * r1[0]))
    if n == 8:  # below n=8 the bound never qualifies for the screen at these f_cT
        assert screens == {True, False}


def _reference_cutoff(cfg, target):
    """The cutoff search with the per-duty maximum at every step: no screen,
    no watched code.  Returns (f_ct, f_c_hz, worst duty, worst ripple, steps)."""
    steps = 0

    def worst_at(f_ct):
        nonlocal steps
        steps += 1
        return _per_duty_worst(cfg, FilterModel(f_ct / cfg.period))[1]

    lo = hi = float(cutoff_rule_of_thumb(cfg.n, target)) * max(1, cfg.sn)
    at_lo = worst_at(lo)
    r_hi = at_lo[0]
    while at_lo[0] > target and lo / 2.0 >= _F_CT_FLOOR:
        lo /= 2.0
        at_lo = worst_at(lo)
    while r_hi <= target and hi * 2.0 <= 16.0:
        hi *= 2.0
        r_hi, _ = worst_at(hi)
    assert at_lo[0] <= target < r_hi
    while hi / lo > 1.0 + _REL_TOL:
        mid = np.sqrt(lo * hi)
        at_mid = worst_at(mid)
        if at_mid[0] > target:
            hi = mid
        else:
            lo, at_lo = mid, at_mid
    return float(lo), float(lo / cfg.period), at_lo[1], at_lo[0], steps


def _transforms(monkeypatch):
    """One entry for each code `_Spectra` transforms from now on."""
    transformed, dft_bins = [], metrics._dft_bins

    def counted(bits):
        transformed.append(int(bits.sum()))
        return dft_bins(bits)

    monkeypatch.setattr(metrics, "_dft_bins", counted)
    return transformed


def test_cached_spectra_give_steady_ripple_bit_for_bit(monkeypatch):
    # each code is transformed once at a cutoff, and the last code's bins serve
    # the first code of the next cutoff, across the retune; a second request at
    # one cutoff reads the kept ripple, also back at the first cutoff after the others
    transformed = _transforms(monkeypatch)
    filtered, period = [], _HarmonicRoute.period

    def counted(route, bins):
        filtered.append(route.omega)
        return period(route, bins)

    for cfg in ripple_configs(6):
        spectra, codes = _Spectra(cfg), list(range(cfg.steps))
        for i, f_ct in enumerate((0.003, 0.05 * cfg.sn, 0.4 * cfg.sn)):
            fm = FilterModel(f_ct / cfg.period)
            unit = _unit_response(cfg, fm)
            assert float(unit.max() - unit.min()) * cfg.steps == steady_ripple(cfg, 1, fm)
            spectra.tune(fm)
            transformed.clear()
            for d in codes:
                want = steady_ripple(cfg, d, fm)
                assert spectra.ripple(d) == want, (cfg, f_ct, d)
                assert spectra.ripple(d) == want, (cfg, f_ct, d)
            assert transformed == codes[i > 0:], (cfg, f_ct)
            codes.reverse()
        fm = FilterModel(0.003 / cfg.period)
        want = [steady_ripple(cfg, d, fm) for d in range(cfg.steps)]
        spectra.tune(fm)
        monkeypatch.setattr(_HarmonicRoute, "period", counted)
        assert [spectra.ripple(d) for d in range(cfg.steps)] == want, cfg
        monkeypatch.setattr(_HarmonicRoute, "period", period)
        assert filtered == [], cfg


# n=8 is where the one-per-slot screen starts to qualify; pcm n=7 and
# mpwm sf=4 re-check the most distinct codes per search
_PICKED = {"pwm": ModulatorConfig.pwm(8), "mpwm_sf3": ModulatorConfig.mpwm(8, 3),
           "mpwm_sf4": ModulatorConfig.mpwm(8, 4), "pcm_n7": ModulatorConfig.pcm(7)}


def _picked(*ids):
    return pytest.mark.parametrize("cfg", [_PICKED[i] for i in ids], ids=ids)


@_picked("pwm", "mpwm_sf4", "pcm_n7")
def test_required_cutoff_is_the_same_with_nothing_cached(cfg, monkeypatch):
    transformed = _transforms(monkeypatch)
    kept = [astuple(required_cutoff(cfg, target)) for target in (0.25, 0.5, 1.0)]
    memo = len(transformed)
    # a last code that matches none: every period is transformed afresh
    monkeypatch.setattr(_Spectra, "code", property(lambda _: -1, lambda *_: None), raising=False)
    assert [astuple(required_cutoff(cfg, target)) for target in (0.25, 0.5, 1.0)] == kept
    assert len(transformed) - memo > memo, cfg  # so the memo was in use


# searches whose first confirming sweep finds a code past the target, so the bisection reruns
_RERUNS = [(ModulatorConfig.mpwm(4, 3), 1.0), (ModulatorConfig.mpwm(8, 4), 0.25),
           (ModulatorConfig.pcm(7), 0.363)]


def _observed(monkeypatch):
    """The events of each `required_cutoff` from now on, in order:

    ("ripple", f_c, code, ripple, kept, asker): a ripple asked for, whether it was kept
        before, and whether a "step" (`_Spectra.within`) or a "sweep" asked for it;
    ("step", f_c, held, code, kept): a step's `_Spectra.within`, logged once it returns,
        after the ripples it asked for; `kept` holds the code's kept ripples by f_c
        as the step began;
    ("filter", f_c, code, unit): a filtering, `unit` where a sweep takes its unit response,
        which no ripple asked for;
    ("sweep", f_c, ripple, code, spectra): a sweep, its worst ripple and code.
    """
    log, asker, asking = [], [None], [False]
    within, ripple = _Spectra.within, _Spectra.ripple
    period_of, worst_ripple = _Spectra._period_of, metrics._worst_ripple

    def stepping(spectra, code, f_c, target):
        kept, asker[0] = dict(spectra.ripples.get(code, {})), "step"
        held = within(spectra, code, f_c, target)
        asker[0] = None
        log.append(("step", f_c, held, code, kept))
        return held

    def asked(spectra, code):
        kept, asking[0] = spectra.f_c in spectra.ripples.get(code, {}), True
        r = ripple(spectra, code)
        asking[0] = False
        log.append(("ripple", spectra.f_c, code, r, kept, asker[0]))
        return r

    def filtered(spectra, code):
        log.append(("filter", spectra.f_c, code, not asking[0]))
        return period_of(spectra, code)

    def swept(spectra, *args):
        asker[0] = "sweep"
        result = worst_ripple(spectra, *args)
        asker[0] = None
        log.append(("sweep", spectra.f_c, *result, spectra))
        return result

    for name, hook in [("within", stepping), ("ripple", asked), ("_period_of", filtered)]:
        monkeypatch.setattr(_Spectra, name, hook)
    monkeypatch.setattr(metrics, "_worst_ripple", swept)
    return log


def _bracket(kept, target):
    """The `_Spectra.bracket` of a code whose kept ripples by f_c are `kept`."""
    return (max((f for f, r in kept.items() if r <= target), default=0.0),
            min((f for f, r in kept.items() if r > target), default=math.inf))


def _check_step(f_c, held, kept, filterings, target, where):
    """One `_Spectra.within` call at f_c that began with the code's kept ripples `kept`,
    filtered it at each (cutoff, ripple) of `filterings` in order and returned `held`."""
    width = 1 + _REL_TOL / 2
    kept = dict(kept)
    for at, r in filterings:
        a, b = _bracket(kept, target)
        # a code is filtered only at a step strictly inside its bracket; a probe only
        # where both ends are kept and give a secant and b / w > a, that is b > a w
        assert a < f_c < b, where
        fits = 0 < a and b < math.inf and kept[a] > 0 and kept[b] / kept[a] > 1 and b / width > a
        if at == f_c:
            assert not fits, where  # the step's own f_c, only where no probe fits
        else:  # a probe held to [a w, b / w], or at b / w where b / w < a w
            assert fits and a < at and min(a * width, b / width) <= at <= b / width, where
        kept[at] = r
    a, b = _bracket(kept, target)
    assert not a < f_c < b and held == (f_c < b), where  # the bracket decides the step


def _check_search(cfg, target, res, log):
    """Every invariant of `res = required_cutoff(cfg, target)`, read off its `_observed` log."""
    where = (cfg, target)
    assert res.ripple_checks == sum(event[0] == "ripple" for event in log), where
    assert 1 <= res.sweeps == sum(event[0] == "sweep" for event in log) <= res.ripple_checks, where
    # where sf = 0 the start code 2**(n-1) is the worst code, so no sweep names another
    assert cfg.sf > 0 or res.sweeps == 1, where
    guess = cutoff_rule_of_thumb(cfg.n, target) * max(1, cfg.sn) / cfg.period
    # a running-sum sweep filters code 1 for its unit response and keeps its ripple, but
    # where code 1's ripple was kept there before the sweep, that filtering is a second
    # one; only where the search reruns is that case held to the rule too
    strict = where in _RERUNS
    filtered, failed, asked = [], [], set()
    steps, codes, filterings, swept = [], set(), [], False
    for kind, f_c, *rest in log:
        stepping = kind == "step" or kind == "ripple" and rest[3] != "sweep"
        if stepping and swept:  # a step after a sweep starts the next run of the bisection
            steps, codes, swept = [], set(), False
        if kind == "ripple" and stepping:
            code, r, kept, asker = rest
            assert asker == "step", where
            asked.add((code, f_c))
            # one watched code a run, never asked for again where it is kept
            codes.add(code)
            assert len(codes) == 1 and not kept, where
            filterings.append((f_c, r))
        elif kind == "step":
            held, code, kept = rest
            assert codes <= {code}, where
            _check_step(f_c, held, kept, filterings, target, where)
            steps.append((f_c, held))
            filterings = []
        elif kind == "filter":
            code, unit = rest
            assert code == 1 or not unit, where
            filtered.append((code, f_c, unit and (1, f_c) in asked and not strict))
        elif kind == "sweep":
            assert filterings == [], where
            r, code, spectra = rest
            # each sweep confirms its run's top or the reported cutoff, the guess only as top
            top = max((f for f, held in steps if held), default=0.0)
            assert f_c in (top, res.f_c_hz) and (f_c != guess or guess == top), where
            if r > target:
                failed.append((f_c, code, spectra))
            swept = True
    assert filterings == [], where
    assert len(filtered) == len(set(filtered)), where  # no code filtered twice at one cutoff
    assert failed or not strict, where
    for f_c, code, spectra in failed:
        # a sweep past the target keeps its worst code's ripple there, so that code's kept
        # ripples refuse every step at or above this cutoff, and ask for no ripple doing so
        assert spectra.ripples[code][f_c] > target, where
        above = [f for f in spectra.ripples[code] if f >= f_c]
        checks = spectra.checks
        for f in [*above, *(f_c * np.geomspace(1, 16 * cfg.sn, 9)).tolist()]:
            assert spectra.within(code, f, target) is False, (where, code, f_c, f)
        assert spectra.checks == checks, where


_reference = functools.cache(_reference_cutoff)  # the tests below share searches


def _check_against_reference(cfg, target, res):
    *want, steps = _reference(cfg, target)
    assert [res.f_ct, res.f_c_hz, res.worst_duty, res.worst_ripple_lsb] == want, (cfg, target)
    assert res.sweeps < steps, (cfg, target)  # the watched code settles a step without a sweep


def _check_searches(searches, monkeypatch):
    """Observe and check each search, and up to n = 8 compare it with `_reference_cutoff`.
    Each test below checks every invariant on the searches it runs."""
    log = _observed(monkeypatch)
    for cfg, target in searches:
        log.clear()
        res = required_cutoff(cfg, target)
        _check_search(cfg, target, res, log)
        if cfg.n <= 8:
            _check_against_reference(cfg, target, res)


_TARGETS = (0.25, 0.5, 1.0)


@pytest.mark.parametrize("n", range(2, 8))
def test_required_cutoff_equals_per_duty_search(n, monkeypatch):
    _check_searches([(cfg, t) for cfg in ripple_configs(n) for t in _TARGETS], monkeypatch)


@_picked("pwm", "mpwm_sf3", "mpwm_sf4", "pcm_n7")
def test_required_cutoff_equals_per_duty_search_n8(cfg, monkeypatch):
    _check_searches([(cfg, 0.5)], monkeypatch)


@pytest.mark.parametrize("cfg, target", _RERUNS, ids=["mpwm_n4_sf3", "mpwm_n8_sf4", "pcm_n7"])
def test_a_rerun_of_the_bisection_filters_no_code_twice_at_one_cutoff(cfg, target, monkeypatch):
    _check_searches([(cfg, target)], monkeypatch)


@_picked("pwm", "mpwm_sf4", "pcm_n7")
def test_ripple_checks_count_the_ripples_asked_for_one_a_step(cfg, monkeypatch):
    _check_searches([(cfg, t) for t in (0.25, 0.585, 1.0)], monkeypatch)


@_picked("pwm", "mpwm_sf3", "pcm_n7")
def test_the_bisection_filters_only_inside_the_probed_bracket(cfg, monkeypatch):
    _check_searches([(cfg, t) for t in _TARGETS], monkeypatch)


@pytest.mark.parametrize("n", range(2, 9))
def test_every_sweep_confirms_its_runs_top_or_the_reported_cutoff(n, monkeypatch):
    cfgs = [ModulatorConfig.pwm(n), *(ModulatorConfig.mpwm(n, sf) for sf in range(n)),
            ModulatorConfig.pcm(n)]
    _check_searches([(cfg, t) for cfg in cfgs for t in _TARGETS], monkeypatch)


@pytest.mark.parametrize("n", range(2, 11))
def test_a_pwm_shaped_search_sweeps_once(n, monkeypatch):
    targets = dict.fromkeys([*_TARGETS, *np.linspace(0.25, 1.0, 8).tolist()])
    shaped = (ModulatorConfig.pwm(n), ModulatorConfig.mpwm(n, 0))
    _check_searches([(cfg, t) for cfg in shaped for t in targets], monkeypatch)


@st.composite
def _ripple_configs(draw, max_n):
    """pwm, mpwm at any sf or pcm, at n 2..max_n and a clock of 50, 100 or 200 MHz."""
    n, f_clk = draw(st.integers(2, max_n)), draw(st.sampled_from([50e6, 100e6, 200e6]))
    sf = draw(st.sampled_from([None, *range(n)]))  # None: pwm or pcm
    if sf is None:
        return draw(st.sampled_from([ModulatorConfig.pwm, ModulatorConfig.pcm]))(n, f_clk)
    return ModulatorConfig.mpwm(n, sf, f_clk)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_ripple_configs(7), st.floats(0.1, 2.0))
def test_random_searches_keep_the_invariants_of_the_cutoff_search(cfg, target):
    with pytest.MonkeyPatch.context() as monkeypatch:
        log = _observed(monkeypatch)
        res = required_cutoff(cfg, target)
        _check_search(cfg, target, res, log)
    _check_against_reference(cfg, target, res)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_ripple_configs(8), st.floats(-5.0, math.log10(16.0)))
def test_worst_steady_ripple_equals_per_duty_loop_at_random_cutoffs(cfg, log_f_ct):
    fm = FilterModel(10.0**log_f_ct / cfg.period)
    assert worst_steady_ripple(cfg, fm) == _per_duty_worst(cfg, fm)[1]


@pytest.mark.parametrize("cfg, target, tested", [
    # the guess and each halving down to the 1e-6 floor exceed the target
    (ModulatorConfig.mpwm(5, 4), 6.858710562414266e-12, [6e-06, 3e-06, 1.5e-06]),
    (ModulatorConfig.mpwm(6, 5), 3.429355281207133e-12, [6e-06, 3e-06, 1.5e-06]),
    # the guess and each doubling up to f_cT 16 meet it
    (ModulatorConfig.pwm(2), 5.0, [0.905607530887415, 1.81121506177483, 3.62243012354966,
                                   7.24486024709932, 14.48972049419864]),
    (ModulatorConfig.pwm(3), 20.0, [1.2807224523681937, 2.5614449047363874,
                                    5.122889809472775, 10.24577961894555]),
    (ModulatorConfig.mpwm(3, 1), 20.0, [2.5614449047363874, 5.122889809472775,
                                        10.24577961894555]),
], ids=["floor_mpwm_n5_sf4", "floor_mpwm_n6_sf5", "16_pwm_n2", "16_pwm_n3", "16_mpwm_n3_sf1"])
def test_required_cutoff_names_each_f_ct_when_it_cannot_bracket_the_target(
        cfg, target, tested, monkeypatch):
    log = _observed(monkeypatch)
    with pytest.raises(ParameterError, match=re.escape(f"bracket the target; tested f_cT {tested}")):
        required_cutoff(cfg, target)
    # no step needs a sweep, the guess included, so a search that misses the
    # floor sweeps nowhere; the last doubling held in budget is confirmed by
    # one before the search gives up
    last = [tested[-1]] if tested[-1] > tested[0] else []
    assert [event[1] for event in log if event[0] == "sweep"] == [f / cfg.period for f in last]


def test_worst_steady_ripple_rejects_fons():
    with pytest.raises(ParameterError, match="pwm/pcm/mpwm"):
        worst_steady_ripple(ModulatorConfig.fons(6), FilterModel(1e5))


def test_worst_ripple_non_decreasing_in_cutoff():
    # required_cutoff's bisection relies on this
    configs = [cfg for n in range(2, 9) for cfg in ripple_configs(n)] + [
        ModulatorConfig.pwm(10), ModulatorConfig.mpwm(10, 3), ModulatorConfig.mpwm(10, 7),
        ModulatorConfig.pcm(10), ModulatorConfig.pwm(12), ModulatorConfig.mpwm(12, 3),
    ]
    for cfg in configs:
        grid = np.geomspace(1e-3, cfg.sn, 24)
        worst = [worst_steady_ripple(cfg, FilterModel(f / cfg.period))[0] for f in grid]
        assert np.all(np.diff(worst) >= 0), cfg


def test_cutoff_search_takes_only_its_inputs():
    assert list(inspect.signature(required_cutoff).parameters) == ["cfg", "ripple_target"]
    assert list(inspect.signature(worst_steady_ripple).parameters) == ["cfg", "fm"]


@pytest.mark.parametrize("n, ripple, match", [
    (10, -1.0, "ripple_lsb"),  # once NaN
    (10, 0.0, "ripple_lsb"),
    (10, np.inf, "ripple_lsb"),  # once inf
    (10, np.nan, "ripple_lsb"),
    (-1, 0.5, "n must be"),  # once a bare "negative shift count"
    (1, 0.5, "n must be"),
    (17, 0.5, "n must be"),
])
def test_cutoff_rule_of_thumb_rejects_bad_inputs(n, ripple, match):
    with pytest.raises(ParameterError, match=match):
        cutoff_rule_of_thumb(n, ripple)


def test_required_cutoff_pwm_matches_rule_of_thumb():
    cfg = ModulatorConfig.pwm(10)
    res = required_cutoff(cfg, 0.5)
    assert res.rule_of_thumb_f_ct == pytest.approx(cutoff_rule_of_thumb(10, 0.5))
    assert res.f_ct == pytest.approx(res.rule_of_thumb_f_ct, rel=0.30)
    # the answer sits on the budget boundary
    assert res.worst_ripple_lsb <= 0.5
    fm_above = FilterModel(res.f_c_hz * 1.02)
    worst_above, _ = worst_steady_ripple(cfg, fm_above)
    assert worst_above > 0.5


def test_required_cutoff_monotone_in_sf():
    results = [
        required_cutoff(ModulatorConfig.mpwm(8, sf) if sf else ModulatorConfig.pwm(8), 0.5).f_ct
        for sf in (0, 1, 2, 3)
    ]
    assert results == sorted(results)
    assert results[0] < results[1] < results[2] < results[3]


def test_required_cutoff_rejects_bad_target():
    with pytest.raises(ParameterError, match="ripple_target"):
        required_cutoff(ModulatorConfig.pwm(8), -1.0)


def test_conversion_rate_sub_khz_for_12bit_pwm():
    # full-scale conversions: settling dominates the conversion period
    cfg = ModulatorConfig.pwm(12)
    rate, settle = conversion_rate(cfg, FilterModel(250.0), band_lsb=0.5, step="full_scale")
    assert rate < 1e3
    assert rate == pytest.approx(1.0 / settle)


def test_conversion_rate_tracks_cutoff_ratio():
    # settling scales exactly as 1/f_c, so rate ratios equal cutoff ratios
    fm1, fm2 = FilterModel(250.0), FilterModel(1000.0)
    cfg = ModulatorConfig.pwm(12)
    r1, _ = conversion_rate(cfg, fm1)
    r2, _ = conversion_rate(cfg, fm2)
    assert r2 / r1 == pytest.approx(4.0, rel=1e-9)


def test_metrics_report_summary():
    cfg = ModulatorConfig.mpwm(6, 2)
    report = MetricsReport.gather(cfg, EM_1NS)
    summary = report.summary()
    assert summary["inl_lsb"] == pytest.approx(0.4)
    assert summary["dnl_lsb"] == pytest.approx(0.1)
    assert summary["u_lsb"] == pytest.approx(1 / 64)
    assert "settling_s" not in summary  # no filter requested
    assert "edge_counts" not in summary  # the per-duty curves go to the CLI's data file


def test_metrics_report_with_filter():
    cfg = ModulatorConfig.pwm(6)
    report = MetricsReport.gather(cfg, EM_1NS, fm=FilterModel(1e3))
    assert report.settling_s is not None
    assert report.max_conversion_rate_hz == pytest.approx(1.0 / report.settling_s)
