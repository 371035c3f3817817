"""Metric tests: closed forms against brute-force sweeps, cutoff search."""

import inspect
import math
import re
from dataclasses import astuple

import numpy as np
import pytest

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


@pytest.mark.parametrize("n", range(2, 8))
def test_required_cutoff_equals_per_duty_search(n):
    for cfg in ripple_configs(n):
        for target in (0.25, 0.5, 1.0):
            res = required_cutoff(cfg, target)
            *want, steps = _reference_cutoff(cfg, target)
            assert [res.f_ct, res.f_c_hz, res.worst_duty, res.worst_ripple_lsb] == want
            # the watched code settles at least one step without a sweep, and
            # each sweep re-checks at least one code
            assert 1 <= res.sweeps < steps
            assert res.sweeps <= res.ripple_checks


@pytest.mark.parametrize("cfg", [
    ModulatorConfig.pwm(8),
    ModulatorConfig.mpwm(8, 3),
    ModulatorConfig.mpwm(8, 4),
    ModulatorConfig.pcm(7),
], ids=["pwm", "mpwm_sf3", "mpwm_sf4", "pcm_n7"])
def test_required_cutoff_equals_per_duty_search_n8(cfg):
    # n=8 is where the one-per-slot screen starts to qualify; pcm n=7 and
    # mpwm sf=4 re-check the most distinct codes per search
    res = required_cutoff(cfg, 0.5)
    assert [res.f_ct, res.f_c_hz, res.worst_duty, res.worst_ripple_lsb] == list(
        _reference_cutoff(cfg, 0.5)[:4])


def test_cached_spectra_give_steady_ripple_bit_for_bit(monkeypatch):
    # first cutoff: the first ten codes keep their bins and the rest are
    # transformed again at each use; a second request at one cutoff reads
    # the remembered ripple, also back at the first cutoff after the others
    monkeypatch.setattr(metrics, "_CACHE_TERMS", 10 * 64)
    filtered, period = [], _HarmonicRoute.period

    def counted(route, bins):
        filtered.append(route.omega)
        return period(route, bins)

    for cfg in ripple_configs(6):
        spectra = _Spectra(cfg)
        for f_ct in (0.003, 0.05 * cfg.sn, 0.4 * cfg.sn):
            fm = FilterModel(f_ct / cfg.period)
            spectra.tune(fm)
            unit = spectra._period_of(1)  # code 1, since C_R[0] = 0
            assert float(unit.max() - unit.min()) * cfg.steps == steady_ripple(cfg, 1, fm)
            for d in range(cfg.steps):
                want = steady_ripple(cfg, d, fm)
                assert spectra.ripple(d) == want, (cfg, f_ct, d)
                assert spectra.ripple(d) == want, (cfg, f_ct, d)
        assert sorted(spectra.bins) == list(range(10)), cfg
        fm = FilterModel(0.003 / cfg.period)
        want = [steady_ripple(cfg, d, fm) for d in range(cfg.steps)]
        spectra.tune(fm)
        monkeypatch.setattr(_HarmonicRoute, "period", counted)
        assert [spectra.ripple(d) for d in range(cfg.steps)] == want, cfg
        monkeypatch.setattr(_HarmonicRoute, "period", period)
        assert filtered == [], cfg


@pytest.mark.parametrize("cfg", [
    ModulatorConfig.pwm(8),
    ModulatorConfig.mpwm(8, 4),
    ModulatorConfig.pcm(7),
], ids=["pwm", "mpwm_sf4", "pcm_n7"])
def test_required_cutoff_is_the_same_with_nothing_cached(cfg, monkeypatch):
    cached = [astuple(required_cutoff(cfg, target)) for target in (0.25, 0.5, 1.0)]
    monkeypatch.setattr(metrics, "_CACHE_TERMS", 0)
    assert [astuple(required_cutoff(cfg, target)) for target in (0.25, 0.5, 1.0)] == cached


def _swept_cutoffs(monkeypatch):
    """The omega of each sweep `required_cutoff` runs from now on, with its worst ripple."""
    swept, worst_ripple = [], metrics._worst_ripple

    def recorded(spectra):
        result = worst_ripple(spectra)
        swept.append((spectra.omega, result[0]))
        return result

    monkeypatch.setattr(metrics, "_worst_ripple", recorded)
    return swept


def _omega(cfg, f_ct):
    return FilterModel(f_ct / cfg.period).omega_c / cfg.f_clk


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
    swept = _swept_cutoffs(monkeypatch)
    with pytest.raises(ParameterError, match=re.escape(f"bracket the target; tested f_cT {tested}")):
        required_cutoff(cfg, target)
    # no step needs a sweep, the guess included, so a search that misses the
    # floor sweeps nowhere; the last doubling held in budget is confirmed by
    # one before the search gives up
    last = [tested[-1]] if tested[-1] > tested[0] else []
    assert [omega for omega, _ in swept] == [_omega(cfg, f) for f in last]


@pytest.mark.parametrize("cfg, target", [(ModulatorConfig.mpwm(4, 3), 1.0),
                                         (ModulatorConfig.mpwm(8, 4), 0.25),
                                         (ModulatorConfig.pcm(7), 0.363)],
                         ids=["mpwm_n4_sf3", "mpwm_n8_sf4", "pcm_n7"])
def test_a_rerun_of_the_bisection_filters_no_code_twice_at_one_cutoff(cfg, target, monkeypatch):
    filtered, period_of = [], _Spectra._period_of

    def counted(spectra, code):
        filtered.append((code, spectra.omega))
        return period_of(spectra, code)

    monkeypatch.setattr(_Spectra, "_period_of", counted)
    failed, worst_ripple = [], metrics._worst_ripple

    def sweeping(spectra):
        # a sweep past the target keeps its worst code's ripple there, so that
        # code's kept ripples refuse every step at or above this cutoff
        ripple, code = worst_ripple(spectra)
        if ripple > target:
            f_c = spectra.f_c
            failed.append(f_c)
            assert spectra.ripples[code][f_c] > target
            above = [f for f in spectra.ripples[code] if f >= f_c]
            for f in [*above, *(f_c * np.geomspace(1, 16 * cfg.sn, 9)).tolist()]:
                assert spectra.settled(code, f, target) is False, (code, f_c, f)
        return ripple, code

    monkeypatch.setattr(metrics, "_worst_ripple", sweeping)
    required_cutoff(cfg, target)
    # a confirming sweep found a code past the target, so the bisection ran again
    assert failed
    assert len(filtered) == len(set(filtered))


@pytest.mark.parametrize("cfg", [
    ModulatorConfig.pwm(8),
    ModulatorConfig.mpwm(8, 4),
    ModulatorConfig.pcm(7),
], ids=["pwm", "mpwm_sf4", "pcm_n7"])
def test_ripple_checks_count_the_ripples_asked_for_one_a_step(cfg, monkeypatch):
    ripple, tune, worst_ripple = _Spectra.ripple, _HarmonicRoute.tune, metrics._worst_ripple
    runs, sweeping = [], [False]  # each run of the bisection: each step's codes asked for

    def asked(spectra, code):
        calls.append(code)
        if not sweeping[0]:
            runs[-1][-1].append(code)
        return ripple(spectra, code)

    def tuned(spectra, fm):  # each step tunes once, and so does each sweep
        runs[-1].append([])
        tune(spectra, fm)

    def swept(spectra):
        sweeping[0] = True
        result = worst_ripple(spectra)
        sweeping[0] = False
        runs.append([])
        return result

    monkeypatch.setattr(_Spectra, "ripple", asked)
    monkeypatch.setattr(_HarmonicRoute, "tune", tuned)
    monkeypatch.setattr(metrics, "_worst_ripple", swept)
    for target in (0.25, 0.585, 1.0):
        calls, runs[:] = [], [[]]
        res = required_cutoff(cfg, target)
        assert res.ripple_checks == len(calls), target
        for steps in runs:  # one watched code, asked for once at each step
            assert all(len(codes) <= 1 for codes in steps), target
            assert len({code for codes in steps for code in codes}) <= 1, target


@pytest.mark.parametrize("cfg", [
    ModulatorConfig.pwm(8),
    ModulatorConfig.mpwm(8, 3),
    ModulatorConfig.pcm(7),
], ids=["pwm", "mpwm_sf3", "pcm_n7"])
def test_the_bisection_filters_only_inside_the_probed_bracket(cfg, monkeypatch):
    ripple, probe, worst_ripple = _Spectra.ripple, _Spectra.probe, metrics._worst_ripple
    asked = []  # outside the sweeps: (f_c, whether it was kept, the probed bracket or None)
    bracket, sweeping = [None], [False]

    def asking(spectra, code):
        if not sweeping[0]:
            asked.append((spectra.f_c, spectra.f_c in spectra.ripples.get(code, {}), bracket[0]))
        return ripple(spectra, code)

    def probed(spectra, code, target):
        probe(spectra, code, target)
        kept = spectra.ripples[code]
        bracket[0] = (max((f for f, r in kept.items() if r <= target), default=0.0),
                      min((f for f, r in kept.items() if r > target), default=math.inf))

    def swept(spectra):  # a sweep ends the run of the bisection before it
        sweeping[0], bracket[0] = True, None
        result = worst_ripple(spectra)
        sweeping[0] = False
        return result

    monkeypatch.setattr(_Spectra, "ripple", asking)
    monkeypatch.setattr(_Spectra, "probe", probed)
    monkeypatch.setattr(metrics, "_worst_ripple", swept)
    for target in (0.25, 0.5, 1.0):
        asked.clear()
        res = required_cutoff(cfg, target)
        assert [res.f_ct, res.f_c_hz, res.worst_duty, res.worst_ripple_lsb] == list(
            _reference_cutoff(cfg, target)[:4]), target
        # no step asks again for a ripple the search holds, and after the probes
        # only a step strictly inside the probed bracket is filtered
        assert not any(kept for _, kept, _ in asked), target
        assert all(b[0] < f_c < b[1] for f_c, _, b in asked if b), target


@pytest.mark.parametrize("n", range(2, 9))
def test_every_sweep_confirms_its_runs_top_or_the_reported_cutoff(n, monkeypatch):
    settled, ripple, worst_ripple = _Spectra.settled, _Spectra.ripple, metrics._worst_ripple
    runs, pending = [], []  # each run of the bisection: its steps' (f_c, held), its sweeps' f_c

    def settling(spectra, code, f_c, target):
        held = settled(spectra, code, f_c, target)
        if not runs or runs[-1][1]:  # a step after a sweep starts the next run
            runs.append(([], []))
        if held is None:  # the watched code's ripple, asked for next, decides the step
            pending.append((f_c, target))
        else:
            runs[-1][0].append((f_c, held))
        return held

    def asking(spectra, code):
        r = ripple(spectra, code)
        if pending:
            f_c, target = pending.pop()
            runs[-1][0].append((f_c, r <= target))
        return r

    def sweeping(spectra):
        runs[-1][1].append(spectra.f_c)
        return worst_ripple(spectra)

    monkeypatch.setattr(_Spectra, "settled", settling)
    monkeypatch.setattr(_Spectra, "ripple", asking)
    monkeypatch.setattr(metrics, "_worst_ripple", sweeping)
    mpwm = [ModulatorConfig.mpwm(n, sf) for sf in range(n)]
    for cfg in [ModulatorConfig.pwm(n), *mpwm, ModulatorConfig.pcm(n)]:
        for target in (0.25, 0.5, 1.0):
            runs.clear()
            res = required_cutoff(cfg, target)
            assert [res.f_ct, res.f_c_hz, res.worst_duty, res.worst_ripple_lsb] == list(
                _reference_cutoff(cfg, target)[:4]), (cfg, target)
            guess = cutoff_rule_of_thumb(n, target) * max(1, cfg.sn) / cfg.period
            assert res.sweeps == sum(len(sweeps) for _, sweeps in runs), (cfg, target)
            for steps, sweeps in runs:
                top = max((f_c for f_c, held in steps if held), default=0.0)
                assert set(sweeps) <= {top, res.f_c_hz}, (cfg, target)
                assert guess not in sweeps or guess == top, (cfg, target)


@pytest.mark.parametrize("n", range(2, 11))
def test_a_pwm_shaped_search_sweeps_once(n):
    # where sf = 0 the start code 2**(n-1) is the worst code, so the sweep that
    # confirms the bisection never names another and the bisection runs once
    for cfg in (ModulatorConfig.pwm(n), ModulatorConfig.mpwm(n, 0)):
        for target in np.linspace(0.25, 1.0, 8).tolist():
            res = required_cutoff(cfg, target)
            assert res.sweeps == 1, (cfg, target)
            if n <= 8:
                assert [res.f_ct, res.f_c_hz, res.worst_duty, res.worst_ripple_lsb] == list(
                    _reference_cutoff(cfg, target)[:4]), (cfg, target)


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
