"""Metric tests: closed forms against brute-force sweeps, cutoff search."""

import inspect
import io
import json

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
    cutoff_rule_of_thumb,
    dc_average,
    dnl,
    dnl_closed_form,
    edge_counts_sweep,
    inl,
    inl_closed_form,
    required_cutoff,
    static_error,
    steady_ripple,
    worst_steady_ripple,
)
from mpwmdac.metrics import _ripple_margin, _summed_ripples

EM_1NS = EdgeModel(t_dr=1e-9, t_df=0.0)


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


def test_worst_steady_ripple_rejects_fons():
    with pytest.raises(ParameterError, match="pwm/pcm/mpwm"):
        worst_steady_ripple(ModulatorConfig.fons(6), FilterModel(1e5))


def test_worst_ripple_non_decreasing_in_cutoff():
    # required_cutoff's bisection relies on this
    for n in range(2, 9):
        for cfg in ripple_configs(n):
            grid = np.geomspace(1e-3, cfg.sn, 24)
            worst = [worst_steady_ripple(cfg, FilterModel(f / cfg.period))[0] for f in grid]
            assert np.all(np.diff(worst) >= 0), cfg


def test_cutoff_search_takes_only_its_inputs():
    assert list(inspect.signature(required_cutoff).parameters) == ["cfg", "ripple_target"]
    assert list(inspect.signature(worst_steady_ripple).parameters) == ["cfg", "fm"]


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


def test_metrics_report_serialization():
    cfg = ModulatorConfig.mpwm(6, 2)
    report = MetricsReport.gather(cfg, EM_1NS)
    summary = json.loads(report.to_json())
    assert summary["inl_lsb"] == pytest.approx(0.4)
    assert summary["dnl_lsb"] == pytest.approx(0.1)
    assert summary["u_lsb"] == pytest.approx(1 / 64)
    assert "settling_s" not in summary  # no filter requested
    buf = io.StringIO()
    report.write_curves_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "duty,edge_count,static_error_lsb"
    assert len(lines) == 65


def test_metrics_report_with_filter():
    cfg = ModulatorConfig.pwm(6)
    report = MetricsReport.gather(cfg, EM_1NS, fm=FilterModel(1e3))
    assert report.settling_s is not None
    assert report.max_conversion_rate_hz == pytest.approx(1.0 / report.settling_s)
