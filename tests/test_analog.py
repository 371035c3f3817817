"""Analog-path tests: edge model, exact filtering, ripple, settling."""

import io

import numpy as np
import pytest

from mpwmdac import (
    AnalogTrace,
    EdgeModel,
    FilterModel,
    IDEAL_EDGES,
    ModulatorConfig,
    ParameterError,
    dc_average,
    filter_response,
    mpwm_wave,
    settling_time,
    steady_ripple,
    to_analog,
)


def test_ideal_trace_mean_is_duty_fraction():
    cfg = ModulatorConfig.mpwm(8, 2)
    for duty in (0, 1, 77, 128, 255):
        trace = to_analog(mpwm_wave(cfg, duty), IDEAL_EDGES, oversample=8)
        assert float(np.mean(trace.samples)) == duty / 256


def test_all_low_trace_is_zero():
    trace = to_analog(mpwm_wave(ModulatorConfig.mpwm(6, 1), 0), IDEAL_EDGES, 8)
    assert not np.any(trace.samples)


def test_single_pulse_area_shifts_by_dw():
    # 1 ns width deviation at 100 MHz moves the pulse area by u_s * 1 ns
    cfg = ModulatorConfig.pwm(8, f_clk=100e6)
    em = EdgeModel(t_dr=1e-9, t_df=0.0, t_rise=0.5e-9, t_fall=0.5e-9, u_s=2.5)
    ideal_em = EdgeModel(t_rise=0.5e-9, t_fall=0.5e-9, u_s=2.5)
    oversample = 512
    wave = mpwm_wave(cfg, 40)
    area = np.mean(to_analog(wave, em, oversample).samples) * cfg.period
    area0 = np.mean(to_analog(wave, ideal_em, oversample).samples) * cfg.period
    assert area - area0 == pytest.approx(2.5 * 1e-9, rel=5e-3)


def test_dc_average_analytic_examples():
    em = EdgeModel(t_dr=1e-9, t_df=0.0)
    cfg = ModulatorConfig.mpwm(12, 3)
    u_lsb = 1.0 / 4096
    assert (dc_average(cfg, 100, em) - 100 / 4096) / u_lsb == pytest.approx(0.8)
    pcm = ModulatorConfig.pcm(12)
    assert (dc_average(pcm, 2048, em) - 0.5) / u_lsb == pytest.approx(204.8)
    assert dc_average(cfg, 2048, IDEAL_EDGES) == 0.5


def test_dc_average_trace_vs_analytic():
    cfg = ModulatorConfig.mpwm(10, 4)
    em = EdgeModel(t_dr=1.5e-9, t_df=0.4e-9, t_rise=0.5e-9, t_fall=0.5e-9)
    for duty in (1, 300, 512, 1023):
        wave = mpwm_wave(cfg, duty)
        ideal_trace = to_analog(wave, IDEAL_EDGES, 64)
        assert dc_average(ideal_trace) == pytest.approx(
            dc_average(cfg, duty, IDEAL_EDGES), rel=1e-9, abs=1e-15
        )
        trap_trace = to_analog(wave, em, 64)
        assert dc_average(trap_trace) == pytest.approx(
            dc_average(cfg, duty, em), rel=1e-2
        )


def test_dc_average_hr_includes_fine_code():
    from mpwmdac import DutyCode

    cfg = ModulatorConfig.hr_mpwm(12, 3, fine_bits=4)
    assert dc_average(cfg, DutyCode(100, 0), IDEAL_EDGES) == 100 / 4096
    assert dc_average(cfg, DutyCode(100, 8), IDEAL_EDGES) == (100 + 0.5) / 4096


def test_dc_average_requires_integer_periods():
    trace = AnalogTrace(np.ones(100), 1e6, period_s=64e-6)
    with pytest.raises(ParameterError, match="integer"):
        dc_average(trace)


def test_to_analog_rejects_unresolvable_edges():
    # alternating output has edges every 10 ns; 9 ns 10-90% means 11.25 ns ramps
    cfg = ModulatorConfig.pcm(6, f_clk=100e6)
    em = EdgeModel(t_rise=9e-9, t_fall=9e-9)
    with pytest.raises(ParameterError, match="limiting rate"):
        to_analog(mpwm_wave(cfg, 32), em, 64)
    with pytest.raises(ParameterError, match="oversample"):
        to_analog(mpwm_wave(cfg, 32), IDEAL_EDGES, 2)


def test_filter_unity_dc_gain():
    fm = FilterModel(1e3)
    trace = AnalogTrace(np.full(4096, 0.7), 1e6)
    out = filter_response(trace, fm, steady_state=True)
    assert np.max(np.abs(out.samples - 0.7)) < 1e-9


def test_filter_sine_at_cutoff_is_3db_down():
    fm = FilterModel(1e3)
    per_cycle = 4096  # fine grid: the piecewise-linear chords stay within 1e-6
    rate = per_cycle * 1e3
    t = np.arange(per_cycle) / rate  # exactly one cycle of a 1 kHz sine
    trace = AnalogTrace(np.sin(2 * np.pi * 1e3 * t), rate)
    out = filter_response(trace, fm, steady_state=True)
    amp = 2 * np.abs(np.fft.rfft(out.samples))[1] / per_cycle
    assert amp == pytest.approx(1 / np.sqrt(2), abs=1e-6)


def test_filter_square_at_100fc_attenuates_80db():
    fm = FilterModel(1e3)
    rate = 100e3 * 64
    square = np.repeat([1.0, 0.0], 32)  # one period of a 100 kHz square
    trace = AnalogTrace(np.tile(square, 1), rate)
    out = filter_response(trace, fm, steady_state=True)
    fund_in = np.abs(np.fft.rfft(trace.samples))[1]
    fund_out = np.abs(np.fft.rfft(out.samples))[1]
    assert fund_out / fund_in <= 1e-4


def test_filter_preserves_period_mean():
    cfg = ModulatorConfig.mpwm(8, 3)
    em = EdgeModel(t_dr=1e-9, t_df=0.3e-9, t_rise=0.5e-9, t_fall=0.5e-9)
    fm = FilterModel(0.01 / cfg.period)
    trace = to_analog(mpwm_wave(cfg, 97), em, 32)
    out = filter_response(trace, fm, steady_state=True)
    assert np.mean(out.samples) == pytest.approx(np.mean(trace.samples), rel=1e-9)


@pytest.mark.parametrize(
    "build",
    [lambda: EdgeModel(t_dr=float("nan")), lambda: EdgeModel(t_fall=float("inf")),
     lambda: EdgeModel(u_s=float("nan")), lambda: EdgeModel(supply_rel_err=float("-inf")),
     lambda: EdgeModel(supply_rel_err=-1.0), lambda: FilterModel(float("inf")),
     lambda: settling_time(FilterModel(250.0), band_lsb=float("nan")),
     lambda: settling_time(FilterModel(250.0), "full_scale", 0.5, -1),
     lambda: settling_time(FilterModel(250.0), "full_scale", 0.5, 1000),
     lambda: settling_time(FilterModel(1e-320))],
)
def test_non_finite_or_degenerate_values_rejected(build):
    with pytest.raises(ParameterError):
        build()


def test_filter_transient_approaches_steady_state():
    fm = FilterModel(2e3)
    rate = 1e6
    trace = AnalogTrace(np.full(4000, 1.0), rate)  # 4 ms >> settling at 2 kHz
    out = filter_response(trace, fm)
    assert out.samples[0] == pytest.approx(0.0, abs=1e-12)
    assert out.samples[-1] == pytest.approx(1.0, rel=1e-6)


def test_ripple_harmonic_matches_time_simulation():
    for n, sf, f_ct in ((6, 0, 0.05), (6, 2, 0.1), (8, 3, 0.02)):
        cfg = ModulatorConfig.mpwm(n, sf)
        fm = FilterModel(f_ct / cfg.period)
        for duty in (cfg.steps // 2, cfg.steps // 3):
            r_h = steady_ripple(cfg, duty, fm, method="harmonic")
            r_t = steady_ripple(cfg, duty, fm, method="time", oversample=128)
            assert r_h == pytest.approx(r_t, rel=1e-2)


def test_ripple_vanishes_with_cutoff():
    cfg = ModulatorConfig.pwm(8)
    r = [
        steady_ripple(cfg, 128, FilterModel(f_ct / cfg.period))
        for f_ct in (1e-1, 1e-2, 1e-3)
    ]
    assert r[0] > r[1] > r[2]
    assert r[2] < 1e-2


def test_ripple_scales_with_square_of_cutoff():
    cfg = ModulatorConfig.pwm(10)
    r1 = steady_ripple(cfg, 512, FilterModel(0.005 / cfg.period))
    r2 = steady_ripple(cfg, 512, FilterModel(0.01 / cfg.period))
    assert r2 / r1 == pytest.approx(4.0, rel=0.05)


def test_pwm_ripple_near_rule_of_thumb_prediction():
    # at f_c*T = 0.01 a 12-bit PWM should ripple within 2x of 0.625 LSB
    cfg = ModulatorConfig.pwm(12)
    ripple = steady_ripple(cfg, 2048, FilterModel(0.01 / cfg.period))
    assert 0.625 / 2 <= ripple <= 0.625 * 2


def test_settling_time_example_250hz():
    fm = FilterModel(250.0)
    t = settling_time(fm, step="one_lsb", band_lsb=0.5)
    assert 0.6e-3 <= t <= 0.95e-3


def test_settling_scales_inversely_with_cutoff():
    t1 = settling_time(FilterModel(250.0))
    t2 = settling_time(FilterModel(500.0))
    assert t1 / t2 == pytest.approx(2.0, rel=1e-9)
    # three decades
    t3 = settling_time(FilterModel(250e3))
    assert t1 / t3 == pytest.approx(1000.0, rel=1e-2)


def test_settling_infinite_band_is_zero():
    assert settling_time(FilterModel(250.0), band_lsb=1e9) == 0.0
    assert settling_time(FilterModel(250.0), band_lsb=1.0) == 0.0


def test_settling_full_scale_slower_than_one_lsb():
    fm = FilterModel(250.0)
    assert settling_time(fm, "full_scale", 0.5, 12) > settling_time(fm, "one_lsb", 0.5)


def test_trace_csv_schema():
    trace = AnalogTrace(np.array([0.0, 1.0]), 2.0, t0=0.0)
    buf = io.StringIO()
    trace.write_csv(buf)
    assert buf.getvalue().splitlines() == ["time_s,volts", "0,0", "0.5,1"]


def test_filter_table_schema():
    fm = FilterModel(100.0)
    buf = io.StringIO()
    fm.write_response_table(buf, np.array([100.0]))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "frequency_hz,magnitude,magnitude_db,phase_rad"
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
