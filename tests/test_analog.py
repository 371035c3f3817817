"""Analog-path tests: edge model, exact filtering, ripple, settling."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpwmdac
from mpwmdac import (
    AnalogTrace,
    BitWaveform,
    DutyCode,
    EdgeModel,
    FilterModel,
    IDEAL_EDGES,
    ModulatorConfig,
    ParameterError,
    dc_average,
    filter_response,
    generate,
    mpwm_wave,
    settling_time,
    steady_ripple,
    to_analog,
)
from mpwmdac.analog import _MAX_TRACE_SAMPLES, _as_edges, _edge_swings, _series_gap


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


@pytest.mark.parametrize("duty, t_ramp, rate", [
    (1, 9e-9, "1e+08"), (15, 9e-9, "1e+08"), (8, 70e-9, "1.25e+07")])
def test_ramp_overlap_is_tested_cyclically(duty, t_ramp, rate):
    # one pulse of a 16-cycle period at 10 ns per cycle: 11.25 ns ramps reach past
    # the next edge inside the period (duty 1) or across its end (duty 15); an
    # 8-cycle pulse needs ramps longer than 80 ns
    em = EdgeModel(t_rise=t_ramp, t_fall=t_ramp)
    with pytest.raises(ParameterError) as err:
        to_analog(mpwm_wave(ModulatorConfig.pwm(4, f_clk=100e6), duty), em, 16)
    assert str(err.value) == (f"edge ramps overlap; the limiting rate is {rate} Hz between "
                              "consecutive edges (reduce t_rise/t_fall or the edge delays)")


def test_to_analog_bounds_the_trace_length():
    wave = BitWaveform(np.zeros(1 << 16, dtype=np.uint8), 1e6)
    assert len(to_analog(wave, IDEAL_EDGES, 64)) == _MAX_TRACE_SAMPLES
    with pytest.raises(ParameterError, match="exceeds the limit"):
        to_analog(wave, IDEAL_EDGES, 65)


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


def _lsim_response(trace, fm, steady_state):
    """filter_response as two scipy.signal.lsim runs: the test-only oracle.

    lsim squeezes the zero-state output of a one-sample input to a 0-d
    scalar, so the output is read through np.atleast_1d."""
    from scipy import signal
    from scipy.linalg import expm

    a, b, c = fm.state_space()
    u = trace.samples
    dt = 1.0 / trace.sample_rate
    if not steady_state:
        return np.atleast_1d(signal.lsim((a, b, c, 0.0), u, np.arange(u.size) * dt,
                                         X0=np.zeros(2))[1])
    u_closed = np.concatenate([u, u[:1]])
    t = np.arange(u_closed.size) * dt
    x_forced = signal.lsim((a, b, c, 0.0), u_closed, t, X0=np.zeros(2))[2][-1]
    x_star = np.linalg.solve(np.eye(2) - expm(a * (u.size * dt)), x_forced)
    return signal.lsim((a, b, c, 0.0), u_closed, t, X0=x_star)[1][: u.size]


_SLOW_EDGES = EdgeModel(t_dr=0.3e-9, t_df=0.1e-9, t_rise=0.5e-9, t_fall=0.6e-9)
_LATE_EDGES = EdgeModel(t_dr=2e-9, t_df=2e-9, t_rise=0.0, t_fall=0.0)


# (config, duty, oversample, edges, f_cT) of the traces held to lsim bit for bit;
# tests/filter_record.py records their outputs too
LSIM_ROWS = [
    (ModulatorConfig.pwm(4), 5, 64, IDEAL_EDGES, 0.3),
    (ModulatorConfig.pwm(7), 127, 32, _SLOW_EDGES, 0.03),
    (ModulatorConfig.mpwm(8, 3), 77, 16, _SLOW_EDGES, 0.05),
    (ModulatorConfig.mpwm(12, 5), 2049, 4, _SLOW_EDGES, 0.003),
    (ModulatorConfig.pcm(6), 0, 8, IDEAL_EDGES, 0.01),  # lsim's zero-input branch
    (ModulatorConfig.pcm(10), 513, 4, _SLOW_EDGES, 0.1),
    # rises 2 ns late and ends low: pass 1 opens with an idle run from the zero state
    (ModulatorConfig.mpwm(6, 2), 17, 16, _LATE_EDGES, 0.1),
    (ModulatorConfig.pwm(6), 63, 16, _SLOW_EDGES, 0.1),  # one long high run
    (ModulatorConfig.fons(6), 21, 16, _SLOW_EDGES, 0.05),  # ramps off the grid
    (ModulatorConfig.hr_mpwm(8, 2, 3), DutyCode(77, 5), 16, _SLOW_EDGES, 0.05),  # EdgeList
    (ModulatorConfig.mpwm(6, 2), 17, 128, _SLOW_EDGES, 0.1),
    (ModulatorConfig.pwm(8), 128, 8, IDEAL_EDGES, 2.0),  # the state settles inside a run
    # Ad underflows to 0: exact-zero states under the dropped adds
    (ModulatorConfig.mpwm(6, 2), 17, 8, _SLOW_EDGES, 6.4e23),
]


@pytest.mark.parametrize(
    "cfg, duty, oversample, em, f_ct",
    LSIM_ROWS,
    ids=lambda v: getattr(getattr(v, "kind", None), "value", None),
)
def test_filter_response_is_lsim_bit_for_bit(cfg, duty, oversample, em, f_ct):
    trace = to_analog(generate(cfg, duty), em, oversample)
    fm = FilterModel(f_ct / cfg.period)
    for steady_state in (False, True):
        out = filter_response(trace, fm, steady_state=steady_state)
        assert np.array_equal(out.samples, _lsim_response(trace, fm, steady_state))


# levels whose random traces hold idle (0 and -0.0), held and one-step runs
_LEVELS = (0.0, -0.0, 1.0, 0.25, -0.5, 1e-300)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_LEVELS), min_size=1, max_size=64),
       st.floats(-3.0, math.log10(200.0)))
def test_filter_response_is_lsim_bit_for_bit_on_random_traces(samples, log_f_ct):
    trace = AnalogTrace(np.array(samples), 1e6)
    fm = FilterModel(10.0**log_f_ct * trace.sample_rate / len(samples))
    for steady_state in (False, True):
        out = filter_response(trace, fm, steady_state=steady_state)
        assert np.array_equal(out.samples, _lsim_response(trace, fm, steady_state))


# traces of up to 12 runs of one level held for 1..300 samples: long idle runs after
# active ones, and active steps far into the trace
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_LEVELS), st.integers(1, 300)), min_size=1, max_size=12),
       st.floats(-3.0, math.log10(200.0)))
def test_filter_response_is_lsim_bit_for_bit_on_long_runs(runs, log_f_ct):
    levels, lengths = zip(*runs)
    trace = AnalogTrace(np.repeat(np.array(levels), lengths), 1e6)
    fm = FilterModel(10.0**log_f_ct * trace.sample_rate / len(trace))
    for steady_state in (False, True):
        out = filter_response(trace, fm, steady_state=steady_state)
        assert np.array_equal(out.samples, _lsim_response(trace, fm, steady_state))


def test_filter_rejects_an_empty_trace():
    with pytest.raises(ParameterError, match="at least one sample"):
        filter_response(AnalogTrace(np.zeros(0), 1e6), FilterModel(1e3))


def test_filter_of_one_sample_takes_no_step():
    trace = AnalogTrace(np.array([0.7]), 1e6)
    assert filter_response(trace, FilterModel(1e4)).samples.tolist() == [0.0]
    # the closed period is the constant 0.7, whose steady state is 0.7
    out = filter_response(trace, FilterModel(1e4), steady_state=True).samples
    assert out.shape == (1,) and out[0] == pytest.approx(0.7, rel=1e-9)


@pytest.mark.parametrize("args, match", [
    ((np.zeros((2, 3)), 1.0), "1-D"),
    ((np.array([0.0, np.inf]), 1.0), "finite"),
    ((np.array([0.0, np.nan]), 1.0), "finite"),
    ((np.ones(4), 0.0), "sample_rate"),
    ((np.ones(4), -1.0), "sample_rate"),
    ((np.ones(4), np.nan), "sample_rate"),
    ((np.ones(4), np.inf), "sample_rate"),
    ((np.ones(4), 1.0, 0.0), "period_s"),
    ((np.ones(4), 1.0, -4.0), "period_s"),
    ((np.ones(4), 1.0, np.inf), "period_s"),
], ids=["2d", "inf_sample", "nan_sample", "rate_0", "rate_neg", "rate_nan",
        "rate_inf", "period_0", "period_neg", "period_inf"])
def test_analog_trace_rejects_bad_fields(args, match):
    # a zero rate once raised ZeroDivisionError in filter_response, and a
    # negative or NaN rate or an infinite sample gave NaN samples there; the
    # empty trace is test_filter_rejects_an_empty_trace's
    with pytest.raises(ParameterError, match=match):
        AnalogTrace(*args)


def _brentq_settling(fm, step, band_lsb, n_bits):
    """settling_time through scipy.optimize.brentq: the test-only oracle."""
    from scipy.optimize import brentq

    b = band_lsb if step == "one_lsb" else band_lsb / (1 << n_bits)
    if b >= 1.0:
        return 0.0
    m = int(np.floor(-np.log(b) / np.pi))
    while np.exp(-m * np.pi) <= b:
        m -= 1
    sign = 1.0 if m % 2 == 0 else -1.0
    theta = brentq(lambda th: np.exp(-th) * (np.cos(th) + np.sin(th)) - sign * b,
                   m * np.pi, (m + 1) * np.pi)
    return math.sqrt(2.0) * theta / fm.omega_c


def test_settling_bisection_matches_brentq():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        fm = FilterModel(10 ** rng.uniform(-3, 12))
        step = str(rng.choice(["one_lsb", "full_scale"]))
        band, n_bits = 10 ** rng.uniform(-300, 0.5), int(rng.integers(2, 17))
        t = settling_time(fm, step, band, n_bits)
        assert type(t) is float
        assert t == pytest.approx(_brentq_settling(fm, step, band, n_bits), rel=1e-11)


def _run_fresh(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports this package's source."""
    src = str(Path(mpwmdac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return proc.stdout.strip()


def test_import_leaves_scipy_signal_and_optimize_unloaded():
    assert _run_fresh("import sys, mpwmdac, mpwmdac.cli; print(sorted(m for m in "
                      "('scipy.linalg', 'scipy.signal', 'scipy.optimize') if m in sys.modules))"
                      ) == "[]"


def test_only_the_time_domain_filter_loads_scipy_linalg(tmp_path):
    (tmp_path / "prog.txt").write_text("write 0x04 6\nwrite 0x08 20\nwrite 0x00 0x21\nstep 1100\n")
    commands = [
        ["gen", "--kind", "mpwm", "--n", "6", "--sf", "2", "--duty", "17", "--trace"],
        ["spectrum", "--kind", "pcm", "--n", "6", "--duty", "5"],
        ["metrics", "--kind", "mpwm", "--n", "6", "--sf", "2", "--fc", "1MHz",
         "--ripple-target", "0.5"],
        ["cutoff", "--kind", "mpwm", "--n", "8", "--sf", "3"],
        ["settle", "--fc", "100kHz", "--response-table"],
        ["periph", "--script", str(tmp_path / "prog.txt")],
        ["repro", "--figure", "settling", "--n-list", "6", "--sf-list", "0", "2"],
    ]
    code = f"""
import contextlib, io, sys
from mpwmdac import FilterModel, ModulatorConfig, filter_response, mpwm_wave, to_analog
from mpwmdac.cli import main
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv + ["--out", {str(tmp_path)!r}])
    print(argv[0], rc, "scipy.linalg" in sys.modules)
cfg = ModulatorConfig.mpwm(6, 2)
filter_response(to_analog(mpwm_wave(cfg, 17), oversample=4), FilterModel(0.1 / cfg.period))
print("filter_response", "scipy.linalg" in sys.modules)
"""
    assert _run_fresh(code).splitlines() == [
        *(f"{argv[0]} 0 False" for argv in commands), "filter_response True"]


@pytest.mark.parametrize(
    "build",
    [lambda: EdgeModel(t_dr=float("nan")), lambda: EdgeModel(t_fall=float("inf")),
     lambda: EdgeModel(u_s=float("nan")), lambda: EdgeModel(supply_rel_err=float("-inf")),
     lambda: EdgeModel(supply_rel_err=-1.0), lambda: EdgeModel(u_s=1e308, supply_rel_err=-0.99),
     lambda: EdgeModel(u_s=5e-324, supply_rel_err=1e300),
     lambda: FilterModel(float("inf")),
     lambda: settling_time(FilterModel(250.0), band_lsb=float("nan")),
     lambda: settling_time(FilterModel(250.0), "full_scale", 0.5, -1),
     lambda: settling_time(FilterModel(250.0), "full_scale", 0.5, 1000),
     lambda: settling_time(FilterModel(250.0), "full_scale", 5e-324, 6),
     lambda: settling_time(FilterModel(1e-320))],
)
def test_non_finite_or_degenerate_values_rejected(build):
    with pytest.raises(ParameterError):
        build()


@pytest.mark.parametrize("f_c", [1e200, 1e-200, 1e-170, 2.2e153, 2.3e-155])
def test_filter_refuses_a_cutoff_whose_square_is_not_normal(f_c):
    with pytest.raises(ParameterError, match="f_c must keep"):
        FilterModel(f_c)


def test_filter_takes_the_cutoffs_at_its_bounds():
    for f_c in (2.1e153, 2.4e-155):
        a, b, _ = FilterModel(f_c).state_space()
        assert np.isfinite(a).all() and b[1, 0] >= np.finfo(float).smallest_normal


@pytest.mark.parametrize("f_c, steady_state, span", [
    (1e45, False, "dt"), (1e45, True, "dt"), (1e42, True, "T")])
def test_filter_refuses_a_cutoff_whose_discretization_overflows(f_c, steady_state, span):
    # expm(M.T) is not finite past about omega_c*dt = 1e35 and expm(A T) past about
    # omega_c*T = 1e36, inside FilterModel's bound; the refusal once read "trace
    # samples must be finite", raised from the output trace
    cfg = ModulatorConfig.mpwm(6, 2)
    trace = to_analog(mpwm_wave(cfg, 17), IDEAL_EDGES, 8)
    assert np.isfinite(filter_response(trace, FilterModel(1e40), steady_state).samples).all()
    match = re.escape(f"f_c = {f_c} Hz") + rf".*omega_c\*{span} = "
    with pytest.raises(ParameterError, match=match):
        filter_response(trace, FilterModel(f_c), steady_state)
    with pytest.raises(ParameterError, match=match):
        steady_ripple(cfg, 17, FilterModel(f_c), method="time", oversample=8)


def test_freq_response_takes_its_zero_limit_without_a_warning():
    # (f/f_c)**2 overflows past f = 1.3e154 f_c, and FilterModel takes f_c down to
    # 2.4e-155 Hz; the square once leaked "overflow encountered in multiply"
    fm = FilterModel(1e3)
    f = np.array([0.0, 1e3, -7e4, 1e157, 1e158, -1e200, 1e300, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = fm.freq_response(f)
        assert fm.freq_response(1e300) == 0
        assert steady_ripple(ModulatorConfig.mpwm(6, 2), 17, FilterModel(1e-150)) == 0.0
    x = f[:4] / fm.f_c
    assert h[:4].tobytes() == (1.0 / ((1.0 - x * x) + 1j * np.sqrt(2.0) * x)).tobytes()
    assert h[3] != 0 and not h[4:].any()


@pytest.mark.parametrize("f_hz", [np.nan, [1e3, np.nan], [np.inf, np.nan, -np.inf]])
def test_freq_response_refuses_a_nan_frequency(f_hz):
    # it once returned nan+nanj with "invalid value encountered in divide"
    fm = FilterModel(1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r"f_hz must be a number or \+-inf, got NaN"):
            fm.freq_response(f_hz)
        assert not fm.freq_response([np.inf, -np.inf]).any()


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
            r_e = steady_ripple(cfg, duty, fm, method="exact")
            r_t = steady_ripple(cfg, duty, fm, method="time", oversample=128)
            assert r_h == pytest.approx(r_t, rel=1e-2)
            assert r_e == pytest.approx(r_t, rel=1e-2)


_PER_SLOT = 64  # the reference series: 64 samples a slot, every harmonic below 32 * 2**n


def _series_coeffs(edges, cfg) -> np.ndarray:
    """An edge list's Fourier coefficients a_k, k = 1.._PER_SLOT * N / 2 - 1, summed
    straight from its edges: sum_i (+-1) e^(-j 2 pi k t_i / N) / (j 2 pi k), t_i in slots."""
    k = np.arange(1, _PER_SLOT * cfg.steps // 2)
    slots = edges.times * cfg.f_clk
    jumps = np.where(edges.risings, 1.0, -1.0)
    return np.exp(-2j * np.pi / cfg.steps * np.outer(k, slots)) @ jumps / (2j * np.pi * k)


def _series_ripple(coeffs, cfg, fm) -> float:
    """Ripple in LSB of the filtered series, read on _PER_SLOT samples a slot."""
    grid = _PER_SLOT * cfg.steps
    spec = np.zeros(grid // 2 + 1, dtype=complex)
    k = np.arange(1, coeffs.size + 1)
    spec[1 : k.size + 1] = coeffs * fm.freq_response(k / cfg.period) * grid
    period = np.fft.irfft(spec, n=grid)
    return float(period.max() - period.min()) * cfg.steps


def _ripple_cutoffs(cfg):
    return (1e-5, 0.003, 0.05 * cfg.sn, 0.4 * cfg.sn, 2.0 * cfg.sn, 16.0)


@pytest.mark.parametrize("n", range(2, 7))
def test_exact_ripple_of_fons_and_hr_edges_meets_a_finer_series(n):
    """FONS and HR-MPWM reach the exact route only through their edge lists.  The
    reference sums 8 times the harmonics of the harmonic route and reads them on
    a 4 times finer grid; `_series_gap` bounds the gap by its truncation, grid
    and rounding, with beta from the exact route and no fitted constant."""
    cases = [(ModulatorConfig.fons(n), d) for d in range(1, 1 << n)]
    cases += [(ModulatorConfig.hr_mpwm(n, sf, fine_bits=4), DutyCode(coarse, fine))
              for sf in range(n) for coarse in (0, 1, (1 << n) // 3, (1 << n) - 1)
              for fine in (1, 7, 15)]
    for cfg, duty in cases:
        edges = _as_edges(generate(cfg, duty))
        coeffs = _series_coeffs(edges, cfg)
        for f_ct in _ripple_cutoffs(cfg):
            fm = FilterModel(f_ct / cfg.period)
            omega = fm.omega_c / cfg.f_clk
            _, beta = _edge_swings(edges.times[:, None] * cfg.f_clk, edges.risings, cfg.steps,
                                   omega)
            gap = _series_gap(cfg.steps, omega, edges.times.size, float(beta[0]),
                              _PER_SLOT * cfg.steps // 2 - 1, _PER_SLOT)
            exact = steady_ripple(cfg, duty, fm, method="exact")
            assert abs(exact - _series_ripple(coeffs, cfg, fm)) <= gap, (cfg, duty, f_ct)


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


def test_settling_subnormal_band_is_finite():
    # 1/b overflows for a subnormal band; -log(b) keeps the bracket [m pi, (m+1) pi]
    fm = FilterModel(1e6)
    t = settling_time(fm, band_lsb=5e-324)
    theta = t * fm.omega_c / np.sqrt(2.0)
    assert 236 * np.pi <= theta <= 237 * np.pi
    assert t > settling_time(fm, band_lsb=1e-300)


def test_settling_full_scale_slower_than_one_lsb():
    fm = FilterModel(250.0)
    assert settling_time(fm, "full_scale", 0.5, 12) > settling_time(fm, "one_lsb", 0.5)

