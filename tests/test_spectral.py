"""Spectrum tests: closed forms vs numeric transform, Parseval, dominance."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpwmdac import (
    BitWaveform,
    ModulatorConfig,
    NO_HARMONIC,
    ParameterError,
    dft_period,
    dominant_harmonics,
    mpwm_wave,
    superpose_coeffs,
    unit_signal_coeffs,
)


def test_unit_dc_is_one_over_32():
    for m in range(32):
        assert unit_signal_coeffs(5, m).dc == 1.0 / 32


def test_unit_k16_m0_matches_closed_form():
    spec = unit_signal_coeffs(5, 0, k_max=16)
    assert spec.coeffs[16] == pytest.approx(-1j / (16 * np.pi), abs=1e-15)


def test_unit_coeffs_match_formula_verbatim_n5():
    # independent rendering of the closed form, checked term by term
    for m in (0, 3, 17, 31):
        spec = unit_signal_coeffs(5, m, k_max=31)
        for k in range(1, 32):
            expect = (
                np.exp(-1j * k * (np.pi / 32 + m * np.pi / 16))
                * math.sin(k * np.pi / 32)
                / (k * np.pi)
            )
            assert spec.coeffs[k] == pytest.approx(expect, abs=1e-15)


def test_unit_slots_sum_to_dc_only():
    total = sum(unit_signal_coeffs(5, m, k_max=16).coeffs for m in range(32))
    assert total[0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(total[1:])) < 1e-15


def test_superpose_matches_dft_exhaustive_small_n():
    for n in (3, 4, 5, 6):
        for sf in range(n):
            cfg = ModulatorConfig.mpwm(n, sf)
            for duty in range(cfg.steps):
                analytic = superpose_coeffs(cfg, duty)
                numeric = dft_period(mpwm_wave(cfg, duty))
                assert np.max(np.abs(analytic.coeffs - numeric.coeffs)) <= 1e-12


def test_superpose_matches_dft_sampled_n7_n8():
    for n in (7, 8):
        for sf in range(0, n, 2):
            cfg = ModulatorConfig.mpwm(n, sf)
            for duty in range(1, cfg.steps, 13):
                analytic = superpose_coeffs(cfg, duty)
                numeric = dft_period(mpwm_wave(cfg, duty))
                assert np.max(np.abs(analytic.coeffs - numeric.coeffs)) <= 1e-12


def test_unit_signal_matches_single_slot_dft():
    f_clk = 100e6
    for m in range(32):
        bits = np.zeros(32, dtype=np.uint8)
        bits[m] = 1
        numeric = dft_period(BitWaveform(bits, f_clk))
        analytic = unit_signal_coeffs(5, m, f_clk=f_clk)
        assert np.max(np.abs(analytic.coeffs - numeric.coeffs)) <= 1e-12


def test_dc_equals_duty_fraction_exactly():
    cfg = ModulatorConfig.mpwm(8, 3)
    for duty in range(256):
        assert superpose_coeffs(cfg, duty, k_max=4).dc == duty / 256


def test_parseval_total_power_is_duty_fraction():
    for n, sf in ((5, 0), (5, 2), (6, 3), (8, 5)):
        cfg = ModulatorConfig.mpwm(n, sf)
        for duty in range(0, cfg.steps, 3):
            spec = superpose_coeffs(cfg, duty)
            bits = mpwm_wave(cfg, duty).bits.astype(float)
            assert spec.total_power() == pytest.approx(
                float(np.mean(bits**2)), abs=1e-12
            )


def test_square_wave_even_harmonics_vanish():
    cfg = ModulatorConfig.pwm(5)
    spec = dft_period(mpwm_wave(cfg, 16))
    assert abs(spec.coeffs[2]) <= 1e-15
    assert abs(spec.coeffs[4]) <= 1e-15
    # odd harmonics follow the 1/k law of a half-scale square wave
    assert abs(spec.coeffs[1]) == pytest.approx(1 / np.pi, rel=1e-12)
    assert abs(spec.coeffs[3]) == pytest.approx(1 / (3 * np.pi), rel=1e-12)


def test_dominant_harmonic_at_sn_over_t_half_scale():
    for n in range(5, 11):
        for sf in range(n):
            cfg = ModulatorConfig.mpwm(n, sf)
            spec = superpose_coeffs(cfg, cfg.steps // 2)
            peaks = dominant_harmonics(spec)
            assert peaks is not NO_HARMONIC
            assert peaks.k1 == cfg.sn
            assert peaks.f1 == pytest.approx(cfg.sn / cfg.period, rel=1e-12)


def test_pwm_fundamental_dominates():
    cfg = ModulatorConfig.pwm(5)
    peaks = dominant_harmonics(superpose_coeffs(cfg, 16))
    assert peaks.k1 == 1
    assert peaks.f1 == pytest.approx(1.0 / cfg.period, rel=1e-12)
    assert peaks.k2 == 3
    assert peaks.f1 != peaks.f2


def test_constant_waves_have_no_harmonic():
    cfg = ModulatorConfig.mpwm(5, 2)
    assert dominant_harmonics(superpose_coeffs(cfg, 0)) is NO_HARMONIC
    high = BitWaveform(np.ones(32, dtype=np.uint8), 1e6)
    spec = dft_period(high)
    assert spec.dc == pytest.approx(1.0)
    assert dominant_harmonics(spec) is NO_HARMONIC


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 8), st.data())
def test_linearity_of_disjoint_slot_sums(n, data):
    size = 1 << n
    slots = data.draw(
        st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True)
    )
    f_clk = 100e6
    total = sum(
        unit_signal_coeffs(n, m, k_max=size // 2, f_clk=f_clk).coeffs for m in slots
    )
    bits = np.zeros(size, dtype=np.uint8)
    bits[slots] = 1
    direct = dft_period(BitWaveform(bits, f_clk))
    assert np.max(np.abs(total - direct.coeffs)) <= 1e-12


def test_spectrum_csv_schema():
    spec = superpose_coeffs(ModulatorConfig.mpwm(5, 2), 16)
    buf = io.StringIO()
    spec.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "k,frequency_hz,re,im,magnitude,magnitude_over_dc"
    assert len(lines) == spec.k_max + 2
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[5]) == 1.0


def test_parameter_errors():
    with pytest.raises(ParameterError, match=r"\[0, 31\]"):
        unit_signal_coeffs(5, 32)
    with pytest.raises(ParameterError, match="power of two"):
        dft_period(BitWaveform(np.zeros(12, dtype=np.uint8), 1e6))
    with pytest.raises(ParameterError, match="k <= 16"):
        dft_period(BitWaveform(np.zeros(32, dtype=np.uint8), 1e6), k_max=17)
    with pytest.raises(ParameterError, match="at least 3"):
        dominant_harmonics(unit_signal_coeffs(5, 0, k_max=2))
    with pytest.raises(ParameterError, match="n <= 12"):
        superpose_coeffs(ModulatorConfig.mpwm(13, 2), 5)


@pytest.mark.parametrize("k_max", [-1, -5])
def test_negative_k_max_rejected_by_every_constructor(k_max):
    cfg = ModulatorConfig.mpwm(4, 1)
    builds = [
        lambda: unit_signal_coeffs(4, 3, k_max=k_max),
        lambda: superpose_coeffs(cfg, 3, k_max=k_max),
        lambda: superpose_coeffs(cfg, 0, k_max=k_max),
        lambda: dft_period(mpwm_wave(cfg, 3), k_max=k_max),
    ]
    for build in builds:
        with pytest.raises(ParameterError, match="k_max >= 0"):
            build()
