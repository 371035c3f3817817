"""Spectrum tests: closed forms vs numeric transform, Parseval, dominance."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpwmdac import (
    BitWaveform,
    ModulatorConfig,
    NO_HARMONIC,
    ParameterError,
    Spectrum,
    dft_period,
    dominant_harmonics,
    generate,
    mpwm_wave,
    superpose_coeffs,
    unit_signal_coeffs,
)
from mpwmdac.spectral import _K_MAX_LIMIT, _TILE_TERMS


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
        for cfg in (ModulatorConfig.fons(n), *(ModulatorConfig.mpwm(n, sf) for sf in range(n))):
            for duty in range(cfg.steps):
                analytic = superpose_coeffs(cfg, duty)
                numeric = dft_period(generate(cfg, duty))
                assert np.max(np.abs(analytic.coeffs - numeric.coeffs)) <= 1e-12


def test_superpose_refuses_the_edge_list_kind():
    with pytest.raises(ParameterError, match="cycle-quantized"):
        superpose_coeffs(ModulatorConfig.hr_mpwm(5, 1), 3)


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


def test_dominant_harmonics_needs_a_dc_level_under_ac_content():
    assert dominant_harmonics(superpose_coeffs(ModulatorConfig.mpwm(5, 2), 0)) is NO_HARMONIC
    with pytest.raises(ParameterError, match="nonzero DC"):
        dominant_harmonics(Spectrum([0, 1, 0.5, 0.2], 1.0, 8))  # once amp1_over_dc = nan


@pytest.mark.parametrize("coeffs, fundamental, match", [
    ([math.nan, 1, 2, 3], 1.0, "coefficients must be finite"),
    ([1, math.inf, 2, 3], 1.0, "coefficients must be finite"),
    ([1, 1, 2, 3], math.nan, "fundamental_hz must be finite and positive"),
    ([1, 1, 2, 3], 0.0, "fundamental_hz must be finite and positive"),
    ([1, 1, 2, 3], "1", "fundamental_hz must be"),
])
def test_spectrum_refuses_a_non_finite_or_zero_scale(coeffs, fundamental, match):
    with pytest.raises(ParameterError, match=match):
        Spectrum(coeffs, fundamental, 8)


def test_parameter_errors():
    with pytest.raises(ParameterError, match=r"\[0, 31\]"):
        unit_signal_coeffs(5, 32)
    with pytest.raises(ParameterError, match="power of two"):
        dft_period(BitWaveform(np.zeros(12, dtype=np.uint8), 1e6))
    with pytest.raises(ParameterError, match="k <= 16"):
        dft_period(BitWaveform(np.zeros(32, dtype=np.uint8), 1e6), k_max=17)
    with pytest.raises(ParameterError, match="at least 3"):
        dominant_harmonics(unit_signal_coeffs(5, 0, k_max=2))


def _traced(build):
    """build() and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The 2N-root table (2 MiB at n = 16) plus one tile's temporaries, each at
# most _TILE_TERMS terms of at most 16 bytes: 2**20-term chunks took 50 MB.
_TILE_BYTES = 8 * 16 * _TILE_TERMS


@pytest.mark.parametrize("cfg, duty", [
    (ModulatorConfig.mpwm(16, 3), 30001),  # 8 runs
    (ModulatorConfig.pcm(13), 4095),  # 4095 runs of one slot
], ids=["mpwm_n16", "pcm_n13"])
def test_superpose_beyond_n12_matches_dft_in_bounded_memory(cfg, duty):
    analytic, peak = _traced(lambda: superpose_coeffs(cfg, duty))
    numeric = dft_period(mpwm_wave(cfg, duty))
    assert np.max(np.abs(analytic.coeffs - numeric.coeffs)) <= 1e-12
    assert analytic.dc == duty / cfg.steps
    assert peak < _TILE_BYTES


def test_superpose_at_the_k_max_limit_holds_the_output_and_one_tile():
    cfg = ModulatorConfig.mpwm(4, 1)
    spec, peak = _traced(lambda: superpose_coeffs(cfg, 3, k_max=_K_MAX_LIMIT))
    assert peak < 16 * (_K_MAX_LIMIT + 1) + _TILE_BYTES
    # a_k is its DFT bin times the hold envelope at every k; here 2**20 harmonics fill 32 tiles
    k = np.arange(_K_MAX_LIMIT + 1)
    bins = np.fft.fft(mpwm_wave(cfg, 3).bits.astype(float)) / cfg.steps
    held = bins[k % cfg.steps] * np.exp(-1j * np.pi * k / cfg.steps) * np.sinc(k / cfg.steps)
    assert np.max(np.abs(spec.coeffs - held)) <= 1e-15


# Two ulps of full scale.  Summed 1023 runs to a gemv, as 2**20-term chunks
# did at n = 11, these gaps reached 1.1e-15 to 2.3e-15 (pcm_n13 stayed at
# 8e-17, where a chunk held 255 runs).
@pytest.mark.parametrize("cfg, duty", [
    (ModulatorConfig.pcm(11), 1304),
    (ModulatorConfig.pcm(12), 2047),
    (ModulatorConfig.pcm(13), 4095),
    (ModulatorConfig.fons(12), 2048),
    (ModulatorConfig.mpwm(12, 9), 1477),
], ids=["pcm_n11", "pcm_n12", "pcm_n13", "fons_n12", "mpwm_n12_sf9"])
def test_superpose_of_many_runs_is_within_two_ulps_of_dft(cfg, duty):
    analytic = superpose_coeffs(cfg, duty)
    numeric = dft_period(generate(cfg, duty))
    assert np.max(np.abs(analytic.coeffs - numeric.coeffs)) <= 2 * np.finfo(float).eps


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


def test_oversized_k_max_rejected_before_allocation():
    cfg = ModulatorConfig.mpwm(4, 1)
    for build in (lambda k: unit_signal_coeffs(4, 3, k_max=k),
                  lambda k: superpose_coeffs(cfg, 3, k_max=k)):
        for k_max in (_K_MAX_LIMIT + 1, 10**15):
            with pytest.raises(ParameterError, match="k_max must be at most"):
                build(k_max)
