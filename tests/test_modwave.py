"""Generator unit tests: frozen examples, exhaustive sweeps, properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpwmdac import (
    BitWaveform,
    DutyCode,
    EdgeList,
    Kind,
    ModulatorConfig,
    ParameterError,
    bit_reverse,
    count_pulses,
    edge_count_formula,
    fons_wave,
    generate,
    hr_mpwm_wave,
    mpwm_wave,
    mpwm_wave_decoder,
    rearranged_counter,
)


def all_configs(n_max: int):
    for n in range(2, n_max + 1):
        for sf in range(n):
            yield ModulatorConfig.mpwm(n, sf)


# -- frozen examples ------------------------------------------------------------


def test_mpwm_n5_sf1_d16_two_pulses_of_eight():
    wave = mpwm_wave(ModulatorConfig.mpwm(5, 1), 16)
    high = set(np.nonzero(wave.bits)[0].tolist())
    assert high == set(range(0, 8)) | set(range(16, 24))
    assert count_pulses(wave) == 2


def test_mpwm_zero_duty_all_low():
    wave = mpwm_wave(ModulatorConfig.mpwm(5, 2), 0)
    assert wave.duty_count == 0
    assert count_pulses(wave) == 0


def test_sf0_is_plain_pwm_single_left_aligned_pulse():
    wave = mpwm_wave(ModulatorConfig.pwm(5), 8)
    assert np.array_equal(np.nonzero(wave.bits)[0], np.arange(8))
    assert count_pulses(wave) == 1


def test_decoder_matches_comparator_for_d19():
    cfg = ModulatorConfig.mpwm(5, 2)
    assert np.array_equal(mpwm_wave(cfg, 19).bits, mpwm_wave_decoder(cfg, 19).bits)


def test_decoder_states_for_d19():
    # duty 19 = 4 * SN + 3: wave-select 4, sub-region 2 carries an extra cycle
    from mpwmdac.modwave import decoder_states

    states = decoder_states(ModulatorConfig.mpwm(5, 2), 19)
    assert [st.sn_pos for st in states] == [0, 1, 2, 3]
    assert all(st.data == 4 for st in states)
    assert [int(st.wav.sum()) for st in states] == [5, 5, 5, 4]
    assert np.array_equal(states[2].wav, np.array([1, 1, 1, 1, 1, 0, 0, 0]))


def test_decoder_d31_all_but_one_high():
    wave = mpwm_wave_decoder(ModulatorConfig.mpwm(5, 2), 31)
    assert wave.duty_count == 31


def test_decoder_zero_duty_all_low():
    for cfg in (ModulatorConfig.mpwm(6, 3), ModulatorConfig.pcm(4)):
        assert mpwm_wave_decoder(cfg, 0).duty_count == 0


def test_fons_half_scale_alternates():
    # the accumulator needs one cycle to reach the carry threshold, so the
    # strict alternation enters on the second cycle
    wave = fons_wave(ModulatorConfig.fons(5), 16)
    assert np.array_equal(wave.bits, np.tile([0, 1], 16))
    assert wave.duty_count == 16


def test_fons_zero_all_low():
    assert fons_wave(ModulatorConfig.fons(5), 0).duty_count == 0


def test_fons_12bit_half_scale_pulse_count():
    wave = fons_wave(ModulatorConfig.fons(12), 2048)
    assert count_pulses(wave) == 2048


def test_fons_accumulator_returns_to_zero_each_period():
    # acc after the full period is k*D - 2**n * ones == 0 for every D
    cfg = ModulatorConfig.fons(8)
    for duty in range(256):
        wave = fons_wave(cfg, duty)
        assert wave.duty_count == duty


def test_edge_count_formula_branches():
    cfg = ModulatorConfig.mpwm(12, 3)
    assert edge_count_formula(cfg, 4) == 4
    assert edge_count_formula(cfg, 100) == 8
    assert edge_count_formula(cfg, 4090) == 6


def test_count_pulses_constant_waves():
    f_clk = 1e6
    assert count_pulses(BitWaveform(np.zeros(16, dtype=np.uint8), f_clk)) == 0
    assert count_pulses(BitWaveform(np.ones(16, dtype=np.uint8), f_clk)) == 0


# -- high-resolution fine stage --------------------------------------------------


def test_hr_zero_fine_matches_coarse_edges():
    cfg = ModulatorConfig.hr_mpwm(12, 3, fine_bits=4)
    hr = hr_mpwm_wave(cfg, DutyCode(100, 0))
    base = EdgeList.from_bits(mpwm_wave(ModulatorConfig.mpwm(12, 3), 100))
    assert np.array_equal(hr.times, base.times)
    assert np.array_equal(hr.risings, base.risings)


def test_hr_tap_pitch_six_bits():
    cfg = ModulatorConfig.hr_mpwm(10, 2, fine_bits=6)
    assert cfg.t_d == 1.0 / (32 * 2 * cfg.f_clk)


def test_hr_fine_code_adds_one_sixteenth_clock():
    cfg = ModulatorConfig.hr_mpwm(12, 3, fine_bits=4)
    h0 = hr_mpwm_wave(cfg, DutyCode(100, 0)).high_time()
    h1 = hr_mpwm_wave(cfg, DutyCode(100, 1)).high_time()
    t_clk = 1.0 / cfg.f_clk
    assert h1 - h0 == pytest.approx(t_clk / 16, rel=1e-12)


def test_hr_total_high_time_contract():
    cfg = ModulatorConfig.hr_mpwm(8, 2, fine_bits=4)
    cases = [(cfg, coarse, fine) for coarse, fine in [(0, 0), (0, 5), (37, 9), (255, 15), (128, 1)]]
    # every small config too: EdgeList refuses out-of-order times, so building
    # each period also checks that the delayed falling edge keeps its place
    for n in range(2, 7):
        for sf in range(n):
            for fine_bits in (1, 6):
                small = ModulatorConfig.hr_mpwm(n, sf, fine_bits=fine_bits)
                cases += [(small, coarse, fine) for coarse in range(small.steps)
                          for fine in (1, (1 << fine_bits) - 1)]
    for cfg, coarse, fine in cases:
        edges = hr_mpwm_wave(cfg, DutyCode(coarse, fine))
        expect = coarse / cfg.f_clk + fine * cfg.t_d
        assert edges.high_time() == pytest.approx(expect, rel=1e-12, abs=1e-18)


@pytest.mark.parametrize("fine_bits", [4, 6])
def test_hr_mean_step_is_full_scale_over_2_pow_n_plus_fine(fine_bits):
    # power-of-two clock keeps every edge time dyadic, so the means are exact
    cfg = ModulatorConfig.hr_mpwm(10, 4, fine_bits=fine_bits, f_clk=float(2**20))
    period = cfg.period
    means = [
        hr_mpwm_wave(cfg, DutyCode(200, f)).high_time() / period
        for f in range(1 << fine_bits)
    ]
    steps = np.diff(means)
    assert np.all(steps == 1.0 / 2 ** (cfg.n + cfg.fine_bits))


def test_hr_edge_list_stays_valid_when_wave_wraps():
    cfg = ModulatorConfig.hr_mpwm(6, 2, fine_bits=4)
    top = cfg.steps - 1
    edges = hr_mpwm_wave(cfg, DutyCode(top, 15))
    assert int(edges.risings.sum()) * 2 == edges.times.size
    assert np.all(np.diff(edges.times) > 0)


# -- exhaustive invariants --------------------------------------------------------


def test_duty_exactness_exhaustive_to_n10():
    for cfg in all_configs(10):
        for duty in range(cfg.steps):
            assert mpwm_wave(cfg, duty).duty_count == duty
    for n in range(2, 11):
        cfg = ModulatorConfig.fons(n)
        for duty in range(cfg.steps):
            assert fons_wave(cfg, duty).duty_count == duty


def test_sf0_single_cyclic_pulse():
    for n in range(2, 11):
        cfg = ModulatorConfig.pwm(n)
        for duty in range(1, cfg.steps):
            assert count_pulses(mpwm_wave(cfg, duty)) == 1


def test_sub_pulse_widths_differ_by_at_most_one():
    for cfg in all_configs(9):
        sub = cfg.steps // cfg.sn
        for duty in range(cfg.steps):
            widths = mpwm_wave(cfg, duty).bits.reshape(cfg.sn, sub).sum(axis=1)
            assert widths.max() - widths.min() <= 1


def test_fons_pcm_pulse_count_bound():
    for n in range(2, 11):
        half = 1 << (n - 1)
        fons_counts = [
            count_pulses(fons_wave(ModulatorConfig.fons(n), d)) for d in range(1 << n)
        ]
        pcm_counts = [
            count_pulses(mpwm_wave(ModulatorConfig.pcm(n), d)) for d in range(1 << n)
        ]
        assert max(fons_counts) == half
        assert max(pcm_counts) == half


# -- randomized properties ---------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(11, 14), st.data())
def test_equivalence_and_edge_law_random_large_n(n, data):
    sf = data.draw(st.integers(0, n - 1))
    duty = data.draw(st.integers(0, (1 << n) - 1))
    cfg = ModulatorConfig.mpwm(n, sf)
    wave = mpwm_wave(cfg, duty)
    assert np.array_equal(wave.bits, mpwm_wave_decoder(cfg, duty).bits)
    assert wave.duty_count == duty
    assert count_pulses(wave) == edge_count_formula(cfg, duty)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.data())
def test_bit_reverse_involution_and_counter_bijection(n, data):
    sf = data.draw(st.integers(0, n - 1))
    value = data.draw(st.integers(0, (1 << sf) - 1 if sf else 0))
    assert bit_reverse(bit_reverse(value, sf), sf) == value
    assert np.all(bit_reverse(np.array([value], np.uint16), sf) == bit_reverse(value, sf))
    cr = rearranged_counter(n, sf)
    assert np.array_equal(np.sort(cr), np.arange(1 << n))
    # element-wise: low n-sf counter bits on top, top sf bits reversed below
    low = n - sf
    expected = [
        ((c & ((1 << low) - 1)) << sf) | (int(f"{c >> low:0{sf}b}"[::-1], 2) if sf else 0)
        for c in range(1 << n)
    ]
    assert cr.tolist() == expected


@pytest.mark.parametrize("bits", [0, 1])
def test_bit_reverse_of_zero_and_one_bits_keeps_the_input_type(bits):
    """An int gives an int and an array an array of its dtype, even with no bits to move."""
    value = np.array([0, 1, 2, 3], np.uint16)
    expected = value & 1 if bits else np.zeros(4, np.uint16)
    out = bit_reverse(value, bits)
    assert isinstance(out, np.ndarray) and out.dtype == np.uint16
    assert out.tolist() == expected.tolist()
    ints = [bit_reverse(v, bits) for v in range(4)]
    assert ints == expected.tolist() and all(type(i) is int for i in ints)


# -- parameter validation -----------------------------------------------------------


def test_duty_out_of_range_names_bound():
    cfg = ModulatorConfig.mpwm(5, 1)
    with pytest.raises(ParameterError, match=r"\[0, 31\]"):
        mpwm_wave(cfg, 32)
    with pytest.raises(ParameterError, match=r"\[0, 31\]"):
        mpwm_wave(cfg, -1)


def test_sf_out_of_range_names_bound():
    with pytest.raises(ParameterError, match=r"\[0, 4\]"):
        ModulatorConfig.mpwm(5, 5)


def test_kind_constraints():
    with pytest.raises(ParameterError, match="PWM requires sf=0"):
        ModulatorConfig(Kind.PWM, 5, 1)
    with pytest.raises(ParameterError, match="PCM requires sf=n-1"):
        ModulatorConfig(Kind.PCM, 5, 1)
    with pytest.raises(ParameterError, match="^FONS requires sf=0, got sf=2$"):
        ModulatorConfig(Kind.FONS, 5, 2)
    with pytest.raises(ParameterError, match="fine_bits"):
        ModulatorConfig(Kind.MPWM, 5, 1, fine_bits=2)
    with pytest.raises(ParameterError, match="fine_bits"):
        ModulatorConfig(Kind.HRMPWM, 5, 1, fine_bits=0)


def test_fine_code_validation():
    cfg = ModulatorConfig.hr_mpwm(5, 1, fine_bits=4)
    with pytest.raises(ParameterError, match=r"\[0, 15\]"):
        hr_mpwm_wave(cfg, DutyCode(3, 16))
    with pytest.raises(ParameterError, match="fine"):
        mpwm_wave(ModulatorConfig.mpwm(5, 1), DutyCode(3, 1))


def test_generator_kind_checks():
    with pytest.raises(ParameterError, match="pwm/pcm/mpwm"):
        mpwm_wave(ModulatorConfig.fons(5), 3)
    with pytest.raises(ParameterError, match="fons"):
        fons_wave(ModulatorConfig.pwm(5), 3)
    with pytest.raises(ParameterError, match="hrmpwm"):
        hr_mpwm_wave(ModulatorConfig.mpwm(5, 1), 3)


def test_generate_matches_the_kind_generator():
    for n in range(2, 6):
        configs = [ModulatorConfig.pwm(n), ModulatorConfig.pcm(n), ModulatorConfig.fons(n)]
        configs += [ModulatorConfig.mpwm(n, sf) for sf in range(n)]
        for cfg in configs:
            ref = fons_wave if cfg.kind == Kind.FONS else mpwm_wave
            for d in range(cfg.steps):
                assert np.array_equal(generate(cfg, d).bits, ref(cfg, d).bits)
        for sf in range(n):
            cfg = ModulatorConfig.hr_mpwm(n, sf, fine_bits=2)
            for d in range(cfg.steps):
                for fine in range(4):
                    got = generate(cfg, DutyCode(d, fine))
                    want = hr_mpwm_wave(cfg, DutyCode(d, fine))
                    assert np.array_equal(got.times, want.times)
                    assert np.array_equal(got.risings, want.risings)


def test_edge_list_wrapped_pulse_high_time():
    # high at both ends of the period: one wrapped pulse, 3 cycles high
    bits = BitWaveform(np.array([1, 0, 0, 0, 0, 0, 1, 1], dtype=np.uint8), 1e6)
    edges = EdgeList.from_bits(bits)
    assert not edges.risings[0]
    assert edges.high_time() == pytest.approx(3 / 1e6, rel=1e-12)
    assert count_pulses(edges) == 1


def test_edge_list_refuses_an_all_high_period():
    # an empty EdgeList is constant-low, so an all-high period has no faithful form
    with pytest.raises(ParameterError, match="all-high"):
        EdgeList.from_bits(BitWaveform(np.ones(8, dtype=np.uint8), 1e6))


@pytest.mark.parametrize("period, f_clk, match", [
    (math.inf, 1.0, "period must be finite and positive"),
    (math.nan, 1.0, "period must be finite and positive"),
    (-1.0, 1.0, "period must be finite and positive"),
    (0.0, 1.0, "period must be finite and positive"),
    (1.0, math.nan, "f_clk must be finite and positive"),
    (1.0, math.inf, "f_clk must be finite and positive"),
    (1.0, 0.0, "f_clk must be finite and positive"),
    (1e300, 1e300, "finite number of clock cycles"),
    (0.5, 1.0, "finite number of clock cycles"),
])
def test_edge_list_refuses_a_bad_period_or_clock(period, f_clk, match):
    with pytest.raises(ParameterError, match=match):
        EdgeList(np.array([]), np.array([], dtype=bool), period, f_clk)


@pytest.mark.parametrize("f_clk, match", [
    (math.nan, "f_clk must be finite"),
    (math.inf, "f_clk must be finite"),
    (-1e6, "f_clk must be finite"),
    (0.0, "f_clk must be finite"),
    (5e-324, "period must be finite"),  # 4 / f_clk overflows
])
def test_bit_waveform_refuses_a_bad_clock(f_clk, match):
    with pytest.raises(ParameterError, match=match):
        BitWaveform(np.array([1, 0, 0, 0], dtype=np.uint8), f_clk)
