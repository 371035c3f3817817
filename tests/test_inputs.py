"""Input rules: every integer parameter, the kind, and the slot-only analyses.

Integer parameters take Python or NumPy ints and refuse bool, float, str and
None with a ParameterError that names the parameter; HR-MPWM (an edge list)
is refused by the analyses that read slots, and FONS and HR-MPWM by those
that need nested codes.  The bus words are test_periph's.
"""

import json
import math
import re

import numpy as np
import pytest

from mpwmdac import (
    DutyCode,
    EdgeModel,
    FilterModel,
    Kind,
    MetricsReport,
    ModulatorConfig,
    ParameterError,
    cutoff_rule_of_thumb,
    decoder_states,
    dft_period,
    dnl,
    edge_count_formula,
    edge_counts_sweep,
    generate,
    hr_mpwm_wave,
    inl,
    mpwm_wave,
    rearranged_counter,
    required_cutoff,
    settling_time,
    static_error,
    steady_ripple,
    superpose_coeffs,
    to_analog,
    unit_signal_coeffs,
    worst_steady_ripple,
)
from mpwmdac.cli import main
from mpwmdac.periph import MpwmPeripheral
from mpwmdac.spectral import _K_MAX_LIMIT

_MPWM = ModulatorConfig.mpwm(5, 1)
_HR = ModulatorConfig.hr_mpwm(5, 1, fine_bits=4)
_FM = FilterModel(1e6)

# (parameter name, call with the value, lowest and highest valid value)
SITES = [
    ("n", lambda v: ModulatorConfig(Kind.MPWM, v, 1), 2, 16),
    ("sf", lambda v: ModulatorConfig(Kind.MPWM, 5, v), 0, 4),
    ("fine_bits", lambda v: ModulatorConfig(Kind.HRMPWM, 5, 1, fine_bits=v), 1, 6),
    ("fine_bits", lambda v: ModulatorConfig(Kind.MPWM, 5, 1, fine_bits=v), 0, 0),
    ("duty", lambda v: mpwm_wave(_MPWM, v), 0, 31),
    ("duty", lambda v: mpwm_wave(_MPWM, DutyCode(v)), 0, 31),
    ("duty.fine", lambda v: hr_mpwm_wave(_HR, DutyCode(3, v)), 0, 15),
    ("duty.fine", lambda v: mpwm_wave(_MPWM, DutyCode(3, v)), 0, 0),
    ("n", lambda v: rearranged_counter(v, 0), 2, 16),
    ("sf", lambda v: rearranged_counter(5, v), 0, 4),
    ("n", lambda v: unit_signal_coeffs(v, 0), 2, 16),
    ("m", lambda v: unit_signal_coeffs(5, v), 0, 31),
    ("k_max", lambda v: unit_signal_coeffs(4, 3, k_max=v), 0, _K_MAX_LIMIT),
    ("k_max", lambda v: superpose_coeffs(_MPWM, 3, k_max=v), 0, _K_MAX_LIMIT),
    ("k_max", lambda v: dft_period(mpwm_wave(_MPWM, 3), k_max=v), 0, 16),
    ("n", lambda v: cutoff_rule_of_thumb(v, 0.5), 2, 16),
    ("n_bits", lambda v: settling_time(_FM, "full_scale", 0.5, v), 2, 16),
    ("oversample", lambda v: to_analog(mpwm_wave(_MPWM, 3), oversample=v), 4, None),
    ("oversample", lambda v: steady_ripple(_MPWM, 3, _FM, "time", v), 4, None),
    ("cycles", lambda v: MpwmPeripheral().step(v), 1, None),
]


def _bad_values(name, lo, hi):
    yield from (5.0, float(lo), True, False, "3", np.float64(lo), np.bool_(True), lo - 1)
    if name != "k_max":  # None asks for the default k_max
        yield None
    if hi is not None:
        yield hi + 1


@pytest.mark.parametrize("name, call, lo, hi", SITES, ids=[
    f"{i}-{site[0]}" for i, site in enumerate(SITES)])
def test_every_integer_site_refuses_bad_values_by_name(name, call, lo, hi):
    for value in _bad_values(name, lo, hi):
        with pytest.raises(ParameterError, match=rf"^{re.escape(name)} must be"):
            call(value)
    call(lo)
    call(np.int64(lo))
    if hi is not None and hi < _K_MAX_LIMIT:
        call(np.uint8(hi) if hi < 256 else np.int32(hi))


def test_config_stores_python_ints_and_a_kind():
    cfg = ModulatorConfig("mpwm", np.int64(6), np.uint8(2))
    assert cfg == ModulatorConfig.mpwm(6, 2)
    assert cfg.kind is Kind.MPWM
    assert type(cfg.n) is int and type(cfg.sf) is int and type(cfg.fine_bits) is int
    hr = ModulatorConfig(Kind.HRMPWM, 6, 2, fine_bits=np.int16(3))
    assert type(hr.fine_bits) is int and hr.t_d == ModulatorConfig.hr_mpwm(6, 2, 3).t_d


@pytest.mark.parametrize("kind", ["bogus", "PWM", 5, None, 1.0])
def test_config_refuses_an_unknown_kind_and_lists_the_kinds(kind):
    with pytest.raises(ParameterError, match="pwm, pcm, fons, mpwm, hrmpwm"):
        ModulatorConfig(kind, 5)


def test_config_takes_the_kind_by_value():
    assert np.array_equal(generate(ModulatorConfig("pwm", 5), 7).bits,
                          generate(ModulatorConfig.pwm(5), 7).bits)


@pytest.mark.parametrize("cfg, duty", [
    (ModulatorConfig.pwm(6), 21), (ModulatorConfig.mpwm(8, 3), 100),
    (ModulatorConfig.pcm(7), 64), (ModulatorConfig.fons(6), 13)])
@pytest.mark.parametrize("as_numpy", [np.int64, np.int32, np.uint16])
def test_numpy_ints_give_the_bytes_of_python_ints(cfg, duty, as_numpy):
    fm = FilterModel(0.05 * cfg.sn / cfg.period)
    np_cfg = ModulatorConfig(cfg.kind, as_numpy(cfg.n), as_numpy(cfg.sf), cfg.f_clk)
    if cfg.kind != Kind.FONS:
        assert mpwm_wave(np_cfg, as_numpy(duty)).bits.tobytes() == \
            mpwm_wave(cfg, duty).bits.tobytes()
    for method in ("harmonic", "time"):
        want = steady_ripple(cfg, duty, fm, method, 16)
        got = steady_ripple(np_cfg, as_numpy(duty), fm, method, as_numpy(16))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("probe", [
    lambda: ModulatorConfig(Kind.PWM, 5.0),  # once failed later with a bare TypeError
    lambda: mpwm_wave(_MPWM, DutyCode(3.0)),  # once returned 3 high cycles
    lambda: hr_mpwm_wave(_HR, DutyCode(3, 1.5)),  # once delayed an edge by 1.5 taps
    lambda: rearranged_counter(3, 5),  # once warned and returned zeros
    lambda: rearranged_counter(-1, 0),  # once "negative shift count"
    lambda: unit_signal_coeffs(5, 1.0),  # once a bare IndexError
    lambda: ModulatorConfig("bogus", 5),  # once failed later with AttributeError
])
def test_probes_that_once_leaked_are_refused(probe):
    with pytest.raises(ParameterError):
        probe()


@pytest.mark.parametrize("f_clk", [-1e6, math.nan, math.inf, 0.0, -math.inf])
def test_unit_signal_refuses_a_bad_clock(f_clk):
    # these once came back as fundamental_hz, and 0.0 was read as "omitted"
    with pytest.raises(ParameterError, match="f_clk"):
        unit_signal_coeffs(5, 3, f_clk=f_clk)


def test_unit_signal_without_a_clock_has_a_one_second_period():
    assert unit_signal_coeffs(5, 3).fundamental_hz == 1.0
    assert unit_signal_coeffs(5, 3, f_clk=64e6).fundamental_hz == 2e6


# -- kinds each analysis refuses ----------------------------------------------------

_EM = EdgeModel(t_dr=1e-9)
_SLOT_ONLY = {
    "superpose_coeffs": lambda cfg: superpose_coeffs(cfg, 3),
    "steady_ripple_harmonic": lambda cfg: steady_ripple(cfg, 3, _FM),
    "steady_ripple_time": lambda cfg: steady_ripple(cfg, 3, _FM, method="time"),
    "static_error": lambda cfg: static_error(cfg, 3, _EM),
    "edge_counts_sweep": lambda cfg: edge_counts_sweep(cfg),
    "inl": lambda cfg: inl(cfg, _EM),
    "dnl": lambda cfg: dnl(cfg, _EM),
    "gather": lambda cfg: MetricsReport.gather(cfg, _EM),
}
_NESTED_ONLY = {
    "required_cutoff": lambda cfg: required_cutoff(cfg, 0.5),
    "worst_steady_ripple": lambda cfg: worst_steady_ripple(cfg, _FM),
    "edge_count_formula": lambda cfg: edge_count_formula(cfg, 3),
    "decoder_states": lambda cfg: decoder_states(cfg, 3),
}


@pytest.mark.parametrize("analysis", list(_SLOT_ONLY))
def test_slot_analyses_refuse_the_edge_list_kind(analysis):
    with pytest.raises(ParameterError, match="cycle-quantized"):
        _SLOT_ONLY[analysis](_HR)
    _SLOT_ONLY[analysis](ModulatorConfig.fons(5))  # FONS has slots


@pytest.mark.parametrize("cfg", [ModulatorConfig.fons(5), _HR], ids=["fons", "hrmpwm"])
@pytest.mark.parametrize("analysis", list(_NESTED_ONLY))
def test_nested_analyses_refuse_fons_and_hrmpwm(analysis, cfg):
    with pytest.raises(ParameterError, match="pwm/pcm/mpwm"):
        _NESTED_ONLY[analysis](cfg)


# -- the cutoff search's clock ------------------------------------------------------


@pytest.mark.parametrize("f_clk", ["1e160", "1e-160"])
def test_cutoff_search_past_the_filter_range_names_the_clock(f_clk, capsys):
    # this once named only a cutoff the user never passed
    assert main(["cutoff", "--kind", "pwm", "--n", "6", f"--fclk={f_clk}"]) == 2
    detail = json.loads(capsys.readouterr().err)["detail"]
    assert f"f_clk = {float(f_clk)} Hz" in detail
    assert "f_cT = " in detail and "f_c = " in detail
    with pytest.raises(ParameterError, match="f_clk"):
        required_cutoff(ModulatorConfig.pwm(6, float(f_clk)), 0.5)


def test_cutoff_search_keeps_a_clock_whose_search_stays_in_range(capsys):
    assert main(["cutoff", "--kind", "pwm", "--n", "6", "--fclk=1e150"]) == 0
    assert json.loads(capsys.readouterr().out)["f_c_hz"] > 1e146
