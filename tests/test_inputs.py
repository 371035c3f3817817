"""Input rules: every integer and real parameter, the bit arrays, the kind, the
slot-only analyses and the models.

Integer parameters take Python or NumPy ints and refuse bool, float, str and
None with a ParameterError that names the parameter; real parameters take
Python or NumPy ints and floats and refuse bool, str, None, complex, non-finite
values and ints too large for a float the same way.  An array must be numeric,
and a bit array is a 1-D array of 0/1 values.  HR-MPWM (an edge list) is refused
by the analyses that read slots, and FONS and HR-MPWM by those that need nested
codes.  A parameter annotated with package classes or str is checked against its
annotation on entry (`errors._typed`): the exact messages are pinned here, and
test_package sweeps every such parameter of the public API.  The bus words are
test_periph's.
"""

import json
import math
import re

import numpy as np
import pytest

from mpwmdac import (
    AnalogTrace,
    BitWaveform,
    DutyCode,
    EdgeList,
    EdgeModel,
    FilterModel,
    Kind,
    MetricsReport,
    ModulatorConfig,
    ParameterError,
    bit_reverse,
    conversion_rate,
    cutoff_rule_of_thumb,
    dc_average,
    decoder_states,
    dft_period,
    dnl,
    dnl_closed_form,
    dominant_harmonics,
    edge_count_formula,
    edge_counts_sweep,
    filter_response,
    generate,
    hr_mpwm_wave,
    inl,
    inl_closed_form,
    mpwm_wave,
    rearranged_counter,
    required_cutoff,
    settling_time,
    Spectrum,
    static_error,
    steady_ripple,
    superpose_coeffs,
    to_analog,
    unit_signal_coeffs,
    worst_steady_ripple,
)
from mpwmdac.cli import main
from mpwmdac.periph import MpwmPeripheral, trace_to_csv
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
    ("value", lambda v: bit_reverse(v, 2), 0, None),
    ("bits", lambda v: bit_reverse(5, v), 0, None),
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


@pytest.mark.parametrize("method", ["Exact", "Harmonic", "bogus"])
def test_steady_ripple_names_a_bad_method_before_the_kind(method):
    # on hrmpwm these once reported "a slot analysis needs a cycle-quantized kind"
    with pytest.raises(ParameterError, match="^method must be 'harmonic', 'exact' or 'time'"):
        steady_ripple(ModulatorConfig.hr_mpwm(6, 2), 3, FilterModel(1e5), method=method)


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
    lambda: EdgeModel(t_dr=True),  # once accepted
    lambda: EdgeModel(t_dr="1"),  # once a bare TypeError
    lambda: FilterModel(True),  # once accepted
    lambda: FilterModel("1e6"),  # once a bare TypeError
    lambda: ModulatorConfig(Kind.PWM, 5, f_clk="1e6"),  # once a bare TypeError
    lambda: ModulatorConfig(Kind.PWM, 5, f_clk=10**400),  # once a bare OverflowError
    lambda: Spectrum([math.nan, 1, 2, 3], math.nan, 8),  # once accepted
    lambda: dominant_harmonics(Spectrum([0, 1, 0.5, 0.2], 1.0, 8)),  # once amp1_over_dc nan
    # once accepted, and its high_time was NaN
    lambda: EdgeList(np.array([math.nan] * 2), np.array([True, False]), 1.0, 64.0),
])
def test_probes_that_once_leaked_are_refused(probe):
    with pytest.raises(ParameterError):
        probe()


@pytest.mark.parametrize("f_clk", [-1e6, math.nan, math.inf, 0.0, -math.inf])
def test_unit_signal_refuses_a_bad_clock(f_clk):
    # these once came back as fundamental_hz, and 0.0 was read as "omitted"
    with pytest.raises(ParameterError, match="f_clk"):
        unit_signal_coeffs(5, 3, f_clk=f_clk)


def test_unit_signal_names_the_clock_when_its_fundamental_underflows():
    # f_clk / 2**n once came back as a zero fundamental_hz
    with pytest.raises(ParameterError, match=re.escape("f_clk / 2**n must be finite")):
        unit_signal_coeffs(2, 1, f_clk=5e-324)


def test_unit_signal_without_a_clock_has_a_one_second_period():
    assert unit_signal_coeffs(5, 3).fundamental_hz == 1.0
    assert unit_signal_coeffs(5, 3, f_clk=64e6).fundamental_hz == 2e6


# -- real parameters -----------------------------------------------------------------

_NO_EDGES = (np.array([]), np.array([], dtype=bool))
_EDGE_MODEL_FIELDS = ("t_dr", "t_df", "t_rise", "t_fall", "u_s", "supply_rel_err")

# (parameter name, call with the value, its bound, whether the bound is strict)
REAL_SITES = [
    ("f_clk", lambda v: ModulatorConfig(Kind.MPWM, 5, 1, v), 0, True),
    ("f_clk", lambda v: BitWaveform(np.array([1, 0, 0, 0]), v), 0, True),
    ("period", lambda v: EdgeList(*_NO_EDGES, v, 1e9), 0, True),
    ("f_clk", lambda v: EdgeList(*_NO_EDGES, 64.0, v), 0, True),
    *[(name, lambda v, name=name: EdgeModel(**{name: v}), 0, False)
      for name in _EDGE_MODEL_FIELDS[:4]],
    ("u_s", lambda v: EdgeModel(u_s=v), 0, True),
    ("supply_rel_err", lambda v: EdgeModel(supply_rel_err=v), -1, True),
    ("f_c", lambda v: FilterModel(v), 0, True),
    ("sample_rate", lambda v: AnalogTrace(np.ones(4), v), 0, True),
    ("period_s", lambda v: AnalogTrace(np.ones(4), 1.0, v), 0, True),
    ("f_clk", lambda v: unit_signal_coeffs(5, 3, f_clk=v), 0, True),
    ("ripple_target", lambda v: required_cutoff(ModulatorConfig.mpwm(4, 1), v), 0, True),
    ("ripple_lsb", lambda v: cutoff_rule_of_thumb(8, v), 0, True),
    ("band_lsb", lambda v: settling_time(_FM, band_lsb=v), 0, True),
]


def _bad_reals(name, lo, strict):
    yield from ("1", True, False, np.bool_(True), 1j, np.complex128(1), math.nan, math.inf,
                -math.inf, np.float64(math.nan), 10**400, -(10**400))
    if name not in ("period_s", "f_clk"):  # None asks for no period or a one-second one
        yield None
    yield from (lo, np.int64(lo), np.float64(lo)) if strict else (lo - 1, np.nextafter(lo, -1))


@pytest.mark.parametrize("name, call, lo, strict", REAL_SITES, ids=[
    f"{i}-{site[0]}" for i, site in enumerate(REAL_SITES)])
def test_every_real_site_refuses_bad_values_by_name(name, call, lo, strict):
    for value in _bad_reals(name, lo, strict):
        with pytest.raises(ParameterError, match=rf"^{re.escape(name)} must be"):
            call(value)
    for value in (lo + 0.5, np.float64(lo + 0.5), np.float32(lo + 0.5), lo + 1, np.int64(lo + 1)):
        call(value)
    if not strict:
        call(lo)


def test_real_fields_are_stored_as_python_floats():
    stored = [ModulatorConfig(Kind.PWM, 5, f_clk=np.float32(1e6)).f_clk,
              BitWaveform([1, 0], 1000).f_clk, FilterModel(np.int64(1000)).f_c,
              *EdgeList(*_NO_EDGES, np.float64(1.0), 64).__dict__.values(),
              *AnalogTrace(np.ones(4), np.float64(4.0), 1).__dict__.values(),
              *EdgeModel(*map(np.float64, (0, 1e-9, 0, 0, 3, 0))).__dict__.values()]
    assert all(type(v) is float for v in stored if not isinstance(v, np.ndarray))


_FLOATS = dict(f_clk=64e6, t_dr=1e-9, t_df=0.25e-9, t_rise=0.5e-9, t_fall=0.5e-9, u_s=3.0,
               f_c=2e5)
_INTS = dict(f_clk=64_000_000, t_dr=0, t_df=0, t_rise=0, t_fall=0, u_s=3, f_c=200_000)


def _tour_bytes(v):
    cfg = ModulatorConfig(Kind.MPWM, 8, 3, v["f_clk"])
    em = EdgeModel(*(v[name] for name in _EDGE_MODEL_FIELDS[:5]))
    fm = FilterModel(v["f_c"])
    wave = mpwm_wave(cfg, 77)
    return [wave.bits.tobytes(), to_analog(wave, em, 16).samples.tobytes(),
            *(np.float64(steady_ripple(cfg, 77, fm, method, 16)).tobytes()
              for method in ("harmonic", "time"))]


@pytest.mark.parametrize("values, as_type", [(_FLOATS, np.float64), (_INTS, int)])
def test_numpy_floats_and_python_ints_give_the_bytes_of_python_floats(values, as_type):
    assert _tour_bytes({k: as_type(v) for k, v in values.items()}) == \
        _tour_bytes({k: float(v) for k, v in values.items()})


# -- bit arrays -------------------------------------------------------------------------


@pytest.mark.parametrize("bits", [
    [256, 1],  # once cast to [0, 1]
    [0.7, 1],  # once cast to [0, 1]
    [-1, 0],  # once a bare OverflowError
    ["1", "0"],  # once accepted
    [math.nan, 0],  # once a bare ValueError
    np.array([1, 0], dtype=object),
    np.zeros((2, 2), dtype=np.uint8),
    np.zeros(0, dtype=np.uint8),
    np.array([0, 2], dtype=np.uint8),
    np.array([256, 1], dtype=np.uint16),
], ids=["256", "0.7", "-1", "str", "nan", "object", "2d", "empty", "uint8-2", "uint16-256"])
def test_bit_waveform_refuses_anything_but_a_non_empty_0_1_array(bits):
    with pytest.raises(ParameterError, match="^bits must"):
        BitWaveform(bits, 1e6)


def test_bit_waveform_takes_bool_and_integral_0_1_values_as_uint8():
    want = np.array([1, 0, 1, 1], dtype=np.uint8)
    for bits in (want.astype(bool), want.astype(np.int64), want.astype(float), want.tolist()):
        got = BitWaveform(bits, 1e6).bits
        assert got.dtype == np.uint8 and got.tobytes() == want.tobytes()


# -- arrays -------------------------------------------------------------------------


@pytest.mark.parametrize("call, match", [
    (lambda: BitWaveform([[1], [0, 1]], 1e6), "^bits must be an array of numbers, got a ragged"),
    (lambda: trace_to_csv([[1], [0, 1]]), "^bits must be an array of numbers, got a ragged"),
    (lambda: EdgeList(["a", "b"], [True, False], 1.0, 64.0), "^times must be an array of numbers"),
    (lambda: AnalogTrace(["a"], 1.0), "^samples must be an array of numbers"),
    (lambda: Spectrum(["a"], 1.0, 8), "^coeffs must be an array of numbers"),
    (lambda: EdgeList([0.1, 0.2], [2, 0], 1.0, 64.0), "^risings must be 0 or 1, got 2"),
    (lambda: EdgeList([0.1, 0.2], [[1, 0]], 1.0, 64.0), r"^risings must be a 1-D .* shape \(1, 2\)"),
    (lambda: bit_reverse(np.array([1.5]), 2), "^value must be an integer"),
    (lambda: bit_reverse(np.array(["1"]), 2), "^value must be an integer"),
    (lambda: bit_reverse(np.array([True]), 2), "^value must be an integer"),
    (lambda: bit_reverse(np.array([-1, 2]), 2), r"^value must be in \[0, inf\], got -1"),
], ids=["bits-ragged", "dump-ragged", "times-str", "samples-str", "coeffs-str", "risings-2",
        "risings-2d", "reverse-float", "reverse-str", "reverse-bool", "reverse-negative"])
def test_arrays_refuse_ragged_non_numeric_and_non_bit_input(call, match):
    # the first four once leaked a bare ValueError, coeffs-str too; risings-2 was accepted;
    # reverse-float and reverse-str leaked a bare TypeError, the other two were reversed
    with pytest.raises(ParameterError, match=match):
        call()


def test_edge_list_takes_lists_as_float_times_and_bool_risings():
    edges = EdgeList([0, 0.25], [1, 0], 1.0, 64.0)
    want = EdgeList(np.array([0.0, 0.25]), np.array([True, False]), 1.0, 64.0)
    assert edges.times.dtype == float and edges.risings.dtype == bool
    assert edges.times.tobytes() == want.times.tobytes()
    assert edges.risings.tobytes() == want.risings.tobytes()


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


# -- models passed by the wrong type ----------------------------------------------

_TRACE = AnalogTrace(np.ones(4), 4.0, 1.0)
_CFG = ModulatorConfig.pwm(5)
_WRONG_MODELS = [
    ("fm", "float", lambda: worst_steady_ripple(_CFG, 5.0)),
    ("fm", "float", lambda: steady_ripple(_CFG, 3, 5.0)),
    ("fm", "float", lambda: steady_ripple(_CFG, 3, 5.0, method="exact")),
    ("fm", "float", lambda: filter_response(_TRACE, 3.0)),
    ("fm", "float", lambda: settling_time(3.0)),
    ("fm", "float", lambda: conversion_rate(_CFG, 3.0)),
    ("fm", "float", lambda: MetricsReport.gather(_CFG, _EM, fm=3.0)),
    ("trace", "ndarray", lambda: filter_response(np.ones(4), _FM)),
    ("cfg", "str", lambda: required_cutoff("pwm", 0.5)),
    ("cfg", "NoneType", lambda: worst_steady_ripple(None, _FM)),
    ("cfg", "str", lambda: steady_ripple("pwm", 3, _FM)),
    ("cfg", "NoneType", lambda: conversion_rate(None, _FM)),
    ("cfg", "NoneType", lambda: static_error(None, 3)),
    ("cfg", "str", lambda: edge_counts_sweep("pwm")),
    ("cfg", "NoneType", lambda: MetricsReport.gather(None, _EM)),
    ("cfg", "NoneType", lambda: inl_closed_form(None, _EM)),
    ("cfg", "NoneType", lambda: dnl_closed_form(None, _EM)),
]


@pytest.mark.parametrize("name, got, call", _WRONG_MODELS,
                         ids=[f"{i}-{site[0]}" for i, site in enumerate(_WRONG_MODELS)])
def test_a_model_of_the_wrong_type_is_refused_by_name(name, got, call):
    # each of these once leaked an AttributeError
    kind = {"fm": "FilterModel", "trace": "AnalogTrace", "cfg": "ModulatorConfig"}[name]
    with pytest.raises(ParameterError, match=f"^{name} must be of type {kind}, got {got}$"):
        call()


def test_dc_average_of_a_config_without_a_duty_names_duty():
    # this once named no parameter
    with pytest.raises(ParameterError, match="^duty must be given with a ModulatorConfig"):
        dc_average(_CFG)
