"""CLI tests: command outputs, schemas, reproducibility, error records."""

import contextlib
import io
import json
import math
import re
import shutil
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpwmdac.cli
from mpwmdac import ModulatorConfig, ParameterError, generate, to_analog
from mpwmdac.cli import _cell, _json, _parser, main, parse_freq, parse_time


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_table(path):
    """Parse a CSV with a `# config:` header; returns (config, header, rows)."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return config, header, rows


def test_parse_units():
    assert parse_time("1ns") == 1e-9
    assert parse_time("0.5us") == 5e-7
    assert parse_time("2e-9") == 2e-9
    assert parse_freq("100MHz") == 100e6
    assert parse_freq("250") == 250.0
    with pytest.raises(Exception):
        parse_time("7 parsecs")


def test_gen_mpwm_example(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--kind", "mpwm", "--n", "5", "--sf", "1",
        "--duty", "16", "--out", str(tmp_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["generated"][0]["pulses"] == 2
    config, header, rows = read_table(tmp_path / "bits_mpwm_n5_sf1_d16.csv")
    assert header == ["cycle", "bit"]
    assert len(rows) == 32
    bits = [int(r[1]) for r in rows]
    assert sum(bits) == 16
    assert bits[:8] == [1] * 8 and bits[16:24] == [1] * 8
    assert config["kind"] == "mpwm" and config["duty"] == 16


def test_gen_hrmpwm_writes_edges(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--kind", "hrmpwm", "--n", "6", "--sf", "2",
        "--duty", "20", "--fine", "3", "--out", str(tmp_path),
    )
    assert code == 0
    _, header, rows = read_table(tmp_path / "edges_hrmpwm_n6_sf2_d20_f3.csv")
    assert header == ["time_s", "polarity"]
    assert rows[0][1] in ("rising", "falling")


def test_gen_reproducible_byte_identical(tmp_path, capsys):
    args = ["gen", "--kind", "fons", "--n", "8", "--duty", "100"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    fa, fb = a / "bits_fons_n8_sf0_d100.csv", b / "bits_fons_n8_sf0_d100.csv"
    assert fa.read_bytes() == fb.read_bytes()


def test_spectrum_summary_and_file(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--kind", "mpwm", "--n", "5", "--sf", "2",
        "--duty", "16", "--out", str(tmp_path),
    )
    assert code == 0
    summary = json.loads(out)
    period = 32 / 100e6
    assert summary["k1"] == 4
    assert summary["f1_hz"] == pytest.approx(4 / period)
    config, header, rows = read_table(tmp_path / "spectrum_mpwm_n5_sf2_d16.csv")
    assert header == ["k", "frequency_hz", "re", "im", "magnitude", "magnitude_over_dc"]
    assert len(rows) == config["k_max"] + 1
    assert rows[0][0] == "0" and float(rows[0][5]) == 1.0


def test_spectrum_csv_without_dc_leaves_ratio_empty(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "spectrum", "--kind", "mpwm", "--n", "4", "--sf", "1",
        "--duty", "0", "--out", str(tmp_path),
    )
    assert code == 0
    _, _, rows = read_table(tmp_path / "spectrum_mpwm_n4_sf1_d0.csv")
    assert len(rows) == 9
    assert all(row[4] == "0" and row[5] == "" for row in rows)


def test_metrics_pcm_inl_in_summary(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "metrics", "--kind", "pcm", "--n", "12", "--tdr", "1ns",
        "--tdf", "0", "--fclk", "100e6", "--out", str(tmp_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["inl_lsb"] == pytest.approx(204.8)
    assert summary["dnl_lsb"] == pytest.approx(0.1)
    _, header, rows = read_table(tmp_path / "metrics_pcm_n12_sf11.csv")
    assert header == ["duty", "edge_count", "static_error_lsb"]
    assert len(rows) == 4096


def test_settle_command(capsys):
    code, out, _ = run_cli(capsys, "settle", "--fc", "250", "--band", "0.5")
    assert code == 0
    summary = json.loads(out)
    assert 0.49e-3 <= summary["settling_s"] <= 1.03e-3


def test_cutoff_command_pwm(capsys):
    code, out, _ = run_cli(
        capsys, "cutoff", "--kind", "pwm", "--n", "8", "--ripple-target", "0.5"
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["f_ct"] == pytest.approx(summary["rule_of_thumb_f_ct"], rel=0.3)
    assert summary["worst_ripple_lsb"] <= 0.5
    # the search counts are printed too; each sweep re-checks at least one code
    assert 1 <= summary["sweeps"] <= summary["ripple_checks"]


def test_repro_inl_dnl(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "repro", "--figure", "inl_dnl", "--n", "10", "--out", str(tmp_path),
    )
    assert code == 0
    _, header, rows = read_table(tmp_path / "repro_inl_dnl.csv")
    assert header == ["kind", "n", "sf", "inl_lsb", "dnl_lsb"]
    by_kind = {}
    for kind, _, sf, inl_lsb, dnl_lsb in rows:
        by_kind.setdefault(kind, []).append((int(sf), float(inl_lsb), float(dnl_lsb)))
    # every split-counter INL beats PCM; DNL identical everywhere
    pcm_inl = by_kind["pcm"][0][1]
    assert all(v < pcm_inl for _, v, _ in by_kind["mpwm"])
    dnls = [d for entries in by_kind.values() for _, _, d in entries]
    assert all(d == dnls[0] for d in dnls)


def test_repro_settling_mpwm_faster_than_pwm(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "repro", "--figure", "settling", "--n-list", "8",
        "--sf-list", "0", "2", "--out", str(tmp_path),
    )
    assert code == 0
    _, _, rows = read_table(tmp_path / "repro_settling.csv")
    settle = {int(r[1]): float(r[4]) for r in rows}
    assert settle[2] < settle[0]


def test_repro_cutoff_small(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "repro", "--figure", "cutoff_vs_resolution", "--n-list", "8",
        "--sf-list", "0", "2", "--out", str(tmp_path),
    )
    assert code == 0
    _, header, rows = read_table(tmp_path / "repro_cutoff_vs_resolution.csv")
    assert header[:4] == ["n", "sf", "f_ct_required", "f_c_hz"]
    pwm_row = [r for r in rows if r[1] == "0"][0]
    assert float(pwm_row[2]) == pytest.approx(float(pwm_row[6]), rel=0.3)


def test_repro_unknown_figure(capsys):
    code, _, err = run_cli(capsys, "repro", "--figure", "nonexistent")
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "parameter_error"
    assert "nonexistent" in record["detail"]


@pytest.mark.parametrize("kind, detail", [
    ("pcm", "PCM requires sf=n-1=5, got sf=2"),  # once run at sf=5 instead
    ("pwm", "PWM requires sf=0, got sf=2"),
    ("fons", "FONS requires sf=0, got sf=2"),
])
def test_a_wrong_sf_is_refused_for_every_fixed_sf_kind(capsys, kind, detail):
    code, out, err = run_cli(capsys, "cutoff", "--kind", kind, "--n", "6", "--sf", "2")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "parameter_error", "detail": detail}


def test_sf_defaults_to_n_minus_1_for_pcm_and_0_otherwise(tmp_path, capsys):
    pcm = run_cli(capsys, "cutoff", "--kind", "pcm", "--n", "6")
    assert pcm == run_cli(capsys, "cutoff", "--kind", "pcm", "--n", "6", "--sf", "5")
    assert pcm[0] == 0 and json.loads(pcm[1])["sf"] == 5
    for kind in ("pwm", "mpwm", "fons"):
        code, _, _ = run_cli(capsys, "gen", "--kind", kind, "--n", "4", "--duty", "3",
                             "--out", str(tmp_path))
        assert code == 0 and (tmp_path / f"bits_{kind}_n4_sf0_d3.csv").exists()


def test_periph_command_matches_gen(tmp_path, capsys):
    script = tmp_path / "prog.txt"
    script.write_text(
        "write 0x04 12\nwrite 0x08 100\nwrite 0x00 0x31\nstep 4096\nstep 4096\n"
    )
    code, out, _ = run_cli(
        capsys, "periph", "--script", str(script), "--out", str(tmp_path)
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["final_registers"]["STATUS"] == 1
    csv_lines = (tmp_path / "periph_trace.csv").read_text().splitlines()
    bits = np.array([int(line.split(",")[1]) for line in csv_lines[1:]])
    # last full period after lock equals the generator output
    code2, out2, _ = run_cli(
        capsys, "gen", "--kind", "mpwm", "--n", "12", "--sf", "3",
        "--duty", "100", "--out", str(tmp_path),
    )
    assert code2 == 0
    _, _, rows = read_table(tmp_path / "bits_mpwm_n12_sf3_d100.csv")
    wave = np.array([int(r[1]) for r in rows])
    assert np.array_equal(bits[-4096:], wave)
    vcd = (tmp_path / "periph_trace.vcd").read_text()
    assert vcd.startswith("$timescale")


def test_periph_fault_exit_code(tmp_path, capsys):
    script = tmp_path / "bad.txt"
    script.write_text("write 0x10 1\n")
    code, _, err = run_cli(capsys, "periph", "--script", str(script), "--out", str(tmp_path))
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "read_only"
    assert "line 1" in record["detail"]


def test_periph_syntax_error_exit_code(tmp_path, capsys):
    script = tmp_path / "bad.txt"
    script.write_text("step\n")
    code, _, err = run_cli(capsys, "periph", "--script", str(script), "--out", str(tmp_path))
    assert code == 2
    assert "line 1" in json.loads(err)["detail"]


def test_periph_script_past_the_cycle_bound_is_refused(tmp_path, capsys):
    # the bound is checked before the step runs, so nothing of size is built
    script = tmp_path / "long.txt"
    script.write_text("write 0x04 8\nstep 16\nstep 4194289\n")
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "periph", "--script", str(script), "--out", str(out))
    assert code == 2 and stdout == ""
    record = json.loads(err)
    assert record["error"] == "parameter_error"
    assert "line 3" in record["detail"] and "4194304 cycles" in record["detail"]
    assert not out.exists() or list(out.iterdir()) == []


def test_parameter_error_record(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen", "--kind", "mpwm", "--n", "5", "--sf", "9",
        "--duty", "1", "--out", str(tmp_path),
    )
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "parameter_error"
    assert "sf" in record["detail"]


def _reject_constant(token):
    raise ValueError(f"{token} is not a strict JSON token")


# The non-finite values the benchmark probes (bench/workloads.py), plus the
# settle cutoff and band; none of them used to exit 2.
_NON_FINITE = [
    ["cutoff", "--kind", "mpwm", "--n", "6", "--sf", "3", opt]
    for opt in ("--ripple-target=nan", "--ripple-target=inf", "--ripple-target=-inf",
                "--fclk=inf", "--fclk=nan")
] + [
    ["metrics", "--kind", "pwm", "--n", "6", "--tdr", "1ns", opt]
    for opt in ("--tdr=nan", "--tdf=inf", "--fclk=inf", "--fclk=nan", "--us=nan")
] + [["settle", "--fc=nan"], ["settle", "--fc", "250", "--band=nan"]]
# flags that do not apply to the kind, once silently dropped
_WRONG_KIND = [
    ["gen", "--kind", "mpwm", "--n", "5", "--sf", "1", "--duty", "3", "--fine", "2"],
    ["gen", "--kind", "pwm", "--n", "5", "--duty", "3", "--fine-bits", "3"],
    ["metrics", "--kind", "hrmpwm", "--n", "5", "--sf", "1"],
]


# out-of-range values that once died with a traceback or printed Infinity
_OUT_OF_RANGE = [
    ["settle", "--fc", "250", "--step", "full_scale", "--n=-1"],
    ["settle", "--fc", "250", "--step", "full_scale", "--n", "1000"],
    ["spectrum", "--kind", "mpwm", "--n", "4", "--sf", "1", "--duty", "3", "--kmax=-5"],
    ["spectrum", "--kind", "mpwm", "--n", "4", "--sf", "1", "--duty", "3",
     "--kmax", "1000000000000000"],
    ["settle", "--fc", "1e-320"],
    ["settle", "--fc=1e200"],
    ["metrics", "--kind", "pwm", "--n", "6", "--fc", "1e-320"],
    ["cutoff", "--kind", "mpwm", "--n", "6", "--sf", "3", "--ripple-target=1e-30"],
    ["cutoff", "--kind", "pcm", "--n", "12", "--ripple-target=1e-30"],
    # an overflow or a non-finite result from finite inputs
    ["cutoff", "--kind", "pcm", "--n", "4", "--fclk=1e308"],
    ["metrics", "--kind", "pcm", "--n", "4", "--fclk=0.5", "--supply-err=1e308"],
    ["metrics", "--kind", "pwm", "--n", "4", "--us=5e-324", "--supply-err=1e300"],
    ["repro", "--figure", "inl_dnl", "--n", "4", "--tdr=1e308", "--fclk=100GHz"],
    ["gen", "--kind", "mpwm", "--n", "5", "--fclk=5e-324", "--duty", "3"],
    ["repro", "--figure", "settling", "--n-list", "5", "--sf-list", "5", "--ripple-target=inf"],
    ["settle", "--fc", "1MHz", "--band=5e-324", "--step=full_scale", "--n", "6"],
    ["gen", "--kind", "pwm", "--n", "16", "--duty", "3", "--trace", "--oversample", "100000000"],
]


# usage errors, once plain-text argparse messages
_USAGE = [["bogus"], ["settle"], ["gen", "--kind", "mpwm", "--n=x", "--duty", "3"],
          ["repro", "--figure", "inl_dnl", "--n=nan"],
          # ramp times that metrics never read, no longer accepted
          ["metrics", "--kind", "pwm", "--n", "4", "--trise", "1ns"]]


@pytest.mark.parametrize("argv", _NON_FINITE + _WRONG_KIND + _OUT_OF_RANGE + _USAGE,
                         ids=" ".join)
def test_rejected_input_is_strict_json_parameter_error(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    record = json.loads(err, parse_constant=_reject_constant)
    assert record["error"] == "parameter_error"


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "mpwm", "--n", "5", "--fclk=5e-324", "--duty", "3"],
    ["gen", "--kind", "mpwm", "--n", "5", "--fclk=5e-324", "--duty", "0", "3"],
    ["gen", "--kind", "mpwm", "--n", "5", "--duty", "3", "99"],
    ["gen", "--kind", "mpwm", "--n", "5", "--duty", "3", "--trace", "--oversample", "2"],
    # rejected only after its data file's text is built
    ["spectrum", "--kind", "mpwm", "--n", "4", "--sf", "1", "--duty", "3", "--kmax", "2"],
    # once left a file; now rejected when its EdgeModel is built, before any row
    ["metrics", "--kind", "pwm", "--n", "4", "--us", "1e308", "--supply-err=-0.99"],
], ids=" ".join)
def test_rejected_command_writes_no_file(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert list(tmp_path.iterdir()) == []


def test_settle_subnormal_band_is_finite(capsys):
    code, out, err = run_cli(capsys, "settle", "--fc", "1MHz", "--band=5e-324")
    assert code == 0 and err == ""
    assert math.isfinite(json.loads(out, parse_constant=_reject_constant)["settling_s"])


@pytest.mark.parametrize("argv", [
    ["settle", "--fc", "1MHz", "--band", "2"],
    ["metrics", "--kind", "pwm", "--n", "6", "--fc", "1MHz", "--band", "2"],
], ids=" ".join)
def test_unbounded_rate_is_json_null(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0 and err == ""
    summary = json.loads(out, parse_constant=_reject_constant)
    assert summary["settling_s"] == 0.0
    assert summary["max_conversion_rate_hz"] is None


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_repro_unbounded_rate_is_the_missing_value(tmp_path, capsys, fmt):
    code, _, err = run_cli(
        capsys, "repro", "--figure", "settling", "--n-list", "6", "--sf-list", "0",
        "--band", "2", "--format", fmt, "--out", str(tmp_path),
    )
    assert code == 0 and err == ""
    path = tmp_path / f"repro_settling.{fmt}"
    if fmt == "csv":
        _, header, rows = read_table(path)
        row = dict(zip(header, rows[0]))
    else:
        row = json.loads(path.read_text(), parse_constant=_reject_constant)["rows"][0]
    assert float(row["settling_s"]) == 0.0
    assert row["max_conversion_rate_hz"] == ""


def test_json_helper_refuses_non_finite_values():
    assert _json({"b": 1, "a": [0.5]}) == '{"a": [0.5], "b": 1}'
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ParameterError):
            _json({"x": value})


# -- argv fuzz -----------------------------------------------------------------

_EXTREMES = ["0", "-0", "-0.0", "1e308", "-1e308", "1e400", "5e-324", "2.5e-310", "nan", "inf",
             "-inf", "0.5", "3", "250"]
_PLAIN = st.one_of(st.sampled_from(_EXTREMES), st.floats().map(repr))


def _with_units(*units):
    return st.one_of(_PLAIN, st.tuples(_PLAIN, st.sampled_from(units)).map("".join))


_FREQ = _with_units("Hz", "kHz", "MHz", "GHz")
_TIME = _with_units("s", "ms", "us", "ns", "ps")


def _int(low, high):
    return st.one_of(st.integers(low, high).map(str), st.sampled_from(["nan", "1e3", "", "x"]))


_SMALL_N = _int(2, 6)
_FLOAT_OPTS = {"--fclk": _FREQ, "--fc": _FREQ, "--tdr": _TIME, "--tdf": _TIME,
               "--us": _PLAIN, "--supply-err": _PLAIN, "--ripple-target": _PLAIN,
               "--band": _PLAIN}
_COMMANDS = {  # every option drawn for each command; n stays <= 6
    "gen": ["--fclk"], "spectrum": ["--fclk"], "cutoff": ["--fclk", "--ripple-target"],
    "metrics": ["--fclk", "--tdr", "--tdf", "--us", "--supply-err", "--fc",
                "--ripple-target", "--band"],
    "settle": ["--band"],
    "repro": ["--fclk", "--tdr", "--tdf", "--ripple-target", "--band"],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    if command in ("gen", "spectrum", "cutoff", "metrics"):
        kinds = ["pwm", "mpwm", "pcm", "fons", "hrmpwm"]
        argv += [f"--kind={draw(st.sampled_from(kinds))}", f"--n={draw(_SMALL_N)}",
                 f"--sf={draw(_int(0, 5))}"]
    if command in ("gen", "spectrum"):
        argv.append(f"--duty={draw(_int(-1, 64))}")
    if command == "spectrum":
        argv.append(f"--kmax={draw(_int(-1, 40))}")
    if command == "settle":
        argv += [f"--fc={draw(_FREQ)}", f"--n={draw(_int(0, 17))}",
                 f"--step={draw(st.sampled_from(['one_lsb', 'full_scale']))}"]
    if command == "repro":
        figures = ["cutoff_vs_resolution", "inl_dnl", "settling"]
        argv += [f"--figure={draw(st.sampled_from(figures))}", f"--n={draw(_SMALL_N)}",
                 "--n-list", draw(_SMALL_N), "--sf-list", draw(_int(0, 5))]
    for opt in draw(st.lists(st.sampled_from(_COMMANDS[command]), unique=True)):
        argv.append(f"{opt}={draw(_FLOAT_OPTS[opt])}")
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_fuzzed_argv_exits_cleanly_with_strict_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")  # a numeric warning escapes main and fails
        code = main([*argv, "--out", tmp])
        written = list(Path(tmp).iterdir())
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == "" and written == []
        assert "error" in json.loads(err, parse_constant=_reject_constant)


def test_gen_trace_export(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--kind", "pwm", "--n", "4", "--duty", "8",
        "--trace", "--oversample", "8", "--out", str(tmp_path),
    )
    assert code == 0
    summary = json.loads(out)
    lines = Path(summary["generated"][0]["trace_file"]).read_text().splitlines()
    assert lines[1] == "time_s,volts"
    assert len(lines) == 2 + 16 * 8
    volts = [float(line.split(",")[1]) for line in lines[2:]]
    assert sum(volts) / len(volts) == pytest.approx(0.5)
    # 8 samples per 10 ns cycle; the ideal edges step down after the 8 high cycles
    rows = [line.split(",") for line in lines[2:]]
    assert rows == [[f"{i / 8e8:.12g}", str(int(i < 64))] for i in range(128)]


def test_gen_trace_is_written_in_blocks_with_the_one_text_bytes(tmp_path, capsys):
    # 65536 rows, four blocks: each row as the one-text writer formatted it, and
    # no more than a block of rows held at once (4.7 MB traced; the one-text
    # writer peaked at 10.3 MB here)
    argv = ["gen", "--kind", "mpwm", "--n", "10", "--sf", "3", "--duty", "300", "--trace",
            "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    trace = to_analog(generate(ModulatorConfig.mpwm(10, 3), 300), oversample=64)
    times = np.arange(trace.samples.size) / trace.sample_rate
    lines = Path(json.loads(out)["generated"][0]["trace_file"]).read_text().splitlines()
    rows = [f"{t:.12g},{v:.12g}" for t, v in zip(times, trace.samples)]
    assert lines[1:] == ["time_s,volts", *rows]
    assert peak < 8e6


def test_settle_response_table(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "settle", "--fc", "1kHz", "--response-table", "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "filter_response.csv").read_text().splitlines()
    assert lines[1] == "frequency_hz,magnitude,magnitude_db,phase_rad"
    mags = {float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[2:]}
    assert mags[1000.0] == pytest.approx(2**-0.5, abs=1e-12)


def test_json_format_output(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "gen", "--kind", "pwm", "--n", "4", "--duty", "5",
        "--out", str(tmp_path), "--format", "json",
    )
    assert code == 0
    payload = json.loads((tmp_path / "bits_pwm_n4_sf0_d5.json").read_text())
    assert payload["config"]["kind"] == "pwm"
    assert sum(r["bit"] for r in payload["rows"]) == 5


def test_cell_rule():
    assert _cell(0.1 + 0.2) == "0.3" and _cell(2.0) == "2" and _cell(1e-9) == "1e-09"
    assert _cell(np.float64(1 / 3)) == "0.333333333333"
    assert _cell(None) == ""  # no value: an unbounded rate, no DC, no rule of thumb
    assert _cell(12) == "12"
    assert _cell("rising") == "rising"


# gen's three row kinds and every repro figure, None cells included
_BOTH_FORMATS = {
    "gen bits": (["gen", "--kind", "pwm", "--n", "4", "--duty", "5"], "bits_pwm_n4_sf0_d5"),
    "gen hrmpwm edges": (
        ["gen", "--kind", "hrmpwm", "--n", "5", "--sf", "2", "--duty", "7", "--fine", "3"],
        "edges_hrmpwm_n5_sf2_d7_f3"),
    "gen fons": (["gen", "--kind", "fons", "--n", "5", "--duty", "11"], "bits_fons_n5_sf0_d11"),
    "repro cutoff_vs_resolution": (
        ["repro", "--figure", "cutoff_vs_resolution", "--n-list", "5", "--sf-list", "0", "2"],
        "repro_cutoff_vs_resolution"),
    "repro inl_dnl": (["repro", "--figure", "inl_dnl", "--n", "4"], "repro_inl_dnl"),
    "repro settling": (
        ["repro", "--figure", "settling", "--n-list", "5", "--sf-list", "0", "2"],
        "repro_settling"),
    "repro settling unbounded": (
        ["repro", "--figure", "settling", "--n-list", "5", "--sf-list", "0", "--band", "2"],
        "repro_settling"),
}


@pytest.mark.parametrize("label", list(_BOTH_FORMATS))
def test_csv_and_json_tables_agree_cell_for_cell(tmp_path, capsys, label):
    argv, stem = _BOTH_FORMATS[label]
    for fmt in ("csv", "json"):
        assert run_cli(capsys, *argv, "--format", fmt, "--out", str(tmp_path))[0] == 0
    config, header, rows = read_table(tmp_path / f"{stem}.csv")
    payload = json.loads((tmp_path / f"{stem}.json").read_text(), parse_constant=_reject_constant)
    assert payload["config"] == config
    assert all(sorted(row) == sorted(header) for row in payload["rows"])
    # every JSON cell is an int or a string, and an int is the CSV cell's number
    assert all(type(v) in (int, str) for row in payload["rows"] for v in row.values())
    assert [[str(row[c]) for c in header] for row in payload["rows"]] == rows


# one command per line of the "CSV schemas" block in the cli docstring
_SCHEMA_RUNS = {
    "gen": (["gen", "--kind", "pwm", "--n", "4", "--duty", "5"], "bits_pwm_n4_sf0_d5.csv"),
    "gen hrmpwm": (["gen", "--kind", "hrmpwm", "--n", "4", "--sf", "1", "--duty", "5"],
                   "edges_hrmpwm_n4_sf1_d5_f0.csv"),
    "gen --trace": (["gen", "--kind", "pwm", "--n", "4", "--duty", "5", "--trace"],
                    "trace_bits_pwm_n4_sf0_d5.csv"),
    "spectrum": (["spectrum", "--kind", "pwm", "--n", "4", "--duty", "5"],
                 "spectrum_pwm_n4_sf0_d5.csv"),
    "metrics": (["metrics", "--kind", "pwm", "--n", "4"], "metrics_pwm_n4_sf0.csv"),
    "settle --response-table": (["settle", "--fc", "1kHz", "--response-table"],
                                "filter_response.csv"),
    "repro cutoff_vs_resolution": (
        ["repro", "--figure", "cutoff_vs_resolution", "--n-list", "6", "--sf-list", "0"],
        "repro_cutoff_vs_resolution.csv"),
    "repro inl_dnl": (["repro", "--figure", "inl_dnl", "--n", "4"], "repro_inl_dnl.csv"),
    "repro settling": (["repro", "--figure", "settling", "--n-list", "6", "--sf-list", "0"],
                       "repro_settling.csv"),
    "periph": (["periph"], "periph_trace.csv"),
}


def _documented_schemas():
    """{label: column line} from the cli docstring; `(kind: columns)` adds `label kind`."""
    block = mpwmdac.cli.__doc__.split("CSV schemas\n-----------\n")[1]
    schemas = {}
    for line in block.strip().splitlines():
        label, columns, *variant = re.split(r"\s{2,}", line.strip())
        schemas[label] = columns
        for kind, alt in (re.fullmatch(r"\((\w+): (\S+)\)", v).groups() for v in variant):
            schemas[f"{label} {kind}"] = alt
    return schemas


def test_docstring_schemas_match_written_column_lines(tmp_path, capsys):
    script = tmp_path / "prog.txt"
    script.write_text("write 0x04 4\nwrite 0x08 5\nwrite 0x00 0x11\nstep 64\n")
    schemas = _documented_schemas()
    assert set(schemas) == set(_SCHEMA_RUNS)
    for label, columns in schemas.items():
        argv, name = _SCHEMA_RUNS[label]
        out = tmp_path / label.replace(" ", "_")
        extra = ["--script", str(script)] if argv == ["periph"] else []
        assert run_cli(capsys, *argv, *extra, "--out", str(out))[0] == 0, label
        lines = (out / name).read_text().splitlines()
        column_line = lines[1] if lines[0].startswith("# config: ") else lines[0]
        assert column_line == columns, label


def test_main_repeats_byte_identical_in_one_process(tmp_path, capsys):
    """The parser is built once per process; no run changes what a later run parses."""
    script = tmp_path / "prog.txt"
    script.write_text("write 0x04 6\nwrite 0x08 9\nwrite 0x00 0x21\nstep 200\nread 0x10\n")
    argvs = [
        ["gen", "--kind", "mpwm", "--n", "5", "--sf", "1", "--duty", "3", "16", "--trace"],
        ["spectrum", "--kind", "pcm", "--n", "5", "--duty", "7"],
        ["metrics", "--kind", "mpwm", "--n", "6", "--sf", "2", "--tdr", "1ns", "--fc", "1MHz"],
        ["cutoff", "--kind", "pwm", "--n", "6"],
        ["settle", "--fc", "1kHz", "--response-table"],
        ["repro", "--figure", "settling", "--n-list", "6", "8", "--format", "json"],
        ["periph", "--script", str(script)],
    ]
    out = tmp_path / "out"

    def run(argv):
        result = run_cli(capsys, *argv, "--out", str(out))
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        shutil.rmtree(out, ignore_errors=True)
        return result, files

    first = [run(argv) for argv in argvs]
    assert all(code == 0 for (code, _, _), _ in first)
    assert run(["repro", "--figure", "cutoff_vs_resolution"])[0][0] == 0  # default lists
    assert [run(argv) for argv in argvs] == first
    defaults = _parser().parse_args(["repro", "--figure", "settling"])
    assert (defaults.n_list, defaults.sf_list) == ([8, 10, 12], [0, 3, 7])
