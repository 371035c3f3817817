"""CLI tests: command outputs, schemas, reproducibility, error records."""

import json
from pathlib import Path

import numpy as np
import pytest

from mpwmdac.cli import _json, main, parse_freq, parse_time


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
    lines = (tmp_path / "spectrum_mpwm_n5_sf2_d16.csv").read_text().splitlines()
    assert lines[1] == "k,frequency_hz,re,im,magnitude,magnitude_over_dc"


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
    ["settle", "--fc", "1e-320"],
    ["metrics", "--kind", "pwm", "--n", "6", "--fc", "1e-320"],
]


@pytest.mark.parametrize("argv", _NON_FINITE + _WRONG_KIND + _OUT_OF_RANGE, ids=" ".join)
def test_rejected_input_is_strict_json_parameter_error(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    record = json.loads(err, parse_constant=_reject_constant)
    assert record["error"] == "parameter_error"


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


def test_json_helper_refuses_non_finite_values():
    assert _json({"b": 1, "a": [0.5]}) == '{"a": [0.5], "b": 1}'
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            _json({"x": value})


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


def test_settle_response_table(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "settle", "--fc", "1kHz", "--response-table", "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "filter_response.csv").read_text().splitlines()
    assert lines[1] == "frequency_hz,magnitude,magnitude_db,phase_rad"
    mags = {float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[2:]}
    assert mags[1000.0] == pytest.approx(2**-0.5, abs=1e-9)


def test_json_format_output(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "gen", "--kind", "pwm", "--n", "4", "--duty", "5",
        "--out", str(tmp_path), "--format", "json",
    )
    assert code == 0
    payload = json.loads((tmp_path / "bits_pwm_n4_sf0_d5.json").read_text())
    assert payload["config"]["kind"] == "pwm"
    assert sum(r["bit"] for r in payload["rows"]) == 5
