"""Command-line front end.

Commands: gen, spectrum, metrics, cutoff, settle, repro, periph.  Each
command returns its JSON summary and the text of its data files as blocks;
`main` checks the summary and only then writes the files, block by block, so
a rejected command leaves no file behind and a long trace is never held as
one text.  Outputs are deterministic: every data file except the periph
dumps starts with a `# config:` header carrying the full resolved parameters
(no timestamps), so identical invocations produce byte-identical files.  `_table` writes every cell of those files, CSV and JSON alike, by one
rule (`_cell`): a float to 12 significant digits, None (no value: an unbounded
rate, a spectrum with no DC, PWM's rule of thumb on other kinds) as "", an int
or string as it is; in JSON an int stays a number.  The periph CSV starts
with its `cycle,out` column line and the VCD with `$timescale`, so both load
as plain CSV and VCD.  Summaries print to stdout as JSON; errors
print a machine-readable record to stderr and exit nonzero (2 for parameter
or usage problems, 1 for peripheral faults).

CSV schemas
-----------
gen        cycle,bit                  (hrmpwm: time_s,polarity)
gen --trace        time_s,volts
spectrum   k,frequency_hz,re,im,magnitude,magnitude_over_dc
metrics    duty,edge_count,static_error_lsb
settle --response-table    frequency_hz,magnitude,magnitude_db,phase_rad
repro cutoff_vs_resolution   n,sf,f_ct_required,f_c_hz,worst_duty,worst_ripple_lsb,rule_of_thumb_f_ct
repro inl_dnl                kind,n,sf,inl_lsb,dnl_lsb
repro settling               n,sf,f_ct_required,f_c_hz,settling_s,max_conversion_rate_hz
periph     cycle,out
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .analog import EdgeModel, FilterModel, IDEAL_EDGES, settling_time, to_analog
from .errors import ParameterError
from .metrics import MetricsReport, conversion_rate, required_cutoff
from .modwave import DutyCode, EdgeList, Kind, ModulatorConfig, count_pulses, generate
from .periph import PeripheralFault, run_script, trace_to_csv, trace_to_vcd
from .spectral import dominant_harmonics, superpose_coeffs

# a command's JSON summary and its data files as (path, blocks of text) pairs
_Output = tuple[dict, list[tuple[Path, Iterable[str]]]]
_BLOCK_ROWS = 1 << 14  # CSV rows formatted and written at a time

_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12}
_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def _parse_with_units(text: str, units: dict[str, float], what: str) -> float:
    s = text.strip()
    suffix = max((u for u in units if s.lower().endswith(u)), key=len, default="")
    try:
        return float(s[: len(s) - len(suffix)]) * units.get(suffix, 1.0)
    except ValueError:
        raise ParameterError(
            f"cannot parse {what} value {text!r}; allowed units: {', '.join(sorted(units))}"
        ) from None


def parse_time(text: str) -> float:
    """Seconds from e.g. '1ns', '0.5us', '2e-9'."""
    return _parse_with_units(text, _TIME_UNITS, "time")


def parse_freq(text: str) -> float:
    """Hertz from e.g. '100MHz', '250', '1.5kHz'."""
    return _parse_with_units(text, _FREQ_UNITS, "frequency")


def _json(obj, **kwargs) -> str:
    """Strict RFC 8259 JSON with sorted keys; a NaN or infinity is a ParameterError."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise ParameterError(f"a value does not fit strict JSON ({exc})") from None


def _cell(value) -> str:
    """One data-file cell: a float to 12 significant digits, None (no value) as "", else str."""
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    return "" if value is None else str(value)


def _table(config: dict, columns: list[str], rows: Iterable[Sequence],
           fmt: str = "csv") -> Iterator[str]:
    """One data file's text in blocks: JSON {config, rows} as one block, or CSV under
    a `# config:` line, _BLOCK_ROWS rows a block, formatted as they are written.
    Everything that can fail runs before it returns."""
    if fmt == "json":
        rows = [{c: v if isinstance(v, int) else _cell(v) for c, v in zip(columns, r)}
                for r in rows]
        return iter([_json({"config": config, "rows": rows}, indent=2) + "\n"])
    head = "# config: " + _json(config) + "\n" + ",".join(columns) + "\n"
    return chain([head], _csv_blocks(rows))


def _csv_blocks(rows: Iterable[Sequence]) -> Iterator[str]:
    """CSV lines of `rows`, _BLOCK_ROWS of them a block."""
    rows = iter(rows)
    while block := list(islice(rows, _BLOCK_ROWS)):
        yield "".join(",".join(map(_cell, r)) + "\n" for r in block)


def _trace_rows(trace) -> Iterator[tuple[float, float]]:
    """(time_s, volts) of each sample, converted _BLOCK_ROWS at a time."""
    size = trace.samples.size
    return chain.from_iterable(
        zip((np.arange(i, min(i + _BLOCK_ROWS, size)) / trace.sample_rate).tolist(),
            trace.samples[i : i + _BLOCK_ROWS].tolist())
        for i in range(0, size, _BLOCK_ROWS))


def _build_config(args) -> ModulatorConfig:
    sf = args.sf
    if sf is None:
        sf = args.n - 1 if args.kind == Kind.PCM else 0
    fine_bits = args.fine_bits
    if fine_bits is None:
        fine_bits = 4 if args.kind == Kind.HRMPWM else 0
    return ModulatorConfig(args.kind, args.n, sf, parse_freq(args.fclk), fine_bits)


def _resolved(args, cfg: ModulatorConfig, **extra) -> dict:
    return {"command": args.command, "kind": cfg.kind.value, "n": cfg.n, "sf": cfg.sf,
            "f_clk_hz": cfg.f_clk, "fine_bits": cfg.fine_bits, **extra}


# -- commands -----------------------------------------------------------------


def cmd_gen(args) -> _Output:
    cfg = _build_config(args)
    out_dir = Path(args.out)
    files, generated = [], []
    for duty in args.duty:
        wave = generate(cfg, DutyCode(duty, args.fine))
        config = _resolved(args, cfg, duty=duty, fine=args.fine)
        if isinstance(wave, EdgeList):
            stem = f"edges_{cfg.kind.value}_n{cfg.n}_sf{cfg.sf}_d{duty}_f{args.fine}"
            columns = ["time_s", "polarity"]
            rows = [[t, "rising" if r else "falling"] for t, r in zip(wave.times, wave.risings)]
            high = wave.high_time()
        else:
            stem = f"bits_{cfg.kind.value}_n{cfg.n}_sf{cfg.sf}_d{duty}"
            columns = ["cycle", "bit"]
            rows = [[i, int(b)] for i, b in enumerate(wave.bits)]
            high = wave.duty_count / cfg.f_clk
        path = out_dir / f"{stem}.{args.format}"
        entry = {
            "duty": duty, "file": str(path), "pulses": count_pulses(wave), "high_time_s": high,
        }
        files.append((path, _table(config, columns, rows, args.format)))
        if args.trace:
            trace = to_analog(wave, IDEAL_EDGES, args.oversample)
            trace_path = out_dir / f"trace_{stem}.csv"
            files.append((trace_path, _table(
                {**config, "oversample": args.oversample}, ["time_s", "volts"], _trace_rows(trace),
            )))
            entry["trace_file"] = str(trace_path)
        generated.append(entry)
    return {"generated": generated}, files


def cmd_spectrum(args) -> _Output:
    cfg = _build_config(args)
    spec = superpose_coeffs(cfg, args.duty, k_max=args.kmax)
    config = _resolved(args, cfg, duty=args.duty, k_max=spec.k_max)
    path = Path(args.out) / f"spectrum_{cfg.kind.value}_n{cfg.n}_sf{cfg.sf}_d{args.duty}.csv"
    dc = abs(spec.coeffs[0])
    rows = [
        [k, k * spec.fundamental_hz, a.real, a.imag, abs(a), abs(a) / dc if dc > 0 else None]
        for k, a in enumerate(spec.coeffs)
    ]
    columns = ["k", "frequency_hz", "re", "im", "magnitude", "magnitude_over_dc"]
    summary = {"file": str(path), "dc": spec.dc, "fundamental_hz": spec.fundamental_hz}
    peaks = dominant_harmonics(spec)
    if peaks is None:
        summary["no_harmonic"] = True
    else:
        summary.update(k1=peaks.k1, f1_hz=peaks.f1, amp1_over_dc=peaks.amp1_over_dc,
                       k2=peaks.k2, f2_hz=peaks.f2, amp2_over_dc=peaks.amp2_over_dc)
    return summary, [(path, _table(config, columns, rows))]


def cmd_metrics(args) -> _Output:
    cfg = _build_config(args)
    em = EdgeModel(t_dr=parse_time(args.tdr), t_df=parse_time(args.tdf), u_s=args.us,
                   supply_rel_err=args.supply_err)
    fm = FilterModel(parse_freq(args.fc)) if args.fc else None
    report = MetricsReport.gather(
        cfg, em, fm=fm, ripple_target=args.ripple_target, band_lsb=args.band
    )
    config = _resolved(
        args, cfg, t_dr_s=em.t_dr, t_df_s=em.t_df, u_s=em.u_s,
        supply_rel_err=em.supply_rel_err,
    )
    path = Path(args.out) / f"metrics_{cfg.kind.value}_n{cfg.n}_sf{cfg.sf}.csv"
    rows = zip(range(len(report.edge_counts)), report.edge_counts, report.static_error_lsb)
    table = _table(config, ["duty", "edge_count", "static_error_lsb"], rows)
    return {**report.summary(), "curves_file": str(path)}, [(path, table)]


def cmd_cutoff(args) -> _Output:
    cfg = _build_config(args)
    result = required_cutoff(cfg, args.ripple_target)
    payload = {"kind": cfg.kind.value, "n": cfg.n, "sf": cfg.sf}
    payload.update((k, v) for k, v in asdict(result).items() if v is not None)
    return payload, []


def cmd_settle(args) -> _Output:
    fm = FilterModel(parse_freq(args.fc))
    seconds = settling_time(fm, step=args.step, band_lsb=args.band, n_bits=args.n)
    payload = {
        "f_c_hz": fm.f_c,
        "step": args.step,
        "band_lsb": args.band,
        "n": args.n,
        "settling_s": seconds,
        "max_conversion_rate_hz": (1.0 / seconds) if seconds > 0 else None,  # None: unbounded
    }
    if not args.response_table:
        return payload, []
    path = Path(args.out) / "filter_response.csv"
    grid = fm.f_c * np.logspace(-2, 3, 101)
    rows = [
        [f, abs(h), 20.0 * np.log10(abs(h)), np.angle(h)]
        for f, h in zip(grid, fm.freq_response(grid))
    ]
    columns = ["frequency_hz", "magnitude", "magnitude_db", "phase_rad"]
    payload["response_table"] = str(path)
    return payload, [(path, _table({"command": "settle", "f_c_hz": fm.f_c}, columns, rows))]


def _repro_cutoffs(args):
    """(config, required cutoff) for every valid (n, sf); PWM at sf = 0."""
    f_clk = parse_freq(args.fclk)
    for n in args.n_list:
        for sf in args.sf_list:
            if sf > n - 1:
                continue
            cfg = ModulatorConfig.pwm(n, f_clk) if sf == 0 else ModulatorConfig.mpwm(n, sf, f_clk)
            yield cfg, required_cutoff(cfg, args.ripple_target)


def _repro_cutoff(args) -> tuple[dict, list[str], list[list]]:
    columns = ["n", "sf", "f_ct_required", "f_c_hz", "worst_duty", "worst_ripple_lsb",
               "rule_of_thumb_f_ct"]
    rows = [
        [cfg.n, cfg.sf, res.f_ct, res.f_c_hz, res.worst_duty, res.worst_ripple_lsb,
         res.rule_of_thumb_f_ct]
        for cfg, res in _repro_cutoffs(args)
    ]
    config = {
        "n_list": args.n_list, "sf_list": args.sf_list,
        "ripple_target_lsb": args.ripple_target,
    }
    return config, columns, rows


def _repro_inl_dnl(args) -> tuple[dict, list[str], list[list]]:
    em = EdgeModel(t_dr=parse_time(args.tdr), t_df=parse_time(args.tdf))
    f_clk = parse_freq(args.fclk)
    n = args.n
    configs = [ModulatorConfig.pwm(n, f_clk)]
    configs += [ModulatorConfig.mpwm(n, sf, f_clk) for sf in range(1, n - 1)]
    configs += [ModulatorConfig.pcm(n, f_clk), ModulatorConfig.fons(n, f_clk)]
    rows = []
    for cfg in configs:
        report = MetricsReport.gather(cfg, em)
        rows.append([cfg.kind.value, n, cfg.sf, report.inl_lsb, report.dnl_lsb])
    config = {"n": n, "t_dr_s": em.t_dr, "t_df_s": em.t_df, "f_clk_hz": f_clk}
    return config, ["kind", "n", "sf", "inl_lsb", "dnl_lsb"], rows


def _repro_settling(args) -> tuple[dict, list[str], list[list]]:
    rows = []
    for cfg, res in _repro_cutoffs(args):
        rate, settle = conversion_rate(cfg, FilterModel(res.f_c_hz), band_lsb=args.band)
        rows.append([cfg.n, cfg.sf, res.f_ct, res.f_c_hz, settle,
                     None if rate == math.inf else rate])  # None: unbounded
    config = {
        "n_list": args.n_list, "sf_list": args.sf_list,
        "ripple_target_lsb": args.ripple_target, "band_lsb": args.band,
    }
    columns = ["n", "sf", "f_ct_required", "f_c_hz", "settling_s", "max_conversion_rate_hz"]
    return config, columns, rows


_FIGURES = {
    "cutoff_vs_resolution": _repro_cutoff,
    "inl_dnl": _repro_inl_dnl,
    "settling": _repro_settling,
}


def cmd_repro(args) -> _Output:
    config, columns, rows = _FIGURES[args.figure](args)
    path = Path(args.out) / f"repro_{args.figure}.{args.format}"
    config = {"command": "repro", "figure": args.figure, **config}
    table = _table(config, columns, rows, args.format)
    return {"figure": args.figure, "file": str(path)}, [(path, table)]


def cmd_periph(args) -> _Output:
    result = run_script(Path(args.script).read_text())
    vcd_path = Path(args.out) / "periph_trace.vcd"
    csv_path = Path(args.out) / "periph_trace.csv"
    payload = {
        "cycles": int(result.bits.size),
        "reads": [{"addr": a, "value": v} for a, v in result.reads],
        "final_registers": result.final_registers,
        "vcd": str(vcd_path),
        "csv": str(csv_path),
    }
    return payload, [(vcd_path, [trace_to_vcd(result.bits)]),
                     (csv_path, [trace_to_csv(result.bits)])]


# -- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParameterError, so they print the same JSON record."""

    def error(self, message: str):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mpwmdac",
        description="Pulse-modulation DAC simulator and measurement toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="data file format")

    mod = argparse.ArgumentParser(add_help=False)
    mod.add_argument("--kind", required=True,
                     choices=[k.value for k in Kind])
    mod.add_argument("--n", type=int, required=True)
    mod.add_argument("--sf", type=int, help="splitting factor (default: n-1 for pcm, else 0)")
    mod.add_argument("--fclk", default="100MHz")
    mod.add_argument("--fine-bits", dest="fine_bits", type=int, default=None,
                     help="fine delay-line bits (hrmpwm only; default 4)")

    p = sub.add_parser("gen", parents=[common, fmt, mod], help="generate waveforms")
    p.add_argument("--duty", type=int, nargs="+", required=True)
    p.add_argument("--fine", type=int, default=0)
    p.add_argument("--oversample", type=int, default=64,
                   help="trace samples per clock cycle")
    p.add_argument("--trace", action="store_true",
                   help="also render an ideal-edge analog trace CSV")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("spectrum", parents=[common, mod], help="analytic spectrum")
    p.add_argument("--duty", type=int, required=True)
    p.add_argument("--kmax", type=int, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("metrics", parents=[common, mod], help="static error, INL, DNL")
    p.add_argument("--tdr", default="0", help="rising-edge delay (e.g. 1ns)")
    p.add_argument("--tdf", default="0", help="falling-edge delay")
    p.add_argument("--us", type=float, default=1.0, help="supply voltage")
    p.add_argument("--supply-err", dest="supply_err", type=float, default=0.0)
    p.add_argument("--fc", default=None, help="filter cutoff for settling figures")
    p.add_argument("--ripple-target", dest="ripple_target", type=float, default=None)
    p.add_argument("--band", type=float, default=0.5)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("cutoff", parents=[common, mod],
                       help="largest cutoff meeting a ripple budget")
    p.add_argument("--ripple-target", dest="ripple_target", type=float, default=0.5)
    p.set_defaults(func=cmd_cutoff)

    p = sub.add_parser("settle", parents=[common], help="filter settling time")
    p.add_argument("--fc", required=True)
    p.add_argument("--step", choices=("one_lsb", "full_scale"), default="one_lsb")
    p.add_argument("--band", type=float, default=0.5)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--response-table", dest="response_table", action="store_true",
                   help="also export the filter magnitude/phase table")
    p.set_defaults(func=cmd_settle)

    p = sub.add_parser("repro", parents=[common, fmt], help="figure-reproduction sweeps")
    p.add_argument("--figure", required=True, choices=_FIGURES)
    p.add_argument("--n-list", dest="n_list", type=int, nargs="+", default=[8, 10, 12])
    p.add_argument("--sf-list", dest="sf_list", type=int, nargs="+", default=[0, 3, 7])
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--ripple-target", dest="ripple_target", type=float, default=0.5)
    p.add_argument("--band", type=float, default=0.5)
    p.add_argument("--fclk", default="100MHz")
    p.add_argument("--tdr", default="1ns")
    p.add_argument("--tdf", default="0")
    p.set_defaults(func=cmd_repro)

    p = sub.add_parser("periph", parents=[common], help="run a register script")
    p.add_argument("--script", required=True)
    p.set_defaults(func=cmd_periph)

    return parser


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one command; its summary and files are all checked before any file is written.

    An existing data file is rewritten in place and then cut to its new length, never
    truncated first: on ext4, rewriting a 120 KB file took about 210 us when the open
    truncated it (150 us of them in the open) and 27 us over its old blocks.  A write
    that fails part way exits 2 (`io_error`) and may leave the new bytes followed by old
    ones, where truncating first would leave a cut-off prefix; neither is atomic, and
    nothing is fsynced."""
    try:
        args = _parser().parse_args(argv)
        # an overflow from finite inputs is a bad parameter, never an inf result
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            summary, files = args.func(args)
        summary = _json(summary)
        if files:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        for path, blocks in files:
            with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as file:
                file.writelines(blocks)
                file.truncate()
        print(summary)
        return 0
    except FloatingPointError as exc:
        record, code = {"error": "parameter_error", "detail": f"input out of range: {exc}"}, 2
    except PeripheralFault as fault:
        record, code = {"error": fault.code.value, "detail": str(fault)}, 1
    except ParameterError as exc:
        record, code = {"error": "parameter_error", "detail": str(exc)}, 2
    except OSError as exc:
        record, code = {"error": "io_error", "detail": str(exc)}, 2
    print(_json(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
