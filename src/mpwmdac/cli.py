"""Command-line front end.

Commands: gen, spectrum, metrics, cutoff, settle, repro, periph.  Outputs
are deterministic: every data file starts with a `# config:` header carrying
the full resolved parameters (no timestamps), so identical invocations
produce byte-identical files.  Summaries print to stdout as JSON; errors
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
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analog import EdgeModel, FilterModel, IDEAL_EDGES, settling_time, to_analog
from .errors import ParameterError
from .metrics import MetricsReport, conversion_rate, required_cutoff
from .modwave import DutyCode, EdgeList, Kind, ModulatorConfig, count_pulses, generate
from .periph import PeripheralFault, run_script, trace_to_csv, trace_to_vcd
from .spectral import dominant_harmonics, superpose_coeffs

_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12}
_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def _parse_with_units(text: str, units: dict[str, float], what: str) -> float:
    s = text.strip()
    for suffix in sorted(units, key=len, reverse=True):
        if s.lower().endswith(suffix):
            number = s[: len(s) - len(suffix)].strip()
            try:
                return float(number) * units[suffix]
            except ValueError:
                raise ParameterError(f"cannot parse {what} value {text!r}") from None
    try:
        return float(s)
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
    """Strict RFC 8259 JSON with sorted keys; a NaN or infinity raises."""
    return json.dumps(obj, sort_keys=True, allow_nan=False, **kwargs)


def _write_csv(path: Path, config: dict, write_body) -> None:
    """Write the `# config:` header line, then the CSV that write_body(fp) emits."""
    buf = io.StringIO()
    buf.write("# config: " + _json(config) + "\n")
    write_body(buf)
    path.write_text(buf.getvalue())


def _write_table(path: Path, config: dict, columns: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "json":
        payload = {"config": config, "rows": [dict(zip(columns, r)) for r in rows]}
        path.write_text(_json(payload, indent=2) + "\n")
        return

    def write_rows(fp: io.TextIOBase) -> None:
        for row in [columns, *rows]:
            fp.write(",".join(str(v) for v in row) + "\n")

    _write_csv(path, config, write_rows)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _build_config(args) -> ModulatorConfig:
    kind = Kind(args.kind)
    sf = args.sf
    if kind == Kind.PCM:
        sf = args.n - 1
    fine_bits = args.fine_bits
    if fine_bits is None:
        fine_bits = 4 if kind == Kind.HRMPWM else 0
    return ModulatorConfig(kind, args.n, sf, parse_freq(args.fclk), fine_bits)


def _edge_model(args) -> EdgeModel:
    return EdgeModel(
        t_dr=parse_time(args.tdr),
        t_df=parse_time(args.tdf),
        t_rise=parse_time(args.trise),
        t_fall=parse_time(args.tfall),
        u_s=args.us,
        supply_rel_err=args.supply_err,
    )


def _resolved(args, cfg: ModulatorConfig, **extra) -> dict:
    config = {
        "command": args.command,
        "kind": cfg.kind.value,
        "n": cfg.n,
        "sf": cfg.sf,
        "f_clk_hz": cfg.f_clk,
        "fine_bits": cfg.fine_bits,
    }
    config.update(extra)
    return config


# -- commands -----------------------------------------------------------------


def cmd_gen(args) -> int:
    cfg = _build_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    for duty in args.duty:
        wave = generate(cfg, DutyCode(duty, args.fine))
        config = _resolved(args, cfg, duty=duty, fine=args.fine)
        if isinstance(wave, EdgeList):
            stem = f"edges_{cfg.kind.value}_n{cfg.n}_sf{cfg.sf}_d{duty}_f{args.fine}"
            columns = ["time_s", "polarity"]
            rows = [
                [_fmt(t), "rising" if r else "falling"]
                for t, r in zip(wave.times, wave.risings)
            ]
            high = wave.high_time()
        else:
            stem = f"bits_{cfg.kind.value}_n{cfg.n}_sf{cfg.sf}_d{duty}"
            columns = ["cycle", "bit"]
            rows = [[i, int(b)] for i, b in enumerate(wave.bits)]
            high = wave.duty_count / cfg.f_clk
        path = out_dir / f"{stem}.{args.format}"
        _write_table(path, config, columns, rows, args.format)
        entry = {
            "duty": duty, "file": str(path), "pulses": count_pulses(wave), "high_time_s": high,
        }
        if args.trace:
            trace = to_analog(wave, IDEAL_EDGES, args.oversample)
            trace_path = out_dir / f"trace_{stem}.csv"
            _write_csv(trace_path, {**config, "oversample": args.oversample}, trace.write_csv)
            entry["trace_file"] = str(trace_path)
        summary.append(entry)
    print(_json({"generated": summary}))
    return 0


def cmd_spectrum(args) -> int:
    cfg = _build_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = superpose_coeffs(cfg, args.duty, k_max=args.kmax)
    config = _resolved(args, cfg, duty=args.duty, k_max=spec.k_max)
    path = out_dir / f"spectrum_{cfg.kind.value}_n{cfg.n}_sf{cfg.sf}_d{args.duty}.csv"
    _write_csv(path, config, spec.write_csv)
    summary = {"file": str(path), "dc": spec.dc, "fundamental_hz": spec.fundamental_hz}
    peaks = dominant_harmonics(spec)
    if peaks is None:
        summary["no_harmonic"] = True
    else:
        summary.update(
            k1=peaks.k1,
            f1_hz=peaks.f1,
            amp1_over_dc=peaks.amp1_over_dc,
            k2=peaks.k2,
            f2_hz=peaks.f2,
            amp2_over_dc=peaks.amp2_over_dc,
        )
    print(_json(summary))
    return 0


def cmd_metrics(args) -> int:
    cfg = _build_config(args)
    em = _edge_model(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fm = FilterModel(parse_freq(args.fc)) if args.fc else None
    report = MetricsReport.gather(
        cfg, em, fm=fm, ripple_target=args.ripple_target, band_lsb=args.band
    )
    config = _resolved(
        args, cfg, t_dr_s=em.t_dr, t_df_s=em.t_df, u_s=em.u_s,
        supply_rel_err=em.supply_rel_err,
    )
    path = out_dir / f"metrics_{cfg.kind.value}_n{cfg.n}_sf{cfg.sf}.csv"
    _write_csv(path, config, report.write_curves_csv)
    summary = report.summary()
    summary["curves_file"] = str(path)
    print(_json(summary))
    return 0


def cmd_cutoff(args) -> int:
    cfg = _build_config(args)
    result = required_cutoff(cfg, args.ripple_target)
    payload = {"kind": cfg.kind.value, "n": cfg.n, "sf": cfg.sf}
    payload.update((k, v) for k, v in asdict(result).items() if v is not None)
    print(_json(payload))
    return 0


def cmd_settle(args) -> int:
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
    if args.response_table:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "filter_response.csv"
        grid = fm.f_c * np.logspace(-2, 3, 101)
        _write_csv(path, {"command": "settle", "f_c_hz": fm.f_c},
                   lambda fp: fm.write_response_table(fp, grid))
        payload["response_table"] = str(path)
    print(_json(payload))
    return 0


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
    columns = [
        "n", "sf", "f_ct_required", "f_c_hz", "worst_duty",
        "worst_ripple_lsb", "rule_of_thumb_f_ct",
    ]
    rows = []
    for cfg, res in _repro_cutoffs(args):
        rule = res.rule_of_thumb_f_ct
        rows.append(
            [
                cfg.n, cfg.sf, _fmt(res.f_ct), _fmt(res.f_c_hz), res.worst_duty,
                _fmt(res.worst_ripple_lsb),
                _fmt(rule) if rule is not None else "",
            ]
        )
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
        rows.append([cfg.kind.value, n, cfg.sf, _fmt(report.inl_lsb), _fmt(report.dnl_lsb)])
    config = {"n": n, "t_dr_s": em.t_dr, "t_df_s": em.t_df, "f_clk_hz": f_clk}
    return config, ["kind", "n", "sf", "inl_lsb", "dnl_lsb"], rows


def _repro_settling(args) -> tuple[dict, list[str], list[list]]:
    rows = []
    for cfg, res in _repro_cutoffs(args):
        rate, settle = conversion_rate(cfg, FilterModel(res.f_c_hz), band_lsb=args.band)
        rows.append([cfg.n, cfg.sf, _fmt(res.f_ct), _fmt(res.f_c_hz), _fmt(settle), _fmt(rate)])
    config = {
        "n_list": args.n_list, "sf_list": args.sf_list,
        "ripple_target_lsb": args.ripple_target, "band_lsb": args.band,
    }
    columns = ["n", "sf", "f_ct_required", "f_c_hz", "settling_s", "max_conversion_rate_hz"]
    return config, columns, rows


def cmd_repro(args) -> int:
    builders = {
        "cutoff_vs_resolution": _repro_cutoff,
        "inl_dnl": _repro_inl_dnl,
        "settling": _repro_settling,
    }
    if args.figure not in builders:
        raise ParameterError(
            f"unknown figure {args.figure!r}; choose from {sorted(builders)}"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config, columns, rows = builders[args.figure](args)
    path = out_dir / f"repro_{args.figure}.{args.format}"
    _write_table(path, {"command": "repro", "figure": args.figure, **config}, columns, rows,
                 args.format)
    print(_json({"figure": args.figure, "file": str(path)}))
    return 0


def cmd_periph(args) -> int:
    script = Path(args.script).read_text()
    result = run_script(script)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    vcd_path = out_dir / "periph_trace.vcd"
    csv_path = out_dir / "periph_trace.csv"
    vcd_path.write_text(trace_to_vcd(result.bits))
    csv_path.write_text(trace_to_csv(result.bits))
    payload = {
        "cycles": int(result.bits.size),
        "reads": [{"addr": a, "value": v} for a, v in result.reads],
        "final_registers": result.final_registers,
        "vcd": str(vcd_path),
        "csv": str(csv_path),
    }
    print(_json(payload))
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    mod.add_argument("--sf", type=int, default=0)
    mod.add_argument("--fclk", default="100MHz")
    mod.add_argument("--fine-bits", dest="fine_bits", type=int, default=None,
                     help="fine delay-line bits (hrmpwm only; default 4)")

    edges = argparse.ArgumentParser(add_help=False)
    edges.add_argument("--tdr", default="0", help="rising-edge delay (e.g. 1ns)")
    edges.add_argument("--tdf", default="0", help="falling-edge delay")
    edges.add_argument("--trise", default="0", help="10-90%% rise time")
    edges.add_argument("--tfall", default="0", help="10-90%% fall time")
    edges.add_argument("--us", type=float, default=1.0, help="supply voltage")
    edges.add_argument("--supply-err", dest="supply_err", type=float, default=0.0)

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

    p = sub.add_parser("metrics", parents=[common, mod, edges],
                       help="static error, INL, DNL")
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
    p.add_argument("--figure", required=True)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
