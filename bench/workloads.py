"""Seeded operation lists for the four benchmark workloads, and how one
operation is executed.

A workload is a *round*: a fixed list of strata (kind, n, sf, duty band or
script size).  The seed draws only parameters that leave an op's cost the
same: clock, ripple target, edge delays, a duty inside its stratum's band,
register values and step lengths.  Every seed therefore costs about the
same, and the run repeats the round until its time is used up.  The
program only ever sees the generated argv lists, scripts and API arguments;
the seed itself never reaches it.

Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import random
import warnings
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("cutoff_search", "static_sweep", "periph_script", "point_analysis")

# Register addresses, as documented in mpwmdac.periph.
CTRL, NBITS, DUTY, HRDUTY, STATUS = 0x00, 0x04, 0x08, 0x0C, 0x10
UNMAPPED = 0x14
LOCK_LATENCY = 1024


@dataclass
class Op:
    """One operation of a round.

    kind is "cli" (argv for mpwmdac.cli.main) or "api" (params for the
    library tour).  expect_rc/expect_error give the required exit code and
    error record.
    """

    id: int
    stratum: str
    kind: str
    argv: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    script: str | None = None
    expect_rc: int = 0
    expect_error: str | None = None

    def describe(self) -> dict:
        out = {"id": self.id, "stratum": self.stratum, "kind": self.kind}
        if self.kind == "cli":
            out["argv"] = self.argv
        else:
            out["params"] = self.params
        if self.script is not None:
            out["script"] = self.script
        out["expect_rc"] = self.expect_rc
        if self.expect_error:
            out["expect_error"] = self.expect_error
        return out


def make_ops(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The seeded round of `workload`; identical for identical arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng, tiny)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op.id = i
    return ops


# -- invalid-argument ops --------------------------------------------------------

# (option, value) pairs; every one must end in exit code 2 with a strict-JSON
# parameter_error record.  Each CLI round holds one out-of-range or negative
# value.  The non-finite values are not in the rounds: some are still
# accepted (ROADMAP item 4), and a workload's ops must not fail.  Every run
# probes all of them once, untimed (see defect_probe).
_OUT_OF_RANGE = {
    "cutoff": [("--n", "17"), ("--n", "1"), ("--n", "-4"), ("--sf", "9"),
               ("--ripple-target", "-0.5"), ("--fclk", "-100MHz")],
    "metrics": [("--n", "17"), ("--n", "0"), ("--sf", "12"), ("--tdr", "-1ns"),
                ("--tdf", "-0.5ns"), ("--fclk", "-1MHz"), ("--us", "-1")],
}
_NON_FINITE = {
    "cutoff": [("--ripple-target", "nan"), ("--ripple-target", "inf"),
               ("--ripple-target", "-inf"), ("--fclk", "inf"), ("--fclk", "nan")],
    "metrics": [("--tdr", "nan"), ("--tdf", "inf"), ("--fclk", "inf"),
                ("--fclk", "nan"), ("--us", "nan")],
}
# small n, so a rejected or defective op costs little
_INVALID_BASE = {
    "cutoff": ["--kind", "mpwm", "--n", "6", "--sf", "3"],
    "metrics": ["--kind", "pwm", "--n", "10", "--sf", "0", "--tdr", "1ns"],
}
_COMMAND = {"cutoff_search": "cutoff", "static_sweep": "metrics"}


def _invalid(command: str, pick: tuple[str, str], stratum: str) -> Op:
    opt, value = pick
    argv = list(_INVALID_BASE[command])
    if opt in argv:  # replace a value the base already sets
        i = argv.index(opt)
        del argv[i : i + 2]
    argv.append(f"{opt}={value}")  # '=' keeps argparse from reading '-4' as a flag
    return Op(0, stratum, "cli", [command, *argv], expect_rc=2,
              expect_error="parameter_error")


def defect_probe(workload: str) -> list[Op]:
    """Every non-finite value of the workload's command, in a fixed order.

    run.py executes them once per run after timing and reports each one
    that is not rejected; they are not part of the timed round."""
    command = _COMMAND.get(workload)
    if command is None:
        return []
    return [_invalid(command, pick, "invalid_nonfinite") for pick in _NON_FINITE[command]]


# -- cutoff_search ---------------------------------------------------------------


def _cutoff(rng: random.Random, tiny: bool) -> list[Op]:
    # The search makes the same number of steady_ripple calls for every
    # ripple target in 0.25-1.0, so the seed draws it freely.  sf stays
    # fixed per stratum: high sf rebuilds C_R on every call.  The five
    # strata of 0.5-0.7 s hold the median op between them; sf >= 5 at n=8
    # (0.9 s and up) would cut the executions of the n=10 op, the tail.
    strata = ([("pwm", 5, 0), ("mpwm", 5, 2)] if tiny else
              [("pwm", 8, 0), ("mpwm", 8, 2), ("mpwm", 8, 3), ("mpwm", 8, 4),
               ("pcm", 7, 6), ("mpwm", 10, 2)])
    ops = []
    for kind, n, sf in strata:
        argv = ["cutoff", "--kind", kind, "--n", str(n), "--sf", str(sf),
                "--fclk", rng.choice(["50MHz", "100MHz", "200MHz"]),
                "--ripple-target", f"{rng.uniform(0.25, 1.0):.3f}"]
        ops.append(Op(0, f"{kind}_n{n}_sf{sf}", "cli", argv))
    ops.append(_invalid("cutoff", rng.choice(_OUT_OF_RANGE["cutoff"]), "invalid_range"))
    return ops


# -- static_sweep ----------------------------------------------------------------


def _static(rng: random.Random, tiny: bool) -> list[Op]:
    # High sf rebuilds C_R (2**sf bit reversals) for every duty: the pcm and
    # high-sf mpwm strata carry that cost.  pcm at n=10 (0.7 s), n=11 (3 s)
    # and n=12 (17 s) would leave too few executions of each op in a run.
    strata = ([("pwm", 5, 0), ("mpwm", 5, 2), ("fons", 5, 0), ("pcm", 5, 4)] if tiny else
              [("pcm", 9, 8), ("pwm", 10, 0), ("mpwm", 10, 5), ("fons", 10, 0),
               ("pwm", 11, 0), ("mpwm", 11, 2), ("fons", 11, 0), ("mpwm", 11, 7),
               ("pwm", 12, 0), ("mpwm", 12, 2), ("fons", 12, 0)])
    ops = []
    for kind, n, sf in strata:
        argv = ["metrics", "--kind", kind, "--n", str(n), "--sf", str(sf),
                "--fclk", rng.choice(["50MHz", "100MHz", "200MHz"]),
                "--tdr", rng.choice(["0", "250ps", "0.5ns", "1ns", "2ns"]),
                "--tdf", rng.choice(["0", "100ps", "0.5ns"]),
                "--supply-err", rng.choice(["0", "0.001", "-0.002"])]
        ops.append(Op(0, f"{kind}_n{n}_sf{sf}", "cli", argv))
    ops.append(_invalid("metrics", rng.choice(_OUT_OF_RANGE["metrics"]), "invalid_range"))
    return ops


# -- periph_script ---------------------------------------------------------------


def _slot_config(slot: int) -> tuple[int, int, int, int]:
    """(n, sf) before and after the reconfiguration of script `slot`."""
    n, n2 = 6 + slot % 5, 6 + (slot + 2) % 5
    return n, (3 * slot + 1) % n, n2, (5 * slot + 2) % n2


def _script(rng: random.Random, total: int, slot: int) -> tuple[list[str], dict]:
    """Register program stepping exactly `total` cycles.

    Covers enable, DUTY/HRDUTY writes in the middle of a period, STATUS and
    DUTY reads, and steps from a fraction of a period to many periods.
    Halfway through it disables, reconfigures and re-enables.  The two
    configurations come from the slot, not the seed.  Returns the lines and
    the configuration at the end (for fault injection).
    """
    n, sf, n2, sf2 = _slot_config(slot)
    lines = [f"write 0x{NBITS:02x} {n}",
             f"write 0x{DUTY:02x} {rng.randrange(1 << n)}",
             f"write 0x{HRDUTY:02x} {rng.randrange(16)}",
             f"write 0x{CTRL:02x} 0x{(sf << 4) | 1:02x}",
             f"read 0x{STATUS:02x}"]
    used = 0
    while used < total:
        if n2 and used >= total // 2:
            # disable, idle briefly, reconfigure and re-enable
            lines.append(f"write 0x{CTRL:02x} 0x{sf << 4:02x}")
            idle = min(rng.randint(1, 64), total - used)
            lines.append(f"step {idle}")
            used += idle
            n, sf, n2 = n2, sf2, 0
            lines.append(f"write 0x{NBITS:02x} {n}")
            lines.append(f"write 0x{CTRL:02x} 0x{(sf << 4) | 1:02x}")
            continue
        size = 1 << n
        choice = rng.random()
        if choice < 0.45:
            steps = rng.randint(1, size - 1)  # shorter than one period
        elif choice < 0.8:
            steps = size * rng.randint(1, 4) + rng.randint(0, size - 1)
        else:
            steps = size * rng.randint(8, 64)
        steps = min(steps, total - used)
        lines.append(f"step {steps}")
        used += steps
        action = rng.random()
        if action < 0.5:
            lines.append(f"write 0x{DUTY:02x} {rng.randrange(1 << 16)}")
        elif action < 0.65:
            lines.append(f"write 0x{HRDUTY:02x} {rng.randrange(1 << 8)}")
        elif action < 0.85:
            lines.append(f"read 0x{STATUS:02x}")
        else:
            lines.append(f"read 0x{DUTY:02x}")
    lines.append(f"read 0x{CTRL:02x}")
    return lines, {"n": n, "sf": sf}


def _fault_line(rng: random.Random, state: dict) -> tuple[list[str], str]:
    """Bus accesses that must be rejected with a PeripheralFault (exit 1)."""
    n, sf = state["n"], state["sf"]
    kind = rng.randrange(5)
    if kind == 0:
        return [f"write 0x{UNMAPPED:02x} 1"], "unmapped_address"
    if kind == 1:
        return [f"write 0x{STATUS:02x} 1"], "read_only"
    if kind == 2:
        other = (sf + 1) % n
        return [f"write 0x{CTRL:02x} 0x{(other << 4) | 1:02x}"], "config_locked"
    if kind == 3:
        return [f"write 0x{NBITS:02x} {n}"], "config_locked"
    # disable first, then an NBITS value outside [4, 16]
    return [f"write 0x{CTRL:02x} 0x{sf << 4:02x}",
            f"write 0x{NBITS:02x} {rng.choice([2, 3, 17, 31])}"], "bad_value"


# every one is rejected with exit code 2, the non-finite ones included
_BAD_SCRIPT_LINES = ["step -64", "step 0", "step nan", "step inf", "write 0x08 nan",
                     "write 0x08 -inf"]


def _periph(rng: random.Random, tiny: bool) -> list[Op]:
    def op(stratum: str, lines: list[str], rc: int = 0, error: str | None = None) -> Op:
        return Op(0, stratum, "cli", ["periph"], script="\n".join(lines) + "\n",
                  expect_rc=rc, expect_error=error)

    # Many scripts of one length per round: their edge density, and with it
    # the VCD's cost, follows the seeded duty values, and over 40 scripts
    # that averages out, in the median and in the tail op alike.
    size, count = (4096, 2) if tiny else (16384, 40)
    ops = [op(f"slot{i}", _script(rng, size, i)[0]) for i in range(count)]
    lines, state = _script(rng, size, count)
    fault, code = _fault_line(rng, state)
    ops.append(op("fault", lines + fault + ["step 64"], rc=1, error=code))
    lines, _ = _script(rng, size, count + 1)
    ops.append(op("invalid_value", lines + [rng.choice(_BAD_SCRIPT_LINES)], rc=2,
                  error="parameter_error"))
    return ops


# -- point_analysis --------------------------------------------------------------

# (kind, n, sf, lowest duty as a share of 2**n, cutoff scale, oversample).
# The time-domain steps dominate an op and cost oversample x 2**n samples,
# so the oversample gives every stratum up to n=11 the same 8192 samples a
# period: the ops cost about the same, and the median op is the middle of
# eight, not one op's luck.  n=12 cannot go below oversample 4 and is the
# slowest op.  superpose_coeffs costs duty x 2**(n-1), so each stratum
# draws its duty from a band 1/32 of the codes wide; the n=12 outer product
# (about 300 ms and 60 MB) sets peak_rss_mb.  The cutoff scale changes what
# lsim costs, so it is fixed per stratum too.
_POINT_STRATA = [
    ("pwm", 6, 0, 0.25, 0.75, 128), ("mpwm", 7, 3, 0.5, 1.5, 64),
    ("pcm", 8, 7, 0.75, 1.0, 32), ("mpwm", 9, 2, 0.3, 0.75, 16),
    ("mpwm", 9, 5, 0.6, 1.5, 16), ("pwm", 10, 0, 0.875, 1.0, 8),
    ("mpwm", 10, 4, 0.4, 1.25, 8), ("pcm", 11, 10, 0.7, 0.75, 4),
    ("mpwm", 12, 3, 0.5, 1.0, 4),
]
_TINY_POINT_STRATA = [("pwm", 4, 0, 0.25, 1.0, 16), ("mpwm", 5, 2, 0.5, 1.5, 16),
                      ("pcm", 6, 5, 0.75, 0.75, 16)]


def _point(rng: random.Random, tiny: bool) -> list[Op]:
    ops = []
    for kind, n, sf, share, scale, oversample in (_TINY_POINT_STRATA if tiny
                                                  else _POINT_STRATA):
        size = 1 << n
        low = int(share * size)
        ops.append(Op(0, f"{kind}_n{n}_sf{sf}", "api", params={
            "kind": kind, "n": n, "sf": sf, "duty": rng.randrange(low, low + max(2, size // 32)),
            "f_clk": rng.choice([50e6, 100e6, 200e6]),
            "t_dr": rng.choice([0.0, 0.2e-9, 0.5e-9]),
            "t_df": rng.choice([0.0, 0.1e-9]),
            "t_rise": rng.choice([0.0, 0.5e-9, 1e-9]),
            "t_fall": rng.choice([0.0, 0.5e-9, 1e-9]),
            "f_ct_scale": scale,
            "oversample": oversample,
            "step": rng.choice(["one_lsb", "full_scale"]),
            "band_lsb": round(rng.uniform(0.1, 0.5), 4),
        }))
    return ops


_GENERATORS = {
    "cutoff_search": _cutoff,
    "static_sweep": _static,
    "periph_script": _periph,
    "point_analysis": _point,
}

# One small op per workload, run once before timing starts (and by the
# fresh processes that measure setup_s).
WARMUP = {
    "cutoff_search": Op(-1, "warmup", "cli", ["cutoff", "--kind", "mpwm", "--n", "5",
                                              "--sf", "2"]),
    "static_sweep": Op(-1, "warmup", "cli", ["metrics", "--kind", "mpwm", "--n", "6",
                                             "--sf", "2", "--tdr", "1ns"]),
    "periph_script": Op(-1, "warmup", "cli", ["periph"], script=(
        "write 0x04 6\nwrite 0x08 17\nwrite 0x00 0x21\nstep 2048\n")),
    "point_analysis": Op(-1, "warmup", "api", params={
        "kind": "mpwm", "n": 6, "sf": 2, "duty": 17, "f_clk": 100e6, "t_dr": 0.0,
        "t_df": 0.0, "t_rise": 0.0, "t_fall": 0.0, "f_ct_scale": 1.0, "oversample": 16,
        "step": "one_lsb", "band_lsb": 0.5}),
}


# -- execution -------------------------------------------------------------------


@dataclass
class Outcome:
    """What one execution produced.  rc is None when the call raised."""

    rc: int | None
    stdout: str = ""
    stderr: str = ""
    error: str | None = None
    result: dict | None = None


def prepare(op: Op, workdir: Path) -> list[str]:
    """Write the op's input files and return the full argv (untimed)."""
    out = workdir / f"op{op.id}"
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.iterdir():
        if stale.name != "script.txt":
            stale.unlink()
    argv = list(op.argv)
    if op.script is not None:
        script = out / "script.txt"
        script.write_text(op.script)
        argv += ["--script", str(script)]
    return argv + ["--out", str(out)]


def run_cli(argv: list[str]) -> Outcome:
    """mpwmdac.cli.main in-process, with stdout/stderr captured.

    Warnings are shown on every occurrence so a run repeats a fresh
    process's stderr exactly.  The module attribute is looked up per call so
    a traced run reaches the wrapped entry point.
    """
    import mpwmdac.cli

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            rc = mpwmdac.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the op fails; the benchmark keeps running
            return Outcome(None, out.getvalue(), err.getvalue(), repr(exc))
    return Outcome(rc, out.getvalue(), err.getvalue())


def run_api(params: dict) -> Outcome:
    """The library tour on one (cfg, duty) pair."""
    import mpwmdac as m

    p = params
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numeric warning fails the op
            cfg = m.ModulatorConfig(m.Kind(p["kind"]), p["n"], p["sf"], p["f_clk"])
            wave = m.mpwm_wave(cfg, p["duty"])
            spec_a = m.superpose_coeffs(cfg, p["duty"])
            spec_d = m.dft_period(wave)
            peaks = m.dominant_harmonics(spec_a)
            em = m.EdgeModel(t_dr=p["t_dr"], t_df=p["t_df"], t_rise=p["t_rise"],
                             t_fall=p["t_fall"])
            trace = m.to_analog(wave, em, p["oversample"])
            f_ct = min(0.4, m.cutoff_rule_of_thumb(cfg.n, 0.5) * cfg.sn) * p["f_ct_scale"]
            fm = m.FilterModel(f_ct / cfg.period)
            filtered = m.filter_response(trace, fm, steady_state=True)
            ripple_h = m.steady_ripple(cfg, p["duty"], fm)
            ripple_t = m.steady_ripple(cfg, p["duty"], fm, method="time",
                                       oversample=p["oversample"])
            settle = m.settling_time(fm, step=p["step"], band_lsb=p["band_lsb"],
                                     n_bits=cfg.n)
    except Exception as exc:  # the op fails; the benchmark keeps running
        return Outcome(None, error=repr(exc))
    return Outcome(0, result={
        "cfg": cfg, "fm": fm, "spec_a": spec_a, "spec_d": spec_d, "peaks": peaks,
        "trace": trace, "filtered": filtered, "ripple_h": ripple_h,
        "ripple_t": ripple_t, "settle_s": settle,
    })


def execute(op: Op, argv: list[str]) -> Outcome:
    return run_cli(argv) if op.kind == "cli" else run_api(op.params)
