"""mpwmdac benchmark: one workload, one seed, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload cutoff_search --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout.  Each operation is an
in-process ``mpwmdac.cli.main(argv)`` call or a public-API call, issued only
after the previous one returned.  Outputs are checked after timing stops.
Untraced times are reported in reference seconds: each execution's host
seconds are scaled by a fixed calibration kernel timed just before and
after it, which takes out most of a shared host's changing speed.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; a failed output check prints
``CHECK FAILED`` lines and exits 1.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracer import MODULES as LAYERS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 3
MIN_ROUNDS = 3  # every op of an untraced run executes at least this often
# Times are reported in reference seconds: host seconds scaled so that the
# calibration kernel takes CALIBRATION_REF_S (see calibration_sample).
CALIBRATION_REF_S = 0.002
CALIBRATION_SAMPLES = 3  # least kernel runs before and after each timing
CALIBRATION_SHARE = 0.1  # and least kernel time on each side, per timed second
_CALIBRATION_DATA = np.random.default_rng(0).random(50_000)

END_TO_END = {
    "setup_s": "s", "run_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB",
}

# name -> unit; README.md says which end-to-end metric each should move.
PER_LAYER = {
    "analog.steady_ripple.calls": "count",
    "analog.steady_ripple.self_s": "s",
    "analog.steady_ripple.us_per_call": "us",
    "analog.steady_ripple.gap_rel": "ratio",
    "metrics.required_cutoff.self_s": "s",
    "metrics.worst_steady_ripple.calls": "count",
    "metrics.required_cutoff.ripple_evals_per_duty": "ratio",
    "modwave.rearranged_counter.calls": "count",
    "modwave.rearranged_counter.self_s": "s",
    "modwave.mpwm_wave.calls": "count",
    "modwave.mpwm_wave.self_s": "s",
    "modwave.fons_wave.self_s": "s",
    "modwave.count_pulses.calls": "count",
    "modwave.count_pulses.self_s": "s",
    "metrics.edge_counts_sweep.calls": "count",
    "metrics.edge_counts_sweep.self_s": "s",
    "metrics.MetricsReport.gather.self_s": "s",
    "spectral.superpose_coeffs.self_s": "s",
    "spectral.dft_period.self_s": "s",
    "spectral.dominant_harmonics.self_s": "s",
    "analog.to_analog.self_s": "s",
    "analog.filter_response.self_s": "s",
    "analog.settling_time.self_s": "s",
    "periph.MpwmPeripheral.step.cycles": "count",
    "periph.MpwmPeripheral.step.self_s": "s",
    "periph.MpwmPeripheral.step.ns_per_cycle": "ns",
    "periph.MpwmPeripheral.reg_write.calls": "count",
    "periph.faults": "count",
    "periph.run_script.self_s": "s",
    "periph.trace_to_csv.self_s": "s",
    "periph.trace_to_vcd.self_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.layer_coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import mpwmdac from src/ of this checkout and nowhere else."""
    if not (SRC / "mpwmdac" / "__init__.py").is_file():
        fail(f"no program sources at {SRC}/mpwmdac; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mpwmdac
    import mpwmdac.cli  # noqa: F401

    if Path(mpwmdac.__file__).resolve().parent != SRC / "mpwmdac":
        fail(f"imported mpwmdac from {mpwmdac.__file__}, not from {SRC}")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "clients": 1, "loop": "closed",
    }


def calibration_sample() -> float:
    """Seconds of one fixed pure-Python and numpy kernel: the host's speed.

    The kernel is the benchmark's own code and the same on every commit.
    On a shared host it runs slower while other tenants load the machine,
    as the program does.
    """
    start = perf_counter()
    total = 0
    for i in range(5_000):
        total += i * i
    np.sort(_CALIBRATION_DATA)
    np.fft.rfft(_CALIBRATION_DATA)
    return perf_counter() - start


def host_scale(before: list[float], after: list[float]) -> float:
    """Factor from host seconds to reference seconds around one timing."""
    return CALIBRATION_REF_S / statistics.fmean(before + after)


def calibrate(seconds: float) -> list[float]:
    """Kernel samples for at least `seconds`, and at least CALIBRATION_SAMPLES."""
    samples = []
    end = perf_counter() + seconds
    while len(samples) < CALIBRATION_SAMPLES or perf_counter() < end:
        samples.append(calibration_sample())
    return samples


def measure_setup(workload: str, workdir: Path) -> tuple[list[float], list[float]]:
    """setup_s samples, each from a fresh process (see setup_probe.py):
    (reference seconds, host seconds)."""
    scaled, raw = [], []
    for i in range(SETUP_PROCESSES):
        before = calibrate(CALIBRATION_SHARE * (raw[-1] if raw else 1.0))
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload,
             str(workdir / f"setup{i}")],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        after = calibrate(CALIBRATION_SHARE * raw[-1])
        scaled.append(raw[-1] * host_scale(before, after))
    return scaled, raw


def tail(values: list[float]) -> tuple[float, float]:
    """(latency, percentile): the highest percentile with at least ten ops
    beyond it.  Up to 20 ops no percentile above the median has ten beyond
    it, and the slowest op (p100) is reported."""
    n = len(values)
    if n <= 20:
        return max(values), 100.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def output_bytes(op, outcome, workdir: Path) -> int:
    total = len(outcome.stdout.encode()) + len(outcome.stderr.encode())
    if op.kind == "cli":
        total += sum(p.stat().st_size for p in (workdir / f"op{op.id}").iterdir()
                     if p.name != "script.txt")
    return total


class Run:
    """The closed loop over a workload's round, plus its bookkeeping."""

    def __init__(self, args, ops, workdir: Path):
        from checks import fingerprint
        from workloads import execute, prepare

        self.args, self.ops, self.workdir = args, ops, workdir
        self._execute, self._fingerprint = execute, fingerprint
        self.argvs = {op.id: prepare(op, workdir) for op in ops}
        self.first: dict[int, object] = {}   # op id -> first outcome
        self.prints: dict[int, list[str]] = {}  # op id -> fingerprint per execution
        self.latencies: list[float] = []  # host seconds, in execution order
        self.by_op: dict[int, list[float]] = {}  # op id -> reference seconds per execution
        self.raw_by_op: dict[int, list[float]] = {}  # op id -> host seconds per execution
        self.calibration: list[float] = []
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.round_times: list[float] = []
        self.bytes_written = 0
        self.tracer = None
        if args.trace:
            from tracer import Tracer
            self.tracer = Tracer()

    def _once(self, op, traced: bool) -> float:
        argv = self.argvs[op.id]
        gc.collect()  # every op starts from the same heap, untimed
        if traced:
            tracer = self.tracer
            tracer.op_id = len(self.traced)
            with tracer.installed(), tracer.span("bench.op"):
                start = perf_counter()
                outcome = self._execute(op, argv)
                elapsed = perf_counter() - start
        else:
            start = perf_counter()
            outcome = self._execute(op, argv)
            elapsed = perf_counter() - start
        # untimed bookkeeping
        self.prints.setdefault(op.id, []).append(self._fingerprint(op, outcome, self.workdir))
        self.first.setdefault(op.id, outcome)
        if traced:
            self.bytes_written += output_bytes(op, outcome, self.workdir)
        return elapsed

    def _calibrated(self, op) -> float:
        """One untraced execution between two calibrations; host seconds."""
        previous = self.raw_by_op.get(op.id, [0.0])[-1]
        before = calibrate(CALIBRATION_SHARE * previous)
        elapsed = self._once(op, False)
        after = calibrate(CALIBRATION_SHARE * elapsed)
        self.calibration += before + after
        self.latencies.append(elapsed)
        self.raw_by_op.setdefault(op.id, []).append(elapsed)
        self.by_op.setdefault(op.id, []).append(elapsed * host_scale(before, after))
        return elapsed

    def loop(self) -> None:
        """Run rounds until `seconds` of wall time have passed.

        Untraced rounds alternate between the CPUs the process may use, so
        an op's latencies do not hinge on one vCPU's neighbours; an op and
        its calibrations share a CPU.
        """
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)
        end = perf_counter() + self.args.seconds
        rnd = 0
        try:
            while self._round(rnd, cpus, end):
                rnd += 1
        finally:
            os.sched_setaffinity(0, allowed)

    def _round(self, rnd: int, cpus: list[int], end: float) -> bool:
        """One round; returns whether another one should start."""
        if not self.tracer:
            os.sched_setaffinity(0, {cpus[rnd % len(cpus)]})
        total = 0.0
        for i, op in enumerate(self.ops):
            if rnd >= MIN_ROUNDS and perf_counter() >= end and not self.tracer:
                return False
            if self.tracer:
                first_traced = (i + rnd) % 2 == 1  # alternate which runs first
                pair = {}
                for traced in ((True, False) if first_traced else (False, True)):
                    pair[traced] = self._once(op, traced)
                self.traced.append(pair[True])
                self.untraced.append(pair[False])
                total += pair[True] + pair[False]
            else:
                total += self._calibrated(op)
        self.round_times.append(total)
        return perf_counter() < end or (not self.tracer and rnd + 1 < MIN_ROUNDS)

    @property
    def executions(self) -> int:
        return sum(len(v) for v in self.prints.values())


def relative(text: str) -> str:
    """Text with the checkout's path written relative to the checkout."""
    return text.replace(f"{ROOT}{os.sep}", "").replace(str(ROOT), ".")


def check_outputs(run: Run, recorded: dict | None) -> dict:
    """Check every op's first output, and that repetitions match it."""
    from checks import CheckError, check, compare_recorded

    records, problems, failed = {}, [], 0
    for op in run.ops:
        if op.id not in run.first:
            continue
        prints = run.prints[op.id]
        try:
            record = check(op, run.first[op.id])
        except CheckError as exc:
            failed += len(prints)
            entry = f"op {op.id} ({op.stratum}) {' '.join(op.argv)}: {exc}"
            problems.append(relative(entry))
            continue
        records[op.id] = record
        repeats = sum(p != prints[0] for p in prints)
        if repeats:
            failed += repeats
            problems.append(f"op {op.id}: {repeats} repetitions differ from the first")
        want = (recorded or {}).get(str(op.id))
        if want and want["record"] is not None:
            if want["op"] != op.describe():
                problems.append(f"op {op.id}: recorded op list differs from the generated one")
            else:
                problems += [f"op {op.id}: {p}" for p in compare_recorded(record, want["record"])]
    return {"records": records, "problems": problems, "failed": failed}


def probe_defects(workload: str, workdir: Path) -> list[str]:
    """Run every non-finite invalid argument once, untimed; one line per
    value that is not rejected with exit code 2 (ROADMAP item 4)."""
    from checks import CheckError, check
    from workloads import defect_probe, execute, prepare

    known = []
    for i, op in enumerate(defect_probe(workload)):
        op.id = 1000 + i
        try:
            check(op, execute(op, prepare(op, workdir)))
        except CheckError as exc:
            entry = f"{' '.join(op.argv)}: {exc}"
            known.append(relative(entry))
    return known


def layer_metrics(run: Run, gaps: list[float]) -> dict[str, float]:
    tr = run.tracer
    rounds = len(run.round_times)

    def per_round(table: dict, name: str) -> float:
        return table.get(name, 0) / rounds

    values = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = per_round(tr.calls, base)
        elif stat == "self_s" and not base.startswith("layer."):
            values[name] = per_round(tr.self_s, base)
    calls = tr.calls.get("analog.steady_ripple", 0)
    values["analog.steady_ripple.us_per_call"] = (
        1e6 * tr.total_s.get("analog.steady_ripple", 0.0) / calls if calls else 0.0)
    values["analog.steady_ripple.gap_rel"] = max(gaps, default=0.0)
    searches = tr.counts.get("metrics.required_cutoff.searches", 0)
    values["metrics.required_cutoff.ripple_evals_per_duty"] = (
        tr.counts["metrics.required_cutoff.ripple_evals_per_duty_sum"] / searches
        if searches else 0.0)
    cycles = tr.counts.get("periph.MpwmPeripheral.step.cycles", 0)
    values["periph.MpwmPeripheral.step.cycles"] = cycles / rounds
    values["periph.MpwmPeripheral.step.ns_per_cycle"] = (
        1e9 * tr.self_s.get("periph.MpwmPeripheral.step", 0.0) / cycles if cycles else 0.0)
    values["periph.faults"] = tr.counts.get("periph.faults", 0) / rounds
    values["cli.bytes_written"] = run.bytes_written / rounds
    layer_total = 0.0
    for layer in LAYERS:
        own = sum(v for k, v in tr.self_s.items() if k.startswith(layer + "."))
        values[f"layer.{layer}.self_s"] = own / rounds
        layer_total += own
    traced_total = sum(run.traced)
    values["trace.layer_coverage_frac"] = layer_total / traced_total
    values["trace.overhead_frac"] = traced_total / sum(run.untraced) - 1.0
    values["trace.spans"] = len(tr.spans)
    return values


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small n and short scripts, for the smoke tests")
    args = parser.parse_args(argv)
    import_program()

    from checks import TOLERANCES
    from workloads import WARMUP, defect_probe, execute, make_ops, prepare

    env = environment(args)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup, setup_raw = ([], []) if args.trace else measure_setup(args.workload, workdir)
        warm = WARMUP[args.workload]
        warm_out = execute(warm, prepare(warm, workdir))
        if warm_out.rc != warm.expect_rc or warm_out.error:
            fail(f"warm-up op failed: rc={warm_out.rc} {warm_out.error} {warm_out.stderr}")
        ops = make_ops(args.workload, args.seed, args.tiny)
        run = Run(args, ops, workdir)
        run.loop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tag = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.tiny else "")
        baseline = BENCH / "baselines" / f"{tag}.json"
        recorded = json.loads(baseline.read_text())["ops"] if baseline.is_file() else None
        checked = check_outputs(run, recorded)
        known_defects = probe_defects(args.workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    gaps = [r["ripple_gap_rel"] for r in checked["records"].values() if "ripple_gap_rel" in r]
    attempted = run.executions
    lines = [f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} ops/round={len(ops)} rounds={len(run.round_times)} "
             f"executions={attempted}",
             "environment " + json.dumps(env, sort_keys=True)]
    if args.trace:
        values = layer_metrics(run, gaps)
        units = PER_LAYER
        coverage = values["trace.layer_coverage_frac"]
        lines.append(f"  per-layer values are per round ({len(run.round_times)} traced rounds); "
                     f"layer self times cover {coverage:.1%} of traced op time "
                     f"(stated share >= {TOLERANCES['layer_coverage_min']:.0%})")
        if coverage < TOLERANCES["layer_coverage_min"]:
            lines.append("  WARNING: layer self times cover less than the stated share")
        samples = {}
    else:
        # an op's latency is the median of its executions in reference seconds
        per_op = [statistics.median(v) for v in run.by_op.values()]
        host = [statistics.median(v) for v in run.raw_by_op.values()]
        reps = min(map(len, run.by_op.values()))
        tail_s, tail_pct = tail(per_op)
        host_tail, _ = tail(host)
        values = {
            "setup_s": statistics.median(setup),
            "run_s": sum(per_op),
            "op_p50_s": statistics.median(per_op),
            "op_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        each = f"each the median of its {reps}+ executions"
        samples = {
            "setup_s": f"median of {len(setup)} fresh processes "
                       f"(host {statistics.median(setup_raw):.4g} s)",
            "run_s": f"sum over the {len(per_op)} ops of a round, {each} "
                     f"(host {sum(host):.4g} s)",
            "op_p50_s": f"p50 of {len(per_op)} ops, {each} "
                        f"(host {statistics.median(host):.4g} s)",
            "op_tail_s": f"p{tail_pct:.1f} of {len(per_op)} ops "
                         f"({sum(v > tail_s for v in per_op)} beyond it; host {host_tail:.4g} s)",
            "peak_rss_mb": "ru_maxrss when the timed loop ends",
        }
        cal = run.calibration
        lines.append(f"  times in reference seconds: host seconds x {CALIBRATION_REF_S * 1e3:g} ms "
                     f"/ calibration kernel mean around each timing; kernel median "
                     f"{statistics.median(cal) * 1e3:.3f} ms over {len(cal)} samples")
    for name, value in values.items():
        lines.append(f"  {name:48s} {value:14.6g} {units[name]:6s} {samples.get(name, '')}")
    failed = checked["failed"]
    lines.append(f"  failed_ops_frac {failed / attempted:.4f} ({failed}/{attempted}); "
                 f"largest ripple_gap_rel {max(gaps, default=0.0):.3g} over {len(gaps)} ops")
    probed = len(defect_probe(args.workload))
    if probed:
        lines.append(f"  non-finite inputs probed untimed, outside the round: {probed}, "
                     f"accepted although invalid: {len(known_defects)}")
    for entry in known_defects:
        lines.append(f"  KNOWN DEFECT (non-finite input accepted): {entry}")
    for entry in checked["problems"]:
        lines.append(f"  CHECK FAILED: {entry}")
    print("\n".join(lines))
    if checked["problems"]:
        print("\n".join(checked["problems"]), file=sys.stderr)

    correct = not checked["problems"]
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    full = {
        "environment": env, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "samples": samples, "latencies_s": run.latencies or run.traced,
        "round_times_s": run.round_times, "calibration_s": run.calibration,
        "setup_samples_s": setup, "setup_host_s": setup_raw,
        "known_defects": known_defects, "problems": checked["problems"],
        "ops": {str(op.id): {"op": op.describe(), "record": checked["records"].get(op.id)}
                for op in ops},
    }
    (out_dir / f"{tag}-trace{args.trace}.json").write_text(json.dumps(full, indent=1) + "\n")
    if run.tracer is not None:
        run.tracer.write(out_dir / f"{tag}-spans.csv.gz")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
