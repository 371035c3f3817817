"""Output checks, run after each operation's timing has stopped.

Every check compares the program's output with a route the benchmark
computes on its own: a closed-form edge-count law, a full per-duty ripple
sweep at the returned cutoff, a period-at-a-time model of the peripheral
built from tiled ``mpwm_wave`` periods, and the spectral, filter and
settling identities.  Results of recorded seeds are also compared with the
values committed under ``baselines/``: integers exactly, floats within the
tolerances in ``tolerances.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import (CTRL, DUTY, HRDUTY, LOCK_LATENCY, NBITS, STATUS, Op, Outcome)

TOLERANCES = json.loads((Path(__file__).with_name("tolerances.json")).read_text())


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a strict JSON token")


def strict_json(text: str):
    """Parse one RFC 8259 JSON document (no NaN/Infinity tokens)."""
    return json.loads(text, parse_constant=_reject_constant)


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.int64).tobytes()).hexdigest()[:16]


class CheckError(Exception):
    """An output check failed."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _opt(argv: list[str], name: str, default: str | None = None) -> str | None:
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return default


def _config(argv: list[str]):
    from mpwmdac import Kind, ModulatorConfig
    from mpwmdac.cli import parse_freq

    kind = Kind(_opt(argv, "--kind"))
    n = int(_opt(argv, "--n"))
    sf = n - 1 if kind == Kind.PCM else int(_opt(argv, "--sf", "0"))
    return ModulatorConfig(kind, n, sf, parse_freq(_opt(argv, "--fclk", "100MHz")))


# -- per-workload checks ---------------------------------------------------------


def check(op: Op, outcome: Outcome) -> dict:
    """Raise CheckError unless the outcome is right; return the values that
    must repeat exactly across commits (ints, strings) or within tolerance
    (floats)."""
    _require(outcome.error is None, f"raised {outcome.error}")
    if op.kind == "api":
        return _check_point(op, outcome.result)
    _require(outcome.rc == op.expect_rc,
             f"exit code {outcome.rc}, expected {op.expect_rc}; stderr={outcome.stderr[:300]!r}"
             f" stdout={outcome.stdout[:200]!r}")
    if op.expect_rc != 0:
        _require(outcome.stdout == "", f"stdout on error: {outcome.stdout[:200]!r}")
        try:
            record = strict_json(outcome.stderr)
        except ValueError as exc:
            raise CheckError(f"stderr is not one strict JSON record ({exc}): "
                             f"{outcome.stderr[:300]!r}") from None
        _require(record.get("error") == op.expect_error,
                 f"error {record.get('error')!r}, expected {op.expect_error!r}")
        out = {"rc": outcome.rc, "error": record["error"]}
        if op.argv[0] == "periph":
            out.update(_check_periph_fault(op, record))
        return out
    _require(outcome.stderr == "", f"stderr on success: {outcome.stderr[:300]!r}")
    try:
        payload = strict_json(outcome.stdout)
    except ValueError as exc:
        raise CheckError(f"stdout is not strict JSON ({exc}): {outcome.stdout[:300]!r}") from None
    command = op.argv[0]
    if command == "cutoff":
        return _check_cutoff(op, payload)
    if command == "metrics":
        return _check_metrics(op, payload)
    return _check_periph(op, payload)


def _ripple_gap(cfg, duty: int, fm, ripple_h: float) -> float:
    """Relative gap of the harmonic ripple to a finer time-route reference."""
    from mpwmdac import steady_ripple

    ref = steady_ripple(cfg, duty, fm, method="time",
                        oversample=TOLERANCES["ripple_reference_oversample"])
    return abs(ripple_h - ref) / ref


def _check_cutoff(op: Op, payload: dict) -> dict:
    from mpwmdac import FilterModel, steady_ripple

    cfg = _config(op.argv)
    target = float(_opt(op.argv, "--ripple-target"))
    _require((payload["kind"], payload["n"], payload["sf"]) ==
             (cfg.kind.value, cfg.n, cfg.sf), f"config echo {payload}")
    f_ct, f_c = payload["f_ct"], payload["f_c_hz"]
    _require(_rel_close(f_c, f_ct / cfg.period, TOLERANCES["float_rel"]),
             f"f_c_hz {f_c} != f_ct/T {f_ct / cfg.period}")
    fm = FilterModel(f_c)
    ripples = np.array([steady_ripple(cfg, d, fm) for d in range(1, cfg.steps)])
    worst = int(np.argmax(ripples)) + 1
    _require(payload["worst_duty"] == worst,
             f"worst_duty {payload['worst_duty']}, full sweep says {worst}")
    _require(_rel_close(payload["worst_ripple_lsb"], float(ripples.max()),
                        TOLERANCES["float_rel"]), "worst_ripple_lsb differs from the sweep")
    _require(float(ripples.max()) <= target * (1 + TOLERANCES["cutoff_safety_rel"]),
             f"cutoff is not safe: ripple {ripples.max()} > target {target}")
    gap = _ripple_gap(cfg, worst, fm, float(ripples[worst - 1]))
    _require(gap <= TOLERANCES["ripple_gap_rel"], f"ripple gap {gap} too large")
    return {"rc": 0, "worst_duty": worst, "f_ct": f_ct,
            "worst_ripple_lsb": payload["worst_ripple_lsb"], "ripple_gap_rel": gap}


def _check_metrics(op: Op, payload: dict) -> dict:
    from mpwmdac import Kind
    from mpwmdac.cli import parse_time

    cfg = _config(op.argv)
    dw = parse_time(_opt(op.argv, "--tdr", "0")) - parse_time(_opt(op.argv, "--tdf", "0"))
    supply = float(_opt(op.argv, "--supply-err", "0"))
    size = cfg.steps
    duty = np.arange(size)
    # pulses per period: D below the cap, the cap in the middle, 2**n - D above
    cap = size // 2 if cfg.kind == Kind.FONS else cfg.sn
    counts = np.minimum(np.minimum(duty, cap), size - duty)

    lines = Path(payload["curves_file"]).read_text().splitlines()
    header = json.loads(lines[0][len("# config: "):])
    _require((header["kind"], header["n"], header["sf"]) == (cfg.kind.value, cfg.n, cfg.sf),
             f"curves header {header}")
    _require(lines[1] == "duty,edge_count,static_error_lsb", f"curves columns {lines[1]}")
    rows = np.array([line.split(",") for line in lines[2:]], dtype=float)
    _require(rows.shape == (size, 3), f"curves shape {rows.shape}")
    _require(np.array_equal(rows[:, 0], duty), "duty column")
    _require(np.array_equal(rows[:, 1], counts), "edge counts differ from the closed-form law")
    errors = supply * duty + counts * dw * cfg.f_clk
    rel = TOLERANCES["float_rel"]
    _require(np.allclose(rows[:, 2], errors, rtol=rel, atol=1e-12), "static_error_lsb column")

    step = np.abs(np.diff(counts))
    expect = {
        "inl_lsb": counts.max() * abs(dw) * cfg.f_clk,
        "inl_formula_lsb": ((size // 2) if cfg.kind == Kind.FONS else cfg.sn)
        * abs(dw) * cfg.f_clk,
        "dnl_lsb": step.max() * abs(dw) * cfg.f_clk,
        "dnl_formula_lsb": abs(dw) * cfg.f_clk,
    }
    for key, value in expect.items():
        _require(abs(payload[key] - value) <= rel * max(abs(value), 1e-12),
                 f"{key} {payload[key]} != {value}")
    _require(payload["inl_worst_duty"] == int(counts.argmax()), "inl_worst_duty")
    _require(payload["dnl_worst_duty"] == int(step.argmax()), "dnl_worst_duty")
    return {"rc": 0, "edge_digest": digest(counts), "inl_worst_duty": payload["inl_worst_duty"],
            "dnl_worst_duty": payload["dnl_worst_duty"], "inl_lsb": payload["inl_lsb"],
            "dnl_lsb": payload["dnl_lsb"]}


# -- peripheral model --------------------------------------------------------------


class _Fault(Exception):
    def __init__(self, code: str):
        super().__init__(code)
        self.code = code


class PeriphModel:
    """Period-at-a-time model of the register map in mpwmdac.periph: the
    locked output is the generator's period, tiled from the counter position."""

    def __init__(self) -> None:
        self.n, self.sf, self.en = 12, 0, False
        self.duty_shadow = self.hr_shadow = self.duty_active = 0
        self.counter = self.since_en = 0
        self._waves: dict[tuple[int, int, int], np.ndarray] = {}

    def write(self, addr: int, value: int) -> None:
        if value < 0:
            raise _Fault("bad_value")
        if addr == CTRL:
            sf, en = (value >> 4) & 0xF, bool(value & 1)
            if self.en and sf != self.sf:
                raise _Fault("config_locked")
            if en and sf >= self.n:
                raise _Fault("bad_value")
            starting = en and not self.en
            self.sf, self.en = sf, en
            if starting:
                self.counter = self.since_en = 0
                self.duty_active = self.duty_shadow & ((1 << self.n) - 1)
        elif addr == NBITS:
            if self.en:
                raise _Fault("config_locked")
            if not 4 <= value <= 16:
                raise _Fault("bad_value")
            self.n = value
        elif addr == DUTY:
            self.duty_shadow = value & 0xFFFF
        elif addr == HRDUTY:
            self.hr_shadow = value & 0xF
        elif addr == STATUS:
            raise _Fault("read_only")
        else:
            raise _Fault("unmapped_address")

    def read(self, addr: int) -> int:
        return {
            CTRL: (self.sf << 4) | int(self.en), NBITS: self.n, DUTY: self.duty_shadow,
            HRDUTY: self.hr_shadow, STATUS: int(self.en and self.since_en >= LOCK_LATENCY),
        }[addr]

    def _wave(self) -> np.ndarray:
        from mpwmdac import Kind, ModulatorConfig, mpwm_wave

        key = (self.n, self.sf, self.duty_active)
        if key not in self._waves:
            cfg = ModulatorConfig(Kind.MPWM, self.n, self.sf)
            self._waves[key] = mpwm_wave(cfg, self.duty_active).bits
        return self._waves[key]

    def step(self, cycles: int) -> np.ndarray:
        if cycles < 1:
            raise _Fault("parameter_error")
        if not self.en:
            return np.zeros(cycles, dtype=np.uint8)
        parts = []
        left = cycles
        while left:
            size = 1 << self.n
            take = min(left, size - self.counter)
            seg = self._wave()[self.counter : self.counter + take].copy()
            seg[: max(0, min(take, LOCK_LATENCY - self.since_en))] = 0
            parts.append(seg)
            self.counter += take
            self.since_en += take
            left -= take
            if self.counter == size:
                self.counter = 0
                self.duty_active = self.duty_shadow & (size - 1)
        return np.concatenate(parts)

    def run(self, text: str) -> dict:
        """Expected result of the script: bits/reads/registers or the error."""
        chunks, reads = [], []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            try:
                if fields[0] == "write":
                    self.write(int(fields[1], 0), int(fields[2], 0))
                elif fields[0] == "read":
                    addr = int(fields[1], 0)
                    reads.append({"addr": addr, "value": self.read(addr)})
                else:
                    chunks.append(self.step(int(fields[1], 0)))
            except ValueError:
                return {"error": "parameter_error"}
            except _Fault as fault:
                return {"error": fault.code}
        bits = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint8)
        registers = {name: self.read(addr) for name, addr in
                     (("CTRL", CTRL), ("NBITS", NBITS), ("DUTY", DUTY),
                      ("HRDUTY", HRDUTY), ("STATUS", STATUS))}
        return {"bits": bits, "reads": reads, "registers": registers}


def _csv_bits(path: Path) -> np.ndarray:
    data = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    _require(bytes(data[: ends[0]]) == b"cycle,out", "periph CSV header")
    return (data[ends[1:] - 1] - ord("0")).astype(np.uint8)


def _vcd_bits(path: Path) -> np.ndarray:
    lines = path.read_text().splitlines()
    body = lines[lines.index("$enddefinitions $end") + 1 :]
    times = [int(line[1:]) // 10 for line in body if line.startswith("#")]
    values = [int(line[0]) for line in body if line.endswith("!")]
    _require(len(times) == len(values) + 1, "VCD structure")
    return np.repeat(np.array(values, dtype=np.uint8), np.diff(times))


def _check_periph(op: Op, payload: dict) -> dict:
    expected = PeriphModel().run(op.script)
    _require("bits" in expected, f"model expected {expected.get('error')}")
    bits = _csv_bits(Path(payload["csv"]))
    _require(payload["cycles"] == bits.size == expected["bits"].size,
             f"cycle count {payload['cycles']} / {bits.size} / {expected['bits'].size}")
    _require(np.array_equal(bits, expected["bits"]),
             "bit stream differs from tiled mpwm_wave periods")
    _require(np.array_equal(_vcd_bits(Path(payload["vcd"])), bits), "VCD differs from CSV")
    _require(payload["reads"] == expected["reads"], "register reads")
    _require(payload["final_registers"] == expected["registers"], "final registers")
    return {"rc": 0, "bits_digest": digest(bits), "cycles": int(bits.size),
            "reads": [r["value"] for r in payload["reads"]]}


def _check_periph_fault(op: Op, record: dict) -> dict:
    expected = PeriphModel().run(op.script)
    _require(expected.get("error") == record["error"],
             f"model expected {expected.get('error')}, got {record['error']}")
    return {}


# -- library tour ------------------------------------------------------------------


def _check_point(op: Op, r: dict) -> dict:
    cfg, fm, duty = r["cfg"], r["fm"], op.params["duty"]
    spec_a, spec_d = r["spec_a"], r["spec_d"]
    _require(np.max(np.abs(spec_a.coeffs - spec_d.coeffs)) <= TOLERANCES["spectrum_abs"],
             "superpose_coeffs and dft_period disagree")
    _require(abs(spec_a.dc - duty / cfg.steps) <= TOLERANCES["spectrum_abs"], "DC level")
    mags = spec_d.magnitudes()[1:]
    order = np.sort(mags)[::-1]
    peaks = r["peaks"]
    _require(peaks is not None, "no harmonic found for a nonzero duty")
    rel = TOLERANCES["float_rel"]
    _require(_rel_close(abs(spec_d.coeffs[peaks.k1]), order[0], rel), "k1 is not the largest")
    _require(_rel_close(abs(spec_d.coeffs[peaks.k2]), order[1], rel), "k2 is not the second")
    out = r["filtered"].samples
    _require(bool(np.all(np.isfinite(out))), "filter output not finite")
    _require(abs(out.mean() - r["trace"].samples.mean()) <= TOLERANCES["filter_mean_abs"],
             "filter does not preserve the period mean")
    h, t = r["ripple_h"], r["ripple_t"]
    _require(math.isfinite(h) and math.isfinite(t) and h > 0 and t > 0, "ripple values")
    _require(abs(h - t) / t <= TOLERANCES["ripple_routes_rel"],
             f"harmonic {h} and time {t} ripple routes disagree")
    gap = _ripple_gap(cfg, duty, fm, h)
    _require(gap <= TOLERANCES["ripple_gap_rel"], f"ripple gap {gap} too large")
    settle = r["settle_s"]
    band = op.params["band_lsb"]
    b = band if op.params["step"] == "one_lsb" else band / (1 << cfg.n)
    _require(math.isfinite(settle) and settle > 0, "settling time")
    dev = abs(float(fm.unit_step(settle)) - 1.0)
    _require(abs(dev - b) <= TOLERANCES["settling_rel"] * b,
             f"step response deviation {dev} at the settling time, band {b}")
    return {"k1": peaks.k1, "k2": peaks.k2, "ripple_h": h, "ripple_t": t,
            "settle_s": settle, "ripple_gap_rel": gap}


# -- determinism and recorded values ------------------------------------------------


def fingerprint(op: Op, outcome: Outcome, workdir: Path) -> str:
    """Digest of everything an execution produced, to compare repetitions."""
    h = hashlib.sha256()
    h.update(repr((outcome.rc, outcome.stdout, outcome.stderr, outcome.error)).encode())
    out = workdir / f"op{op.id}"
    if op.kind == "cli" and out.is_dir():
        for path in sorted(out.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    if outcome.result:
        r = outcome.result
        for key in ("ripple_h", "ripple_t", "settle_s"):
            h.update(repr(r[key]).encode())
        h.update(r["spec_a"].coeffs.tobytes())
        h.update(r["filtered"].samples.tobytes())
    return h.hexdigest()


def compare_recorded(record: dict, recorded: dict) -> list[str]:
    """Differences between this run's values and the committed ones."""
    problems = []
    for key, want in recorded.items():
        got = record.get(key)
        if isinstance(want, float) and isinstance(got, float):
            if not _rel_close(got, want, TOLERANCES["float_rel"]):
                problems.append(f"{key} {got!r} != recorded {want!r}")
        elif got != want:
            problems.append(f"{key} {got!r} != recorded {want!r}")
    return problems
