"""Peripheral emulation tests: stream equivalence, buffering, fault atomicity."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpwmdac import ModulatorConfig, ParameterError, mpwm_wave, periph
from mpwmdac.cli import main
from mpwmdac.periph import (
    ADDR_CTRL,
    ADDR_DUTY,
    ADDR_HRDUTY,
    ADDR_NBITS,
    ADDR_STATUS,
    FINE_BITS,
    LOCK_LATENCY_CYCLES,
    FaultCode,
    MpwmPeripheral,
    PeripheralFault,
    run_script,
    trace_to_csv,
    trace_to_vcd,
)


def enabled_periph(n: int, sf: int, duty: int) -> MpwmPeripheral:
    p = MpwmPeripheral()
    p.reg_write(ADDR_NBITS, n)
    p.reg_write(ADDR_DUTY, duty)
    p.reg_write(ADDR_CTRL, (sf << 4) | 1)
    return p


def locked_stream(p: MpwmPeripheral, n: int, periods: int = 1) -> np.ndarray:
    """Step past the lock latency to the next period boundary, then capture."""
    size = 1 << n
    warmup = LOCK_LATENCY_CYCLES
    warmup += (-warmup) % size  # advance to a period boundary
    pre = p.step(warmup)
    assert not np.any(pre[:LOCK_LATENCY_CYCLES])
    return p.step(periods * size)


def test_stream_equals_pure_generator():
    for n, sf, duty in ((12, 3, 100), (12, 0, 2048), (10, 5, 700), (8, 7, 255)):
        p = enabled_periph(n, sf, duty)
        stream = locked_stream(p, n, periods=2)
        wave = mpwm_wave(ModulatorConfig.mpwm(n, sf), duty).bits
        assert np.array_equal(stream, np.tile(wave, 2)), (n, sf, duty)


def test_stream_duty_exactness():
    p = enabled_periph(12, 3, 100)
    period = locked_stream(p, 12)
    assert int(period.sum()) == 100


def test_duty_write_latches_at_period_boundary():
    n, sf = 8, 2
    p = enabled_periph(n, sf, 37)
    locked_stream(p, n, periods=1)  # consume warmup + one full period
    half = p.step(128)
    p.reg_write(ADDR_DUTY, 200)  # mid-period write
    rest = p.step(128)
    old = mpwm_wave(ModulatorConfig.mpwm(n, sf), 37).bits
    assert np.array_equal(np.concatenate([half, rest]), old)
    new = p.step(256)
    assert np.array_equal(new, mpwm_wave(ModulatorConfig.mpwm(n, sf), 200).bits)


def test_duty_visible_before_enable():
    p = MpwmPeripheral()
    p.reg_write(ADDR_NBITS, 8)
    p.reg_write(ADDR_DUTY, 99)
    assert p.reg_read(ADDR_DUTY) == 99
    p.reg_write(ADDR_CTRL, 1)
    assert int(locked_stream(p, 8).sum()) == 99


def test_lock_latency_boundary():
    p = enabled_periph(12, 0, 10)
    p.step(LOCK_LATENCY_CYCLES - 1)
    assert p.reg_read(ADDR_STATUS) == 0
    p.step(1)
    assert p.reg_read(ADDR_STATUS) == 1


def test_output_low_until_locked():
    p = enabled_periph(12, 0, 4095)  # nearly always-high once running
    pre = p.step(LOCK_LATENCY_CYCLES)
    assert not np.any(pre)
    post = p.step(16)
    assert np.all(post == 1)


def test_step_disabled_emits_zeros():
    p = MpwmPeripheral()
    assert not np.any(p.step(500))
    with pytest.raises(ParameterError, match="cycles"):
        p.step(0)


def test_determinism():
    runs = []
    for _ in range(2):
        p = enabled_periph(10, 4, 321)
        runs.append(locked_stream(p, 10, periods=3))
    assert np.array_equal(runs[0], runs[1])


def test_reserved_bits_read_back_zero():
    p = MpwmPeripheral()
    p.reg_write(ADDR_CTRL, 0xFE)  # reserved bits set, EN clear
    assert p.reg_read(ADDR_CTRL) == 0xF0
    p.reg_write(ADDR_HRDUTY, 0x7F)
    assert p.reg_read(ADDR_HRDUTY) == 0xF
    assert p.reg_read(ADDR_HRDUTY) < (1 << FINE_BITS)


@pytest.mark.parametrize(
    "setup,addr,value,code",
    [
        (False, ADDR_STATUS, 1, FaultCode.READ_ONLY),
        (True, ADDR_NBITS, 10, FaultCode.CONFIG_LOCKED),
        (True, ADDR_CTRL, (5 << 4) | 1, FaultCode.CONFIG_LOCKED),
        (False, 0x20, 1, FaultCode.UNMAPPED_ADDRESS),
        (False, ADDR_NBITS, 3, FaultCode.BAD_VALUE),
        (False, ADDR_NBITS, 17, FaultCode.BAD_VALUE),
        (False, ADDR_CTRL, (9 << 4) | 1, FaultCode.BAD_VALUE),  # SF >= n=8
        (False, ADDR_DUTY, -1, FaultCode.BAD_VALUE),
        (False, 0.0, 0x21, FaultCode.UNMAPPED_ADDRESS),  # once enabled the DAC
        (False, False, 0x21, FaultCode.UNMAPPED_ADDRESS),
        (False, "0", 0x21, FaultCode.UNMAPPED_ADDRESS),
        (False, None, 1, FaultCode.UNMAPPED_ADDRESS),
        (False, ADDR_DUTY, 1.5, FaultCode.BAD_VALUE),  # once a bare TypeError
        (False, ADDR_DUTY, 3.0, FaultCode.BAD_VALUE),
        (False, ADDR_DUTY, True, FaultCode.BAD_VALUE),
        (False, ADDR_DUTY, "3", FaultCode.BAD_VALUE),
        (True, ADDR_DUTY, None, FaultCode.BAD_VALUE),
    ],
)
def test_faults_are_distinct_and_atomic(setup, addr, value, code):
    p = MpwmPeripheral()
    p.reg_write(ADDR_NBITS, 8)
    p.reg_write(ADDR_DUTY, 40)
    if setup:
        p.reg_write(ADDR_CTRL, (2 << 4) | 1)
        p.step(17)
    before = p.snapshot()
    with pytest.raises(PeripheralFault) as err:
        p.reg_write(addr, value)
    assert err.value.code == code
    assert p.snapshot() == before


def test_read_unmapped_faults():
    p = MpwmPeripheral()
    with pytest.raises(PeripheralFault) as err:
        p.reg_read(0x44)
    assert err.value.code == FaultCode.UNMAPPED_ADDRESS


@pytest.mark.parametrize("addr", [8.0, True, "8", None, -1])
def test_read_refuses_non_integer_addresses(addr):
    p = MpwmPeripheral()
    p.reg_write(ADDR_DUTY, 40)
    with pytest.raises(PeripheralFault) as err:
        p.reg_read(addr)  # 8.0 once read DUTY
    assert err.value.code == FaultCode.UNMAPPED_ADDRESS


def test_bus_takes_numpy_words():
    p = MpwmPeripheral()
    p.reg_write(np.int64(ADDR_DUTY), np.uint16(40))
    p.reg_write(np.uint8(ADDR_CTRL), np.int32(0x21))
    assert p.reg_read(np.int64(ADDR_DUTY)) == 40
    assert p.reg_read(ADDR_CTRL) == 0x21


def test_run_script_matches_generator():
    n, sf, duty = 12, 3, 100
    size = 1 << n
    warmup = LOCK_LATENCY_CYCLES + ((-LOCK_LATENCY_CYCLES) % size)
    script = f"""
# configure and enable
write 0x04 {n}
write 0x08 {duty}
write 0x00 0x{(sf << 4) | 1:02X}
step {warmup}
step {size}
read 0x10
"""
    result = run_script(script)
    tail = result.bits[-size:]
    wave = mpwm_wave(ModulatorConfig.mpwm(n, sf), duty).bits
    assert np.array_equal(tail, wave)
    assert result.reads == [(ADDR_STATUS, 1)]
    assert result.final_registers["DUTY"] == duty


def test_run_script_empty():
    result = run_script("\n# nothing\n")
    assert result.bits.size == 0
    assert result.final_registers["NBITS"] == 12


def test_run_script_syntax_error_names_line():
    with pytest.raises(ParameterError, match="line 3"):
        run_script("write 0x04 8\nstep 4\nfrobnicate 1 2\n")


@pytest.mark.parametrize("cycles", ["0", "-3", "0x0"])
def test_run_script_names_cycles_for_a_step_below_one(cycles, tmp_path):
    # these were once reported as "script syntax error at line 3"
    text = f"write 0x04 8\nstep 4\nstep {cycles}\n"
    with pytest.raises(ParameterError, match="^line 3: cycles must be"):
        run_script(text)
    (tmp_path / "prog.txt").write_text(text)
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        assert main(["periph", "--script", str(tmp_path / "prog.txt"), "--out", str(tmp_path)]) == 2
    assert json.loads(stderr.getvalue())["error"] == "parameter_error"


def test_run_script_bounds_its_total_cycles():
    assert run_script("step 16\nstep 4194288\n").bits.size == 1 << 22
    with pytest.raises(ParameterError, match="line 2: the script steps more than 4194304"):
        run_script("step 16\nstep 4194289\n")


def test_run_script_fault_names_line():
    with pytest.raises(PeripheralFault, match="line 2") as err:
        run_script("write 0x04 8\nwrite 0x10 1\n")
    assert err.value.code == FaultCode.READ_ONLY


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 12), st.data())
def test_script_matches_period_at_a_time_model(n, data):
    # n <= 10 puts the lock instant on a period boundary, n >= 11 inside one
    size = 1 << n
    sf = data.draw(st.integers(0, n - 1))
    duty = data.draw(st.integers(0, 0xFFFF))
    # the second step straddles the lock instant
    first = data.draw(st.integers(1, LOCK_LATENCY_CYCLES - 1))
    rest = LOCK_LATENCY_CYCLES - first
    steps = [first, data.draw(st.integers(rest + 1, rest + 2 * size))]
    steps += data.draw(st.lists(st.integers(1, 3 * size), max_size=8))
    writes = [data.draw(st.none() | st.integers(0, 0xFFFF)) for _ in steps]
    # one step ends exactly on a period boundary and is followed by a write
    j = data.draw(st.integers(2, len(steps)))
    steps.insert(j, size - sum(steps[:j]) % size)
    writes.insert(j, data.draw(st.integers(0, 0xFFFF)))

    lines = [f"write 0x04 {n}", f"write 0x08 {duty}", f"write 0x00 0x{(sf << 4) | 1:02X}"]
    for cycles, value in zip(steps, writes):
        lines.append(f"step {cycles}")
        if value is not None:
            lines.append(f"write 0x08 {value}")
    periph = MpwmPeripheral()
    result = run_script("\n".join(lines), periph)

    # Period k plays the last DUTY written strictly before its first cycle:
    # a write right after a step that ends on a boundary waits one period.
    total = sum(steps)
    ends = np.cumsum(steps)
    latched = []
    for k in range(-(-total // size)):
        shadow = duty
        for end, value in zip(ends, writes):
            if value is not None and end < k * size:
                shadow = value
        latched.append(shadow & (size - 1))
    cfg = ModulatorConfig.mpwm(n, sf)
    expected = np.concatenate([mpwm_wave(cfg, d).bits for d in latched])[:total]
    expected[:LOCK_LATENCY_CYCLES] = 0
    assert np.array_equal(result.bits, expected)
    assert periph.snapshot()["counter"] == total % size
    assert result.final_registers["STATUS"] == 1


def test_vcd_and_csv_dumps():
    bits = np.array([0, 0, 1, 1, 0], dtype=np.uint8)
    vcd = trace_to_vcd(bits)
    assert "$timescale 1ns $end" in vcd
    assert "#20\n1!" in vcd
    assert "#40\n0!" in vcd
    csv = trace_to_csv(bits)
    lines = csv.splitlines()
    assert lines[0] == "cycle,out"
    assert lines[1:] == ["0,0", "1,0", "2,1", "3,1", "4,0"]


def csv_reference(bits) -> str:
    """The CSV dump built one row at a time from f-strings."""
    rows = (f"{i},{b}\n" for i, b in enumerate(np.asarray(bits).astype(int).tolist()))
    return "".join(["cycle,out\n", *rows])


def vcd_reference(bits) -> str:
    """The VCD dump built one edge at a time from f-strings."""
    bits = np.asarray(bits).astype(int).tolist()
    lines = [
        "$timescale 1ns $end",
        "$scope module mpwm_dac $end",
        "$var wire 1 ! out $end",
        "$upscope $end",
        "$enddefinitions $end",
        "#0",
        f"{bits[0] if bits else 0}!",
    ]
    for i in range(1, len(bits)):
        if bits[i] != bits[i - 1]:
            lines += (f"#{10 * i}", f"{bits[i]}!")
    if bits:
        lines.append(f"#{10 * len(bits)}")
    return "\n".join(lines) + "\n"


def _same_dump(got: str, want: str) -> None:
    """Assert got == want by the index of the first differing line and the line counts,
    with the two lines on failure: pytest's diff of two 100k-row dumps ran for minutes."""
    got, want = got.split("\n"), want.split("\n")  # equal lists only for equal strings
    wrong = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert (wrong, len(got)) == (None, len(want)), wrong is not None and (got[wrong], want[wrong])


# each digit width's first and last row, and last blocks that stop mid-decade
@pytest.mark.parametrize("size", [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10001,
                                  12345, 16384, 99999, 100000, 100001, 123457])
def test_csv_dump_equals_per_row_format(size):
    rng = np.random.default_rng(size)
    bits = rng.integers(0, 2, size)
    _same_dump(trace_to_csv(bits), csv_reference(bits))
    wide = rng.integers(0, 256, size).astype(np.uint8)
    if np.any(wide > 1):
        with pytest.raises(ParameterError, match="bits must be 0 or 1"):
            trace_to_csv(wide)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1 << 17), st.integers(0, 2**32 - 1))
def test_csv_dump_of_any_length_equals_per_row_format(size, seed):
    bits = np.random.default_rng(seed).integers(0, 2, size)
    _same_dump(trace_to_csv(bits), csv_reference(bits))


# every change of digit width in the edge times 10 * i, and in the closing time
@pytest.mark.parametrize("size", [0, 1, 2, 9, 10, 11, 99, 100, 101, 1001, 12345, 16384, 123457])
def test_vcd_dump_equals_per_edge_format(size):
    rng = np.random.default_rng(size)
    for bits in (rng.integers(0, 2, size), np.zeros(size, np.uint8), np.ones(size, np.uint8)):
        _same_dump(trace_to_vcd(bits), vcd_reference(bits))


def test_dumps_take_bool_bits():
    bits = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    assert trace_to_csv(bits.astype(bool)) == trace_to_csv(bits)
    assert trace_to_vcd(bits.astype(bool)) == trace_to_vcd(bits)


@pytest.mark.parametrize("dump", [trace_to_csv, trace_to_vcd])
@pytest.mark.parametrize("bits, match", [
    (np.array([256, 1, -1]), "got 256 at index 0"),
    ([0, 2, 0], "got 2 at index 1"),
    ([0.7], "got 0.7 at index 0"),
    (np.zeros((2, 3), dtype=np.uint8), r"got shape \(2, 3\)"),
])
def test_dumps_refuse_anything_but_0_1_bits(dump, bits, match):
    with pytest.raises(ParameterError, match=match):
        dump(bits)


def test_cli_periph_files_equal_per_row_format(tmp_path, capsys):
    script = tmp_path / "prog.txt"
    script.write_text(
        "write 0x04 6\nwrite 0x08 20\nwrite 0x00 0x21\nstep 1500\n"
        "write 0x00 0x20  # disable\nstep 77\n"
        "write 0x04 8\nwrite 0x08 100\nwrite 0x00 0x30  # reconfigure\nstep 5\n"
        "write 0x00 0x31  # re-enable\nstep 2000\n"
    )
    assert main(["periph", "--script", str(script), "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["cycles"] == 3582
    bits = run_script(script.read_text()).bits
    assert bits[:1024].sum() == bits[1500:2606].sum() == 0 and bits[-256:].sum() == 100
    assert (tmp_path / "periph_trace.csv").read_bytes() == csv_reference(bits).encode()
    assert (tmp_path / "periph_trace.vcd").read_bytes() == vcd_reference(bits).encode()


def test_every_mapped_register_reads_back_its_named_value():
    p = enabled_periph(8, 3, 100)
    p.reg_write(ADDR_HRDUTY, 9)
    p.step(LOCK_LATENCY_CYCLES)
    names = {ADDR_CTRL: "CTRL", ADDR_NBITS: "NBITS", ADDR_DUTY: "DUTY",
             ADDR_HRDUTY: "HRDUTY", ADDR_STATUS: "STATUS"}
    assert {name: p.reg_read(addr) for addr, name in names.items()} == p.registers() == \
        {"CTRL": 0x31, "NBITS": 8, "DUTY": 100, "HRDUTY": 9, "STATUS": 1}
    for addr in (0x02, 0x14, 0x100):
        with pytest.raises(PeripheralFault, match=f"no register at 0x{addr:02X}") as err:
            p.reg_read(addr)
        assert err.value.code == FaultCode.UNMAPPED_ADDRESS
        with pytest.raises(PeripheralFault) as err:
            p.reg_write(addr, 0)
        assert err.value.code == FaultCode.UNMAPPED_ADDRESS


def test_a_mapped_register_without_a_write_rule_is_not_taken_for_status(monkeypatch):
    monkeypatch.setitem(periph._REGISTERS, 0x14, ("SPARE", lambda p: 0))
    p = MpwmPeripheral()
    assert p.reg_read(0x14) == 0
    with pytest.raises(NotImplementedError, match="no write rule for register 0x14"):
        p.reg_write(0x14, 1)
    with pytest.raises(PeripheralFault, match="STATUS is read-only") as err:
        p.reg_write(ADDR_STATUS, 1)
    assert err.value.code == FaultCode.READ_ONLY


def test_counter_is_built_only_by_an_enable(monkeypatch):
    builds = []
    build = periph.rearranged_counter

    def counted(n, sf):
        builds.append((n, sf))
        return build(n, sf)

    monkeypatch.setattr(periph, "rearranged_counter", counted)
    run_script("step 10\nwrite 0x04 8\nwrite 0x00 0x21\nstep 10\n"
               "write 0x00 0x20\nwrite 0x00 0x31\nstep 10\n")
    assert builds == [(8, 2), (8, 3)]


_ADDRESSES = [ADDR_CTRL, ADDR_NBITS, ADDR_DUTY, ADDR_HRDUTY, ADDR_STATUS, 0x02, 0x14, 0xFFFF]


def _writes(addresses, words):
    return st.builds(lambda addr, word, fmt: f"write {hex(addr)} {fmt(word)}",
                     st.sampled_from(addresses), words, st.sampled_from([str, hex]))


_ENABLE = st.builds(  # a valid enable sequence, so that some scripts reach the locked output
    lambda n, duty, sf: [f"write 0x04 {n}", f"write 0x08 {duty}", f"write 0x00 {hex(sf << 4 | 1)}"],
    st.integers(4, 8), st.integers(0, 0xFFFF), st.integers(0, 3))
_SAFE = st.one_of(  # lines that never fault
    st.builds("step {}".format, st.integers(1, 1 << 11)),  # one cycle to eight n=8 periods
    _writes([ADDR_DUTY, ADDR_HRDUTY], st.integers(0, 0xFFFF)),
    st.builds("read {}".format, st.sampled_from(sorted(periph._REGISTERS)).map(hex)),
)
_ANY = st.one_of(  # any address, in-range and out-of-range words, and syntax errors
    _writes(_ADDRESSES, st.integers(0, 0xFF) | st.integers(-2, 0x1FFFF)),
    st.builds("read {}".format, st.sampled_from(_ADDRESSES).map(hex)),
    st.sampled_from(["step 0", "write 0x08", "read", "nop 1", "write 0x08 zz"]),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_any_register_program_ends_in_dumps_a_fault_or_a_parameter_error(tmp_path_factory, data):
    lines = [*data.draw(st.just([]) | _ENABLE), *data.draw(st.lists(_SAFE, max_size=10))]
    for line in data.draw(st.lists(_ANY, max_size=2)):
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    text = "\n".join(lines) + "\n"
    out = tmp_path_factory.mktemp("periph")
    (out / "prog.txt").write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(["periph", "--script", str(out / "prog.txt"), "--out", str(out)])
    dumps = sorted(p.name for p in out.iterdir() if p.name != "prog.txt")
    if rc == 0:
        bits = run_script(text).bits
        assert json.loads(stdout.getvalue())["cycles"] == bits.size
        assert (out / "periph_trace.csv").read_bytes() == csv_reference(bits).encode()
        assert (out / "periph_trace.vcd").read_bytes() == vcd_reference(bits).encode()
        return
    record = json.loads(stderr.getvalue())
    assert dumps == [] and stdout.getvalue() == ""
    if rc == 1:
        assert FaultCode(record["error"]) and record["detail"].startswith("line ")
    else:
        assert (rc, record["error"]) == (2, "parameter_error")
