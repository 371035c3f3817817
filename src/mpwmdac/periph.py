"""Period-at-a-time register-map emulation of the modulator as an SoC peripheral.

The register layout, double-buffering rules, fault codes and the 1024-cycle
delay-line lock latency are emulation-local conventions for driver
development; they do not claim fidelity to any silicon.  The emitted bit
stream, however, must match the pure generators bit for bit once the
peripheral is enabled and locked.

Register map (32-bit word addresses):

    CTRL   @ 0x00   bit0 EN, bits7..4 SF          (SF change rejected while EN=1)
    NBITS  @ 0x04   counter width n, 4..16        (rejected while EN=1)
    DUTY   @ 0x08   coarse duty, double-buffered  (latched at period boundaries)
    HRDUTY @ 0x0C   4-bit fine duty (stored and read back only)
    STATUS @ 0x10   bit0 DLL_LOCKED               (read-only)

Addresses and values are integers >= 0; any other word faults with
UNMAPPED_ADDRESS or BAD_VALUE.  Reserved bits read as zero and are ignored
on write.  The fine delay line has 16 phases (fine_bits = 4), but the fine
stage is not emulated in the bit stream: HRDUTY is only stored and read
back, and the output carries the coarse MPWM waveform.  The output is
forced low until the lock latency elapses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, _require_bits, _require_int
from .modwave import rearranged_counter

__all__ = [
    "ADDR_CTRL",
    "ADDR_NBITS",
    "ADDR_DUTY",
    "ADDR_HRDUTY",
    "ADDR_STATUS",
    "LOCK_LATENCY_CYCLES",
    "FINE_BITS",
    "FaultCode",
    "PeripheralFault",
    "MpwmPeripheral",
    "run_script",
    "ScriptResult",
    "trace_to_vcd",
    "trace_to_csv",
]

ADDR_CTRL = 0x00
ADDR_NBITS = 0x04
ADDR_DUTY = 0x08
ADDR_HRDUTY = 0x0C
ADDR_STATUS = 0x10

_CTRL_EN = 0x01
_CTRL_SF_SHIFT = 4
_CTRL_SF_MASK = 0xF0

LOCK_LATENCY_CYCLES = 1024
FINE_BITS = 4
_MAX_SCRIPT_CYCLES = 1 << 22  # cycles one script may step: the bound of an analog trace


# address: (name, read-back); the one statement of the register map
_REGISTERS = {
    ADDR_CTRL: ("CTRL", lambda p: (p._sf << _CTRL_SF_SHIFT) | int(p._en)),
    ADDR_NBITS: ("NBITS", lambda p: p._n),
    ADDR_DUTY: ("DUTY", lambda p: p._duty_shadow),
    ADDR_HRDUTY: ("HRDUTY", lambda p: p._hrduty_shadow),
    ADDR_STATUS: ("STATUS", lambda p: int(p.locked)),
}


class FaultCode(str, Enum):
    UNMAPPED_ADDRESS = "unmapped_address"
    READ_ONLY = "read_only"
    CONFIG_LOCKED = "config_locked"
    BAD_VALUE = "bad_value"


class PeripheralFault(Exception):
    """Rejected bus access; the peripheral state is untouched."""

    def __init__(self, code: FaultCode, message: str):
        super().__init__(message)
        self.code = code


def _bus_word(name: str, word: int, code: FaultCode) -> int:
    """A bus address or value as an int >= 0, else a PeripheralFault with `code`."""
    try:
        return _require_int(name, word, 0)
    except ParameterError as exc:
        raise PeripheralFault(code, str(exc)) from None


def _register(addr: int) -> int:
    """A bus address of the register map, else an UNMAPPED_ADDRESS fault."""
    addr = _bus_word("address", addr, FaultCode.UNMAPPED_ADDRESS)
    if addr not in _REGISTERS:
        raise PeripheralFault(FaultCode.UNMAPPED_ADDRESS, f"no register at 0x{addr:02X}")
    return addr


class MpwmPeripheral:
    """Single-owner stepped automaton emulating the DAC peripheral."""

    def __init__(self) -> None:
        self._n = 12
        self._sf = 0
        self._en = False
        self._duty_shadow = 0
        self._hrduty_shadow = 0
        self._duty_active = 0
        self._counter = 0
        self._cycles_since_en = 0
        self._cr: np.ndarray | None = None  # C_R, built by each enable and read only while enabled

    # -- bus interface -------------------------------------------------------

    def reg_write(self, addr: int, value: int) -> None:
        value = _bus_word("value", value, FaultCode.BAD_VALUE)
        addr = _register(addr)
        if addr == ADDR_CTRL:
            value &= _CTRL_EN | _CTRL_SF_MASK
            sf = (value & _CTRL_SF_MASK) >> _CTRL_SF_SHIFT
            en = bool(value & _CTRL_EN)
            if self._en and sf != self._sf:
                raise PeripheralFault(FaultCode.CONFIG_LOCKED, "SF change rejected while enabled")
            if en and sf >= self._n:
                raise PeripheralFault(FaultCode.BAD_VALUE, f"SF={sf} must be below NBITS={self._n}")
            starting = en and not self._en
            self._sf = sf
            self._en = en
            if starting:
                self._counter = 0
                self._cycles_since_en = 0
                self._duty_active = self._duty_shadow & (self._size - 1)
                self._cr = rearranged_counter(self._n, self._sf)
        elif addr == ADDR_NBITS:
            if self._en:
                raise PeripheralFault(FaultCode.CONFIG_LOCKED, "NBITS change rejected while enabled")
            if not 4 <= value <= 16:
                raise PeripheralFault(FaultCode.BAD_VALUE, f"NBITS={value} outside [4, 16]")
            self._n = value
        elif addr == ADDR_DUTY:
            self._duty_shadow = value & 0xFFFF
        elif addr == ADDR_HRDUTY:
            self._hrduty_shadow = value & ((1 << FINE_BITS) - 1)
        elif addr == ADDR_STATUS:
            raise PeripheralFault(FaultCode.READ_ONLY, "STATUS is read-only")
        else:  # a register of _REGISTERS with no write rule above is a bug, not a bus fault
            raise NotImplementedError(f"no write rule for register 0x{addr:02X}")

    def reg_read(self, addr: int) -> int:
        return _REGISTERS[_register(addr)][1](self)

    # -- emulation ------------------------------------------------------------

    @property
    def _size(self) -> int:
        return 1 << self._n

    @property
    def locked(self) -> bool:
        return self._en and self._cycles_since_en >= LOCK_LATENCY_CYCLES

    def registers(self) -> dict[str, int]:
        """Observable register state by name (used by fault-atomicity checks)."""
        return {name: read(self) for name, read in _REGISTERS.values()}

    def snapshot(self) -> dict[str, int]:
        """Full observable state snapshot, including internal position."""
        state = self.registers()
        state.update(
            counter=self._counter,
            duty_active=self._duty_active,
            cycles_since_en=self._cycles_since_en,
        )
        return state

    def step(self, cycles: int) -> np.ndarray:
        """Advance the emulation and return one output bit per cycle.

        The rest of the current period comes first, then the period latched
        at the boundary, repeated.  Output is forced low until the lock
        latency has elapsed; duty writes take effect at the next boundary.
        """
        cycles = _require_int("cycles", cycles, 1)
        if not self._en:
            return np.zeros(cycles, dtype=np.uint8)
        size, pos = self._size, self._counter
        out = self._cr[pos:pos + min(cycles, size - pos)] < self._duty_active
        if pos + cycles >= size:  # crosses or ends on a period boundary
            self._duty_active = self._duty_shadow & (size - 1)
            period = self._cr < self._duty_active
            out = np.concatenate([out, np.resize(period, cycles - out.size)])
        out = out.astype(np.uint8)
        out[: max(0, LOCK_LATENCY_CYCLES - self._cycles_since_en)] = 0
        self._counter = (pos + cycles) % size
        self._cycles_since_en += cycles
        return out


@dataclass
class ScriptResult:
    """Outcome of a register script run."""

    bits: np.ndarray
    reads: list[tuple[int, int]]
    final_registers: dict[str, int]


def run_script(text: str, periph: MpwmPeripheral | None = None) -> ScriptResult:
    """Execute a line-oriented register program.

    Lines are `write <addr> <value>`, `read <addr>` or `step <cycles>`;
    blank lines and `#` comments are skipped.  Numbers accept 0x prefixes.
    Syntax errors, and a step that takes the script past _MAX_SCRIPT_CYCLES
    cycles in all, raise ParameterError naming the line; peripheral faults
    propagate as PeripheralFault.
    """
    periph = periph or MpwmPeripheral()
    chunks: list[np.ndarray] = []
    reads: list[tuple[int, int]] = []
    stepped = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        op = fields[0].lower()
        try:
            if op == "write" and len(fields) == 3:
                periph.reg_write(int(fields[1], 0), int(fields[2], 0))
            elif op == "read" and len(fields) == 2:
                addr = int(fields[1], 0)
                reads.append((addr, periph.reg_read(addr)))
            elif op == "step" and len(fields) == 2:
                cycles = int(fields[1], 0)
                stepped += cycles
                if stepped <= _MAX_SCRIPT_CYCLES:
                    chunks.append(periph.step(cycles))
            else:
                raise ValueError
        except PeripheralFault as fault:
            raise PeripheralFault(
                fault.code, f"line {lineno}: {fault}"
            ) from fault
        except ParameterError as err:  # a step below one cycle
            raise ParameterError(f"line {lineno}: {err}") from None
        except ValueError:
            raise ParameterError(
                f"script syntax error at line {lineno}: {raw!r}"
            ) from None
        if stepped > _MAX_SCRIPT_CYCLES:
            raise ParameterError(
                f"line {lineno}: the script steps more than {_MAX_SCRIPT_CYCLES} cycles"
            )
    bits = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint8)
    return ScriptResult(bits=bits, reads=reads, final_registers=periph.registers())


_VCD_HEADER = (
    "$timescale 1ns $end\n"
    "$scope module mpwm_dac $end\n"
    "$var wire 1 ! out $end\n"
    "$upscope $end\n"
    "$enddefinitions $end\n"
    "#0\n"
)


_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)


def _decades(lo: int, hi: int, width: int):
    """Split the `width`-digit block [lo, hi), lo = 0 or 10**(width - 1), into
    chunks (v, k, c) of the c 10**k values from v, a multiple of 10**k: in a
    chunk the digits above place k are v's, digit k runs through c values
    from v's, and the k low digits through all 10**k combinations in order."""
    v = lo
    for k in range(width - 1, -1, -1):
        c = (hi - v) // 10**k  # what is left is below 10**(k + 1), so c <= 9
        if c:
            yield v, k, c
            v += c * 10**k


def _dump(prefix: str, values: np.ndarray | None, bits: np.ndarray,
          row: tuple[str, str, str], suffix: str) -> str:
    """`prefix`, then one row `head value sep bit tail` per bit, then `suffix`.

    `values` are non-negative and non-decreasing, one per bit, so the rows of
    each decimal width are adjacent; None stands for the row index 0, 1, 2, ...
    Each such block is one (rows, width) byte table of the output buffer,
    filled a column at a time: each constant byte by a fill and the bit as
    ord("0") + bit.  Given values are written by repeated divmod by 10 in the
    smallest unsigned type that holds the block.  The row index is written by
    `_decades` chunks with no division: each digit column of a chunk is one
    broadcast assignment into a reshape of the chunk's rows.
    """
    head, sep, tail = (s.encode() for s in row)
    fixed = len(head) + len(sep) + 1 + len(tail)
    count = bits.size
    digits = len(str(count - 1 if values is None else values[-1])) if count else 1
    powers = 10 ** np.arange(1, digits)
    cuts = np.minimum(powers, count) if values is None else np.searchsorted(values, powers)
    bounds = [0, *cuts.tolist(), count]
    blocks = list(zip(range(1, digits + 1), bounds, bounds[1:]))
    buf = np.empty(len(prefix) + sum((hi - lo) * (fixed + width) for width, lo, hi in blocks)
                   + len(suffix), dtype=np.uint8)
    buf[: len(prefix)] = np.frombuffer(prefix.encode(), dtype=np.uint8)
    buf[buf.size - len(suffix):] = np.frombuffer(suffix.encode(), dtype=np.uint8)
    start = len(prefix)
    for width, lo, hi in blocks:
        if lo == hi:
            continue
        table = buf[start:start + (hi - lo) * (fixed + width)].reshape(hi - lo, fixed + width)
        start += table.size
        end = len(head) + width  # one past the last digit column
        # a column at a time: numpy fills a strided column with one byte far
        # faster than it broadcasts a short byte string across rows
        for col, byte in enumerate(head + bytes(width) + sep + b"\0" + tail):
            if byte:  # 0 marks a digit or the bit
                table[:, col] = byte
        np.add(bits[lo:hi], ord("0"), out=table[:, end + len(sep)])
        if values is not None:
            value = values[lo:hi].astype(np.min_scalar_type(values[hi - 1]))
            digit = np.empty_like(value)
            for col in range(end - 1, len(head), -1):
                np.divmod(value, 10, out=(value, digit))
                np.add(digit, ord("0"), out=table[:, col], casting="unsafe")
            np.add(value, ord("0"), out=table[:, len(head)], casting="unsafe")
            continue
        for v, k, c in _decades(lo, hi, width):
            rows = table[v - lo:v - lo + c * 10**k]
            for col, byte in enumerate(str(v)[: width - 1 - k].encode(), len(head)):
                rows[:, col] = byte  # the digits above place k
            d = v // 10**k % 10
            rows.reshape(c, 10**k, -1)[:, :, end - 1 - k] = _DIGITS[d:d + c, None]
            for m in range(k):
                rows.reshape(-1, 10, 10**m, table.shape[1])[:, :, :, end - 1 - m] = _DIGITS[:, None]
    return str(buf, "ascii")


def trace_to_vcd(bits: np.ndarray) -> str:
    """Change-dump of the output bit at 10 ns per clock cycle.

    `bits` must be a 1-D array of 0/1 values (bool is fine); anything else
    raises ParameterError.  After the header and the value at `#0`, each edge
    at cycle i is a row `#<10 i>` / `<bit>!`; a `#<10 * cycles>` line closes
    the dump.  Edge cycles rise, so the rows of each digit count are one
    fixed-width byte table, built by `_dump` from the digits of i with the
    time's trailing 0 as a constant byte of the row.
    """
    bits = _require_bits(bits)
    edges = np.flatnonzero(np.diff(bits)) + 1
    first = "1!\n" if bits.size and bits[0] else "0!\n"
    end = f"#{10 * bits.size}\n" if bits.size else ""
    return _dump(_VCD_HEADER + first, edges, bits[edges], ("#", "0\n", "!\n"), end)


def trace_to_csv(bits: np.ndarray) -> str:
    """Per-cycle dump: the header `cycle,out`, then a row `cycle,bit` per cycle.

    `bits` must be a 1-D array of 0/1 values (bool is fine); anything else
    raises ParameterError.  Cycles rise by one per row, so the rows of each
    digit count are one fixed-width byte table, built by `_dump`, whose cycle
    digits are filled by decimal chunks, by broadcast and without division.
    """
    bits = _require_bits(bits)
    return _dump("cycle,out\n", None, bits, ("", ",", "\n"), "")
