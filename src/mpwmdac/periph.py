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

Reserved bits read as zero and are ignored on write.  The fine delay line
has 16 phases (fine_bits = 4), but the fine stage is not emulated in the
bit stream: HRDUTY is only stored and read back, and the output carries the
coarse MPWM waveform.  The output is forced low until the lock latency
elapses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError
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
        self._cr = rearranged_counter(self._n, self._sf)

    # -- bus interface -------------------------------------------------------

    def reg_write(self, addr: int, value: int) -> None:
        if value < 0:
            raise PeripheralFault(FaultCode.BAD_VALUE, f"negative value {value}")
        if addr == ADDR_CTRL:
            value &= _CTRL_EN | _CTRL_SF_MASK
            sf = (value & _CTRL_SF_MASK) >> _CTRL_SF_SHIFT
            en = bool(value & _CTRL_EN)
            if self._en and sf != self._sf:
                raise PeripheralFault(
                    FaultCode.CONFIG_LOCKED, "SF change rejected while enabled"
                )
            if en and sf >= self._n:
                raise PeripheralFault(
                    FaultCode.BAD_VALUE, f"SF={sf} must be below NBITS={self._n}"
                )
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
                raise PeripheralFault(
                    FaultCode.CONFIG_LOCKED, "NBITS change rejected while enabled"
                )
            if not 4 <= value <= 16:
                raise PeripheralFault(
                    FaultCode.BAD_VALUE, f"NBITS={value} outside [4, 16]"
                )
            self._n = value
        elif addr == ADDR_DUTY:
            self._duty_shadow = value & 0xFFFF
        elif addr == ADDR_HRDUTY:
            self._hrduty_shadow = value & ((1 << FINE_BITS) - 1)
        elif addr == ADDR_STATUS:
            raise PeripheralFault(FaultCode.READ_ONLY, "STATUS is read-only")
        else:
            raise PeripheralFault(
                FaultCode.UNMAPPED_ADDRESS, f"no register at 0x{addr:02X}"
            )

    def reg_read(self, addr: int) -> int:
        if addr == ADDR_CTRL:
            return (self._sf << _CTRL_SF_SHIFT) | int(self._en)
        if addr == ADDR_NBITS:
            return self._n
        if addr == ADDR_DUTY:
            return self._duty_shadow
        if addr == ADDR_HRDUTY:
            return self._hrduty_shadow
        if addr == ADDR_STATUS:
            return int(self.locked)
        raise PeripheralFault(
            FaultCode.UNMAPPED_ADDRESS, f"no register at 0x{addr:02X}"
        )

    # -- emulation ------------------------------------------------------------

    @property
    def _size(self) -> int:
        return 1 << self._n

    @property
    def locked(self) -> bool:
        return self._en and self._cycles_since_en >= LOCK_LATENCY_CYCLES

    def registers(self) -> dict[str, int]:
        """Observable register state (used by fault-atomicity checks)."""
        return {
            "CTRL": self.reg_read(ADDR_CTRL),
            "NBITS": self.reg_read(ADDR_NBITS),
            "DUTY": self.reg_read(ADDR_DUTY),
            "HRDUTY": self.reg_read(ADDR_HRDUTY),
            "STATUS": self.reg_read(ADDR_STATUS),
        }

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
        if cycles < 1:
            raise ParameterError(f"cycles must be >= 1, got {cycles}")
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


def trace_to_vcd(bits: np.ndarray) -> str:
    """Change-dump of the output bit at 10 ns per clock cycle."""
    bits = np.asarray(bits, dtype=np.uint8)
    lines = [
        "$timescale 1ns $end",
        "$scope module mpwm_dac $end",
        "$var wire 1 ! out $end",
        "$upscope $end",
        "$enddefinitions $end",
        "#0",
        "0!" if (bits.size == 0 or bits[0] == 0) else "1!",
    ]
    edges = np.flatnonzero(np.diff(bits)) + 1
    for i, b in zip(edges.tolist(), bits[edges].tolist()):
        lines += (f"#{10 * i}", f"{b}!")
    if bits.size:
        lines.append(f"#{10 * bits.size}")
    return "\n".join(lines) + "\n"


_POWERS_OF_TEN = 10 ** np.arange(1, 19)


def _decimal_widths(values: np.ndarray) -> np.ndarray:
    """Digit count of each non-negative integer in decimal."""
    return np.searchsorted(_POWERS_OF_TEN, values, side="right") + 1


def _put_decimal(buf: np.ndarray, last: np.ndarray, values: np.ndarray) -> None:
    """Write each value's ASCII decimal digits into buf, its units digit at `last`."""
    place = 1
    while True:
        buf[last] = ord("0") + values // place % 10
        place *= 10
        more = values >= place
        if not more.any():
            return
        last, values = last[more] - 1, values[more]


def trace_to_csv(bits: np.ndarray) -> str:
    """Per-cycle dump with header `cycle,out`.

    The rows `cycle,bit` are laid out as one byte array: row widths give
    each row's end, then the digits, commas and newlines are filled in.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    cycles, outs = np.arange(bits.size), bits.astype(np.int64)
    out_widths = _decimal_widths(outs)
    ends = np.cumsum(_decimal_widths(cycles) + out_widths + 2)  # one past each newline
    buf = np.empty(ends[-1] if bits.size else 0, dtype=np.uint8)
    buf[ends - 1] = ord("\n")
    buf[ends - 2 - out_widths] = ord(",")
    _put_decimal(buf, ends - 3 - out_widths, cycles)
    _put_decimal(buf, ends - 2, outs)
    return "cycle,out\n" + buf.tobytes().decode()
