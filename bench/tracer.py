"""Span recorder for the traced benchmark run.

Wrappers are installed around the public functions of every mpwmdac module,
at every name a caller looks them up by (``mpwmdac.analog.steady_ripple``
and ``mpwmdac.metrics.steady_ripple`` are patched alike), and removed again
after each traced operation so the untraced executions run the plain code.
Nothing in ``src/`` is touched.

Each call records a span ``(name, start, end, parent, op)`` in memory; the
self time of a span is its duration minus the time of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

MODULES = ("modwave", "spectral", "analog", "metrics", "periph", "cli")

# Public functions and methods wrapped per module.  bit_reverse is left out:
# rearranged_counter calls it 2**sf times per call, so its cost is counted in
# the caller's self time instead of as millions of tiny spans.
TRACED = {
    "modwave": [
        "rearranged_counter", "mpwm_wave", "mpwm_wave_decoder", "decoder_states",
        "fons_wave", "hr_mpwm_wave", "count_pulses", "edge_count_formula",
    ],
    "spectral": [
        "unit_signal_coeffs", "superpose_coeffs", "dft_period", "dominant_harmonics",
    ],
    "analog": [
        "to_analog", "dc_average", "filter_response", "steady_ripple", "settling_time",
    ],
    "metrics": [
        "static_error", "edge_counts_sweep", "inl", "inl_closed_form", "dnl",
        "dnl_closed_form", "required_cutoff", "cutoff_rule_of_thumb",
        "worst_steady_ripple", "conversion_rate", "MetricsReport.gather",
    ],
    "periph": [
        "MpwmPeripheral.reg_write", "MpwmPeripheral.reg_read", "MpwmPeripheral.step",
        "run_script", "trace_to_vcd", "trace_to_csv",
    ],
    "cli": ["main"],
}

class Tracer:
    """In-memory span store with per-name self/inclusive time and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []  # [index, child seconds, name, parent, start]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.op_id = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._collect_patches()

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _enter(self, name: str) -> list:
        stack = self._stack
        frame = [len(self.spans), 0.0, name, stack[-1][0] if stack else -1, 0.0]
        self.spans.append(None)
        stack.append(frame)
        frame[4] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        idx, child_s, name, parent, start = frame
        stack = self._stack
        stack.pop()
        dur = end - start
        if stack:
            stack[-1][1] += dur
        self.spans[idx] = (self._name_id(name), start, end, parent, self.op_id)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_s
        self.total_s[name] = self.total_s.get(name, 0.0) + dur

    @contextmanager
    def span(self, name: str):
        """Record one span around the body of the with-statement."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, args, kwargs)
            finally:
                tracer._exit(frame)

        return traced

    # -- installation ------------------------------------------------------------

    def _collect_patches(self) -> None:
        mods = {m: importlib.import_module(f"mpwmdac.{m}") for m in MODULES}
        lookups = [importlib.import_module("mpwmdac"), *mods.values()]
        for layer, names in TRACED.items():
            for qual in names:
                name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mods[layer], cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._patches.append((cls, attr, raw, new))
                    continue
                orig = getattr(mods[layer], qual)
                new = self._wrap(name, orig)
                for mod in lookups:
                    if mod.__dict__.get(qual) is orig:
                        self._patches.append((mod, qual, orig, new))

    @contextmanager
    def installed(self):
        """Patch every lookup site for the duration of the block."""
        for owner, attr, _orig, new in self._patches:
            setattr(owner, attr, new)
        try:
            yield
        finally:
            for owner, attr, orig, _new in self._patches:
                setattr(owner, attr, orig)

    # -- output --------------------------------------------------------------------

    def write(self, path: Path) -> int:
        """Write every span as gzip CSV; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fp:
            fp.write("index,name,start_s,end_s,parent,op\n")
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                nid, start, end, parent, op = span
                fp.write(f"{i},{self.names[nid]},{start:.9f},{end:.9f},{parent},{op}\n")
        return len(self.spans)


# -- counters taken at the wrapped boundary ------------------------------------


def _step_hook(tracer: Tracer, fn, args, kwargs):
    cycles = kwargs.get("cycles", args[1] if len(args) > 1 else 0)
    tracer.count("periph.MpwmPeripheral.step.cycles", int(cycles))
    return fn(*args, **kwargs)


def _reg_write_hook(tracer: Tracer, fn, args, kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception:
        tracer.count("periph.faults")
        raise


def _required_cutoff_hook(tracer: Tracer, fn, args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    before = tracer.calls.get("analog.steady_ripple", 0)
    try:
        return fn(*args, **kwargs)
    finally:
        evals = tracer.calls.get("analog.steady_ripple", 0) - before
        tracer.count("metrics.required_cutoff.searches")
        tracer.count("metrics.required_cutoff.ripple_evals_per_duty_sum",
                     evals / (cfg.steps - 1))


_HOOKS = {
    "periph.MpwmPeripheral.step": _step_hook,
    "periph.MpwmPeripheral.reg_write": _reg_write_hook,
    "metrics.required_cutoff": _required_cutoff_hook,
}
