"""Record of the time-domain filter: the bytes of `filter_response` and the
time-route ripple.

`_traces` names each trace with its filter: the rows of
`test_analog.LSIM_ROWS` and the nine `point_analysis` strata of the
benchmark's seed-1 round (`POINTS`, their parameters written out here).
`record` keeps the sha256 of `filter_response(...).samples.tobytes()` from
the zero state and at the periodic steady state for each, the repr of
`steady_ripple(method="time")` for each point.
"""

import hashlib
import sys
from pathlib import Path

import records
from mpwmdac import (EdgeModel, FilterModel, Kind, ModulatorConfig, cutoff_rule_of_thumb,
                     filter_response, generate, mpwm_wave, steady_ripple, to_analog)
from test_analog import LSIM_ROWS

RECORD = Path(__file__).parent / "data" / "filter_record.json"

# (kind, n, sf, duty, f_clk, t_dr, t_df, t_rise, t_fall, f_ct_scale, oversample)
# of each op of bench/workloads.py's point_analysis round for seed 1
POINTS = [
    ("pcm", 11, 10, 1477, 50e6, 0.5e-9, 0.0, 0.0, 0.0, 0.75, 4),
    ("pcm", 8, 7, 194, 100e6, 0.2e-9, 0.1e-9, 1e-9, 0.5e-9, 1.0, 32),
    ("pwm", 10, 0, 912, 100e6, 0.2e-9, 0.1e-9, 0.5e-9, 0.5e-9, 1.0, 8),
    ("mpwm", 9, 2, 161, 200e6, 0.5e-9, 0.0, 0.0, 0.5e-9, 0.75, 16),
    ("mpwm", 10, 4, 417, 200e6, 0.0, 0.0, 1e-9, 1e-9, 1.25, 8),
    ("mpwm", 7, 3, 64, 100e6, 0.2e-9, 0.1e-9, 1e-9, 1e-9, 1.5, 64),
    ("pwm", 6, 0, 17, 200e6, 0.0, 0.0, 1e-9, 0.5e-9, 0.75, 128),
    ("mpwm", 9, 5, 320, 50e6, 0.2e-9, 0.0, 0.0, 1e-9, 1.5, 16),
    ("mpwm", 12, 3, 2064, 100e6, 0.0, 0.0, 1e-9, 0.5e-9, 1.0, 4),
]


def _points():
    """Each point's name, its config, duty, oversample, trace and filter, as the
    benchmark's library tour builds them."""
    for kind, n, sf, duty, f_clk, t_dr, t_df, t_rise, t_fall, scale, oversample in POINTS:
        cfg = ModulatorConfig(Kind(kind), n, sf, f_clk)
        em = EdgeModel(t_dr=t_dr, t_df=t_df, t_rise=t_rise, t_fall=t_fall)
        f_ct = min(0.4, cutoff_rule_of_thumb(n, 0.5) * cfg.sn) * scale
        yield (f"point {kind}_n{n}_sf{sf} duty {duty}", cfg, duty, oversample,
               to_analog(mpwm_wave(cfg, duty), em, oversample), FilterModel(f_ct / cfg.period))


def _traces():
    """(name, trace, filter) of every recorded trace."""
    for cfg, duty, oversample, em, f_ct in LSIM_ROWS:
        yield (f"lsim {cfg.kind.value} n{cfg.n} sf{cfg.sf} duty {duty} x{oversample} "
               f"f_cT {f_ct}", to_analog(generate(cfg, duty), em, oversample),
               FilterModel(f_ct / cfg.period))
    for name, _, _, _, trace, fm in _points():
        yield name, trace, fm


def _sha256(trace, fm, steady_state: bool) -> str:
    return hashlib.sha256(filter_response(trace, fm, steady_state).samples.tobytes()).hexdigest()


def record(work: Path) -> dict:
    """Each trace's two output digests and each point's time-route ripple."""
    return {
        "filter_sha256": {name: {"zero_state": _sha256(trace, fm, False),
                                 "steady_state": _sha256(trace, fm, True)}
                          for name, trace, fm in _traces()},
        "ripple_time": {name: repr(steady_ripple(cfg, duty, fm, method="time",
                                                 oversample=oversample))
                        for name, cfg, duty, oversample, _, fm in _points()},
    }


if __name__ == "__main__":
    records.rewrite(sys.modules[__name__])
