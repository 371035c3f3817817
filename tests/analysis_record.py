"""Record of the frequency-domain analyses: ripple, spectra, settling and edge counts.

`RIPPLES` names each (config, duty, f_cT) of pwm, mpwm (sf 2 and n-1), pcm
and fons at n 6-8, at four duties and two cutoffs, and of hrmpwm at n 6 and
8.  `record` keeps the repr of `steady_ripple` by the harmonic and the exact
route (hrmpwm by the exact route only), the sha256 of the coefficients of
`superpose_coeffs` and `dft_period` at each slot config and duty, the repr
of `settling_time` for both steps at each of `SETTLES`, and the sha256 of
`edge_counts_sweep` as int64 bytes for each of `SWEEPS`.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

import records
from mpwmdac import (DutyCode, FilterModel, ModulatorConfig, dft_period, edge_counts_sweep,
                     generate, settling_time, steady_ripple, superpose_coeffs)

RECORD = Path(__file__).parent / "data" / "analysis_record.json"


def _slot_configs(n: int):
    yield from (ModulatorConfig.pwm(n), ModulatorConfig.mpwm(n, 2),
                ModulatorConfig.mpwm(n, n - 1), ModulatorConfig.pcm(n), ModulatorConfig.fons(n))


def _name(cfg: ModulatorConfig) -> str:
    fine = f" fine{cfg.fine_bits}" if cfg.fine_bits else ""
    return f"{cfg.kind.value} n{cfg.n} sf{cfg.sf}{fine}"


DUTIES = {f"{_name(cfg)} duty {duty}": (cfg, duty) for n in (6, 7, 8) for cfg in _slot_configs(n)
          for duty in (1, cfg.steps // 3, cfg.steps // 2 + 1, cfg.steps - 1)}
HR_DUTIES = {f"{_name(cfg)} duty {duty}": (cfg, duty)
             for cfg in (ModulatorConfig.hr_mpwm(6, 2, 3), ModulatorConfig.hr_mpwm(8, 3, 4))
             for duty in (DutyCode(0, 1), DutyCode(cfg.steps // 3, 5), DutyCode(cfg.steps - 1, 7))}
RIPPLES = {f"{name} f_cT {f_ct}": (cfg, duty, f_ct)
           for name, (cfg, duty) in {**DUTIES, **HR_DUTIES}.items() for f_ct in (0.02, 0.2)}
SETTLES = {f"f_c {f_c} Hz band {band}": (f_c, band)
           for f_c in (250.0, 1e6) for band in (0.5, 0.05)}
SWEEPS = {_name(cfg): cfg for n in range(6, 11) for cfg in _slot_configs(n)}


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def _ripples(cfg: ModulatorConfig, duty, f_ct: float) -> dict:
    fm = FilterModel(f_ct / cfg.period)
    methods = ("exact",) if cfg.fine_bits else ("harmonic", "exact")
    return {method: repr(steady_ripple(cfg, duty, fm, method=method)) for method in methods}


def record(work: Path) -> dict:
    """Each case's ripple reprs, spectrum digests, settling times and edge-count digest."""
    return {
        "steady_ripple": {name: _ripples(*case) for name, case in RIPPLES.items()},
        "spectrum_sha256": {
            name: {"superpose_coeffs": _sha256(superpose_coeffs(cfg, duty).coeffs),
                   "dft_period": _sha256(dft_period(generate(cfg, duty)).coeffs)}
            for name, (cfg, duty) in DUTIES.items()},
        "settling_time": {name: {step: repr(settling_time(FilterModel(f_c), step, band))
                                 for step in ("one_lsb", "full_scale")}
                          for name, (f_c, band) in SETTLES.items()},
        "edge_counts_sweep_sha256": {name: _sha256(edge_counts_sweep(cfg).astype(np.int64))
                                     for name, cfg in SWEEPS.items()},
    }


if __name__ == "__main__":
    records.rewrite(sys.modules[__name__])
