"""Record of the cutoff search: every field of each `CutoffResult`, as its repr.

`SEARCHES` names each (config, ripple target) pair: every pwm/mpwm/pcm config
at n 2-8 (mpwm at every sf 0..n-1) and pwm, mpwm sf 3 and 7 and pcm at n=10,
each at targets 0.25, 0.5 and 1.0.  `record` runs each search and keeps the
repr of each field of `required_cutoff(cfg, target)` by name.
"""

import sys
from dataclasses import asdict
from pathlib import Path

import records
from mpwmdac import ModulatorConfig, required_cutoff

RECORD = Path(__file__).parent / "data" / "cutoff_record.json"
TARGETS = (0.25, 0.5, 1.0)


def _configs():
    for n in range(2, 9):
        yield ModulatorConfig.pwm(n)
        yield from (ModulatorConfig.mpwm(n, sf) for sf in range(n))
        yield ModulatorConfig.pcm(n)
    yield from (ModulatorConfig.pwm(10), ModulatorConfig.mpwm(10, 3),
                ModulatorConfig.mpwm(10, 7), ModulatorConfig.pcm(10))


SEARCHES = {f"{cfg.kind.value} n{cfg.n} sf{cfg.sf} target {target}": (cfg, target)
            for cfg in _configs() for target in TARGETS}


def searched(searches: dict) -> dict:
    """The repr of each search's every field, by name."""
    return {"searches": {name: {field: repr(v) for field, v in
                                asdict(required_cutoff(cfg, target)).items()}
                         for name, (cfg, target) in searches.items()}}


def record(work: Path) -> dict:
    return searched(SEARCHES)


if __name__ == "__main__":
    records.rewrite(sys.modules[__name__])
