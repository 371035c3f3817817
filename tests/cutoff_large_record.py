"""Record of the cutoff search at n 12-16, in the layout of `cutoff_record.py`.

`SEARCHES` names mpwm n14 sf5 at targets 0.25, 0.5 and 1.0, mpwm n14 sf6 and
mpwm n13 sf5 at 0.5, pwm n14 at 0.5, pcm n12 at 0.25 and 0.5, and mpwm n16
sf4 at 1.0: about 4 s in all.
"""

import sys
from pathlib import Path

import cutoff_record
import records
from mpwmdac import ModulatorConfig

RECORD = Path(__file__).parent / "data" / "cutoff_large_record.json"
_CASES = [
    *((ModulatorConfig.mpwm(14, 5), target) for target in (0.25, 0.5, 1.0)),
    (ModulatorConfig.mpwm(14, 6), 0.5),
    (ModulatorConfig.mpwm(13, 5), 0.5),
    (ModulatorConfig.pwm(14), 0.5),
    *((ModulatorConfig.pcm(12), target) for target in (0.25, 0.5)),
    (ModulatorConfig.mpwm(16, 4), 1.0),
]
SEARCHES = {f"{cfg.kind.value} n{cfg.n} sf{cfg.sf} target {target}": (cfg, target)
            for cfg, target in _CASES}


def record(work: Path) -> dict:
    return cutoff_record.searched(SEARCHES)


if __name__ == "__main__":
    records.rewrite(sys.modules[__name__])
