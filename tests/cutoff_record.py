"""Record of the cutoff search: every field of each `CutoffResult`, as its repr.

`SEARCHES` names each (config, ripple target) pair: every pwm/mpwm/pcm config
at n 2-8 (mpwm at every sf 0..n-1) and pwm, mpwm sf 3 and 7 and pcm at n=10,
each at targets 0.25, 0.5 and 1.0.  `record` runs each search and keeps the
repr of each field of `astuple(required_cutoff(cfg, target))`, with the field
names and the stack.  `tests/test_cutoff_record.py` compares a fresh record with the
committed `tests/data/cutoff_record.json`.

Rewrite the committed file from the tree on the path with

    PYTHONPATH=src python tests/cutoff_record.py [PATH]

which prints each value that moved against the file it replaces, as
`search: field was -> now`.
"""

import json
import platform
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from mpwmdac import CutoffResult, ModulatorConfig, required_cutoff

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


def record() -> dict:
    """The stack, the field names and the repr of each search's every field."""
    return {
        "stack": {"python": platform.python_version(), "numpy": np.__version__},
        "fields": [f.name for f in fields(CutoffResult)],
        "searches": {name: [repr(v) for v in astuple(required_cutoff(cfg, target))]
                     for name, (cfg, target) in SEARCHES.items()},
    }


if __name__ == "__main__":
    from test_cutoff_record import _moves

    path = Path(sys.argv[1]) if len(sys.argv) > 1 else RECORD
    fresh = record()
    if path.exists():
        was = json.loads(path.read_text())["searches"]
        print("\n".join(_moves(fresh["fields"], was, fresh["searches"])) or "nothing moved")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
