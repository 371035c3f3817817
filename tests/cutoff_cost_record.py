"""Record of the cutoff search's costs: the repr of `sweeps` and `ripple_checks` of
each search that `cutoff_record.py` and `cutoff_large_record.py` name, by name.

Those two slices keep every other field, so a change to the search's cost alone
moves this record only.
"""

import sys
from pathlib import Path

import cutoff_large_record
import cutoff_record
import records

RECORD = Path(__file__).parent / "data" / "cutoff_cost_record.json"


def record(work: Path) -> dict:
    return cutoff_record.searched({**cutoff_record.SEARCHES, **cutoff_large_record.SEARCHES},
                                  costs=True)


if __name__ == "__main__":
    records.rewrite(sys.modules[__name__])
