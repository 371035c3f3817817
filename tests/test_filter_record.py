"""The time-domain filter of `filter_record._traces()` against its committed record.

`tests/data/filter_record.json` holds the sha256 of each trace's filtered
samples from the zero state and at the periodic steady state, and the repr
of each point's `steady_ripple(method="time")`.  It was recorded on Python
3.11.7 with numpy 2.4.6 and scipy 1.17.1.  Float bits hang on the
numpy/BLAS/scipy build, so on another stack this test may fail with no
change to the code: rebuild the record on the parent commit with
`PYTHONPATH=src python tests/filter_record.py`, and judge the change against
that record.  A change that means to move a value rewrites the record the
same way and lists each moved trace in CHANGES.md.
"""

import json

import filter_record


def _moves(recorded: dict, fresh: dict) -> list[str]:
    """`name: table was -> now` for each trace's digests or point's ripple that differ."""
    moves = []
    for table in ("filter_sha256", "ripple_time"):
        was, now = recorded[table], fresh[table]
        moves += [f"{name}: {table} {was.get(name, 'not recorded')} -> {now.get(name, 'not run')}"
                  for name in sorted(was.keys() | now.keys()) if was.get(name) != now.get(name)]
    return moves


def test_every_filter_output_matches_its_record():
    recorded = json.loads(filter_record.RECORD.read_text())
    fresh = filter_record.record()
    moves = _moves(recorded, fresh)
    assert not moves, (f"filter outputs moved (recorded on {recorded['stack']}, "
                       f"run on {fresh['stack']}):\n" + "\n".join(moves))
