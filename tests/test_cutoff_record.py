"""Every `CutoffResult` of `cutoff_record.SEARCHES` against its committed record.

`tests/data/cutoff_record.json` holds the repr of each field of each search's
`astuple(CutoffResult)`.  It was recorded on Python 3.11.7 with numpy 2.4.6.
Float bits hang on the numpy/BLAS build, so on another stack this test may
fail with no change to the code: rebuild the record on the parent commit with
`PYTHONPATH=src python tests/cutoff_record.py`, and judge the change against
that record.  A change that means to move a value rewrites the record the
same way and lists each moved search and field in CHANGES.md.
"""

import json

import cutoff_record


def _number(text: str) -> float | None:
    """The value of a number's repr (`np.float64(x)` included), else None."""
    try:
        return float(text.removeprefix("np.float64(").removesuffix(")"))
    except ValueError:
        return None


def _change(was: str, now: str) -> str:
    """`was -> now`, with the relative change when both are numbers and `was` is not 0."""
    a, b = _number(was), _number(now)
    relative = f" ({(b - a) / abs(a):+.3g} relative)" if a and b is not None else ""
    return f"{was} -> {now}{relative}"


def _moves(names: list[str], recorded: dict, fresh: dict) -> list[str]:
    """`search: field was -> now` for each field whose repr differs."""
    moves = []
    for search in sorted(recorded.keys() | fresh.keys()):
        was, now = recorded.get(search), fresh.get(search)
        if was is None or now is None:
            moves.append(f"{search}: {'not recorded' if was is None else 'not run'}")
            continue
        moves += [f"{search}: {name} {_change(a, b)}"
                  for name, a, b in zip(names, was, now) if a != b]
    return moves


def test_every_cutoff_result_matches_its_record():
    recorded = json.loads(cutoff_record.RECORD.read_text())
    fresh = cutoff_record.record()
    assert recorded["fields"] == fresh["fields"]
    moves = _moves(fresh["fields"], recorded["searches"], fresh["searches"])
    assert not moves, (f"cutoff results moved (recorded on {recorded['stack']}, "
                       f"run on {fresh['stack']}):\n" + "\n".join(moves))
