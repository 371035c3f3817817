"""One harness for the committed records of `tests/data`.

Each `tests/<name>_record.py` names its cases, its committed file `RECORD` and
`record(work)`, which runs every case (writing under the directory `work` if
it must) into nested dicts.  `tests/test_records.py` compares a fresh record
of each such module with its file.  Every file was made on Python 3.11.7,
numpy 2.4.6 and scipy 1.17.1.  Float bits hang on the numpy/BLAS/scipy build,
so on another stack rebuild the records on the parent commit and judge the
change against them.  Rewrite one record from the tree on the path with

    PYTHONPATH=src python tests/<name>_record.py [PATH]

which prints, per field name, how many leaves moved, rose and fell, then
each leaf that moved.  A change that means to move a value rewrites its
record this way and lists each moved leaf in CHANGES.md.
"""

import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

_ABSENT = object()


def fresh(module, work: Path) -> dict:
    """The stack and `module.record(work)`."""
    stack = {"python": platform.python_version(), "numpy": np.__version__,
             "scipy": scipy.__version__}
    return {"stack": stack, **module.record(work)}


def _number(leaf) -> float | None:
    """The value of a number or of a number's repr (`np.float64(x)` included), else None."""
    try:
        return float(leaf.removeprefix("np.float64(").removesuffix(")")
                     if isinstance(leaf, str) else leaf)
    except (TypeError, ValueError):
        return None


def _change(was, now) -> str:
    """`was -> now`, numbers as they are and other leaves as JSON, with the relative
    change when both are numbers and `was` is not 0."""
    a, b = _number(was), _number(now)
    relative = f" ({(b - a) / abs(a):+.3g} relative)" if a and b is not None else ""
    return (f"{was if a is not None else json.dumps(was)} -> "
            f"{now if b is not None else json.dumps(now)}{relative}")


def _moved(was, now, path: str) -> list[tuple[str, object, object]]:
    if isinstance(was, dict) and isinstance(now, dict):
        return [leaf for key in sorted(was.keys() | now.keys())
                for leaf in _moved(was.get(key, _ABSENT), now.get(key, _ABSENT),
                                   f"{path} / {key}" if path else key)]
    return [] if was == now else [(path, was, now)]


def _moved_leaves(recorded: dict, fresh: dict) -> list[tuple[str, object, object]]:
    return _moved({**recorded, "stack": None}, {**fresh, "stack": None}, "")


def moves(recorded: dict, fresh: dict) -> list[str]:
    """`path: was -> now` for each leaf of the nested dicts that differs, its path
    the keys down to it joined by ` / `; a leaf or case on one side only is
    `not recorded` or `not run`.  The `stack` is not compared."""
    return [f"{path}: {'not recorded' if was is _ABSENT else 'not run'}"
            if _ABSENT in (was, now) else f"{path}: {_change(was, now)}"
            for path, was, now in _moved_leaves(recorded, fresh)]


def by_field(recorded: dict, fresh: dict) -> list[str]:
    """`field: m moved, r rose, f fell` for each last key of a moved leaf's path,
    sorted; a leaf rose or fell when both sides are numbers."""
    counts: dict[str, list[int]] = {}
    for path, was, now in _moved_leaves(recorded, fresh):
        a, b = _number(was), _number(now)  # None for _ABSENT too
        count = counts.setdefault(path.rsplit(" / ", 1)[-1], [0, 0, 0])
        count[0] += 1
        if a is not None and b is not None:
            count[1] += b > a
            count[2] += b < a
    return [f"{field}: {m} moved, {r} rose, {f} fell" for field, (m, r, f) in sorted(counts.items())]


def rewrite(module) -> None:
    """Write a fresh record of `module` to the path given as the one argument, else to
    `module.RECORD`, and print each leaf that moved against the file it replaces."""
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else module.RECORD
    with tempfile.TemporaryDirectory() as tmp:
        now = fresh(module, Path(tmp))
    if path.exists():
        was = json.loads(path.read_text())
        print("\n".join(by_field(was, now) + moves(was, now)) or "nothing moved")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(now, indent=1, sort_keys=True) + "\n")
