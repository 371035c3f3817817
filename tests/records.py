"""One harness for the committed records of `tests/data`.

Each `tests/<name>_record.py` names its cases, its committed file `RECORD` and
`record(work)`, which runs every case (writing under the directory `work` if
it must) into nested dicts.  `tests/test_records.py` compares a fresh record
of each such module with its file.  Every file was made on Python 3.11.7,
numpy 2.4.6 and scipy 1.17.1.  Float bits hang on the numpy/BLAS/scipy build,
so on another stack rebuild the records on the parent commit and judge the
change against them.  Rewrite one record from the tree on the path with

    PYTHONPATH=src python tests/<name>_record.py [PATH]

which prints each leaf that moved.  A change that means to move a value
rewrites its record this way and lists each moved leaf in CHANGES.md.
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


def _moves(was, now, path: str) -> list[str]:
    if isinstance(was, dict) and isinstance(now, dict):
        return [move for key in sorted(was.keys() | now.keys())
                for move in _moves(was.get(key, _ABSENT), now.get(key, _ABSENT),
                                   f"{path} / {key}" if path else key)]
    if was is _ABSENT or now is _ABSENT:
        return [f"{path}: {'not recorded' if was is _ABSENT else 'not run'}"]
    return [] if was == now else [f"{path}: {_change(was, now)}"]


def moves(recorded: dict, fresh: dict) -> list[str]:
    """`path: was -> now` for each leaf of the nested dicts that differs, its path
    the keys down to it joined by ` / `; a leaf or case on one side only is
    `not recorded` or `not run`.  The `stack` is not compared."""
    return _moves({**recorded, "stack": None}, {**fresh, "stack": None}, "")


def rewrite(module) -> None:
    """Write a fresh record of `module` to the path given as the one argument, else to
    `module.RECORD`, and print each leaf that moved against the file it replaces."""
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else module.RECORD
    with tempfile.TemporaryDirectory() as tmp:
        now = fresh(module, Path(tmp))
    if path.exists():
        print("\n".join(moves(json.loads(path.read_text()), now)) or "nothing moved")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(now, indent=1, sort_keys=True) + "\n")
