"""Every CLI output against its committed record, byte for byte.

`tests/data/cli_record.json` holds, for each argv of `cli_record.ARGVS`, the
exit code, stdout (the output directory written as `<out>`), stderr and each
written file's name, size and sha256.  It was recorded on Python 3.11.7 with
numpy 2.4.6.  Float bits hang on the numpy/BLAS build, so on another stack
this test may fail with no change to the code: rebuild the record on the
parent commit with `PYTHONPATH=src python tests/cli_record.py`, and judge the
change against that record.  A change that means to move an output rewrites
the record the same way and lists each moved argv in CHANGES.md.
"""

import json

import cli_record


def _moves(recorded: dict, fresh: dict) -> list[str]:
    """`argv: what moved` for each stream and file that differs."""
    moves = []
    for name in sorted(recorded.keys() | fresh.keys()):
        was, now = recorded.get(name), fresh.get(name)
        if was is None or now is None:
            moves.append(f"{name}: {'not recorded' if was is None else 'not run'}")
            continue
        moves += [f"{name}: {key}" for key in ("exit", "stdout", "stderr") if was[key] != now[key]]
        for file in sorted(was["files"].keys() | now["files"].keys()):
            if was["files"].get(file) != now["files"].get(file):
                moves.append(f"{name}: file {file}")
    return moves


def test_every_cli_output_matches_its_record(tmp_path):
    recorded = json.loads(cli_record.RECORD.read_text())
    assert recorded["argvs"] == cli_record.ARGVS
    fresh = cli_record.record(tmp_path)
    moves = _moves(recorded["runs"], fresh["runs"])
    assert not moves, (f"outputs moved (recorded on {recorded['stack']}, "
                       f"run on {fresh['stack']}):\n" + "\n".join(moves))
