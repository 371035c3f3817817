"""Record of the CLI's outputs: exit code, stdout, stderr and every file written.

`ARGVS` names one small argv per output rule of each command.  `record`
runs each one in-process into a fresh directory and keeps its exit code,
its stdout with that directory written as `<out>`, its stderr, and each
file's name, size and sha256.  A stdout that is one strict-JSON line, which
prints back to the same bytes, is kept as its fields, so the record's differ
names each field that moves.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import records
from mpwmdac.cli import main

RECORD = Path(__file__).parent / "data" / "cli_record.json"

_SETTLING = ["repro", "--figure", "settling", "--n-list", "5", "6", "--sf-list", "0", "2"]
_CUTOFFS = ["repro", "--figure", "cutoff_vs_resolution", "--n-list", "5", "6",
            "--sf-list", "0", "2"]
ARGVS = {
    "gen mpwm bits": ["gen", "--kind", "mpwm", "--n", "5", "--sf", "1", "--duty", "3", "16"],
    "gen pwm bits json": ["gen", "--kind", "pwm", "--n", "4", "--duty", "5", "--format", "json"],
    "gen fons bits json": ["gen", "--kind", "fons", "--n", "5", "--duty", "11",
                           "--format", "json"],
    "gen hrmpwm edges": ["gen", "--kind", "hrmpwm", "--n", "5", "--sf", "2", "--duty", "7",
                         "--fine", "3"],
    "gen hrmpwm edges json": ["gen", "--kind", "hrmpwm", "--n", "5", "--sf", "2", "--duty", "7",
                              "--fine", "3", "--format", "json"],
    "gen trace": ["gen", "--kind", "mpwm", "--n", "4", "--sf", "1", "--duty", "5", "--trace",
                  "--oversample", "8"],
    "spectrum mpwm": ["spectrum", "--kind", "mpwm", "--n", "5", "--sf", "2", "--duty", "16"],
    "spectrum no dc": ["spectrum", "--kind", "mpwm", "--n", "4", "--sf", "1", "--duty", "0"],
    "spectrum pcm": ["spectrum", "--kind", "pcm", "--n", "5", "--duty", "7"],
    "metrics ripple target": ["metrics", "--kind", "mpwm", "--n", "6", "--sf", "2",
                              "--tdr", "1ns", "--fc", "1MHz", "--ripple-target", "0.5"],
    "metrics pcm": ["metrics", "--kind", "pcm", "--n", "6", "--tdr", "1ns", "--tdf", "0.5ns"],
    "cutoff pwm": ["cutoff", "--kind", "pwm", "--n", "6"],
    "cutoff pcm": ["cutoff", "--kind", "pcm", "--n", "6"],
    "cutoff pcm sf 5": ["cutoff", "--kind", "pcm", "--n", "6", "--sf", "5"],
    "cutoff pcm sf 2": ["cutoff", "--kind", "pcm", "--n", "6", "--sf", "2"],
    "cutoff pwm sf 2": ["cutoff", "--kind", "pwm", "--n", "6", "--sf", "2"],
    "settle one_lsb table": ["settle", "--fc", "1kHz", "--response-table"],
    "settle full_scale table": ["settle", "--fc", "250", "--step", "full_scale",
                                "--response-table"],
    "repro cutoff_vs_resolution": _CUTOFFS,
    "repro cutoff_vs_resolution json": [*_CUTOFFS, "--format", "json"],
    "repro inl_dnl": ["repro", "--figure", "inl_dnl", "--n", "5"],
    "repro inl_dnl json": ["repro", "--figure", "inl_dnl", "--n", "5", "--format", "json"],
    "repro settling": _SETTLING,
    "repro settling json": [*_SETTLING, "--format", "json"],
    "repro settling unbounded": [*_SETTLING, "--band", "2"],
    "repro settling unbounded json": [*_SETTLING, "--band", "2", "--format", "json"],
}


def _fields(text: str):
    """The value of `text` when it is one line of sorted strict JSON that prints back
    to `text` byte for byte, else `text` itself."""
    try:
        value = json.loads(text)
        return value if json.dumps(value, sort_keys=True, allow_nan=False) + "\n" == text else text
    except ValueError:
        return text


def run(argv: list[str], out: Path) -> dict:
    """One argv's exit code, stdout, stderr and files, run with `--out out`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    files = sorted(out.iterdir()) if out.exists() else []
    return {
        "exit": code,
        "stdout": _fields(stdout.getvalue().replace(str(out), "<out>")),
        "stderr": stderr.getvalue(),
        "files": {p.name: {"size": p.stat().st_size,
                           "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
                  for p in files},
    }


def record(work: Path) -> dict:
    """The argvs and every argv's outputs, each run into its own directory under `work`."""
    runs = {name: run(argv, work / str(i)) for i, (name, argv) in enumerate(ARGVS.items())}
    return {"argvs": ARGVS, "runs": runs}


if __name__ == "__main__":
    records.rewrite(sys.modules[__name__])
