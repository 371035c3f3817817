"""Every committed record of `tests/data` against a fresh one, leaf by leaf (see
`tests/records.py`), and the differ that compares them."""

import importlib
import json
from pathlib import Path

import pytest

import records

MODULES = sorted(p.stem for p in Path(__file__).parent.glob("*_record.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_output_matches_its_record(name, tmp_path):
    module = importlib.import_module(name)
    recorded = json.loads(module.RECORD.read_text())
    fresh = records.fresh(module, tmp_path)
    moved = records.moves(recorded, fresh)
    assert not moved, (f"{name} outputs moved (recorded on {recorded['stack']}, "
                       f"run on {fresh['stack']}):\n" + "\n".join(moved))


def test_moves_names_each_moved_missing_and_extra_leaf_by_path():
    recorded = {"stack": {"numpy": "2.4.6"}, "searches": {
        "a": {"f_ct": "0.5", "sweeps": 2, "duty": "None"}, "b": {"f_ct": "0.1"}}}
    fresh = {"stack": {"numpy": "9.9"}, "searches": {  # the stack is not compared
        "a": {"f_ct": "np.float64(0.25)", "sweeps": 2, "duty": "7"}, "c": {"f_ct": "0.1"}}}
    assert records.moves(recorded, fresh) == [
        'searches / a / duty: "None" -> 7',
        "searches / a / f_ct: 0.5 -> np.float64(0.25) (-0.5 relative)",
        "searches / b: not run",
        "searches / c: not recorded",
    ]


def test_by_field_counts_the_moved_risen_and_fallen_leaves_of_each_field():
    recorded = {"stack": {}, "searches": {
        "a": {"checks": "9", "f_ct": "0.5", "sweeps": 2},
        "b": {"checks": "7", "f_ct": "0.5", "sweeps": 2},
        "c": {"checks": "4", "duty": "None"}}}
    fresh = {"stack": {}, "searches": {
        "a": {"checks": "np.float64(8)", "f_ct": "0.5", "sweeps": 3},
        "b": {"checks": "6", "f_ct": "0.5", "sweeps": 2},
        "c": {"checks": "4", "duty": "7"}, "d": {"checks": "1"}}}
    assert records.by_field(recorded, fresh) == [
        "checks: 2 moved, 0 rose, 2 fell",
        "d: 1 moved, 0 rose, 0 fell",  # a case on one side only
        "duty: 1 moved, 0 rose, 0 fell",  # not a number on one side
        "sweeps: 1 moved, 1 rose, 0 fell",
    ]
    assert records.by_field(recorded, recorded) == []


@pytest.mark.parametrize("name", MODULES)
def test_a_leaf_changed_in_a_committed_record_is_named(name):
    recorded = json.loads(importlib.import_module(name).RECORD.read_text())
    planted = json.loads(json.dumps(recorded))
    node, keys = planted, []
    while isinstance(node, dict):  # down to the last leaf outside the stack
        keys.append(max(node.keys() - {"stack"}))
        parent, node = node, node[keys[-1]]
    parent[keys[-1]] = [node]
    moved = records.moves(recorded, planted)
    assert len(moved) == 1 and moved[0].startswith(" / ".join(keys) + ": ")
