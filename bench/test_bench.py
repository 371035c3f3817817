"""Smoke tests of the benchmark itself.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import CheckError, check  # noqa: E402
from workloads import WORKLOADS, defect_probe, make_ops, prepare, run_cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    report = "\n".join(lines[:-1])
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line
                   for line in report.splitlines()), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_op_list(workload):
    for tiny in (False, True):
        first = [op.describe() for op in make_ops(workload, 7, tiny)]
        assert first == [op.describe() for op in make_ops(workload, 7, tiny)]
        assert first != [op.describe() for op in make_ops(workload, 8, tiny)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_round_has_the_same_strata(workload):
    strata = [sorted(op.stratum for op in make_ops(workload, s)) for s in range(5)]
    assert all(s == strata[0] for s in strata)
    assert len(set(strata[0])) == len(strata[0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_rounds_hold_no_nonfinite_cli_values(workload):
    probe = {tuple(op.argv) for op in defect_probe(workload)}
    for seed in range(5):
        for op in make_ops(workload, seed):
            assert tuple(op.argv) not in probe
            assert not any(a.endswith(("=nan", "=inf", "=-inf")) for a in op.argv)


def test_wrong_cutoff_output_fails_its_check(tmp_path):
    op = next(op for op in make_ops("cutoff_search", 3, tiny=True)
              if op.expect_rc == 0)
    outcome = run_cli(prepare(op, tmp_path))
    check(op, outcome)
    payload = json.loads(outcome.stdout)
    payload["worst_duty"] += 1
    outcome.stdout = json.dumps(payload)
    with pytest.raises(CheckError, match="worst_duty"):
        check(op, outcome)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "cutoff_search", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
