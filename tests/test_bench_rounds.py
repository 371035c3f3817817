"""The benchmark's tiny rounds, run in-process and judged by its own checks.

`bench/workloads.py` builds each workload's seeded operations and runs them;
`bench/checks.py` compares every outcome with an independent route and the
expected exit code or error record.  Both are imported, never changed, so a
changed refusal, exit code or number fails here as it would fail a benchmark
run.
"""

import sys
from pathlib import Path

import pytest

_BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, _BENCH)
try:
    import checks  # noqa: E402
    import workloads  # noqa: E402
finally:
    sys.path.remove(_BENCH)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_round_passes_the_benchmark_checks(workload, tmp_path):
    probes = workloads.defect_probe(workload)  # the non-finite values, all refused
    for i, op in enumerate(probes):
        op.id = 1000 + i
    for op in workloads.make_ops(workload, 3, tiny=True) + probes:
        checks.check(op, workloads.execute(op, workloads.prepare(op, tmp_path)))
