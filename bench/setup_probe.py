"""Set-up time of a fresh process: import mpwmdac and mpwmdac.cli, then
finish one warm-up operation of the workload.  Prints the seconds.

Usage: python3 bench/setup_probe.py <workload> <work directory>
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mpwmdac  # noqa: E402,F401
import mpwmdac.cli  # noqa: E402,F401

from workloads import WARMUP, execute, prepare  # noqa: E402

if __name__ == "__main__":
    op = WARMUP[sys.argv[1]]
    outcome = execute(op, prepare(op, Path(sys.argv[2])))
    elapsed = perf_counter() - T0
    if outcome.rc != op.expect_rc or outcome.error:
        print(f"warm-up op failed: rc={outcome.rc} error={outcome.error}", file=sys.stderr)
        sys.exit(1)
    print(f"{elapsed:.9f}")
