"""The end-to-end benchmark's wiring check, inside tier-1.

``benchmarks/e2e/trace.py`` wraps ``repro`` entry points by qualified
name and aborts a traced run on a miss, and ``run.py --smoke`` checks
every metric of ``BENCHMARK.json`` by name and unit: a renamed entry
point or stats key fails here, not in the next benchmark run.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "run.py"


def test_e2e_benchmark_smoke_run_exits_zero(tmp_path):
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
