"""The benchmark harness still runs against the package.

`benchmarks/selftest.py` drives every workload at tiny sizes through the
names and keywords the harness calls (`training.train`, `jobs=1`,
`keep_traces=True`, `cli.write_trace_csv`, ...), so a package change that
breaks one fails here rather than only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "selftest.py")],
        cwd=BENCHMARKS, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
