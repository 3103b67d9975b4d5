"""The benchmark's self-test passes.

bench/selftest.py checks that each workload's check rejects a corrupted
output, and that the layer spans count what the benchmark reads: three
del-delbar residuals per property_report and the Ricci forms taken
through forms.exterior_d.  Running it here makes a change to those
calls fail the test suite, not only a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_exits_zero():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
