"""The benchmark harness self-test runs in the tier-1 suite.

perfbench/tracing.py patches library functions by name, so a rename in
src/ would otherwise surface only in a traced benchmark run.  The
self-test runs toy workloads traced and untraced and checks that the
report bytes do not change.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
