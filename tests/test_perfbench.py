import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest():
    # the benchmark reads library names: combregret.dyadic.Dyadic, the .num
    # and .exp of exact series values and series.backend.is_exact.  A change
    # that breaks one fails here, not in a benchmark run.  The self-test
    # writes only under the ignored .perfbench/ directory.
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: PASS"
