"""The benchmark's own self-test passes on the sources as they are.

bench/selftest.py runs the benchmark at tiny scale and checks that every
metric of BENCHMARK.json prints with its unit.  A refactor that breaks a
name the benchmark imports or hooks fails it; this runs it with the
tier-1 tests.  It takes about 15 s and leaves only bench/work/, empty.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_exits_0():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
