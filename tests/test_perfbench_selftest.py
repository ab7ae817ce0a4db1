"""The benchmark's own self-test, run as part of the suite.

`perfbench/selftest.py` runs one tiny pass of every workload, traced and
untraced, and checks the traced bindings, the layers each workload reaches
and the golden output digests.  Running it here makes a library change that
breaks the benchmark fail the test suite, not only a later benchmark run.
It takes about ten seconds.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    out = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-4000:]
