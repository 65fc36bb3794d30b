"""The benchmark still runs against this checkout.

One zero-second run of the smallest workload, plain and traced.  The traced
run wraps every library entry point the tracer names, so it fails when a
refactor removes or renames one of them.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_decoupling_workload_runs_correct(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", "decoupling",
         "--seed", "0", "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout
    assert last["failed"] == 0
