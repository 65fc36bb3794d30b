"""The benchmark still runs against this checkout.

One zero-second run of every workload.  The smallest one also runs traced:
the traced run wraps every library entry point the tracer names, so it fails
when a refactor removes or renames one of them.  The other two carry the
checks the smallest one skips: the held-out split, and on `large-bank` the
mining oracle, the log-sum-exp InfoNCE, bank integrity and above-chance
accuracy.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_benchmark(workload: str, trace: str) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout
    assert last["failed"] == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_decoupling_workload_runs_correct(trace):
    run_benchmark("decoupling", trace)


@pytest.mark.parametrize("workload", ["improvement", "large-bank"])
def test_workload_runs_correct(workload):
    run_benchmark(workload, "0")
