"""scripts/fit_hashes.py: one JSON object of digests for each fit it runs.

The one-epoch digests of all three benchmark workloads must equal those in
`tests/data/fit_digests.json`, so a change that moves any bit a fit writes
or leaves behind fails here.  The digests depend on the numpy build and on
the OpenBLAS kernels it selects for the CPU, so the file also records that
environment.  After a deliberate change of bits, or in a new environment,
rewrite the file: `"digests"` is the output of
`python3 scripts/fit_hashes.py --epochs 1`, and `"environment"` is what
`blas_environment()` reads.
"""

import ctypes
import glob
import json
import os
import re
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDED = os.path.join(ROOT, "tests", "data", "fit_digests.json")
WORKLOADS = ("decoupling", "improvement", "large-bank")


def blas_environment() -> dict:
    """numpy version, OpenBLAS version and the OpenBLAS core kernels in use."""
    core = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                core = fn().decode()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "openblas": blas.get("version"), "openblas_core": core}


def test_one_epoch_digests_match_the_recorded_ones():
    proc = subprocess.run(
        [sys.executable, os.path.join("scripts", "fit_hashes.py"), "--epochs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout)
    assert sorted(digests) == sorted(f"{w}/{mode}/1" for w in WORKLOADS for mode in ("on", "off"))
    bank_parts = [f"{head}.{part}" for head in ("spatial", "temporal")
                  for part in ("features", "labels", "rng_state", "valid")]
    test_time = ["eval.logits", "eval.accuracy", "eval.per_class", "embedding.spatial", "embedding.temporal",
                 "embedding.silhouette_spatial", "embedding.silhouette_temporal"]
    for w in WORKLOADS:
        assert sorted(digests[f"{w}/off/1"]) == ["checkpoint", "metrics_csv"]
        assert sorted(digests[f"{w}/on/1"]) == sorted(["checkpoint", "metrics_csv", *bank_parts, *test_time])
        on = digests[f"{w}/on/1"]
        assert on["spatial.labels"] == on["temporal.labels"] and on["spatial.valid"] == on["temporal.valid"]
        assert on["spatial.features"] != on["temporal.features"]
        assert on["embedding.spatial"] != on["embedding.temporal"]
        assert on["checkpoint"] != digests[f"{w}/off/1"]["checkpoint"]
    for fit in digests.values():
        assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in fit.values())

    with open(RECORDED) as f:
        recorded = json.load(f)
    keys = sorted({(fit, part) for d in (digests, recorded["digests"]) for fit in d for part in d[fit]})
    differ = [f"{fit}:{part}" for fit, part in keys
              if digests.get(fit, {}).get(part) != recorded["digests"].get(fit, {}).get(part)]
    here = blas_environment()
    assert here == recorded["environment"] and not differ, (
        f"digests recorded in {recorded['environment']}, run in {here}; "
        f"{len(differ)} of {len(keys)} differ: {', '.join(differ) or 'none'}"
    )
