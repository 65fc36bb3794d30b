"""scripts/fit_hashes.py: one JSON object of digests for each fit it runs."""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_decoupling_one_epoch_digests():
    proc = subprocess.run(
        [sys.executable, os.path.join("scripts", "fit_hashes.py"), "--workload", "decoupling", "--epochs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout)
    assert sorted(digests) == ["decoupling/off/1", "decoupling/on/1"]
    assert sorted(digests["decoupling/off/1"]) == ["checkpoint", "metrics_csv"]
    bank_parts = [f"{head}.{part}" for head in ("spatial", "temporal")
                  for part in ("features", "labels", "rng_state", "valid")]
    test_time = ["eval.logits", "eval.accuracy", "eval.per_class", "embedding.spatial", "embedding.temporal",
                 "embedding.silhouette_spatial", "embedding.silhouette_temporal"]
    assert sorted(digests["decoupling/on/1"]) == sorted(["checkpoint", "metrics_csv", *bank_parts, *test_time])
    for fit in digests.values():
        assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in fit.values())
    on = digests["decoupling/on/1"]
    assert on["spatial.labels"] == on["temporal.labels"] and on["spatial.valid"] == on["temporal.valid"]
    assert on["spatial.features"] != on["temporal.features"]
    assert on["embedding.spatial"] != on["embedding.temporal"]
    assert on["checkpoint"] != digests["decoupling/off/1"]["checkpoint"]
