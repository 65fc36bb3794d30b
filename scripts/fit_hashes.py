#!/usr/bin/env python3
"""Digests of what benchmark-workload fits write and leave behind.

    python3 scripts/fit_hashes.py > hashes.json
    python3 scripts/fit_hashes.py --workload decoupling --epochs 1

For each workload of `benchmarks/workloads.py`, takes the train set that
the benchmark's set-up (`bench.set_up`) generates at seed 1, writes and
reads back, then fits it with the framework on and off for each `--epochs`
count.  Prints one JSON object, one digest per line: the sha256 of each
fit's metrics CSV and checkpoint and, for a framework-on fit, of each
memory bank's features, labels, valid mask and `bit_generator.state`, of
the eval set's `predict_logits`, of `evaluate`'s accuracy and per-class
accuracies on the eval set, and of `embedding_report`'s spatial and
temporal arrays and its two silhouettes over the train set.  Run it in two
checkouts and `diff` the outputs to show that a change keeps every bit,
on the training path and on the test-time paths.

The program is imported from `src/` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

import bench  # noqa: E402
from stdcl import train  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as f:
        return sha256(f.read())


def fit_digests(workload, train_ds, eval_ds, framework: bool, epochs: int, workdir: str) -> dict:
    cfg = dataclasses.replace(workload.train_config(SEED, framework), epochs=epochs)
    result = train.fit(train_ds, workload.encoder, cfg, out_dir=workdir)
    digests = {"metrics_csv": file_sha256(result.metrics_path), "checkpoint": file_sha256(result.checkpoint_path)}
    for name, bank in sorted(result.banks.items()):
        digests[f"{name}.features"] = sha256(bank.features.tobytes())
        digests[f"{name}.labels"] = sha256(bank.labels.tobytes())
        digests[f"{name}.valid"] = sha256(bank.valid.tobytes())
        digests[f"{name}.rng_state"] = sha256(json.dumps(bank.rng.bit_generator.state, sort_keys=True).encode())
    if framework:
        logits = [train.predict_logits(result.model, coords) for coords in eval_ds.coords]
        digests["eval.logits"] = sha256(np.stack(logits).tobytes())
        evaluated = train.evaluate(result.model, eval_ds)
        digests["eval.accuracy"] = sha256(float(evaluated.accuracy).hex().encode())
        digests["eval.per_class"] = sha256(evaluated.per_class.tobytes())
        report = train.embedding_report(result.model, train_ds)
        digests["embedding.spatial"] = sha256(report.spatial.tobytes())
        digests["embedding.temporal"] = sha256(report.temporal.tobytes())
        digests["embedding.silhouette_spatial"] = sha256(float(report.silhouette_spatial).hex().encode())
        digests["embedding.silhouette_temporal"] = sha256(float(report.silhouette_temporal).hex().encode())
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS), help="repeatable; default: all")
    parser.add_argument("--epochs", action="append", type=int, help="repeatable; default: 1 and 3")
    args = parser.parse_args(argv)

    digests = {}
    with tempfile.TemporaryDirectory(prefix="fit-hashes-") as tmp:
        for name in args.workload or list(WORKLOADS):
            workload = WORKLOADS[name]
            setup_dir = os.path.join(tmp, name)
            os.mkdir(setup_dir)
            train_ds, eval_ds = bench.set_up(workload, SEED, setup_dir, bench.Clock())[0]
            for epochs in args.epochs or [1, 3]:
                for framework in (True, False):
                    key = f"{name}/{'on' if framework else 'off'}/{epochs}"
                    workdir = os.path.join(tmp, key.replace("/", "-"))
                    digests[key] = fit_digests(workload, train_ds, eval_ds, framework, epochs, workdir)
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
