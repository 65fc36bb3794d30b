"""Self-test of the benchmark's correctness checks.

Runs every workload for its minimum of two rounds, requires every check to
pass on the real outputs, then feeds each check a perturbed copy of one
output (a prediction flipped, a mined index swapped, a loss changed, ...)
and requires it to fail.  Takes about a minute:

    python3 benchmarks/selftest.py [workload ...]
"""

import copy
import os
import shutil
import sys
import tempfile

import run

if not run.use_checkout_sources():
    sys.exit(2)

import numpy as np  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def flipped(predictions: np.ndarray, classes: int) -> np.ndarray:
    out = predictions.copy()
    out[0] = (out[0] + 1) % classes
    return out


def with_loss(history: list, step: int, value: float) -> list:
    out = list(history)
    out[step] = (value, *out[step][1:])
    return out


def perturbed_cases(w, seed: int, result: dict) -> dict:
    """Name of the perturbation -> the failures its check reported."""
    rounds, last = result["rounds"], result["last"]
    final, other = rounds[-1], rounds[0]
    model, fit_on, eval_ds = last["model"], last["fit_on"], last["eval_ds"]
    classes = model.num_classes

    def reference(**changes):
        outputs = {k: final[k] for k in ("logits", "predictions", "accuracy", "per_class")}
        outputs.update(changes)
        return checks.check_reference_forward(
            {k: t.data for k, t in model.params.items()}, w.encoder,
            np.stack([seq.coords for seq in eval_ds]), eval_ds.labels(), **outputs)

    logits = final["logits"].copy()
    logits[0, 0] += 1e-6
    reloaded = {k: t.data.copy() for k, t in model.named_tensors().items()}
    reloaded["head.b"][0] = np.nextafter(np.float32(reloaded["head.b"][0]), np.float32(np.inf))
    h_on, h_off = final["history_on"], final["history_off"]
    cases = {
        "prediction flipped": reference(predictions=flipped(final["predictions"], classes)),
        "logit changed": reference(logits=logits),
        "accuracy changed": reference(accuracy=final["accuracy"] + 1.0 / len(eval_ds)),
        "evaluate read a bank": checks.check_counters({**final["eval_counters"], "bank_reads": 1},
                                                      final["baseline_counters"]),
        "evaluate decoupled": checks.check_counters({**final["eval_counters"], "decouple_calls": 1},
                                                    final["baseline_counters"]),
        "baseline wrote a bank": checks.check_counters(final["eval_counters"],
                                                       {**final["baseline_counters"], "bank_writes": 1}),
        "loss made non-finite": checks.check_finite_losses({"on": with_loss(h_on, 1, float("nan"))}),
        "step-0 loss changed": checks.check_step0_ce(
            with_loss(h_on, 0, np.nextafter(h_on[0][0], np.inf)), h_off),
        "repeat loss changed": checks.check_repeats(
            [other, {**final, "history_off": with_loss(h_off, 2, np.nextafter(h_off[2][0], 0.0))}]),
        "repeat prediction flipped": checks.check_repeats(
            [other, {**final, "predictions": flipped(final["predictions"], classes)}]),
        "checkpoint value changed": checks.check_checkpoint(
            reloaded, {k: t.data for k, t in fit_on.model.named_tensors().items()}),
    }
    emb = last["embeddings"]
    if w.check_decoupled:
        cases["heads swapped"] = checks.check_decoupled(
            emb.temporal, emb.spatial, emb.labels, w.spec.num_temporal)[0]
    if w.check_banks:
        cfg, mined = bench.mine_fixed_anchors(w, seed, last)
        bank, anchor, label, slot, sample, loss = mined[0]
        emptied = copy.deepcopy(bank)
        emptied.valid[slot], emptied.labels[slot], emptied.features[slot] = False, -1, 0.0
        scaled = copy.deepcopy(bank)
        scaled.features[slot] *= 2.0
        hard, rand = sample.hard_negatives.copy(), sample.random_negatives.copy()
        hard[-1], rand[0] = rand[0], hard[-1]
        positives = sample.positives.copy()
        positives[[0, 1]] = positives[[1, 0]]
        same_label = np.flatnonzero((bank.labels == label) & (np.arange(bank.length) != slot))
        relabeled = sample.random_negatives.copy()
        relabeled[0] = same_label[0]

        def mining(**changes):
            fields = {"positives": sample.positives, "hard_negatives": sample.hard_negatives,
                      "random_negatives": sample.random_negatives, **changes}
            return checks.check_mining(bank, anchor, label, slot, cfg, type(sample)(**fields))

        cases.update({
            "bank slot emptied": checks.check_bank(emptied),
            "bank row scaled": checks.check_bank(scaled),
            "mined index swapped": mining(hard_negatives=hard, random_negatives=rand),
            "hard positives reordered": mining(positives=positives),
            "random negative shares the label": mining(random_negatives=relabeled),
            "info_nce loss changed": checks.check_info_nce(bank, anchor, sample, cfg.tau, loss + 1e-6),
            "held-out top-1 at chance": checks.check_above_chance(1.0 / classes, classes),
        })
    return cases


def main(names: list) -> int:
    os.makedirs(bench.OUT, exist_ok=True)
    bad = 0
    for name in names or list(WORKLOADS):
        w, seed = WORKLOADS[name], 0
        workdir = tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=bench.OUT)
        try:
            result = bench.measure(w, seed, 0.0, None, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for check, failures in result["checks"].items():
            status = "FAIL" if failures else "ok"
            bad += bool(failures)
            print(f"{name}: {check} passes on the real outputs: {status} {failures[:2] if failures else ''}")
        for case, failures in perturbed_cases(w, seed, result).items():
            status = "ok" if failures else "FAIL (not detected)"
            bad += not failures
            print(f"{name}: {case} is caught: {status}")
    print("selftest " + ("passed" if not bad else f"FAILED ({bad})"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
