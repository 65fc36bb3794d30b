"""Correctness checks, computed apart from the program under test.

Every check is a pure function of the program's outputs and of inputs the
benchmark holds; it recomputes its own side in NumPy and returns a list of
failure messages (empty when the check passes).  Keeping them pure lets
`selftest.py` feed each one a perturbed output and watch it fail.
"""

from __future__ import annotations

import math

import numpy as np

from stdcl.errors import BankIntegrityError

LOGIT_TOLERANCE = 1e-9
NCE_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# reference forward pass


def reference_logits(arrays: dict, enc, coords: np.ndarray) -> np.ndarray:
    """Encoder and head recomputed from the parameters; coords is (N, J, T, 3).

    Per-tap convolution, the fixed mixing matrix 0.5*I + 0.5/J*11^T built from
    its formula, relu between blocks, mean pooling over joints and frames,
    then the linear head.
    """
    if enc.joint_mixing != "fixed":
        raise ValueError("the reference forward covers the fixed joint mixing only")
    joints = enc.joints
    mix = 0.5 * np.eye(joints) + 0.5 / joints * np.ones((joints, joints))
    layers = len(enc.hidden) + 1
    x = np.asarray(coords, dtype=np.float64)
    for i in range(layers):
        w, b = arrays[f"conv{i}.w"], arrays[f"conv{i}.b"]
        k = w.shape[0]
        stride = enc.temporal_stride if i == 0 else 1
        frames = x.shape[2]
        t_out = -(-frames // stride)
        out = np.broadcast_to(b, (x.shape[0], joints, t_out, w.shape[2])).copy()
        for d in range(k):
            src = np.arange(t_out) * stride - k // 2 + d
            if enc.temporal_padding == "circular":
                tap = x[:, :, src % frames, :]
            else:
                inside = (src >= 0) & (src < frames)
                tap = np.zeros((x.shape[0], joints, t_out, x.shape[3]))
                tap[:, :, inside, :] = x[:, :, src[inside], :]
            out += tap @ w[d]
        x = np.einsum("jk,nktc->njtc", mix, out)
        if i < layers - 1:
            x = np.maximum(x, 0.0)
    pooled = x.mean(axis=(1, 2))
    return pooled @ arrays["head.w"] + arrays["head.b"]


def check_reference_forward(
    arrays: dict, enc, coords: np.ndarray, labels: np.ndarray,
    logits: np.ndarray, predictions: np.ndarray, accuracy: float, per_class: np.ndarray,
) -> list:
    """Program logits, predictions and eval report against the reference forward."""
    ref = reference_logits(arrays, enc, coords)
    failures = []
    scale = np.maximum(1.0, np.abs(ref))
    worst = float(np.max(np.abs(logits - ref) / scale))
    if not worst <= LOGIT_TOLERANCE:
        failures.append(f"eval logits differ from the reference forward by {worst:.3e} (relative)")
    ref_pred = np.argmax(ref, axis=1)
    for i in np.flatnonzero(predictions != ref_pred):
        # a genuine tie in the reference logits may resolve either way
        gap = abs(ref[i, predictions[i]] - ref[i, ref_pred[i]])
        if gap > LOGIT_TOLERANCE * scale[i].max():
            failures.append(f"eval sequence {i}: predicted {predictions[i]}, reference {ref_pred[i]}")
    ref_accuracy = float((ref_pred == labels).mean())
    if accuracy != ref_accuracy:
        failures.append(f"evaluate() accuracy {accuracy!r} != reference {ref_accuracy!r}")
    ref_per_class = np.array([
        (ref_pred[labels == c] == c).mean() if (labels == c).any() else np.nan
        for c in range(len(per_class))
    ])
    if not np.array_equal(per_class, ref_per_class, equal_nan=True):
        failures.append("evaluate() per-class accuracy differs from the reference")
    return failures


# ---------------------------------------------------------------------------
# path purity, losses and repeats


def check_counters(eval_counters: dict, baseline_counters: dict) -> list:
    """The test-time path and the baseline fit never touch banks or decoupler."""
    failures = [f"evaluate() made {v} {k}" for k, v in sorted(eval_counters.items()) if v]
    failures += [f"framework-off fit made {v} {k}" for k, v in sorted(baseline_counters.items()) if v]
    return failures


def check_finite_losses(histories: dict) -> list:
    failures = []
    for fit_name, history in histories.items():
        for step, losses in enumerate(history):
            if not all(math.isfinite(v) for v in losses):
                failures.append(f"{fit_name} fit: non-finite loss at step {step}: {losses}")
    return failures


def check_step0_ce(history_on: list, history_off: list) -> list:
    """Banks start empty, so step 0's cross-entropy cannot see the framework."""
    ce_on, ce_off = history_on[0][0], history_off[0][0]
    if ce_on != ce_off:
        return [f"step-0 loss_ce differs: framework on {ce_on!r}, off {ce_off!r}"]
    return []


def check_repeats(rounds: list) -> list:
    """Every round repeats the first bit for bit: loss histories and predictions."""
    failures = []
    first = rounds[0]
    for r, other in enumerate(rounds[1:], start=1):
        for key in ("history_on", "history_off"):
            if other[key] != first[key]:
                failures.append(f"round {r}: {key} differs from round 0")
        if not np.array_equal(other["predictions"], first["predictions"]):
            failures.append(f"round {r}: eval predictions differ from round 0")
        if other["logits"].tobytes() != first["logits"].tobytes():
            failures.append(f"round {r}: eval logits differ from round 0")
    return failures


def check_checkpoint(reloaded: dict, in_memory: dict) -> list:
    """Reloaded arrays equal the float32 rounding of the trained parameters."""
    if sorted(reloaded) != sorted(in_memory):
        return [f"checkpoint names {sorted(reloaded)} != model names {sorted(in_memory)}"]
    failures = []
    for name, value in in_memory.items():
        expected = value.astype(np.float32).astype(np.float64)
        if reloaded[name].shape != expected.shape or not np.array_equal(reloaded[name], expected):
            failures.append(f"checkpoint array {name!r} is not the float32 rounding of the model")
    return failures


# ---------------------------------------------------------------------------
# workload properties


def silhouette(x: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette with Euclidean distances; lone members score 0."""
    sq = np.sum(x * x, axis=1)
    dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0))
    np.fill_diagonal(dist, 0.0)
    classes = np.unique(labels)
    onehot = (labels[:, None] == classes[None, :]).astype(np.float64)
    sizes = onehot.sum(axis=0)
    sums = dist @ onehot  # (N, clusters): summed distance to each cluster
    own = np.searchsorted(classes, labels)
    rows = np.arange(len(labels))
    own_size = sizes[own]
    a = sums[rows, own] / np.maximum(own_size - 1, 1)
    means = sums / sizes
    means[rows, own] = np.inf
    b = means.min(axis=1)
    s = np.where(own_size > 1, (b - a) / np.maximum(a, b), 0.0)
    return float(s.mean())


def check_decoupled(spatial: np.ndarray, temporal: np.ndarray, labels: np.ndarray,
                    num_temporal: int) -> tuple:
    """Each head clusters by its own factor better than by the other one."""
    spatial_factor, temporal_factor = labels // num_temporal, labels % num_temporal
    scores = {
        "spatial_own": silhouette(spatial, spatial_factor),
        "spatial_other": silhouette(spatial, temporal_factor),
        "temporal_own": silhouette(temporal, temporal_factor),
        "temporal_other": silhouette(temporal, spatial_factor),
    }
    failures = [
        f"{head} head: own-factor silhouette {scores[head + '_own']:+.3f} is not above "
        f"other-factor {scores[head + '_other']:+.3f}"
        for head in ("spatial", "temporal")
        if not scores[head + "_own"] > scores[head + "_other"]
    ]
    return failures, scores


def check_bank(bank) -> list:
    failures = []
    try:
        bank.check_integrity()
    except BankIntegrityError as exc:
        failures.append(f"bank {bank.name!r}: {exc}")
    if not bank.valid.all():
        failures.append(f"bank {bank.name!r}: {int((~bank.valid).sum())} slots never written")
    return failures


def mining_oracle(bank, anchor: np.ndarray, label: int, index: int, cfg) -> tuple:
    """Hard positives and negatives by a plain sort on (similarity, slot)."""
    unit = anchor / np.linalg.norm(anchor)
    candidates = [i for i in range(bank.length) if bank.valid[i] and i != index]
    pos_pool = np.array([i for i in candidates if bank.labels[i] == label], dtype=np.int64)
    neg_pool = np.array([i for i in candidates if bank.labels[i] != label], dtype=np.int64)
    # the same gathers and products as the sampler, so ties compare identical floats
    pos_sims = (bank.features[pos_pool] @ unit).tolist()
    neg_sims = (bank.features[neg_pool] @ unit).tolist()
    positives = [i for _, i in sorted(zip(pos_sims, pos_pool.tolist()))][: cfg.n_pos_hard]
    hard = [i for _, i in sorted(zip([-s for s in neg_sims], neg_pool.tolist()))][: cfg.n_neg_hard]
    return positives, hard


def check_mining(bank, anchor: np.ndarray, label: int, index: int, cfg, sample) -> list:
    where = f"bank {bank.name!r}, anchor {index}"
    positives, hard = mining_oracle(bank, anchor, label, index, cfg)
    failures = []
    if sample.positives.tolist() != positives:
        failures.append(f"{where}: hard positives differ from the oracle")
    if sample.hard_negatives.tolist() != hard:
        failures.append(f"{where}: hard negatives differ from the oracle")
    rand = sample.random_negatives.tolist()
    if len(set(rand)) != len(rand):
        failures.append(f"{where}: repeated random negative")
    if any(i == index or not bank.valid[i] or bank.labels[i] == label for i in rand):
        failures.append(f"{where}: a random negative is the anchor, empty, or shares its label")
    if set(rand) & set(hard):
        failures.append(f"{where}: a random negative is also a hard negative")
    return failures


def reference_info_nce(bank, anchor: np.ndarray, sample, tau: float) -> float:
    """Exponentiated InfoNCE by log-sum-exp, one denominator per positive."""
    unit = anchor / np.linalg.norm(anchor)
    pos = bank.features[sample.positives] @ unit / tau
    neg = bank.features[sample.negatives] @ unit / tau
    total = 0.0
    for p in pos:
        terms = np.concatenate([[p], neg])
        top = terms.max()
        total += top + math.log(np.exp(terms - top).sum()) - p
    return total


def check_info_nce(bank, anchor: np.ndarray, sample, tau: float, loss: float) -> list:
    ref = reference_info_nce(bank, anchor, sample, tau)
    if not abs(loss - ref) <= NCE_TOLERANCE * max(1.0, abs(ref)):
        return [f"bank {bank.name!r}: info_nce {loss!r} != log-sum-exp reference {ref!r}"]
    return []


def check_above_chance(accuracy: float, num_classes: int) -> list:
    if not accuracy > 1.0 / num_classes:
        return [f"held-out top-1 {accuracy:.4f} is not above chance 1/{num_classes}"]
    return []
