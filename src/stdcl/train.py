"""Training loop: cross-entropy plus the two contrastive terms.

The per-step objective is

    total = lambda_ce * L_ce + lambda_spatial * L_spa + lambda_temporal * L_tem

with all weights defaulting to 1 (the plain three-term sum).  Non-unit
weights are an extension for ablations.  Terms whose weight is exactly
zero are still evaluated for logging but are left out of the backward
graph entirely, so a zero-weighted run takes bit-identical optimizer
steps to a run with the term disabled outright.

Batch semantics: a step runs the whole batch through the encoder, the
head and the decoupler as one forward pass with a leading batch axis, so
it records one tape.  Every instance in a batch mines the banks as they
stood at the start of the step; the fresh embeddings are written back
only after the optimizer update.  One backward pass covers the whole
weighted sum.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensor as tz
from .atomic import atomic_path
from .checkpoint import load_checkpoint, save_checkpoint
from .contrast import ContrastConfig, contrast_losses, make_banks
from .data import SkeletonDataset
from .decoupling import decouple, decoupler_shapes, init_decoupler, project
from .encoder import EncoderConfig, classify, encode, head, init_params, last_block_pools, param_shapes
from .errors import ConfigError, DataFormatError, NumericError
from .metrics import per_class_accuracy, silhouette_score, top1_accuracy
from .rng import seeded_rng
from .tensor import Tensor

# Sequences per tape-free forward in evaluate() and embedding_report(): enough
# to amortise the per-op overhead, few enough to keep peak memory near training's.
TEST_CHUNK = 16

METRICS_HEADER = [
    "kind",
    "epoch",
    "step",
    "loss_ce",
    "loss_spatial",
    "loss_temporal",
    "loss_total",
    "skipped_positives",
    "accuracy",
]


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; these defaults are the `train.*` and `contrast.*` config defaults."""

    epochs: int = 20
    batch_size: int = 8
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0
    framework_enabled: bool = True
    lambda_ce: float = 1.0
    lambda_spatial: float = 1.0
    lambda_temporal: float = 1.0
    loss_form: str = ContrastConfig.loss_form
    lr_decay_epochs: int = 0  # 0 disables the step schedule
    lr_decay_gamma: float = 0.1
    checkpoint_every: int = 0  # epochs between periodic checkpoints; 0 = final only
    eval_every: int = 1  # epochs between eval rows; 0 disables
    embed_dim: int = 256
    reduction: int = 8
    tau: float = ContrastConfig.tau
    n_pos_hard: int = ContrastConfig.n_pos_hard
    n_neg_hard: int = ContrastConfig.n_neg_hard
    n_neg_rand: int = ContrastConfig.n_neg_rand

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
        for name in ("lambda_ce", "lambda_spatial", "lambda_temporal"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.lr_decay_epochs < 0:
            raise ConfigError(f"lr_decay_epochs must be non-negative, got {self.lr_decay_epochs}")
        if not self.lr_decay_gamma > 0:
            raise ConfigError(f"lr_decay_gamma must be positive, got {self.lr_decay_gamma}")
        if self.checkpoint_every < 0 or self.eval_every < 0:
            raise ConfigError("checkpoint_every and eval_every must be non-negative")
        # temperature/count/form validation lives in ContrastConfig
        self.contrast_config()
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")

    def contrast_config(self) -> ContrastConfig:
        return ContrastConfig(
            tau=self.tau,
            n_pos_hard=self.n_pos_hard,
            n_neg_hard=self.n_neg_hard,
            n_neg_rand=self.n_neg_rand,
            loss_form=self.loss_form,
        )

    def lr_at(self, epoch: int) -> float:
        if self.lr_decay_epochs == 0:
            return self.learning_rate
        return self.learning_rate * self.lr_decay_gamma ** (epoch // self.lr_decay_epochs)


@dataclass
class Model:
    encoder_cfg: EncoderConfig
    num_classes: int
    params: dict  # checkpoint name -> tensor: encoder, classifier head and, framework on, decouple.*

    def named_tensors(self) -> dict:
        """`params` itself; the benchmark harness reads the model's tensors through this name."""
        return self.params


@dataclass
class StepRecord:
    epoch: int
    step: int
    loss_ce: float
    loss_spatial: float
    loss_temporal: float
    total: float
    skipped_positives: int


@dataclass
class EvalReport:
    accuracy: float
    per_class: np.ndarray
    count: int


@dataclass
class EmbeddingReport:
    spatial: np.ndarray  # (L, dim)
    temporal: np.ndarray  # (L, dim)
    labels: np.ndarray
    silhouette_spatial: float
    silhouette_temporal: float


@dataclass
class FitResult:
    model: Model
    banks: dict
    history: list = field(default_factory=list)
    eval_history: list = field(default_factory=list)
    metrics_path: str | None = None
    checkpoint_path: str | None = None


class SGD:
    """SGD with momentum and decoupled-from-nothing classic weight decay.

    v <- momentum * v + grad + weight_decay * p;  p <- p - lr * v.
    Parameters whose grad is None (absent from the backward graph) are
    left untouched.
    """

    def __init__(self, named: dict, momentum: float, weight_decay: float):
        self.named = named
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {k: np.zeros_like(t.data) for k, t in named.items()}

    def zero_grad(self) -> None:
        for t in self.named.values():
            t.zero_grad()

    def step(self, lr: float) -> None:
        for name, t in self.named.items():
            if t.grad is None:
                continue
            v = self.velocity[name]
            v *= self.momentum
            v += t.grad
            if self.weight_decay:
                v += self.weight_decay * t.data
            t.data -= lr * v


def model_shapes(encoder_cfg: EncoderConfig, num_classes: int, embed_dim: int | None = None,
                 reduction: int | None = None) -> dict:
    """Checkpoint name -> shape of each tensor of the model, allocating nothing; the decoupler's
    matrices are in it when `embed_dim` is given."""
    shapes = param_shapes(encoder_cfg, num_classes)
    if embed_dim is not None:
        shapes.update(decoupler_shapes(joints=encoder_cfg.joints, out_frames=encoder_cfg.out_frames,
                                       channels=encoder_cfg.channels, reduction=reduction, dim=embed_dim))
    return shapes


def build_model(encoder_cfg: EncoderConfig, num_classes: int, cfg: TrainConfig) -> Model:
    """The initialized model; ConfigError if it has 2**31 values or more (checked before anything
    is allocated) or if its values do not fit in memory."""
    decoupler = (cfg.embed_dim, cfg.reduction) if cfg.framework_enabled else ()
    count = sum(math.prod(shape) for shape in model_shapes(encoder_cfg, num_classes, *decoupler).values())
    if count >= 2**31:
        raise ConfigError(f"the model would have {count} parameters; it must have fewer than 2**31")
    try:
        params = init_params(encoder_cfg, num_classes, seed=cfg.seed)
        if cfg.framework_enabled:
            params.update(init_decoupler(encoder_cfg.joints, encoder_cfg.out_frames, encoder_cfg.channels,
                                         cfg.reduction, cfg.embed_dim, seed=cfg.seed))
    except MemoryError:
        raise ConfigError(f"the model's {count} parameters do not fit in memory") from None
    return Model(encoder_cfg=encoder_cfg, num_classes=num_classes, params=params)


def check_fits(dataset: SkeletonDataset, encoder_cfg: EncoderConfig, num_classes: int) -> None:
    """DataFormatError unless a model of `encoder_cfg` and `num_classes` classes can score `dataset`."""
    enc = encoder_cfg
    if (dataset.joints, dataset.frames) != (enc.joints, enc.frames) or dataset.num_classes > num_classes:
        raise DataFormatError(
            f"eval dataset has {dataset.num_classes} classes of {dataset.joints} joints x {dataset.frames} "
            f"frames; the model takes at most {num_classes} classes, of {enc.joints} x {enc.frames}"
        )


def train_step(
    dataset: SkeletonDataset,
    rows: np.ndarray,
    model: Model,
    banks: dict,
    cfg: TrainConfig,
    optimizer: SGD,
    lr: float,
    epoch: int = 0,
    step: int = 0,
) -> StepRecord:
    """One optimizer step on the sequences at `rows` of `dataset`; a row is also its sequence's bank slot.

    In checked mode the forward and backward are checked at their boundaries
    (`tz.checked_at_boundaries`): the logits, the loss, the anchors (which
    contrast scoring rejects if degenerate) and every parameter gradient,
    all before the optimizer step and the bank writes.  A replay restores
    the bank RNG states first, so it mines the same rows.
    """
    labels = dataset.targets[rows]
    weights = {"ce": cfg.lambda_ce, "spatial": cfg.lambda_spatial, "temporal": cfg.lambda_temporal}
    head_banks = list(banks.values()) if cfg.framework_enabled else []
    rng_states = [bank.rng.bit_generator.state for bank in head_banks]

    def forward_backward():
        feature_map = encode(model.params, model.encoder_cfg, dataset.coords[rows])
        logits = classify(model.params, feature_map)
        # batch-mean loss terms in graph order; a head whose anchors have no live term stays out
        means = {"ce": tz.mean_over_axes(tz.softmax_cross_entropy(logits, labels), (0,))}
        embeddings = {}
        skipped = 0
        if cfg.framework_enabled:
            embeddings = decouple(feature_map, model.params)
            losses, skipped = contrast_losses(banks, embeddings, labels, rows, cfg.contrast_config())
            means.update((name, tz.mean_over_axes(head, (0,))) for name, head in losses.items())

        values = {name: means[name].item() if name in means else 0.0 for name in weights}
        total = sum(weights[name] * values[name] for name in weights)
        if tz.is_checked():
            for name, value in (*values.items(), ("total", total)):
                if not math.isfinite(value):
                    raise NumericError(f"non-finite {name} loss at epoch {epoch} step {step}")

        # zero-weighted terms stay out of the graph entirely
        graph = None
        for name, mean in means.items():
            if weights[name] != 0.0:
                term = mean if weights[name] == 1.0 else tz.scalar_mul(mean, weights[name])
                graph = term if graph is None else tz.add(graph, term)
        if graph is not None and graph.requires_grad:
            optimizer.zero_grad()
            graph.backward()
        else:
            graph = None
        return logits, graph, values, total, embeddings, skipped

    def boundaries(out):
        logits, graph = out[:2]
        yield "train_step", "logits", logits.data
        if graph is not None:
            yield "train_step", "loss", graph.data
            for name, t in optimizer.named.items():
                if t.grad is not None:
                    yield "train_step", f"gradient of {name!r} at epoch {epoch} step {step}", t.grad

    def rewind():
        for bank, state in zip(head_banks, rng_states):
            bank.rng.bit_generator.state = state

    _, graph, values, total, embeddings, skipped = tz.checked_at_boundaries(forward_backward, boundaries, rewind)
    if graph is not None:
        optimizer.step(lr)
    for name, anchors in embeddings.items():
        banks[name].update(rows, anchors.data, labels)

    return StepRecord(
        epoch=epoch,
        step=step,
        loss_ce=values["ce"],
        loss_spatial=values["spatial"],
        loss_temporal=values["temporal"],
        total=total,
        skipped_positives=skipped,
    )


def _tape_free(model: Model, coords: np.ndarray, decoupled: bool = False):
    """Tape-free forward of a (batch, joints, frames, 3) batch: the classifier head's (batch, K) logits
    or, if `decoupled`, the decoupler's {"spatial", "temporal"} embeddings.  The encoder's last block
    runs pooled (`last_block_pools`), so its feature map is never built.  In checked mode these
    outputs are the only values scanned (`tz.checked_at_boundaries`)."""
    def forward():
        with tz.no_grad():
            h = encode(model.params, model.encoder_cfg, coords, last_block=False)
            pools = last_block_pools(model.params, model.encoder_cfg, h, over_joints=decoupled)
            if decoupled:
                return {name: embeddings.data for name, embeddings in project(pools, model.params).items()}
            return head(model.params, tz.mean_over_axes(pools["spatial"], (1,))).data

    def boundaries(out):
        if decoupled:
            return [("forward", f"{name} embeddings", value) for name, value in out.items()]
        return [("forward", "logits", out)]

    return tz.checked_at_boundaries(forward, boundaries)


def evaluate(model: Model, dataset: SkeletonDataset) -> EvalReport:
    """Top-1 accuracy over the test-time path; ties in the logits go to the lowest class."""
    predictions = np.concatenate([
        np.argmax(_tape_free(model, dataset.coords[start : start + TEST_CHUNK]), axis=1)
        for start in range(0, len(dataset), TEST_CHUNK)
    ])
    return EvalReport(
        accuracy=top1_accuracy(predictions, dataset.targets),
        per_class=per_class_accuracy(predictions, dataset.targets, model.num_classes),
        count=len(dataset),
    )


def predict_logits(model: Model, coords: np.ndarray) -> np.ndarray:
    """Tape-free (K,) logits for one (joints, frames, 3) sequence; same path evaluate() scores."""
    return _tape_free(model, np.asarray(coords)[None])[0]


def embedding_report(model: Model, dataset: SkeletonDataset) -> EmbeddingReport:
    """Analysis path: re-run the decoupling branches with final weights."""
    if "decouple.spatial_embed" not in model.params:
        raise ConfigError("embedding report needs the decoupling branches (framework disabled)")
    spatial = np.zeros((len(dataset), model.params["decouple.spatial_embed"].shape[1]))
    temporal = np.zeros_like(spatial)
    for start in range(0, len(dataset), TEST_CHUNK):
        heads = _tape_free(model, dataset.coords[start : start + TEST_CHUNK], decoupled=True)
        spatial[start : start + TEST_CHUNK] = heads["spatial"]
        temporal[start : start + TEST_CHUNK] = heads["temporal"]
    labels = dataset.labels()
    return EmbeddingReport(
        spatial=spatial,
        temporal=temporal,
        labels=labels,
        silhouette_spatial=silhouette_score(spatial, labels),
        silhouette_temporal=silhouette_score(temporal, labels),
    )


def export_embeddings_tsv(report: EmbeddingReport, path: str) -> None:
    dim = report.spatial.shape[1]
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
        header = ["index", "label"]
        header += [f"s{i}" for i in range(dim)] + [f"t{i}" for i in range(dim)]
        f.write("\t".join(header) + "\n")
        for i in range(report.spatial.shape[0]):
            values = [str(i), str(int(report.labels[i]))]
            values += [f"{v:.8g}" for v in report.spatial[i]]
            values += [f"{v:.8g}" for v in report.temporal[i]]
            f.write("\t".join(values) + "\n")


# ---------------------------------------------------------------------------
# checkpoint plumbing


def model_meta(model: Model, cfg: TrainConfig | None = None, **extra) -> dict:
    """Checkpoint meta; embed_dim and reduction are read off the decouple.* shapes (None without them)."""
    reduce, embed = model.params.get("decouple.spatial_reduce"), model.params.get("decouple.spatial_embed")
    meta = {
        "encoder": {**asdict(model.encoder_cfg), "hidden": list(model.encoder_cfg.hidden)},
        "num_classes": model.num_classes,
        "embed_dim": embed.shape[1] if embed is not None else None,
        "reduction": reduce.shape[0] // reduce.shape[1] if reduce is not None else None,
    }
    if cfg is not None:
        meta["train"] = asdict(cfg)
    meta.update(extra)
    return meta


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_model(path: str) -> tuple[Model, dict]:
    """Rebuild a model from a checkpoint, checked against the configs its meta describes.

    The meta must name the encoder config and class count, plus the
    decoupler's embed_dim and reduction when the checkpoint holds
    ``decouple.*`` arrays.  Every size in the meta must be an integer, and
    the name table and every array shape must be those the configs build;
    both are checked before anything is allocated.  Every value must be
    finite, in or out of checked mode.  Any mismatch raises DataFormatError.
    """
    arrays, meta = load_checkpoint(path)
    has_decoupler = any(k.startswith("decouple.") for k in arrays)
    required = ["encoder", "num_classes"] + (["embed_dim", "reduction"] if has_decoupler else [])
    missing = [key for key in required if not isinstance(meta, dict) or key not in meta]
    if missing:
        raise DataFormatError(f"{path}: checkpoint meta lacks {', '.join(missing)}")
    try:
        hidden = meta["encoder"]["hidden"]
        if not isinstance(hidden, list):
            raise TypeError(f"encoder.hidden must be a list, got {hidden!r}")
        encoder_cfg = EncoderConfig(**{**meta["encoder"], "hidden": tuple(hidden)})  # checks its own sizes
        for key in required[1:]:
            if not _is_int(meta[key]):
                raise TypeError(f"{key} must be an integer, got {meta[key]!r}")
        num_classes = meta["num_classes"]
        decoupler = (meta["embed_dim"], meta["reduction"]) if has_decoupler else ()
        expected = model_shapes(encoder_cfg, num_classes, *decoupler)
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataFormatError(f"{path}: checkpoint meta does not describe a model: {exc}") from None
    if sorted(arrays) != sorted(expected):
        absent = sorted(set(expected) - set(arrays))
        extra = sorted(set(arrays) - set(expected))
        raise DataFormatError(
            f"{path}: checkpoint arrays do not match its meta (missing {absent}, unexpected {extra})"
        )
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise DataFormatError(f"{path}: array {name!r} has shape {arrays[name].shape}, its meta builds {shape}")
        if not np.isfinite(arrays[name]).all():
            raise DataFormatError(f"{path}: array {name!r} holds a non-finite value")
    params = {name: Tensor(arrays[name], requires_grad=True) for name in expected}
    return Model(encoder_cfg=encoder_cfg, num_classes=num_classes, params=params), meta


# ---------------------------------------------------------------------------
# fit


def _metrics_row(record: StepRecord) -> list:
    return [
        "step",
        record.epoch,
        record.step,
        f"{record.loss_ce:.10g}",
        f"{record.loss_spatial:.10g}",
        f"{record.loss_temporal:.10g}",
        f"{record.total:.10g}",
        record.skipped_positives,
        "",
    ]


def write_metrics_csv(path: str, rows: list) -> None:
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_HEADER)
        writer.writerows(rows)


def _epoch_checkpoint_path(out_dir: str, stem: str, epoch: int) -> str:
    return os.path.join(out_dir, f"{stem}-epoch{epoch:03d}.ckpt")


def _check_output_paths(out_dir: str, stem: str, paths: tuple, epochs: range) -> None:
    """ConfigError if a file that `fit` writes into `out_dir`, one of `paths` or the periodic
    checkpoint of one of `epochs`, is a directory there."""
    with os.scandir(out_dir) as entries:
        for entry in entries:
            digits = entry.name.removeprefix(f"{stem}-epoch").removesuffix(".ckpt")
            periodic = (digits.isdecimal() and int(digits) in epochs
                        and entry.path == _epoch_checkpoint_path(out_dir, stem, int(digits)))
            if (entry.path in paths or periodic) and entry.is_dir(follow_symlinks=False):
                raise ConfigError(f"output path must name a file, but {entry.path!r} is a directory")


def fit(
    dataset: SkeletonDataset,
    encoder_cfg: EncoderConfig,
    cfg: TrainConfig,
    out_dir: str | None = None,
    eval_dataset: SkeletonDataset | None = None,
    stem: str = "model",
) -> FitResult:
    if encoder_cfg.joints != dataset.joints or encoder_cfg.frames != dataset.frames:
        raise ConfigError(
            f"encoder expects (joints={encoder_cfg.joints}, frames={encoder_cfg.frames}) but the "
            f"dataset provides (joints={dataset.joints}, frames={dataset.frames})"
        )
    if dataset.num_classes > len(dataset):
        raise DataFormatError(
            f"dataset has more classes ({dataset.num_classes}) than sequences ({len(dataset)}), "
            "so some class has no training sequence"
        )
    if eval_dataset is not None:
        check_fits(eval_dataset, encoder_cfg, dataset.num_classes)
    metrics_path = checkpoint_path = None
    saved_epochs = range(0)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, f"{stem}-metrics.csv")
        checkpoint_path = os.path.join(out_dir, f"{stem}.ckpt")
        if cfg.checkpoint_every:
            saved_epochs = range(cfg.checkpoint_every, cfg.epochs, cfg.checkpoint_every)
        _check_output_paths(out_dir, stem, (metrics_path, checkpoint_path), saved_epochs)
    model = build_model(encoder_cfg, dataset.num_classes, cfg)
    banks = make_banks(len(dataset), cfg.embed_dim, cfg.seed) if cfg.framework_enabled else {}
    optimizer = SGD(model.params, cfg.momentum, cfg.weight_decay)
    shuffle_rng = seeded_rng(cfg.seed, "shuffle")
    eval_on = eval_dataset if eval_dataset is not None else dataset

    history: list = []
    eval_history: list = []
    rows: list = []
    step = 0
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = shuffle_rng.permutation(len(dataset))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            record = train_step(dataset, batch, model, banks, cfg, optimizer, lr, epoch=epoch, step=step)
            history.append(record)
            rows.append(_metrics_row(record))
            step += 1
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            report = evaluate(model, eval_on)
            eval_history.append((epoch, report.accuracy))
            rows.append(["eval", epoch, "", "", "", "", "", "", f"{report.accuracy:.10g}"])
        if epoch + 1 in saved_epochs:
            save_checkpoint(_epoch_checkpoint_path(out_dir, stem, epoch + 1), model.params,
                            model_meta(model, cfg, epoch=epoch + 1, step=step))

    if out_dir is not None:
        write_metrics_csv(metrics_path, rows)
        save_checkpoint(checkpoint_path, model.params, model_meta(model, cfg, epoch=cfg.epochs, step=step))
    return FitResult(
        model=model,
        banks=banks,
        history=history,
        eval_history=eval_history,
        metrics_path=metrics_path,
        checkpoint_path=checkpoint_path,
    )
