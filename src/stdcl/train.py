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
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as tz
from .checkpoint import load_checkpoint, save_checkpoint
from .contrast import ContrastConfig, contrast_losses, make_banks
from .data import SkeletonDataset
from .decoupling import DecouplerParams, decouple, init_decoupler
from .encoder import EncoderConfig, classify, encode, init_params, test_forward
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
    params: dict  # encoder + classifier head tensors
    decoupler: DecouplerParams | None

    def named_tensors(self) -> dict:
        named = dict(self.params)
        if self.decoupler is not None:
            named.update({f"decouple.{k}": v for k, v in self.decoupler.named().items()})
        return named


@dataclass
class StepRecord:
    epoch: int
    step: int
    loss_ce: float
    loss_spatial: float
    loss_temporal: float
    total: float
    skipped_positives: int
    wall_time: float  # kept in memory only; excluded from the metrics CSV


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


def build_model(encoder_cfg: EncoderConfig, num_classes: int, cfg: TrainConfig) -> Model:
    params = init_params(encoder_cfg, num_classes, seed=cfg.seed)
    decoupler = None
    if cfg.framework_enabled:
        decoupler = init_decoupler(
            joints=encoder_cfg.joints,
            out_frames=encoder_cfg.out_frames,
            channels=encoder_cfg.channels,
            reduction=cfg.reduction,
            dim=cfg.embed_dim,
            seed=cfg.seed,
        )
    return Model(encoder_cfg=encoder_cfg, num_classes=num_classes, params=params, decoupler=decoupler)


def train_step(
    batch: list,
    model: Model,
    banks: dict,
    cfg: TrainConfig,
    optimizer: SGD,
    lr: float,
    epoch: int = 0,
    step: int = 0,
) -> StepRecord:
    t0 = time.perf_counter()
    labels = [seq.label for seq in batch]
    indices = [seq.index for seq in batch]
    feature_map = encode(model.params, model.encoder_cfg, np.stack([seq.coords for seq in batch]))
    logits = classify(model.params, feature_map)
    # batch-mean loss terms in graph order; a head whose anchors have no live term stays out
    means = {"ce": tz.mean_over_axes(tz.softmax_cross_entropy(logits, labels), (0,))}
    embeddings = {}
    skipped = 0
    if cfg.framework_enabled:
        pair = decouple(feature_map, model.decoupler)
        embeddings = {"spatial": pair.spatial, "temporal": pair.temporal}
        for name, anchors in embeddings.items():
            losses, n_skip = contrast_losses(banks[name], anchors, labels, indices, cfg.contrast_config())
            skipped += n_skip
            if losses is not None:
                means[name] = tz.mean_over_axes(losses, (0,))

    weights = {"ce": cfg.lambda_ce, "spatial": cfg.lambda_spatial, "temporal": cfg.lambda_temporal}
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
        optimizer.step(lr)
    for name, anchors in embeddings.items():
        banks[name].update(indices, anchors.data, labels)

    return StepRecord(
        epoch=epoch,
        step=step,
        loss_ce=values["ce"],
        loss_spatial=values["spatial"],
        loss_temporal=values["temporal"],
        total=total,
        skipped_positives=skipped,
        wall_time=time.perf_counter() - t0,
    )


def _coord_chunks(dataset: SkeletonDataset):
    """(start, coords) for consecutive (<=TEST_CHUNK, joints, frames, 3) batches of the dataset."""
    for start in range(0, len(dataset), TEST_CHUNK):
        yield start, np.stack([seq.coords for seq in dataset.sequences[start : start + TEST_CHUNK]])


def evaluate(model: Model, dataset: SkeletonDataset) -> EvalReport:
    """Top-1 accuracy over the inference path (encoder + head only)."""
    predictions = np.concatenate(
        [test_forward(model.params, model.encoder_cfg, coords) for _, coords in _coord_chunks(dataset)]
    )
    labels = dataset.labels()
    return EvalReport(
        accuracy=top1_accuracy(predictions, labels),
        per_class=per_class_accuracy(predictions, labels, model.num_classes),
        count=len(dataset),
    )


def predict_logits(model: Model, coords: np.ndarray) -> np.ndarray:
    """Tape-free (K,) logits for one (joints, frames, 3) sequence; same path evaluate() scores."""
    with tz.no_grad():
        return classify(model.params, encode(model.params, model.encoder_cfg, np.asarray(coords)[None])).data[0]


def embedding_report(model: Model, dataset: SkeletonDataset) -> EmbeddingReport:
    """Analysis path: re-run the decoupling branches with final weights."""
    if model.decoupler is None:
        raise ConfigError("embedding report needs the decoupling branches (framework disabled)")
    spatial = np.zeros((len(dataset), model.decoupler.dim))
    temporal = np.zeros_like(spatial)
    with tz.no_grad():
        for start, coords in _coord_chunks(dataset):
            pair = decouple(encode(model.params, model.encoder_cfg, coords), model.decoupler)
            spatial[start : start + len(coords)] = pair.spatial.data
            temporal[start : start + len(coords)] = pair.temporal.data
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
    with open(path, "w", encoding="utf-8") as f:
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
    meta = {
        "encoder": {**asdict(model.encoder_cfg), "hidden": list(model.encoder_cfg.hidden)},
        "num_classes": model.num_classes,
        "embed_dim": model.decoupler.dim if model.decoupler else None,
        "reduction": model.decoupler.reduction if model.decoupler else None,
    }
    if cfg is not None:
        meta["train"] = asdict(cfg)
    meta.update(extra)
    return meta


def save_model(path: str, model: Model, meta: dict) -> None:
    save_checkpoint(path, model.named_tensors(), meta)


def load_model(path: str) -> tuple[Model, dict]:
    """Rebuild a model from a checkpoint, checked against the configs its meta describes.

    The meta must name the encoder config and class count, plus the
    decoupler's embed_dim and reduction when the checkpoint holds
    ``decouple.*`` arrays.  The name table and every array shape must be
    those the configs build; any mismatch raises DataFormatError.
    """
    arrays, meta = load_checkpoint(path)
    has_decoupler = any(k.startswith("decouple.") for k in arrays)
    required = ["encoder", "num_classes"] + (["embed_dim", "reduction"] if has_decoupler else [])
    missing = [key for key in required if not isinstance(meta, dict) or key not in meta]
    if missing:
        raise DataFormatError(f"{path}: checkpoint meta lacks {', '.join(missing)}")
    try:
        encoder_cfg = EncoderConfig(**{**meta["encoder"], "hidden": tuple(meta["encoder"]["hidden"])})
        num_classes = int(meta["num_classes"])
        expected = init_params(encoder_cfg, num_classes, seed=0)
        if has_decoupler:
            reduction, dim = int(meta["reduction"]), int(meta["embed_dim"])
            skeleton = init_decoupler(
                joints=encoder_cfg.joints, out_frames=encoder_cfg.out_frames,
                channels=encoder_cfg.channels, reduction=reduction, dim=dim, seed=0,
            )
            expected.update({f"decouple.{k}": v for k, v in skeleton.named().items()})
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataFormatError(f"{path}: checkpoint meta does not describe a model: {exc}") from None
    if sorted(arrays) != sorted(expected):
        absent = sorted(set(expected) - set(arrays))
        extra = sorted(set(arrays) - set(expected))
        raise DataFormatError(
            f"{path}: checkpoint arrays do not match its meta (missing {absent}, unexpected {extra})"
        )
    for name, tensor in expected.items():
        if arrays[name].shape != tensor.shape:
            raise DataFormatError(
                f"{path}: array {name!r} has shape {arrays[name].shape}, its meta builds {tensor.shape}"
            )
    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    decoupler = None
    if has_decoupler:
        named = {name: tensors[f"decouple.{name}"] for name in skeleton.named()}
        decoupler = DecouplerParams(**named, reduction=reduction, dim=dim)
    model = Model(
        encoder_cfg=encoder_cfg,
        num_classes=num_classes,
        params={k: v for k, v in tensors.items() if not k.startswith("decouple.")},
        decoupler=decoupler,
    )
    return model, meta


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
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_HEADER)
        writer.writerows(rows)


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
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    model = build_model(encoder_cfg, dataset.num_classes, cfg)
    banks = make_banks(len(dataset), cfg.embed_dim, cfg.seed) if cfg.framework_enabled else {}
    optimizer = SGD(model.named_tensors(), cfg.momentum, cfg.weight_decay)
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
            batch = [dataset[int(i)] for i in order[start : start + cfg.batch_size]]
            record = train_step(batch, model, banks, cfg, optimizer, lr, epoch=epoch, step=step)
            history.append(record)
            rows.append(_metrics_row(record))
            step += 1
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            report = evaluate(model, eval_on)
            eval_history.append((epoch, report.accuracy))
            rows.append(["eval", epoch, "", "", "", "", "", "", f"{report.accuracy:.10g}"])
        if (
            out_dir
            and cfg.checkpoint_every
            and (epoch + 1) % cfg.checkpoint_every == 0
            and epoch + 1 < cfg.epochs
        ):
            save_model(
                os.path.join(out_dir, f"{stem}-epoch{epoch + 1:03d}.ckpt"),
                model,
                model_meta(model, cfg, epoch=epoch + 1, step=step),
            )

    metrics_path = checkpoint_path = None
    if out_dir is not None:
        metrics_path = os.path.join(out_dir, f"{stem}-metrics.csv")
        write_metrics_csv(metrics_path, rows)
        checkpoint_path = os.path.join(out_dir, f"{stem}.ckpt")
        save_model(checkpoint_path, model, model_meta(model, cfg, epoch=cfg.epochs, step=step))
    return FitResult(
        model=model,
        banks=banks,
        history=history,
        eval_history=eval_history,
        metrics_path=metrics_path,
        checkpoint_path=checkpoint_path,
    )
