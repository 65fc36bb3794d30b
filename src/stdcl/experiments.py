"""Reproducible study protocols built on the synthetic skeleton generator.

Two studies, shared by the experiment scripts and the behavioral test suite:

- decoupling study: train with the contrastive framework on a two-factor
  synthetic set and check that each embedding head organizes by its own
  factor (silhouette grouped by the matching factor beats silhouette
  grouped by the other factor, in both heads).
- improvement study: on a deliberately noisy ("confusable") variant, train
  matched runs with the framework on and off, and compare held-out top-1
  accuracy seed by seed.

The decoupling study defaults to an encoder whose pooled views are exact:
a linear trunk (no hidden blocks), the fixed doubly-stochastic joint
mixing, and circular temporal padding.  With those choices frame-pooling
and joint-pooling commute with every trunk stage, so the spatial head sees
precisely the time-averaged pose and the temporal head precisely the
joint-averaged motion envelope - neither head has a parameter direction
through which the other factor can leak in.  Hidden relu blocks break the
commutation (rectification couples the axes) and are left to the
improvement study, where capacity matters and decoupling is not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SkeletonDataset, SyntheticSpec, generate_synthetic
from .encoder import EncoderConfig
from .errors import ConfigError
from .metrics import silhouette_score
from .train import TrainConfig, embedding_report, evaluate, fit

__all__ = [
    "DecouplingStudyConfig",
    "DecouplingSeedResult",
    "DecouplingStudyResult",
    "ImprovementStudyConfig",
    "ImprovementSeedResult",
    "ImprovementStudyResult",
    "stratified_split",
    "run_decoupling_seed",
    "run_decoupling_study",
    "run_improvement_seed",
    "run_improvement_study",
]


# ---------------------------------------------------------------------------
# dataset helpers


def stratified_split(ds: SkeletonDataset, eval_per_class: int) -> tuple[SkeletonDataset, SkeletonDataset]:
    """Hold out the last `eval_per_class` sequences of every class.

    Instance noise is drawn independently per sequence, so a positional
    split within each class block is an unbiased holdout.  Each half lists
    the classes in ascending order, each class's sequences in dataset
    order, and is a copy whose rows are its bank slots 0..len-1.
    """
    if eval_per_class < 1:
        raise ConfigError(f"eval_per_class must be positive, got {eval_per_class}")
    halves = {"train": [], "eval": []}
    for label in np.unique(ds.targets):
        members = np.flatnonzero(ds.targets == label)
        if eval_per_class >= len(members):
            raise ConfigError(
                f"class {label} has {len(members)} sequences; cannot hold out {eval_per_class}"
            )
        halves["train"].append(members[:-eval_per_class])
        halves["eval"].append(members[-eval_per_class:])

    def subset(suffix: str) -> SkeletonDataset:
        rows = np.concatenate(halves[suffix])
        name = f"{ds.name}/{suffix}" if ds.name else suffix
        return SkeletonDataset(ds.coords[rows], ds.targets[rows], ds.num_classes, name)

    return subset("train"), subset("eval")


# ---------------------------------------------------------------------------
# study configs


@dataclass(frozen=True, kw_only=True)
class StudyConfig:
    """Fields and builders shared by both studies.

    Each study subclass sets the four fields that have no default here:
    ``per_class``, ``noise_std``, ``hidden`` and ``epochs``.
    """

    # data: 2 spatial x 2 temporal motifs
    joints: int = 8
    frames: int = 24
    num_spatial: int = 2
    num_temporal: int = 2
    per_class: int
    noise_std: float
    # encoder
    channels: int = 32
    kernel_size: int = 5
    hidden: tuple[int, ...]
    joint_mixing: str = "fixed"
    temporal_padding: str = "circular"
    # optimization
    epochs: int
    batch_size: int = 8
    learning_rate: float = 0.01
    tau: float = 0.8
    embed_dim: int = 32
    reduction: int = 4
    n_pos_hard: int = 2
    n_neg_hard: int = 8
    n_neg_rand: int = 8
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            joints=self.joints,
            frames=self.frames,
            num_spatial=self.num_spatial,
            num_temporal=self.num_temporal,
            per_class=self.per_class,
            noise_std=self.noise_std,
        )

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            joints=self.joints,
            frames=self.frames,
            channels=self.channels,
            temporal_stride=1,
            hidden=self.hidden,
            kernel_size=self.kernel_size,
            joint_mixing=self.joint_mixing,
            temporal_padding=self.temporal_padding,
        )

    def train_config(self, seed: int, framework_enabled: bool = True) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            seed=seed,
            tau=self.tau,
            framework_enabled=framework_enabled,
            n_pos_hard=self.n_pos_hard,
            n_neg_hard=self.n_neg_hard,
            n_neg_rand=self.n_neg_rand,
            embed_dim=self.embed_dim,
            reduction=self.reduction,
            eval_every=0,
        )


@dataclass(frozen=True, kw_only=True)
class DecouplingStudyConfig(StudyConfig):
    # mild noise; a linear trunk with exact pooled views (see module docstring)
    per_class: int = 50
    noise_std: float = 0.05
    hidden: tuple[int, ...] = ()
    epochs: int = 50


@dataclass(frozen=True, kw_only=True)
class ImprovementStudyConfig(StudyConfig):
    # noise raised until the baseline is confusable (held-out top-1 well below
    # ceiling), a holdout split, and a hidden relu block so pooled features
    # can carry class signal
    per_class: int = 80
    eval_per_class: int = 30
    noise_std: float = 1.35
    hidden: tuple[int, ...] = (16,)
    epochs: int = 40


# ---------------------------------------------------------------------------
# decoupling study


@dataclass(frozen=True)
class DecouplingSeedResult:
    seed: int
    accuracy: float
    spatial_by_spatial: float  # silhouette of spatial embeddings, grouped by spatial motif
    spatial_by_temporal: float
    temporal_by_temporal: float
    temporal_by_spatial: float

    @property
    def decoupled(self) -> bool:
        """Each head separates its own factor better than the other factor."""
        return (
            self.spatial_by_spatial > self.spatial_by_temporal
            and self.temporal_by_temporal > self.temporal_by_spatial
        )


@dataclass(frozen=True)
class DecouplingStudyResult:
    config: DecouplingStudyConfig
    per_seed: tuple[DecouplingSeedResult, ...]

    @property
    def passes(self) -> int:
        return sum(r.decoupled for r in self.per_seed)


def run_decoupling_seed(cfg: DecouplingStudyConfig, seed: int) -> DecouplingSeedResult:
    spec = cfg.synthetic_spec()
    dataset = generate_synthetic(spec, seed=seed, name=f"decoupling-{seed}")
    result = fit(dataset, cfg.encoder_config(), cfg.train_config(seed))
    spatial_factor = spec.spatial_factor(dataset.targets)
    temporal_factor = spec.temporal_factor(dataset.targets)
    report = embedding_report(result.model, dataset)
    return DecouplingSeedResult(
        seed=seed,
        accuracy=evaluate(result.model, dataset).accuracy,
        spatial_by_spatial=silhouette_score(report.spatial, spatial_factor),
        spatial_by_temporal=silhouette_score(report.spatial, temporal_factor),
        temporal_by_temporal=silhouette_score(report.temporal, temporal_factor),
        temporal_by_spatial=silhouette_score(report.temporal, spatial_factor),
    )


def run_decoupling_study(cfg: DecouplingStudyConfig | None = None) -> DecouplingStudyResult:
    cfg = cfg or DecouplingStudyConfig()
    per_seed = tuple(run_decoupling_seed(cfg, seed) for seed in cfg.seeds)
    return DecouplingStudyResult(config=cfg, per_seed=per_seed)


# ---------------------------------------------------------------------------
# improvement study


@dataclass(frozen=True)
class ImprovementSeedResult:
    seed: int
    baseline_accuracy: float
    framework_accuracy: float

    @property
    def difference(self) -> float:
        return self.framework_accuracy - self.baseline_accuracy


@dataclass(frozen=True)
class ImprovementStudyResult:
    config: ImprovementStudyConfig
    per_seed: tuple[ImprovementSeedResult, ...]

    @property
    def mean_baseline(self) -> float:
        return float(np.mean([r.baseline_accuracy for r in self.per_seed]))

    @property
    def mean_framework(self) -> float:
        return float(np.mean([r.framework_accuracy for r in self.per_seed]))

    @property
    def mean_difference(self) -> float:
        return self.mean_framework - self.mean_baseline


def run_improvement_seed(cfg: ImprovementStudyConfig, seed: int) -> ImprovementSeedResult:
    spec = cfg.synthetic_spec()
    full = generate_synthetic(spec, seed=seed, name=f"improvement-{seed}")
    train_ds, eval_ds = stratified_split(full, cfg.eval_per_class)
    encoder_cfg = cfg.encoder_config()
    accuracies = {}
    for framework_enabled in (False, True):
        result = fit(train_ds, encoder_cfg, cfg.train_config(seed, framework_enabled))
        accuracies[framework_enabled] = evaluate(result.model, eval_ds).accuracy
    return ImprovementSeedResult(
        seed=seed,
        baseline_accuracy=accuracies[False],
        framework_accuracy=accuracies[True],
    )


def run_improvement_study(cfg: ImprovementStudyConfig | None = None) -> ImprovementStudyResult:
    cfg = cfg or ImprovementStudyConfig()
    per_seed = tuple(run_improvement_seed(cfg, seed) for seed in cfg.seeds)
    return ImprovementStudyResult(config=cfg, per_seed=per_seed)
