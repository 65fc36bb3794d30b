"""The three benchmark workloads: their inputs, encoder and training config.

Every workload runs the pipeline a `stdcl` user runs: generate a synthetic
dataset from the workload seed, write it to disk and read it back (set-up),
train one epoch with the framework on and one with it off (each fit writes
its checkpoint and metrics CSV), reload the framework-on checkpoint and
evaluate it, and embed the training set.  The workloads differ in data,
model and file format; README.md says which layer each one stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from stdcl import data
from stdcl.data import SyntheticSpec
from stdcl.encoder import EncoderConfig
from stdcl.experiments import DecouplingStudyConfig, ImprovementStudyConfig, stratified_split
from stdcl.train import TrainConfig

DECOUPLING = DecouplingStudyConfig(epochs=1)
IMPROVEMENT = ImprovementStudyConfig(epochs=1)
# `stdcl gen-data` defaults, with 100 sequences per class, 10 of them held out
LARGE_BANK_SPEC = SyntheticSpec(num_spatial=4, num_temporal=4, per_class=100, noise_std=0.1)
LARGE_BANK_EVAL_PER_CLASS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    spec: SyntheticSpec
    split: Callable  # generated dataset -> (train, held-out or None)
    file_ext: str  # ".skl" is the binary format, ".jsonl" the text one
    encoder: EncoderConfig
    train_config: Callable  # (seed, framework_enabled) -> TrainConfig
    check_decoupled: bool = False
    check_banks: bool = False

    def generate(self, seed: int):
        return self.split(data.generate_synthetic(self.spec, seed=seed, name=self.name))

    def epochs(self) -> int:
        return self.train_config(0, True).epochs


def _large_bank_train_config(seed: int, framework_enabled: bool) -> TrainConfig:
    # every other field is the `stdcl train` default (CONFIG_SCHEMA)
    return TrainConfig(epochs=1, seed=seed, framework_enabled=framework_enabled, eval_every=0)


WORKLOADS = {
    "decoupling": Workload(
        name="decoupling",
        spec=DECOUPLING.synthetic_spec(),
        split=lambda ds: (ds, None),
        file_ext=".skl",
        encoder=DECOUPLING.encoder_config(),
        train_config=DECOUPLING.train_config,
        check_decoupled=True,
    ),
    "improvement": Workload(
        name="improvement",
        spec=IMPROVEMENT.synthetic_spec(),
        split=lambda ds: stratified_split(ds, IMPROVEMENT.eval_per_class),
        file_ext=".skl",
        encoder=IMPROVEMENT.encoder_config(),
        train_config=IMPROVEMENT.train_config,
    ),
    "large-bank": Workload(
        name="large-bank",
        spec=LARGE_BANK_SPEC,
        split=lambda ds: stratified_split(ds, LARGE_BANK_EVAL_PER_CLASS),
        file_ext=".jsonl",
        # `stdcl train` defaults: stride 2, zero padding, hidden (16,), 32 channels
        encoder=EncoderConfig(joints=LARGE_BANK_SPEC.joints, frames=LARGE_BANK_SPEC.frames, channels=32),
        train_config=_large_bank_train_config,
        check_banks=True,
    ),
}
