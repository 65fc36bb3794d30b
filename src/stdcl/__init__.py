"""Spatial-temporal decoupled contrastive training for skeleton sequences.

The package bundles a small reverse-mode autodiff engine (`tensor`), a
toy skeleton encoder (`encoder`), the spatial/temporal decoupling
branches (`decoupling`), dual memory banks with hard-mined InfoNCE
(`contrast`), a deterministic training loop (`train`), a synthetic
dataset generator built to probe the decoupling claim (`data`), and a
CLI (`cli`).
"""

from .contrast import ContrastConfig, ContrastSample, MemoryBank, info_nce, sample_contrast
from .data import SkeletonDataset, SkeletonSequence, SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .decoupling import decouple, init_decoupler
from .encoder import EncoderConfig, classify, encode, init_params
from .errors import (
    BankIntegrityError,
    ConfigError,
    DataFormatError,
    DegenerateVectorError,
    DimensionError,
    DomainError,
    NumericError,
    StdclError,
)
from .tensor import Tensor
from .train import EvalReport, Model, StepRecord, TrainConfig, evaluate, fit, load_model, train_step

__version__ = "0.1.0"

__all__ = [
    "BankIntegrityError",
    "ConfigError",
    "ContrastConfig",
    "ContrastSample",
    "DataFormatError",
    "DegenerateVectorError",
    "DimensionError",
    "DomainError",
    "EncoderConfig",
    "EvalReport",
    "MemoryBank",
    "Model",
    "NumericError",
    "SkeletonDataset",
    "SkeletonSequence",
    "StdclError",
    "StepRecord",
    "SyntheticSpec",
    "Tensor",
    "TrainConfig",
    "classify",
    "decouple",
    "encode",
    "evaluate",
    "fit",
    "generate_synthetic",
    "info_nce",
    "init_decoupler",
    "init_params",
    "load_dataset",
    "load_model",
    "sample_contrast",
    "save_dataset",
    "train_step",
]
