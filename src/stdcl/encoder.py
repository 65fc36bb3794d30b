"""Toy skeleton encoder.

Maps a batch of raw coordinates (batch, joints, frames, 3) to feature maps
(batch, joints, out_frames, channels) with a stack of temporal
convolutions, each followed by a joint-mixing matrix applied across the
joint axis.
The mixing matrix is a fixed dense adjacency-like matrix by default
(complete graph with self-loops, doubly stochastic) and can optionally
be a learned matrix per block.  ReLU sits between blocks but not after
the last one, so the final feature map is unconstrained in sign.  A
linear head on each globally averaged feature map produces a row of class
logits.  A single sequence is the batch-of-one case.

Parameters live in a flat dict keyed ``conv{i}.w``, ``conv{i}.b``,
``mix{i}`` (learned mixing only), ``head.w``, ``head.b`` so
checkpointing and gradient checking can treat them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigError, DimensionError
from .rng import seeded_rng
from .tensor import PADDING_MODES, Tensor


MIXING_MODES = ("fixed", "learned")


@dataclass(frozen=True)
class EncoderConfig:
    joints: int
    frames: int  # input frames
    channels: int = 32  # output feature channels
    temporal_stride: int = 2
    hidden: tuple = (16,)
    kernel_size: int = 5
    joint_mixing: str = "fixed"  # fixed adjacency-like matrix, or a learned one
    temporal_padding: str = "zero"

    def __post_init__(self):
        if self.joints < 2:
            raise ConfigError(f"encoder needs at least 2 joints, got {self.joints}")
        if self.frames < 1:
            raise ConfigError(f"encoder needs at least 1 frame, got {self.frames}")
        if self.channels < 1:
            raise ConfigError(f"channels must be positive, got {self.channels}")
        if self.temporal_stride < 1:
            raise ConfigError(f"temporal_stride must be positive, got {self.temporal_stride}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd and positive, got {self.kernel_size}")
        if any(int(h) < 1 for h in self.hidden):
            raise ConfigError(f"hidden channel counts must be positive, got {self.hidden}")
        if self.joint_mixing not in MIXING_MODES:
            raise ConfigError(f"joint_mixing must be one of {MIXING_MODES}, got {self.joint_mixing!r}")
        if self.temporal_padding not in PADDING_MODES:
            raise ConfigError(
                f"temporal_padding must be one of {PADDING_MODES}, got {self.temporal_padding!r}"
            )
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    @property
    def out_frames(self) -> int:
        return -(-self.frames // self.temporal_stride)

    @property
    def channel_plan(self) -> list[int]:
        return [3, *self.hidden, self.channels]


def mixing_matrix(joints: int, self_weight: float = 0.5) -> np.ndarray:
    """Fixed dense joint-mixing matrix: a complete graph with self-loops.

    ``self_weight * I + (1 - self_weight)/J * ones`` is doubly stochastic,
    so pooling over the joint axis commutes with the mixing: signals with
    zero joint-mean stay zero-joint-mean and the joint-mean component
    passes through unchanged.
    """
    eye = np.eye(joints)
    return self_weight * eye + (1.0 - self_weight) / joints * np.ones((joints, joints))


def init_params(cfg: EncoderConfig, num_classes: int, seed: int) -> dict[str, Tensor]:
    """Uniform(+-sqrt(1/fan_in)) weights, zero biases."""
    if num_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}")
    params: dict[str, Tensor] = {}
    plan = cfg.channel_plan
    for i, (cin, cout) in enumerate(zip(plan[:-1], plan[1:])):
        rng = seeded_rng(seed, f"init/encoder/layer{i}")
        bound = np.sqrt(1.0 / (cfg.kernel_size * cin))
        params[f"conv{i}.w"] = Tensor(
            rng.uniform(-bound, bound, (cfg.kernel_size, cin, cout)), requires_grad=True
        )
        params[f"conv{i}.b"] = Tensor(np.zeros(cout), requires_grad=True)
        if cfg.joint_mixing == "learned":
            mix_bound = np.sqrt(1.0 / cfg.joints)
            params[f"mix{i}"] = Tensor(
                rng.uniform(-mix_bound, mix_bound, (cfg.joints, cfg.joints)), requires_grad=True
            )
    head_rng = seeded_rng(seed, "init/encoder/head")
    head_bound = np.sqrt(1.0 / cfg.channels)
    params["head.w"] = Tensor(
        head_rng.uniform(-head_bound, head_bound, (cfg.channels, num_classes)), requires_grad=True
    )
    params["head.b"] = Tensor(np.zeros(num_classes), requires_grad=True)
    return params


def encode(params: dict[str, Tensor], cfg: EncoderConfig, coords: np.ndarray) -> Tensor:
    """(batch, joints, frames, 3) coordinates -> (batch, joints, out_frames, channels) features."""
    coords = np.asarray(coords)
    if coords.ndim != 4 or coords.shape[1:] != (cfg.joints, cfg.frames, 3):
        raise DimensionError(
            f"encoder expects a batch of coords of shape {(cfg.joints, cfg.frames, 3)}, got {coords.shape}"
        )
    x = Tensor(coords)
    layers = len(cfg.hidden) + 1
    fixed_mix = None
    if cfg.joint_mixing == "fixed":
        fixed_mix = Tensor(mixing_matrix(cfg.joints))
    for i in range(layers):
        stride = cfg.temporal_stride if i == 0 else 1
        x = tz.temporal_conv(
            x, params[f"conv{i}.w"], params[f"conv{i}.b"],
            stride=stride, padding=cfg.temporal_padding,
        )
        batch, joints, frames, chans = x.shape
        mix = fixed_mix if fixed_mix is not None else params[f"mix{i}"]
        x = tz.reshape(tz.matmul(mix, tz.reshape(x, (batch, joints, frames * chans))), x.shape)
        if i < layers - 1:
            x = tz.relu(x)
    return x


def classify(params: dict[str, Tensor], feature_map: Tensor) -> Tensor:
    """Global average pool over joints and frames, then a linear head. Returns (batch, K) logits."""
    pooled = tz.mean_over_axes(feature_map, (1, 2))
    return tz.add(tz.matmul(pooled, params["head.w"]), params["head.b"])


def test_forward(params: dict[str, Tensor], cfg: EncoderConfig, coords: np.ndarray) -> np.ndarray:
    """Inference-path predictions for a (batch, joints, frames, 3) batch: encoder + classifier head only.

    Deliberately touches neither the decoupling branches nor the memory
    banks; runs under ``tz.no_grad()`` so no tape is built.  Ties in the
    logits resolve to the lowest class index.  Returns (batch,) class indices.
    """
    with tz.no_grad():
        logits = classify(params, encode(params, cfg, coords))
    return np.argmax(logits.data, axis=1)
