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

import math
from dataclasses import dataclass
from functools import lru_cache

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
        sizes = {name: getattr(self, name)
                 for name in ("joints", "frames", "channels", "temporal_stride", "kernel_size")}
        sizes.update((f"hidden[{i}]", h) for i, h in enumerate(self.hidden))
        for name, value in sizes.items():
            if not isinstance(value, int) or isinstance(value, bool) or value >= 2**31:
                raise ConfigError(f"encoder.{name} must be an integer below 2**31, got {value!r}")
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
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden channel counts must be positive, got {self.hidden}")
        if self.joint_mixing not in MIXING_MODES:
            raise ConfigError(f"joint_mixing must be one of {MIXING_MODES}, got {self.joint_mixing!r}")
        if self.temporal_padding not in PADDING_MODES:
            raise ConfigError(
                f"temporal_padding must be one of {PADDING_MODES}, got {self.temporal_padding!r}"
            )
        object.__setattr__(self, "hidden", tuple(self.hidden))

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


@lru_cache(maxsize=16)
def _fixed_mixing(joints: int, dtype: np.dtype) -> Tensor:
    """The constant mixing_matrix(joints) as a tensor of `dtype`, built once and shared by every encode."""
    with tz.using_precision(dtype.name):
        mix = Tensor(mixing_matrix(joints))
    mix.data.flags.writeable = False
    return mix


def param_shapes(cfg: EncoderConfig, num_classes: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of each parameter `init_params` builds, allocating nothing."""
    if num_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}")
    shapes: dict[str, tuple[int, ...]] = {}
    plan = cfg.channel_plan
    for i, (cin, cout) in enumerate(zip(plan[:-1], plan[1:])):
        shapes[f"conv{i}.w"] = (cfg.kernel_size, cin, cout)
        shapes[f"conv{i}.b"] = (cout,)
        if cfg.joint_mixing == "learned":
            shapes[f"mix{i}"] = (cfg.joints, cfg.joints)
    shapes["head.w"] = (cfg.channels, num_classes)
    shapes["head.b"] = (num_classes,)
    return shapes


def init_params(cfg: EncoderConfig, num_classes: int, seed: int) -> dict[str, Tensor]:
    """Uniform(+-sqrt(1/fan_in)) weights, zero biases.

    A weight's fan_in is the product of all its axes but the last.  Layer
    i's conv and mixing weights draw, in that order, from one stream.
    """
    shapes = param_shapes(cfg, num_classes)

    def uniform(rng, name):
        bound = np.sqrt(1.0 / math.prod(shapes[name][:-1]))
        return Tensor(rng.uniform(-bound, bound, shapes[name]), requires_grad=True)

    params: dict[str, Tensor] = {}
    for i in range(len(cfg.channel_plan) - 1):
        rng = seeded_rng(seed, f"init/encoder/layer{i}")
        params[f"conv{i}.w"] = uniform(rng, f"conv{i}.w")
        params[f"conv{i}.b"] = Tensor(np.zeros(shapes[f"conv{i}.b"]), requires_grad=True)
        if cfg.joint_mixing == "learned":
            params[f"mix{i}"] = uniform(rng, f"mix{i}")
    params["head.w"] = uniform(seeded_rng(seed, "init/encoder/head"), "head.w")
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
        fixed_mix = _fixed_mixing(cfg.joints, tz.active_dtype())
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

