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

Training builds the whole feature map, which the decoupler needs frame by
frame and joint by joint.  The test-time path needs only its pools, the
means over frames and over joints, so `last_block_pools` computes them
from the last block's input: the last block is linear, so the means
commute with its convolution and mixing, and no (batch, joints,
out_frames, channels) map is built.

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


def _mixing(params: dict[str, Tensor], cfg: EncoderConfig, layer: int) -> Tensor:
    if cfg.joint_mixing == "fixed":
        return _fixed_mixing(cfg.joints, tz.active_dtype())
    return params[f"mix{layer}"]


def encode(params: dict[str, Tensor], cfg: EncoderConfig, coords: np.ndarray, last_block: bool = True) -> Tensor:
    """(batch, joints, frames, 3) coordinates -> (batch, joints, out_frames, channels) features.

    Without `last_block`, the blocks before the last one run and their
    output, the last block's input, is returned for `last_block_pools`.
    """
    coords = np.asarray(coords)
    if coords.ndim != 4 or coords.shape[1:] != (cfg.joints, cfg.frames, 3):
        raise DimensionError(
            f"encoder expects a batch of coords of shape {(cfg.joints, cfg.frames, 3)}, got {coords.shape}"
        )
    x = Tensor(coords)
    layers = len(cfg.hidden) + 1
    for i in range(layers if last_block else layers - 1):
        stride = cfg.temporal_stride if i == 0 else 1
        x = tz.temporal_conv(
            x, params[f"conv{i}.w"], params[f"conv{i}.b"],
            stride=stride, padding=cfg.temporal_padding,
        )
        batch, joints, frames, chans = x.shape
        x = tz.reshape(tz.matmul(_mixing(params, cfg, i), tz.reshape(x, (batch, joints, frames * chans))), x.shape)
        if i < layers - 1:
            x = tz.relu(x)
    return x


@lru_cache(maxsize=16)
def _tap_frame_means(kernel: int, frames: int, stride: int, padding: str, dtype: np.dtype) -> Tensor:
    """(kernel, frames) constant S: row d averages, over the output frames of a `temporal_conv`, the
    input frames that tap d reads; a frame out of range reads zero padding, or wraps if circular."""
    t_out = -(-frames // stride)
    read = np.arange(t_out)[:, None] * stride + np.arange(kernel)[None, :] - kernel // 2
    if padding == "circular":
        read %= frames
    taps = np.broadcast_to(np.arange(kernel), read.shape)
    inside = (read >= 0) & (read < frames)
    counts = np.zeros((kernel, frames))
    np.add.at(counts, (taps[inside], read[inside]), 1.0)
    with tz.using_precision(dtype.name):
        means = Tensor(counts / t_out)
    means.data.flags.writeable = False
    return means


def last_block_pools(params: dict[str, Tensor], cfg: EncoderConfig, h: Tensor,
                     over_joints: bool = True) -> dict[str, Tensor]:
    """Pools of the feature map fm that `encode` builds, from the last block's input h (batch, joints,
    frames, C_in) and without building fm: "spatial", fm's mean over frames (batch, joints, channels),
    and, if `over_joints`, "temporal", its mean over joints (batch, out_frames, channels).

    The last block is linear: fm = M y, where y = conv(h) + b and M mixes the
    joints.  So mean_t fm = M (mean_t y), and mean_t y = (S h) W + b, where S
    (`_tap_frame_means`) averages each tap's frames.  And mean_j fm = conv(c h)
    + (sum c) b, where c holds M's column means: one convolution of a
    one-joint input.
    """
    layer = len(cfg.hidden)
    w, b = params[f"conv{layer}.w"], params[f"conv{layer}.b"]
    mix = _mixing(params, cfg, layer)
    kernel, c_in, c_out = w.shape
    batch, joints, frames, _ = h.shape
    stride = cfg.temporal_stride if layer == 0 else 1
    tap_means = _tap_frame_means(kernel, frames, stride, cfg.temporal_padding, tz.active_dtype())
    taps = tz.matmul(tap_means, tz.reshape(h, (batch * joints, frames, c_in)))  # (batch * joints, kernel, C_in)
    y_mean = tz.add(tz.matmul(tz.reshape(taps, (batch * joints, kernel * c_in)),
                              tz.reshape(w, (kernel * c_in, c_out))), b)
    pools = {"spatial": tz.matmul(mix, tz.reshape(y_mean, (batch, joints, c_out)))}
    if over_joints:
        col_means = tz.mean_over_axes(mix, (0,))
        h_mean = tz.matmul(tz.reshape(col_means, (1, joints)), tz.reshape(h, (batch, joints, frames * c_in)))
        bias = tz.matmul(tz.reshape(tz.sum_over_axes(col_means, (0,)), (1, 1)), tz.reshape(b, (1, c_out)))
        mean_j = tz.temporal_conv(tz.reshape(h_mean, (batch, 1, frames, c_in)), w, tz.reshape(bias, (c_out,)),
                                  stride=stride, padding=cfg.temporal_padding)
        pools["temporal"] = tz.reshape(mean_j, (batch, mean_j.shape[2], c_out))
    return pools


def head(params: dict[str, Tensor], pooled: Tensor) -> Tensor:
    """The linear classifier head: (batch, channels) pooled features -> (batch, K) logits."""
    return tz.add(tz.matmul(pooled, params["head.w"]), params["head.b"])


def classify(params: dict[str, Tensor], feature_map: Tensor) -> Tensor:
    """Global average pool over joints and frames, then the head. Returns (batch, K) logits."""
    return head(params, tz.mean_over_axes(feature_map, (1, 2)))
