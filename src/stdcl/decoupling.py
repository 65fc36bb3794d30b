"""Spatial/temporal feature decoupling.

Splits each encoder feature map of a batch (batch, joints, frames,
channels) into two fixed-size embeddings by averaging away one axis at a
time:

* the spatial branch averages over frames, keeping per-joint structure;
* the temporal branch averages over joints, keeping per-frame structure.

Each branch then applies a channel-reduction matrix (channels ->
channels / reduction), flattens row-major, and projects to the shared
embedding dimension.  Both branches are purely linear: the averaging is
what separates the two factors, and any nonlinearity here would blur
the attribution that the synthetic-data experiments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import instrumentation
from . import tensor as tz
from .errors import ConfigError, DimensionError
from .rng import seeded_rng
from .tensor import Tensor


@dataclass
class DecouplerParams:
    spatial_reduce: Tensor  # (channels, channels // reduction)
    temporal_reduce: Tensor  # (channels, channels // reduction)
    spatial_embed: Tensor  # (joints * channels // reduction, dim)
    temporal_embed: Tensor  # (frames * channels // reduction, dim)
    reduction: int
    dim: int

    def named(self) -> dict[str, Tensor]:
        return {
            "spatial_reduce": self.spatial_reduce,
            "temporal_reduce": self.temporal_reduce,
            "spatial_embed": self.spatial_embed,
            "temporal_embed": self.temporal_embed,
        }


@dataclass
class EmbeddingPair:
    spatial: Tensor  # (batch, dim)
    temporal: Tensor  # (batch, dim)


def decoupler_shapes(joints: int, out_frames: int, channels: int, reduction: int, dim: int) -> dict[str, tuple]:
    """Name -> shape of each matrix `init_decoupler` builds, allocating nothing."""
    if reduction < 1:
        raise ConfigError(f"reduction must be positive, got {reduction}")
    if channels % reduction != 0:
        raise ConfigError(f"channels ({channels}) must be divisible by reduction ({reduction})")
    if dim < 1:
        raise ConfigError(f"embedding dim must be positive, got {dim}")
    reduced = channels // reduction
    return {
        "spatial_reduce": (channels, reduced),
        "temporal_reduce": (channels, reduced),
        "spatial_embed": (joints * reduced, dim),
        "temporal_embed": (out_frames * reduced, dim),
    }


def init_decoupler(
    joints: int, out_frames: int, channels: int, reduction: int, dim: int, seed: int
) -> DecouplerParams:
    """Uniform(+-sqrt(1/fan_in)) matrices, fan_in being a matrix's row count, drawn in `decoupler_shapes` order."""
    rng = seeded_rng(seed, "init/decouple")
    named = {}
    for name, shape in decoupler_shapes(joints, out_frames, channels, reduction, dim).items():
        bound = np.sqrt(1.0 / shape[0])
        named[name] = Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)
    return DecouplerParams(**named, reduction=reduction, dim=dim)


def decouple(feature_map: Tensor, params: DecouplerParams) -> EmbeddingPair:
    """(batch, joints, frames, channels) feature maps -> (batch, dim) spatial and temporal embeddings."""
    if len(feature_map.shape) != 4:
        raise DimensionError(f"decouple expects a rank-4 feature map batch, got shape {feature_map.shape}")
    batch, joints, frames, channels = feature_map.shape
    if channels != params.spatial_reduce.shape[0]:
        raise DimensionError(
            f"feature map has {channels} channels but reduction matrices expect "
            f"{params.spatial_reduce.shape[0]}"
        )
    reduced = params.spatial_reduce.shape[1]
    if joints * reduced != params.spatial_embed.shape[0]:
        raise DimensionError(
            f"spatial branch: {joints} joints x {reduced} reduced channels = {joints * reduced} "
            f"but spatial_embed expects {params.spatial_embed.shape[0]}"
        )
    if frames * reduced != params.temporal_embed.shape[0]:
        raise DimensionError(
            f"temporal branch: {frames} frames x {reduced} reduced channels = {frames * reduced} "
            f"but temporal_embed expects {params.temporal_embed.shape[0]}"
        )
    instrumentation.bump("decouple_calls")

    over_frames = tz.mean_over_axes(feature_map, (2,))  # (batch, joints, channels)
    spatial_flat = tz.reshape(tz.matmul(over_frames, params.spatial_reduce), (batch, joints * reduced))
    spatial = tz.matmul(spatial_flat, params.spatial_embed)

    over_joints = tz.mean_over_axes(feature_map, (1,))  # (batch, frames, channels)
    temporal_flat = tz.reshape(tz.matmul(over_joints, params.temporal_reduce), (batch, frames * reduced))
    temporal = tz.matmul(temporal_flat, params.temporal_embed)

    return EmbeddingPair(spatial=spatial, temporal=temporal)
