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

The four matrices carry their checkpoint names (``decouple.*``) from the
moment they are made, so they sit in the model's one parameter dict
beside the encoder's.
"""

from __future__ import annotations

import numpy as np

from . import instrumentation
from . import tensor as tz
from .errors import ConfigError, DimensionError
from .rng import seeded_rng
from .tensor import Tensor


def decoupler_shapes(joints: int, out_frames: int, channels: int, reduction: int, dim: int) -> dict[str, tuple]:
    """Name -> shape of each matrix `init_decoupler` builds, allocating nothing."""
    if reduction < 1:
        raise ConfigError(f"reduction must be positive, got {reduction}")
    if channels % reduction != 0:
        raise ConfigError(f"channels ({channels}) must be divisible by reduction ({reduction})")
    if not 1 <= dim < 2**31:
        raise ConfigError(f"embedding dim must be in [1, 2**31), got {dim}")
    reduced = channels // reduction
    return {
        "decouple.spatial_reduce": (channels, reduced),
        "decouple.temporal_reduce": (channels, reduced),
        "decouple.spatial_embed": (joints * reduced, dim),
        "decouple.temporal_embed": (out_frames * reduced, dim),
    }


def init_decoupler(
    joints: int, out_frames: int, channels: int, reduction: int, dim: int, seed: int
) -> dict[str, Tensor]:
    """Uniform(+-sqrt(1/fan_in)) matrices, fan_in being a matrix's row count, drawn in `decoupler_shapes` order."""
    rng = seeded_rng(seed, "init/decouple")
    named = {}
    for name, shape in decoupler_shapes(joints, out_frames, channels, reduction, dim).items():
        bound = np.sqrt(1.0 / shape[0])
        named[name] = Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)
    return named


def decouple(feature_map: Tensor, params: dict[str, Tensor]) -> dict[str, Tensor]:
    """(batch, joints, frames, channels) feature maps -> {"spatial", "temporal"} (batch, dim) embeddings.

    Reads the four ``decouple.*`` matrices of `params`; other entries are ignored.
    """
    if len(feature_map.shape) != 4:
        raise DimensionError(f"decouple expects a rank-4 feature map batch, got shape {feature_map.shape}")
    batch, joints, frames, channels = feature_map.shape
    spatial_reduce, temporal_reduce = params["decouple.spatial_reduce"], params["decouple.temporal_reduce"]
    spatial_embed, temporal_embed = params["decouple.spatial_embed"], params["decouple.temporal_embed"]
    if channels != spatial_reduce.shape[0]:
        raise DimensionError(
            f"feature map has {channels} channels but reduction matrices expect {spatial_reduce.shape[0]}"
        )
    reduced = spatial_reduce.shape[1]
    if joints * reduced != spatial_embed.shape[0]:
        raise DimensionError(
            f"spatial branch: {joints} joints x {reduced} reduced channels = {joints * reduced} "
            f"but spatial_embed expects {spatial_embed.shape[0]}"
        )
    if frames * reduced != temporal_embed.shape[0]:
        raise DimensionError(
            f"temporal branch: {frames} frames x {reduced} reduced channels = {frames * reduced} "
            f"but temporal_embed expects {temporal_embed.shape[0]}"
        )
    instrumentation.bump("decouple_calls")

    over_frames = tz.mean_over_axes(feature_map, (2,))  # (batch, joints, channels)
    spatial_flat = tz.reshape(tz.matmul(over_frames, spatial_reduce), (batch, joints * reduced))
    spatial = tz.matmul(spatial_flat, spatial_embed)

    over_joints = tz.mean_over_axes(feature_map, (1,))  # (batch, frames, channels)
    temporal_flat = tz.reshape(tz.matmul(over_joints, temporal_reduce), (batch, frames * reduced))
    temporal = tz.matmul(temporal_flat, temporal_embed)

    return {"spatial": spatial, "temporal": temporal}
