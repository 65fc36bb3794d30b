"""Decoupling branch algebra: shapes, linearity, and factor attribution."""

import numpy as np
import pytest

from stdcl import instrumentation
from stdcl import tensor as tz
from stdcl.contrast import make_banks
from stdcl.decoupling import decouple, init_decoupler
from stdcl.errors import ConfigError, DimensionError
from stdcl.tensor import Tensor


def feature(rng, b=2, j=4, t=5, c=8):
    return Tensor(rng.standard_normal((b, j, t, c)))


class TestShapes:
    def test_embedding_shapes(self):
        params = init_decoupler(joints=4, out_frames=5, channels=8, reduction=2, dim=7, seed=0)
        heads = decouple(feature(np.random.default_rng(0)), params)
        assert heads["spatial"].data.shape == (2, 7)
        assert heads["temporal"].data.shape == (2, 7)

    def test_reference_geometry(self):
        """J=25, T=16, C=64, r=8, D=256: flattened branch widths 200 and 128."""
        params = init_decoupler(joints=25, out_frames=16, channels=64, reduction=8, dim=256, seed=1)
        assert params["decouple.spatial_reduce"].data.shape == (64, 8)
        assert params["decouple.temporal_reduce"].data.shape == (64, 8)
        assert params["decouple.spatial_embed"].data.shape == (25 * 8, 256)
        assert params["decouple.temporal_embed"].data.shape == (16 * 8, 256)
        heads = decouple(Tensor(np.random.default_rng(2).standard_normal((1, 25, 16, 64))), params)
        assert heads["spatial"].data.shape == (1, 256)
        assert heads["temporal"].data.shape == (1, 256)

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divisible"):
            init_decoupler(joints=4, out_frames=5, channels=10, reduction=4, dim=8, seed=0)

    def test_wrong_channels_rejected(self):
        params = init_decoupler(joints=4, out_frames=5, channels=8, reduction=2, dim=7, seed=0)
        with pytest.raises(DimensionError, match="channels"):
            decouple(Tensor(np.zeros((2, 4, 5, 6))), params)

    def test_wrong_joints_rejected(self):
        params = init_decoupler(joints=4, out_frames=5, channels=8, reduction=2, dim=7, seed=0)
        with pytest.raises(DimensionError, match="spatial branch"):
            decouple(Tensor(np.zeros((2, 3, 5, 8))), params)

    def test_wrong_frames_rejected(self):
        params = init_decoupler(joints=4, out_frames=5, channels=8, reduction=2, dim=7, seed=0)
        with pytest.raises(DimensionError, match="temporal branch"):
            decouple(Tensor(np.zeros((2, 4, 6, 8))), params)

    def test_rank_guard(self):
        params = init_decoupler(joints=4, out_frames=5, channels=8, reduction=2, dim=7, seed=0)
        with pytest.raises(DimensionError, match="rank-4"):
            decouple(Tensor(np.zeros((4, 5, 8))), params)  # one map without its batch axis


class TestLinearity:
    def test_both_branches_linear(self):
        params = init_decoupler(joints=4, out_frames=5, channels=8, reduction=2, dim=7, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 4, 5, 8))
        y = rng.standard_normal((2, 4, 5, 8))
        px = decouple(Tensor(x), params)
        py = decouple(Tensor(y), params)
        psum = decouple(Tensor(2.0 * x + y), params)
        np.testing.assert_allclose(2.0 * px["spatial"].data + py["spatial"].data,
                                   psum["spatial"].data, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(2.0 * px["temporal"].data + py["temporal"].data,
                                   psum["temporal"].data, rtol=1e-10, atol=1e-12)


class TestFactorAttribution:
    """The pooling direction decides which structure each branch can see."""

    def test_spatial_branch_blind_to_zero_time_mean_signals(self):
        params = init_decoupler(joints=4, out_frames=6, channels=8, reduction=2, dim=7, seed=5)
        rng = np.random.default_rng(6)
        # a purely temporal pattern: varies over frames, zero mean over frames
        wave = rng.standard_normal((2, 1, 6, 8))
        wave -= wave.mean(axis=2, keepdims=True)
        signal = np.tile(wave, (1, 4, 1, 1))
        heads = decouple(Tensor(signal), params)
        np.testing.assert_allclose(heads["spatial"].data, 0.0, atol=1e-12)
        assert np.abs(heads["temporal"].data).max() > 1e-3

    def test_temporal_branch_blind_to_zero_joint_mean_signals(self):
        params = init_decoupler(joints=4, out_frames=6, channels=8, reduction=2, dim=7, seed=5)
        rng = np.random.default_rng(7)
        # a purely spatial pattern: varies over joints, zero mean over joints
        pose = rng.standard_normal((2, 4, 1, 8))
        pose -= pose.mean(axis=1, keepdims=True)
        signal = np.tile(pose, (1, 1, 6, 1))
        heads = decouple(Tensor(signal), params)
        np.testing.assert_allclose(heads["temporal"].data, 0.0, atol=1e-12)
        assert np.abs(heads["spatial"].data).max() > 1e-3

    def test_constant_feature_reaches_both(self):
        params = init_decoupler(joints=4, out_frames=6, channels=8, reduction=2, dim=7, seed=5)
        heads = decouple(Tensor(np.ones((1, 4, 6, 8))), params)
        assert np.abs(heads["spatial"].data).max() > 1e-3
        assert np.abs(heads["temporal"].data).max() > 1e-3


class TestInitAndState:
    def test_deterministic_init(self):
        a = init_decoupler(4, 5, 8, 2, 7, seed=11)
        b = init_decoupler(4, 5, 8, 2, 7, seed=11)
        for k, t in a.items():
            np.testing.assert_array_equal(t.data, b[k].data)

    def test_named_covers_all_trainables(self):
        params = init_decoupler(4, 5, 8, 2, 7, seed=0)
        assert set(params) == {
            "decouple.spatial_reduce", "decouple.temporal_reduce", "decouple.spatial_embed", "decouple.temporal_embed"
        }
        assert all(t.requires_grad for t in params.values())

    def test_instrumentation_counts_calls(self):
        params = init_decoupler(4, 5, 8, 2, 7, seed=0)
        instrumentation.reset()
        decouple(feature(np.random.default_rng(8)), params)
        decouple(feature(np.random.default_rng(9)), params)
        assert instrumentation.count("decouple_calls") == 2

    def test_gradients_flow_to_all_weights(self):
        params = init_decoupler(4, 5, 8, 2, 7, seed=0)
        x = Tensor(np.random.default_rng(10).standard_normal((2, 4, 5, 8)), requires_grad=True)
        heads = decouple(x, params)
        total = tz.add(tz.sum_all(heads["spatial"]), tz.sum_all(heads["temporal"]))
        total.backward()
        assert x.grad is not None and np.abs(x.grad).max() > 0
        for name, t in params.items():
            assert t.grad is not None and np.abs(t.grad).max() > 0, name

    def test_heads_are_keyed_as_the_banks(self):
        """A step hands decouple's output straight to the banks, so the two name the heads alike."""
        heads = decouple(feature(np.random.default_rng(11)), init_decoupler(4, 5, 8, 2, 7, seed=0))
        assert sorted(heads) == sorted(make_banks(length=3, dim=7, seed=0))
