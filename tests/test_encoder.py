"""Encoder shapes, initialization, forward semantics, and inference purity."""

import numpy as np
import pytest

from stdcl import encoder, instrumentation
from stdcl import tensor as tz
from stdcl.data import SkeletonDataset
from stdcl.decoupling import decouple, init_decoupler
from stdcl.encoder import EncoderConfig, classify, encode, init_params, mixing_matrix, param_shapes
from stdcl.errors import ConfigError, DimensionError
from stdcl.tensor import Tensor
from stdcl.train import TEST_CHUNK, Model, _tape_free, embedding_report, evaluate, predict_logits


def tiny_cfg(**kw):
    defaults = dict(joints=3, frames=8, channels=6, temporal_stride=2, hidden=(4,), kernel_size=3)
    defaults.update(kw)
    return EncoderConfig(**defaults)


class TestConfig:
    def test_out_frames_ceil_division(self):
        assert tiny_cfg(frames=8, temporal_stride=2).out_frames == 4
        assert tiny_cfg(frames=7, temporal_stride=2).out_frames == 4
        assert tiny_cfg(frames=7, temporal_stride=3).out_frames == 3
        assert tiny_cfg(frames=7, temporal_stride=1).out_frames == 7

    def test_channel_plan(self):
        assert tiny_cfg(hidden=(4, 5)).channel_plan == [3, 4, 5, 6]
        assert tiny_cfg(hidden=()).channel_plan == [3, 6]

    def test_validation(self):
        with pytest.raises(ConfigError, match="joints"):
            tiny_cfg(joints=1)
        with pytest.raises(ConfigError, match="odd"):
            tiny_cfg(kernel_size=4)
        with pytest.raises(ConfigError, match="hidden"):
            tiny_cfg(hidden=(0,))
        with pytest.raises(ConfigError, match="stride"):
            tiny_cfg(temporal_stride=0)

    @pytest.mark.parametrize("changes, name", [
        ({"hidden": (2.5,)}, r"hidden\[0\]"),
        ({"hidden": (4, True)}, r"hidden\[1\]"),
        ({"hidden": ("4",)}, r"hidden\[0\]"),
        ({"temporal_stride": True}, "temporal_stride"),
        ({"channels": 8.0}, "channels"),
        ({"kernel_size": 3.0}, "kernel_size"),
        ({"joints": np.int64(3)}, "joints"),
        ({"frames": "8"}, "frames"),
    ])
    def test_sizes_must_be_python_ints(self, changes, name):
        with pytest.raises(ConfigError, match=f"encoder.{name} must be an integer"):
            tiny_cfg(**changes)


class TestInit:
    def test_parameter_names_and_shapes_fixed_mixing(self):
        cfg = tiny_cfg(hidden=(4,))
        params = init_params(cfg, num_classes=5, seed=0)
        assert set(params) == {
            "conv0.w", "conv0.b", "conv1.w", "conv1.b", "head.w", "head.b",
        }
        assert params["conv0.w"].data.shape == (3, 3, 4)
        assert params["conv1.w"].data.shape == (3, 4, 6)
        assert params["head.w"].data.shape == (6, 5)
        assert params["head.b"].data.shape == (5,)

    def test_learned_mixing_adds_matrices(self):
        cfg = tiny_cfg(hidden=(4,), joint_mixing="learned")
        params = init_params(cfg, num_classes=5, seed=0)
        assert {"mix0", "mix1"} <= set(params)
        assert params["mix0"].data.shape == (3, 3)
        assert params["mix0"].requires_grad

    def test_biases_zero_weights_bounded(self):
        cfg = tiny_cfg()
        params = init_params(cfg, num_classes=4, seed=3)
        assert (params["conv0.b"].data == 0).all()
        assert (params["head.b"].data == 0).all()
        bound = np.sqrt(1.0 / (cfg.kernel_size * 3))
        w = params["conv0.w"].data
        assert (np.abs(w) <= bound).all() and np.abs(w).max() > 0.5 * bound

    def test_deterministic_and_seed_sensitive(self):
        cfg = tiny_cfg()
        a = init_params(cfg, 4, seed=7)
        b = init_params(cfg, 4, seed=7)
        c = init_params(cfg, 4, seed=8)
        for k in a:
            np.testing.assert_array_equal(a[k].data, b[k].data)
        assert any((a[k].data != c[k].data).any() for k in a)

    def test_all_require_grad(self):
        params = init_params(tiny_cfg(), 4, seed=0)
        assert all(p.requires_grad for p in params.values())

    @pytest.mark.parametrize("mixing", ["fixed", "learned"])
    def test_param_shapes_are_the_built_shapes(self, mixing):
        cfg = tiny_cfg(hidden=(4, 5), joint_mixing=mixing)
        params = init_params(cfg, 4, seed=0)
        assert param_shapes(cfg, 4) == {name: p.shape for name, p in params.items()}


class TestForward:
    def test_feature_map_shape(self):
        cfg = tiny_cfg()
        params = init_params(cfg, 4, seed=0)
        coords = np.random.default_rng(0).standard_normal((2, 3, 8, 3))
        feat = encode(params, cfg, coords)
        assert feat.data.shape == (2, 3, cfg.out_frames, 6)

    def test_zero_input_zero_biases_gives_zero(self):
        cfg = tiny_cfg()
        params = init_params(cfg, 4, seed=0)
        feat = encode(params, cfg, np.zeros((2, 3, 8, 3)))
        np.testing.assert_array_equal(feat.data, np.zeros((2, 3, 4, 6)))

    def test_logit_shape(self):
        cfg = tiny_cfg()
        params = init_params(cfg, 4, seed=0)
        coords = np.random.default_rng(1).standard_normal((2, 3, 8, 3))
        logits = classify(params, encode(params, cfg, coords))
        assert logits.data.shape == (2, 4)

    def test_wrong_shape_rejected(self):
        cfg = tiny_cfg()
        params = init_params(cfg, 4, seed=0)
        with pytest.raises(DimensionError, match=r"\(3, 8, 3\)"):
            encode(params, cfg, np.zeros((1, 4, 8, 3)))
        with pytest.raises(DimensionError, match=r"\(3, 8, 3\)"):
            encode(params, cfg, np.zeros((3, 8, 3)))  # one sequence without its batch axis

    def test_single_layer_encoder_is_linear(self):
        """With no hidden blocks there is no ReLU, so encode() is linear."""
        cfg = tiny_cfg(hidden=())
        params = init_params(cfg, 4, seed=2)
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, 2, 3, 8, 3))
        fx = encode(params, cfg, x).data
        fy = encode(params, cfg, y).data
        fsum = encode(params, cfg, x + y).data
        np.testing.assert_allclose(fx + fy, fsum, rtol=1e-10, atol=1e-12)

    def test_deeper_encoder_is_not_linear(self):
        cfg = tiny_cfg(hidden=(4,))
        params = init_params(cfg, 4, seed=2)
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, 2, 3, 8, 3))
        fx = encode(params, cfg, x).data
        fy = encode(params, cfg, y).data
        fsum = encode(params, cfg, x + y).data
        assert np.abs(fx + fy - fsum).max() > 1e-6


def tiny_model(params, cfg):
    return Model(encoder_cfg=cfg, num_classes=4, params=params)


def dataset_of(coords, labels):
    return SkeletonDataset(coords, labels, num_classes=4)


class TestInferencePath:
    """The test-time path, `evaluate` and `predict_logits`: encoder and classifier head only."""

    def test_matches_classify_and_breaks_ties_low(self):
        cfg = tiny_cfg()
        params = init_params(cfg, 4, seed=0)
        coords = np.random.default_rng(2).standard_normal((5, 3, 8, 3))
        logits = classify(params, encode(params, cfg, coords)).data
        model = tiny_model(params, cfg)
        np.testing.assert_allclose(np.stack([predict_logits(model, c) for c in coords]), logits, rtol=1e-12)
        predictions = np.argmax(logits, axis=1)
        report = evaluate(model, dataset_of(coords, predictions))
        assert report.accuracy == 1.0

    def test_uniform_logits_tie_breaks_to_zero(self):
        cfg = tiny_cfg()
        params = init_params(cfg, 4, seed=0)
        # zero head weights + zero input -> all logits equal -> argmax = 0
        params["head.w"] = Tensor(np.zeros_like(params["head.w"].data), requires_grad=True)
        model = tiny_model(params, cfg)
        zeros = np.zeros((2, 3, 8, 3))
        assert len(set(predict_logits(model, zeros[0]))) == 1
        assert evaluate(model, dataset_of(zeros, [0, 0])).accuracy == 1.0
        assert evaluate(model, dataset_of(zeros, [1, 1])).accuracy == 0.0

    def test_inference_touches_no_framework_state(self):
        cfg = tiny_cfg()
        params = init_params(cfg, 4, seed=0)
        coords = np.random.default_rng(4).standard_normal((2, 3, 8, 3))
        model = tiny_model(params, cfg)
        instrumentation.reset()
        evaluate(model, dataset_of(coords, [0, 1]))
        predict_logits(model, coords[0])
        assert instrumentation.count("decouple_calls") == 0
        assert instrumentation.count("bank_reads") == 0
        assert instrumentation.count("bank_writes") == 0

    def test_scans_each_chunk_once_and_each_direct_op_once(self, monkeypatch):
        """Checked mode scans one value per test-time chunk, its logits, and each op called directly.

        `evaluate` and `predict_logits` run their ops with per-op scans off
        and scan only each chunk's logits.  Called directly, the encoder and
        head scan the input once and each arithmetic op's result once: the
        reshapes around each mixing product and the relu between the blocks
        only move or mask scanned values, and the fixed mixing matrix is a
        constant built once.
        """
        cfg = tiny_cfg(hidden=(4,))
        model = tiny_model(init_params(cfg, 4, seed=0), cfg)
        coords = np.random.default_rng(6).standard_normal((TEST_CHUNK + 4, 3, 8, 3))  # two evaluation chunks
        dataset = dataset_of(coords, np.arange(len(coords)) % 4)
        evaluate(model, dataset)
        seen = []
        monkeypatch.setattr(tz, "_scan", lambda data, op, what: seen.append((op, what, data.shape)))
        evaluate(model, dataset)
        assert seen == [("forward", "logits", (TEST_CHUNK, 4)), ("forward", "logits", (4, 4))]
        seen.clear()
        predict_logits(model, coords[0])
        assert seen == [("forward", "logits", (1, 4))]
        seen.clear()
        classify(model.params, encode(model.params, cfg, coords[:TEST_CHUNK]))
        arithmetic = ["temporal_conv", "matmul"] * 2 + ["mean_over_axes", "matmul", "add"]
        assert [op for op, _, _ in seen] == ["tensor", *arithmetic]

    def test_last_block_convolves_only_a_one_joint_input(self, monkeypatch):
        """`evaluate` runs no convolution of the last block, and `embedding_report` runs it only on the
        joint mean of its input: neither builds the (batch, joints, out_frames, channels) map."""
        cfg = tiny_cfg(hidden=(4,))
        params = init_params(cfg, 4, seed=0)
        params.update(init_decoupler(joints=3, out_frames=cfg.out_frames, channels=6, reduction=2, dim=5, seed=0))
        model = tiny_model(params, cfg)
        dataset = dataset_of(np.random.default_rng(7).standard_normal((TEST_CHUNK + 4, 3, 8, 3)),
                             np.arange(TEST_CHUNK + 4) % 4)
        conv, convolved = tz.temporal_conv, []

        def recorded(x, w, *args, **kwargs):
            convolved.append((w is params["conv1.w"], x.shape))
            return conv(x, w, *args, **kwargs)

        monkeypatch.setattr(tz, "temporal_conv", recorded)
        evaluate(model, dataset)
        assert convolved == [(False, (TEST_CHUNK, 3, 8, 3)), (False, (4, 3, 8, 3))]
        convolved.clear()
        embedding_report(model, dataset)
        assert convolved == [(False, (TEST_CHUNK, 3, 8, 3)), (True, (TEST_CHUNK, 1, 4, 4)),
                             (False, (4, 3, 8, 3)), (True, (4, 1, 4, 4))]

    def test_inference_leaves_no_grads(self):
        cfg = tiny_cfg()
        params = init_params(cfg, 4, seed=0)
        coords = np.random.default_rng(5).standard_normal((2, 3, 8, 3))
        model = tiny_model(params, cfg)
        evaluate(model, dataset_of(coords, [0, 1]))
        predict_logits(model, coords[0])
        assert all(p.grad is None for p in params.values())


def relative_error(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestPooledLastBlock:
    """The test-time path pools before the last block; it matches pooling the full map."""

    @pytest.mark.parametrize("precision, tolerance", [("float64", 1e-12), ("float32", 1e-5)])
    @pytest.mark.parametrize("mixing", ["fixed", "learned"])
    @pytest.mark.parametrize("padding", ["zero", "circular"])
    @pytest.mark.parametrize("hidden, stride, frames", [
        ((), 1, 8), ((), 2, 7), ((), 3, 8), ((), 3, 4), ((), 2, 3), ((16,), 2, 9), ((8, 12), 2, 8),
    ])  # 7, 8 and 3 frames are not multiples of the stride; 4 and 3 are fewer than the 5 taps
    def test_logits_and_embeddings_match_the_full_map(self, precision, tolerance, mixing, padding,
                                                     hidden, stride, frames):
        cfg = EncoderConfig(joints=4, frames=frames, channels=8, temporal_stride=stride, hidden=hidden,
                            kernel_size=5, joint_mixing=mixing, temporal_padding=padding)
        rng = np.random.default_rng(11)
        count = TEST_CHUNK + 3  # a short final chunk
        coords = rng.standard_normal((count, 4, frames, 3))
        with tz.using_precision(precision):
            params = init_params(cfg, 4, seed=2)
            params.update(init_decoupler(joints=4, out_frames=cfg.out_frames, channels=8, reduction=2, dim=6,
                                         seed=2))
            for name in params:  # biases start at zero; the pooled bias terms are checked only if they are not
                if name.endswith(".b"):
                    params[name] = Tensor(rng.standard_normal(params[name].shape), requires_grad=True)
            model = tiny_model(params, cfg)
            feature_map = encode(params, cfg, coords)
            want = {"logits": classify(params, feature_map).data,
                    **{name: head.data for name, head in decouple(feature_map, params).items()}}
            report = embedding_report(model, dataset_of(coords, np.arange(count) % 4))
            chunks = [_tape_free(model, coords[start : start + TEST_CHUNK]) for start in (0, TEST_CHUNK)]
            got = {"logits": np.concatenate(chunks), "spatial": report.spatial, "temporal": report.temporal}
            one = predict_logits(model, coords[-1])
        assert got["logits"].dtype == one.dtype == np.dtype(precision)
        for name, value in got.items():
            assert relative_error(value, want[name]) <= tolerance, name
        assert relative_error(one, want["logits"][-1]) <= tolerance


class TestMixing:
    def test_fixed_matrix_is_doubly_stochastic(self):
        for j in (2, 5, 25):
            m = mixing_matrix(j)
            np.testing.assert_allclose(m.sum(axis=0), np.ones(j), atol=1e-12)
            np.testing.assert_allclose(m.sum(axis=1), np.ones(j), atol=1e-12)
            assert (m > 0).all()

    def test_fixed_mixing_preserves_joint_mean(self):
        """With fixed mixing, a zero-joint-mean input cannot reach the
        joint-pooled view of a linear (no hidden block) encoder."""
        cfg = tiny_cfg(hidden=(), temporal_stride=1)
        params = init_params(cfg, 4, seed=1)
        rng = np.random.default_rng(2)
        signal = rng.standard_normal((2, 3, 8, 3))
        signal -= signal.mean(axis=1, keepdims=True)
        feat = encode(params, cfg, signal).data
        bias_only = encode(params, cfg, np.zeros((2, 3, 8, 3))).data
        np.testing.assert_allclose((feat - bias_only).mean(axis=1), 0.0, atol=1e-12)

    def test_circular_padding_preserves_time_mean(self):
        """With circular stride-1 convs, a zero-time-mean input cannot reach
        the time-pooled view of a linear encoder."""
        cfg = tiny_cfg(hidden=(), temporal_stride=1, temporal_padding="circular")
        params = init_params(cfg, 4, seed=1)
        rng = np.random.default_rng(3)
        signal = rng.standard_normal((2, 3, 8, 3))
        signal -= signal.mean(axis=2, keepdims=True)
        feat = encode(params, cfg, signal).data
        bias_only = encode(params, cfg, np.zeros((2, 3, 8, 3))).data
        np.testing.assert_allclose((feat - bias_only).mean(axis=2), 0.0, atol=1e-12)

    def test_zero_padding_leaks_time_mean(self):
        """Zero padding does not commute with time pooling (boundary loss)."""
        cfg = tiny_cfg(hidden=(), temporal_stride=1, temporal_padding="zero")
        params = init_params(cfg, 4, seed=1)
        rng = np.random.default_rng(3)
        signal = rng.standard_normal((2, 3, 8, 3))
        signal -= signal.mean(axis=2, keepdims=True)
        feat = encode(params, cfg, signal).data
        bias_only = encode(params, cfg, np.zeros((2, 3, 8, 3))).data
        assert np.abs((feat - bias_only).mean(axis=2)).max() > 1e-6

    def test_fixed_matrix_is_one_constant_per_joints_and_dtype(self):
        mix = encoder._fixed_mixing(3, np.dtype(np.float64))
        assert encoder._fixed_mixing(3, np.dtype(np.float64)) is mix
        np.testing.assert_array_equal(mix.data, mixing_matrix(3))
        assert not mix.requires_grad and not mix.data.flags.writeable
        single = encoder._fixed_mixing(3, np.dtype(np.float32))
        assert single.data.dtype == np.float32
        np.testing.assert_array_equal(single.data, mixing_matrix(3).astype(np.float32))

    def test_encode_output_follows_precision(self):
        cfg = tiny_cfg()
        params = init_params(cfg, 4, seed=0)
        coords = np.random.default_rng(7).standard_normal((2, 3, 8, 3))
        reference = encode(params, cfg, coords).data
        with tz.using_precision("float32"):
            single = encode({k: Tensor(p.data) for k, p in params.items()}, cfg, coords).data
        assert single.dtype == np.float32
        np.testing.assert_allclose(single, reference, rtol=1e-4, atol=1e-5)

    def test_mode_validation(self):
        with pytest.raises(ConfigError, match="joint_mixing"):
            tiny_cfg(joint_mixing="adaptive")
        with pytest.raises(ConfigError, match="temporal_padding"):
            tiny_cfg(temporal_padding="reflect")


class TestStride:
    def test_stride_applies_only_to_first_layer(self):
        cfg = tiny_cfg(frames=8, temporal_stride=2, hidden=(4,))
        params = init_params(cfg, 4, seed=0)
        feat = encode(params, cfg, np.random.default_rng(0).standard_normal((1, 3, 8, 3)))
        # one stride-2 halving, not two
        assert feat.data.shape[2] == 4

    def test_static_input_is_static_over_time(self):
        """A time-constant input stays time-constant through temporal convs."""
        cfg = tiny_cfg(hidden=())
        params = init_params(cfg, 4, seed=6)
        pose = np.random.default_rng(7).standard_normal((2, 3, 1, 3))
        coords = np.tile(pose, (1, 1, 8, 1))
        feat = encode(params, cfg, coords).data
        # interior frames identical (boundary frames differ: zero padding)
        np.testing.assert_allclose(feat[:, :, 1, :], feat[:, :, 2, :], atol=1e-12)


class TestBatchAxis:
    """A batch is B independent sequences: each row equals its own batch-of-one call."""

    @pytest.mark.parametrize("mixing", ["fixed", "learned"])
    @pytest.mark.parametrize("padding", ["zero", "circular"])
    def test_rows_equal_batch_of_one_calls(self, padding, mixing):
        cfg = tiny_cfg(joint_mixing=mixing, temporal_padding=padding)
        params = init_params(cfg, 4, seed=3)
        params.update(init_decoupler(joints=3, out_frames=cfg.out_frames, channels=6, reduction=2, dim=5, seed=3))
        coords = np.random.default_rng(8).standard_normal((5, 3, 8, 3))
        feat = encode(params, cfg, coords)
        logits = classify(params, feat)
        heads = decouple(feat, params)
        assert logits.shape == (5, 4) and heads["spatial"].shape == heads["temporal"].shape == (5, 5)
        for b in range(5):
            one = encode(params, cfg, coords[b : b + 1])
            one_heads = decouple(one, params)
            np.testing.assert_allclose(feat.data[b], one.data[0], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(logits.data[b], classify(params, one).data[0], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(heads["spatial"].data[b], one_heads["spatial"].data[0], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(heads["temporal"].data[b], one_heads["temporal"].data[0], rtol=1e-12, atol=1e-14)
