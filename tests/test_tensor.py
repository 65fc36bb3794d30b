"""Tensor-core semantics: forward values, backward rules, error contracts."""

import itertools
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stdcl.tensor as tz
from stdcl.contrast import make_banks
from stdcl.data import SyntheticSpec, generate_synthetic
from stdcl.encoder import EncoderConfig
from stdcl.errors import DimensionError, DomainError, NumericError
from stdcl.tensor import Tensor
from stdcl.train import SGD, TrainConfig, build_model, train_step


def grad_of(fn, *arrays):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    fn(*tensors).backward()
    return [t.grad for t in tensors]


class TestForwardValues:
    def test_matmul_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        out = tz.matmul(Tensor(a), Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, a)

    def test_matmul_shapes(self):
        out = tz.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((4, 2))))
        assert out.shape == (3, 2)
        np.testing.assert_allclose(out.data, 4.0)

    def test_matmul_shape_mismatch_names_both(self):
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 2\)"):
            tz.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 2))))

    def test_matmul_requires_2d(self):
        with pytest.raises(DimensionError):
            tz.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_matmul_broadcasts_2d_against_batched(self):
        rng = np.random.default_rng(0)
        mix, rows, w = rng.standard_normal((3, 3)), rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5))
        np.testing.assert_allclose(tz.matmul(Tensor(mix), Tensor(rows)).data, [mix @ r for r in rows])
        np.testing.assert_allclose(tz.matmul(Tensor(rows), Tensor(w)).data, [r @ w for r in rows])

    def test_matmul_two_batched_operands_rejected(self):
        with pytest.raises(DimensionError, match="one 2-d and one 3-d"):
            tz.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 5))))

    def test_add_broadcasts_trailing_shape_only(self):
        out = tz.add(Tensor(np.zeros((2, 3))), Tensor(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]] * 2)
        with pytest.raises(DimensionError, match="trailing shape"):
            tz.add(Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))
        with pytest.raises(DimensionError, match="trailing shape"):
            tz.add(Tensor(np.zeros(3)), Tensor(np.zeros((2, 3))))

    def test_exp_log_inverse_points(self):
        assert tz.exp(Tensor(0.0)).item() == 1.0
        assert tz.log(Tensor(1.0)).item() == 0.0

    def test_log_rejects_non_positive(self):
        with pytest.raises(DomainError, match="strictly positive"):
            tz.log(Tensor(np.array([1.0, 0.0])))
        with pytest.raises(DomainError):
            tz.log(Tensor(-1.0))

    def test_relu_values(self):
        out = tz.relu(Tensor(np.array([-2.0, 0.0, 3.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])

    def test_mean_over_axes(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        out = tz.mean_over_axes(Tensor(x), (0, 2))
        np.testing.assert_allclose(out.data, x.mean(axis=(0, 2)))

    def test_mean_empty_axis_set_rejected(self):
        with pytest.raises(DimensionError, match="empty axis set"):
            tz.mean_over_axes(Tensor(np.ones((2, 3))), ())

    def test_mean_duplicate_axis_rejected(self):
        with pytest.raises(DimensionError):
            tz.mean_over_axes(Tensor(np.ones((2, 3))), (0, 0))

    def test_mean_axis_out_of_range(self):
        with pytest.raises(DimensionError):
            tz.mean_over_axes(Tensor(np.ones((2, 3))), (2,))

    def test_l2_normalize_three_four_five(self):
        out = tz.l2_normalize(Tensor(np.array([3.0, 4.0])))
        np.testing.assert_allclose(out.data, [0.6, 0.8])

    def test_l2_normalize_degenerate(self):
        with pytest.raises(NumericError):
            tz.l2_normalize(Tensor(np.zeros(4)))

    def test_softmax_ce_uniform_logits_ln_k(self):
        for k in (2, 4, 10):
            loss = tz.softmax_cross_entropy(Tensor(np.zeros(k)), 0)
            assert loss.item() == pytest.approx(math.log(k), abs=1e-12)

    def test_softmax_ce_ln_10(self):
        loss = tz.softmax_cross_entropy(Tensor(np.zeros(10)), 7)
        assert loss.item() == pytest.approx(2.302585, abs=1e-6)

    def test_softmax_ce_saturated_near_zero(self):
        logits = np.zeros(4)
        logits[2] = 50.0
        loss = tz.softmax_cross_entropy(Tensor(logits), 2)
        assert 0.0 <= loss.item() < 1e-9

    def test_softmax_ce_target_out_of_range(self):
        with pytest.raises(IndexError):
            tz.softmax_cross_entropy(Tensor(np.zeros(4)), 4)
        with pytest.raises(IndexError):
            tz.softmax_cross_entropy(Tensor(np.zeros(4)), -1)

    def test_softmax_ce_rows_match_vector_calls(self):
        rows = np.random.default_rng(3).standard_normal((4, 5))
        targets = [4, 0, 2, 2]
        losses = tz.softmax_cross_entropy(Tensor(rows), targets)
        assert losses.shape == (4,)
        for row, target, loss in zip(rows, targets, losses.data):
            assert loss == pytest.approx(tz.softmax_cross_entropy(Tensor(row), target).item(), rel=1e-12)

    def test_softmax_ce_target_shape_mismatch(self):
        with pytest.raises(DimensionError, match="targets of shape"):
            tz.softmax_cross_entropy(Tensor(np.zeros((3, 4))), [0, 1])
        with pytest.raises(DimensionError, match="targets of shape"):
            tz.softmax_cross_entropy(Tensor(np.zeros((3, 4))), 0)
        with pytest.raises(DimensionError, match="targets of shape"):
            tz.softmax_cross_entropy(Tensor(np.zeros(4)), [0])

    def test_softmax_ce_shift_invariance(self):
        logits = np.array([1.0, -2.0, 0.5])
        a = tz.softmax_cross_entropy(Tensor(logits), 1).item()
        b = tz.softmax_cross_entropy(Tensor(logits + 100.0), 1).item()
        assert a == pytest.approx(b, rel=1e-12)

    def test_reshape_round_trip(self):
        x = np.arange(12.0).reshape(3, 4)
        back = tz.reshape(tz.reshape(Tensor(x), (2, 6)), (3, 4))
        np.testing.assert_array_equal(back.data, x)

    def test_reshape_size_mismatch(self):
        with pytest.raises(DimensionError):
            tz.reshape(Tensor(np.ones((3, 4))), (5, 2))

    def test_gather1d(self):
        out = tz.gather1d(Tensor(np.array([5.0, 6.0, 7.0])), [2, 0, 2])
        np.testing.assert_array_equal(out.data, [7.0, 5.0, 7.0])
        with pytest.raises(IndexError):
            tz.gather1d(Tensor(np.array([5.0, 6.0])), [3])

    def test_temporal_conv_identity_kernel(self):
        # kernel that copies the center frame reproduces the input
        x = np.random.default_rng(0).standard_normal((2, 2, 6, 3))
        w = np.zeros((3, 3, 3))
        w[1] = np.eye(3)
        out = tz.temporal_conv(Tensor(x), Tensor(w), Tensor(np.zeros(3)), stride=1)
        np.testing.assert_allclose(out.data, x)

    def test_temporal_conv_stride_output_frames(self):
        x = Tensor(np.ones((3, 2, 7, 3)))
        w = Tensor(np.zeros((3, 3, 4)))
        b = Tensor(np.zeros(4))
        assert tz.temporal_conv(x, w, b, stride=2).shape == (3, 2, 4, 4)
        assert tz.temporal_conv(x, w, b, stride=3).shape == (3, 2, 3, 4)

    def test_temporal_conv_even_kernel_rejected(self):
        with pytest.raises(DimensionError):
            tz.temporal_conv(Tensor(np.ones((1, 2, 6, 3))), Tensor(np.zeros((4, 3, 4))), Tensor(np.zeros(4)))

    def test_temporal_conv_circular_wraps(self):
        # tap at offset -1 with circular padding reads frame T-1 into frame 0
        x = np.zeros((1, 1, 5, 1))
        x[0, 0, 4, 0] = 1.0
        w = np.zeros((3, 1, 1))
        w[0, 0, 0] = 1.0  # offset -1
        out = tz.temporal_conv(Tensor(x), Tensor(w), Tensor(np.zeros(1)),
                               stride=1, padding="circular")
        np.testing.assert_allclose(out.data[0, 0, :, 0], [1.0, 0.0, 0.0, 0.0, 0.0])
        # zero padding reads nothing there
        out0 = tz.temporal_conv(Tensor(x), Tensor(w), Tensor(np.zeros(1)), stride=1)
        np.testing.assert_allclose(out0.data[0, 0, :, 0], [0.0, 0.0, 0.0, 0.0, 0.0])

    def test_temporal_conv_circular_time_sum_commutes(self):
        # stride-1 circular conv: frame-summed output = kernel-sum applied
        # to the frame-summed input (plus T * bias)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 2, 6, 3))
        w = rng.standard_normal((5, 3, 4))
        b = rng.standard_normal(4)
        out = tz.temporal_conv(Tensor(x), Tensor(w), Tensor(b), stride=1, padding="circular")
        want = x.sum(axis=2) @ w.sum(axis=0) + 6 * b
        np.testing.assert_allclose(out.data.sum(axis=2), want, atol=1e-10)

    @pytest.mark.parametrize("padding", ["zero", "circular"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("frames,k", [(7, 3), (6, 5), (2, 5)])  # (2, 5): kernel wider than input
    def test_temporal_conv_matches_loop(self, padding, stride, frames, k):
        rng = np.random.default_rng(frames * 10 + k)
        x = rng.standard_normal((3, 2, frames, 3))
        w = rng.standard_normal((k, 3, 4))
        b = rng.standard_normal(4)
        t_out = -(-frames // stride)
        want = np.empty((3, 2, t_out, 4))
        for n in range(3):
            for j in range(2):
                for t in range(t_out):
                    acc = b.copy()
                    for d in range(k):
                        src = t * stride + d - k // 2
                        if padding == "circular":
                            acc += x[n, j, src % frames] @ w[d]
                        elif 0 <= src < frames:
                            acc += x[n, j, src] @ w[d]
                    want[n, j, t] = acc
        out = tz.temporal_conv(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)

    def test_temporal_conv_bad_padding_rejected(self):
        with pytest.raises(DimensionError, match="padding"):
            tz.temporal_conv(Tensor(np.ones((1, 2, 6, 3))), Tensor(np.zeros((3, 3, 4))),
                             Tensor(np.zeros(4)), padding="reflect")


class TestBackward:
    def test_fanout_accumulates(self):
        x = Tensor(3.0, requires_grad=True)
        tz.add(x, x).backward()
        assert x.grad == pytest.approx(2.0, abs=0)

    def test_mul_grads(self):
        ga, gb = grad_of(lambda a, b: tz.sum_all(tz.mul(a, b)), np.array([2.0, 3.0]), np.array([5.0, 7.0]))
        np.testing.assert_array_equal(ga, [5.0, 7.0])
        np.testing.assert_array_equal(gb, [2.0, 3.0])

    def test_matmul_projector_grad(self):
        # sum(A @ B) with B = ones: dA = ones row sums
        (ga,) = grad_of(lambda a: tz.sum_all(tz.matmul(a, Tensor(np.ones((3, 2))))), np.ones((2, 3)))
        np.testing.assert_array_equal(ga, np.full((2, 3), 2.0))

    def test_mean_grad_divides(self):
        (g,) = grad_of(lambda x: tz.mean_over_axes(x, (0,)), np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(g, 0.25)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError):
            tz.relu(x).backward()

    def test_grad_none_without_requires(self):
        x = Tensor(np.ones(3))
        out = tz.sum_all(tz.relu(x))
        assert not out.requires_grad
        out.backward()  # constant root: no-op
        assert x.grad is None

    def test_softmax_ce_grad_sums_to_zero(self):
        (g,) = grad_of(lambda l: tz.softmax_cross_entropy(l, 1), np.array([0.3, -1.2, 2.0]))
        assert g.sum() == pytest.approx(0.0, abs=1e-12)
        assert g[1] < 0  # target logit pushed up

    def test_broadcast_grads_sum_over_the_batch(self):
        rng = np.random.default_rng(4)
        mix, rows, bias = rng.standard_normal((3, 3)), rng.standard_normal((2, 3, 4)), rng.standard_normal(4)
        g_mix, g_rows, g_bias = grad_of(lambda m, r, b: tz.sum_all(tz.add(tz.matmul(m, r), b)), mix, rows, bias)
        np.testing.assert_allclose(g_mix, sum(np.ones((3, 4)) @ r.T for r in rows))
        np.testing.assert_allclose(g_rows, np.broadcast_to(mix.T @ np.ones((3, 4)), (2, 3, 4)))
        np.testing.assert_array_equal(g_bias, np.full(4, 6.0))

    def test_add_scalar_tensor_grad(self):
        x = np.array([1.0, 2.0, 3.0])
        gx, gs = grad_of(lambda a, s: tz.sum_all(tz.add_scalar(a, s)), x, np.array(5.0))
        np.testing.assert_array_equal(gx, np.ones(3))
        assert gs == pytest.approx(3.0)

    def test_gather1d_scatter_adds(self):
        (g,) = grad_of(lambda x: tz.sum_all(tz.gather1d(x, [1, 1, 0])), np.array([4.0, 5.0, 6.0]))
        np.testing.assert_array_equal(g, [1.0, 2.0, 0.0])

    def test_first_gradient_is_owned_by_each_operand(self):
        # add hands the root's own gradient buffer to both operands
        x, y = Tensor([1.0], requires_grad=True), Tensor([2.0], requires_grad=True)
        root = tz.add(x, y)
        root.backward()
        x.grad[0] = 5.0
        np.testing.assert_array_equal(y.grad, [1.0])
        np.testing.assert_array_equal(root.grad, [1.0])

    def test_first_gradient_keeps_the_tensor_dtype(self):
        with tz.using_precision("float32"):
            x = Tensor(np.ones(3), requires_grad=True)
        x._accumulate(np.full(3, 1.0 + 2.0**-40))  # a float64 gradient
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, np.ones(3, dtype=np.float32))
        x._accumulate(np.ones(3))
        assert x.grad.dtype == np.float32

    def test_first_gradient_keeps_the_sign_of_a_zero(self):
        # relu's rule hands over g * mask, -0.0 where a negative g is masked;
        # the first write copies it (zeros + g would give +0.0).  Only .grad
        # shows it: SGD adds it to a +0.0 velocity, which stays +0.0.
        x = Tensor([-1.0, 2.0], requires_grad=True)
        tz.sum_all(tz.mul(tz.relu(x), Tensor([-3.0, -3.0]))).backward()
        np.testing.assert_array_equal(x.grad, [0.0, -3.0])
        assert np.signbit(x.grad[0])
        opt = SGD({"x": x}, momentum=0.9, weight_decay=0.0)
        opt.step(0.1)
        assert not np.signbit(opt.velocity["x"][0]) and x.data[0] == -1.0

    @pytest.mark.parametrize("reduce", [tz.sum_all, lambda t: tz.mean_over_axes(t, (0, 1))])
    def test_broadcast_view_gradient_becomes_an_owned_writable_array(self, reduce):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        reduce(x).backward()
        assert x.grad.flags.owndata and x.grad.flags.writeable and x.grad.shape == (2, 3)
        x.grad += 1.0

    def test_an_owned_gradient_is_taken_without_a_copy(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        g = np.full((2, 3), 2.0)
        x._accumulate(g, owned=True)
        assert x.grad is g
        x._accumulate(np.ones((2, 3)), owned=True)
        assert x.grad is g
        np.testing.assert_array_equal(g, np.full((2, 3), 3.0))

    def test_an_owned_gradient_of_another_dtype_or_shape_is_copied(self):
        with tz.using_precision("float32"):
            x = Tensor(np.ones(3), requires_grad=True)
            y = Tensor(np.ones((2, 3)), requires_grad=True)
        g = np.full(3, 1.0 + 2.0**-40)  # a float64 gradient
        x._accumulate(g, owned=True)
        assert x.grad.dtype == np.float32 and not np.shares_memory(x.grad, g)
        np.testing.assert_array_equal(x.grad, np.ones(3, dtype=np.float32))
        row = np.ones(3, dtype=np.float32)  # broadcast to y's shape
        y._accumulate(row, owned=True)
        assert y.grad.shape == (2, 3) and not np.shares_memory(y.grad, row)
        z = Tensor(2.0, requires_grad=True)
        tz.scalar_mul(z, 3.0).backward()  # g * c of a 0-d g is a numpy scalar
        assert isinstance(z.grad, np.ndarray) and z.grad.shape == () and z.grad == 3.0

    @pytest.mark.parametrize("padding", tz.PADDING_MODES)
    def test_no_two_gradients_share_memory_after_a_training_step(self, monkeypatch, padding):
        # add hands one g to both operands, and temporal_conv hands over a
        # slice of its padded buffer: each tensor must still own its .grad
        spec = SyntheticSpec(joints=4, frames=8, num_spatial=2, num_temporal=2, per_class=3, noise_std=0.05)
        ds = generate_synthetic(spec, seed=0)
        encoder = EncoderConfig(joints=4, frames=8, channels=8, hidden=(4,), kernel_size=3,
                                joint_mixing="learned", temporal_padding=padding)
        cfg = TrainConfig(batch_size=4, embed_dim=6, reduction=2, n_pos_hard=2, n_neg_hard=2, n_neg_rand=2,
                          lambda_spatial=0.5)
        model = build_model(encoder, ds.num_classes, cfg)
        banks = make_banks(len(ds), cfg.embed_dim, seed=cfg.seed)
        rng = np.random.default_rng(1)
        for seq in ds:
            for bank in banks.values():
                bank.update(seq.index, rng.standard_normal(cfg.embed_dim), seq.label)
        roots = []
        original = Tensor.backward

        def recorded(root):
            roots.append(root)
            return original(root)

        monkeypatch.setattr(Tensor, "backward", recorded)
        opt = SGD(model.named_tensors(), cfg.momentum, cfg.weight_decay)
        record = train_step(list(ds)[:4], model, banks, cfg, opt, lr=cfg.learning_rate)
        assert record.loss_spatial > 0.0 and record.loss_temporal > 0.0
        (root,) = roots
        nodes = tz._toposort(root)
        ops = {node._op for node in nodes}
        assert {"add", "scalar_mul", "relu", "matmul", "temporal_conv", "info_nce_batch"} <= ops
        grads = [node.grad for node in nodes if node.grad is not None]
        assert len(grads) > 20
        for a, b in itertools.combinations(grads, 2):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_mean_over_axes_is_ndarray_mean_bit_for_bit(self, precision):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((3, 5, 7, 6)) * 10.0
        with tz.using_precision(precision):
            for r in range(1, 5):
                for axes in itertools.combinations(range(4), r):
                    x = Tensor(data, requires_grad=True)
                    out = tz.mean_over_axes(x, axes)
                    want = x.data.mean(axis=axes)
                    assert np.asarray(out.data).dtype == x.data.dtype
                    assert np.asarray(out.data).tobytes() == np.asarray(want).tobytes(), axes
                    g = rng.standard_normal(np.shape(want)).astype(x.data.dtype)
                    out._backward_fn(g)
                    count = math.prod(data.shape[a] for a in axes)
                    expected = np.broadcast_to(np.expand_dims(g / count, axes), data.shape)
                    assert x.grad.dtype == x.data.dtype and x.grad.tobytes() == expected.tobytes(), axes


def _fancy_index_input_grad(g, w, frames, stride, padding):
    """The input gradient as the fancy-index scatter of the earlier temporal_conv computed it."""
    k = w.shape[0]
    pad = k // 2
    idx = np.arange(g.shape[2])[:, None] * stride + np.arange(k)[None, :]
    if padding == "zero":
        dsrc = np.zeros(g.shape[:2] + (frames + 2 * pad, w.shape[1]))
    else:
        idx = (idx - pad) % frames
        dsrc = np.zeros(g.shape[:2] + (frames, w.shape[1]))
    for d in range(k):
        dsrc[:, :, idx[:, d], :] += g @ w[d].T
    return dsrc[:, :, pad : pad + frames, :] if padding == "zero" else dsrc


def _loop_conv_grads(x, w, g, stride, padding):
    """(dx, dw, db) of temporal_conv, one tap of one output frame at a time."""
    batch, joints, frames, _ = x.shape
    k = w.shape[0]
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for n in range(batch):
        for j in range(joints):
            for t in range(g.shape[2]):
                for d in range(k):
                    src = t * stride + d - k // 2
                    if padding == "circular":
                        src %= frames
                    elif not 0 <= src < frames:
                        continue
                    dx[n, j, src] += w[d] @ g[n, j, t]
                    dw[d] += np.outer(x[n, j, src], g[n, j, t])
    return dx, dw, g.sum(axis=(0, 1, 2))


# (padding, stride, frames, k): circular stride 3 splits taps at the wrap, k > frames, frames = 1
CONV_GRAD_CASES = [
    ("circular", 3, 7, 5), ("circular", 3, 8, 7), ("circular", 2, 5, 5), ("circular", 1, 6, 3),
    ("circular", 1, 2, 5), ("circular", 1, 1, 3), ("circular", 3, 1, 7),
    ("zero", 3, 7, 5), ("zero", 2, 6, 3), ("zero", 1, 2, 7), ("zero", 2, 1, 5), ("zero", 1, 1, 1),
]


@pytest.mark.parametrize("padding,stride,frames,k", CONV_GRAD_CASES)
def test_temporal_conv_gradients(padding, stride, frames, k):
    rng = np.random.default_rng(100 * frames + 10 * k + stride)
    x = Tensor(rng.standard_normal((2, 3, frames, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((k, 4, 5)), requires_grad=True)
    b = Tensor(rng.standard_normal(5), requires_grad=True)
    out = tz.temporal_conv(x, w, b, stride=stride, padding=padding)
    g = rng.standard_normal(out.shape)
    tz.sum_all(tz.mul(out, Tensor(g))).backward()  # the conv receives exactly g
    np.testing.assert_array_equal(x.grad, _fancy_index_input_grad(g, w.data, frames, stride, padding))
    for got, want in zip((x.grad, w.grad, b.grad), _loop_conv_grads(x.data, w.data, g, stride, padding)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestCheckedMode:
    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            Tensor(np.array([1.0, np.nan]))
        with pytest.raises(NumericError):
            Tensor(np.array([np.inf]))

    def test_non_finite_result_names_op(self):
        big = Tensor(np.array([1e308]))
        with pytest.raises(NumericError, match="exp"):
            tz.exp(big)

    def test_unchecked_mode_allows(self, monkeypatch):
        monkeypatch.setattr(tz, "_checked", False)
        t = Tensor(np.array([np.nan]))
        assert np.isnan(t.data).all()

    def test_precision_switch(self):
        with tz.using_precision("float32"):
            assert Tensor(1.0).data.dtype == np.float32
        assert Tensor(1.0).data.dtype == np.float64


@pytest.fixture
def scans(monkeypatch):
    """The op names of checked mode's finiteness scans, in order."""
    seen = []
    scan = tz._scan

    def record(data, op, what):
        seen.append(op)
        scan(data, op, what)

    monkeypatch.setattr(tz, "_scan", record)
    return seen


def _conv_of(value):
    x, w = Tensor(np.full((1, 1, 1, 1), value)), Tensor(np.full((1, 1, 1), value))
    return tz.temporal_conv(x, w, Tensor(np.zeros(1)))


# ops fed finite values whose result overflows; log and l2_normalize cannot
# turn finite inputs into a non-finite result, and the ops in UNSCANNED_OPS
# only move or mask their input
OVERFLOWING_OPS = {
    "matmul": lambda: tz.matmul(Tensor([[1e200]]), Tensor([[1e200]])),
    "add": lambda: tz.add(Tensor([1e308]), Tensor([1e308])),
    "sub": lambda: tz.sub(Tensor([1e308]), Tensor([-1e308])),
    "mul": lambda: tz.mul(Tensor([1e200]), Tensor([1e200])),
    "scalar_mul": lambda: tz.scalar_mul(Tensor([1e308]), 10.0),
    "add_scalar": lambda: tz.add_scalar(Tensor([1e308]), 1e308),
    "add_scalar/tensor": lambda: tz.add_scalar(Tensor([1e308]), Tensor(1e308)),
    "exp": lambda: tz.exp(Tensor([1000.0])),
    "sum_over_axes": lambda: tz.sum_over_axes(Tensor([1e308, 1e308]), (0,)),
    "mean_over_axes": lambda: tz.mean_over_axes(Tensor([1e308, 1e308]), (0,)),
    "softmax_cross_entropy": lambda: tz.softmax_cross_entropy(Tensor([1e308, -1e308]), 1),
    "temporal_conv": lambda: _conv_of(1e200),
}


class TestCheckedModeScansOnce:
    @pytest.mark.parametrize("case", sorted(OVERFLOWING_OPS))
    def test_overflow_raises_naming_the_op(self, case):
        op = case.split("/")[0]
        with np.errstate(all="ignore"), pytest.raises(NumericError, match=f"^{op}: non-finite value in result"):
            OVERFLOWING_OPS[case]()

    def test_unscanned_ops_only_move_or_mask(self):
        assert tz.UNSCANNED_OPS == {"reshape", "relu", "gather1d"}

    def test_reshape_relu_and_gather_do_not_rescan(self, scans):
        x = Tensor(np.array([[1.0, -2.0], [3.0, 4.0]]), requires_grad=True)
        assert scans == ["tensor"]
        scans.clear()
        flat = tz.reshape(tz.relu(x), (4,))
        picked = tz.gather1d(flat, [0, 2, 3])
        np.testing.assert_array_equal(picked.data, [1.0, 3.0, 4.0])
        assert scans == []
        tz.sum_all(picked).backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0], [1.0, 1.0]])

    def test_unchecked_mode_scans_nothing(self, scans, monkeypatch):
        monkeypatch.setattr(tz, "_checked", False)
        with np.errstate(all="ignore"):
            for case in OVERFLOWING_OPS.values():
                case()
        assert scans == []

    def test_imports_in_float64_checked_mode(self):
        probe = "import stdcl.tensor as tz; print(tz.active_dtype().name, tz.is_checked())"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.split() == ["float64", "True"]


class TestNoGrad:
    def test_ops_record_no_tape(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        with tz.no_grad():
            out = tz.sum_all(tz.relu(tz.scalar_mul(x, 3.0)))
        assert not out.requires_grad
        assert out._parents == () and out._backward_fn is None and out._op is None
        assert out.item() == 3.0
        assert tz.sum_all(x).requires_grad  # recording resumes after the block

    def test_nests(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with tz.no_grad():
            with tz.no_grad():
                assert not tz.relu(x).requires_grad
            assert not tz.relu(x).requires_grad
        assert tz.relu(x).requires_grad

    def test_restores_after_exception(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(DomainError):
            with tz.no_grad():
                tz.log(tz.scalar_mul(x, -1.0))
        out = tz.sum_all(tz.relu(x))
        assert out.requires_grad
        out.backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.data())
def test_softmax_ce_positive_and_bounded(logits, data):
    target = data.draw(st.integers(0, len(logits) - 1))
    loss = tz.softmax_cross_entropy(Tensor(np.array(logits)), target)
    assert loss.item() >= 0.0
    # bounded by shifted-logit range
    spread = max(logits) - min(logits)
    assert loss.item() <= spread + math.log(len(logits)) + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=20).filter(
        lambda v: np.linalg.norm(v) > 1e-6
    )
)
def test_l2_normalize_unit_norm(values):
    out = tz.l2_normalize(Tensor(np.array(values)))
    assert np.linalg.norm(out.data) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reshape_concat_bijection(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 3))
    flat = tz.reshape(Tensor(a), (6,))
    np.testing.assert_array_equal(flat.data, a.reshape(-1))
    np.testing.assert_array_equal(tz.reshape(flat, (2, 3)).data, a)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc thresholds")
def test_temporaries_reuse_heap_pages_whatever_was_freed_before():
    """Two 2 MiB temporaries allocated and freed per cycle do not fault fresh pages each cycle.

    With glibc's default dynamic thresholds a fresh process maps the first
    block, raises its trim threshold to 4 MiB, and then hands the heap top
    back (and faults it in again) on every cycle, about 1,000 faults each.
    """
    probe = textwrap.dedent("""
        import resource
        import numpy as np
        import stdcl

        def cycle():
            a = np.ones(2 << 17)
            b = np.ones(2 << 17)
            del a, b

        for _ in range(5):
            cycle()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            cycle()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert int(out.stdout) < 2000
