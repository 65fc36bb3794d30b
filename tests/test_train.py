"""Training loop: config, optimizer, loss composition, determinism, artifacts."""

import csv
import math
import os

import numpy as np
import pytest

from stdcl import instrumentation, train
from stdcl import tensor as tz
from stdcl.contrast import make_banks
from stdcl.data import SyntheticSpec, generate_synthetic
from stdcl.decoupling import decouple
from stdcl.encoder import EncoderConfig, classify, encode
from stdcl.errors import ConfigError
from stdcl.tensor import Tensor
from stdcl.train import (
    METRICS_HEADER,
    SGD,
    TEST_CHUNK,
    TrainConfig,
    build_model,
    embedding_report,
    evaluate,
    export_embeddings_tsv,
    fit,
    load_model,
    model_meta,
    predict_logits,
    save_model,
    train_step,
)


def tiny_dataset(seed=0, per_class=3, noise=0.05):
    spec = SyntheticSpec(joints=4, frames=8, num_spatial=2, num_temporal=2,
                         per_class=per_class, noise_std=noise)
    return spec, generate_synthetic(spec, seed=seed)


def tiny_encoder():
    return EncoderConfig(joints=4, frames=8, channels=8, temporal_stride=2,
                         hidden=(4,), kernel_size=3)


def tiny_train(**kw):
    defaults = dict(epochs=2, batch_size=4, learning_rate=0.01, momentum=0.9,
                    weight_decay=1e-4, seed=0, tau=0.8, embed_dim=6, reduction=2,
                    n_pos_hard=2, n_neg_hard=2, n_neg_rand=2, eval_every=1)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_train(learning_rate=0.0)
        with pytest.raises(ConfigError):
            tiny_train(epochs=-1)
        with pytest.raises(ConfigError):
            tiny_train(momentum=1.5)
        with pytest.raises(ConfigError):
            tiny_train(lambda_ce=-0.1)
        with pytest.raises(ConfigError):
            tiny_train(tau=0.0)
        with pytest.raises(ConfigError):
            tiny_train(loss_form="nope")

    def test_contrast_config_mapping(self):
        cfg = tiny_train(tau=0.5, n_pos_hard=3, n_neg_hard=4, n_neg_rand=5,
                         loss_form="literal")
        ccfg = cfg.contrast_config()
        assert (ccfg.tau, ccfg.n_pos_hard, ccfg.n_neg_hard, ccfg.n_neg_rand) == (0.5, 3, 4, 5)
        assert ccfg.loss_form == "literal"

    def test_lr_schedule(self):
        cfg = tiny_train(learning_rate=0.1, lr_decay_epochs=2, lr_decay_gamma=0.1)
        assert cfg.lr_at(0) == pytest.approx(0.1)
        assert cfg.lr_at(1) == pytest.approx(0.1)
        assert cfg.lr_at(2) == pytest.approx(0.01)
        assert cfg.lr_at(4) == pytest.approx(0.001)

    def test_no_decay_by_default(self):
        cfg = tiny_train(learning_rate=0.05)
        assert cfg.lr_at(49) == pytest.approx(0.05)


class TestSGD:
    def test_hand_computed_step(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = SGD({"p": p}, momentum=0.9, weight_decay=0.1)
        p.grad = np.array([0.5, 0.5])
        opt.step(0.1)
        v1 = 0.5 + 0.1 * np.array([1.0, -2.0])
        np.testing.assert_allclose(p.data, np.array([1.0, -2.0]) - 0.1 * v1)
        # second step accumulates momentum
        data1 = p.data.copy()
        p.grad = np.array([0.5, 0.5])
        opt.step(0.1)
        v2 = 0.9 * v1 + 0.5 + 0.1 * data1
        np.testing.assert_allclose(p.data, data1 - 0.1 * v2)

    def test_none_grad_untouched(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        q = Tensor(np.array([4.0]), requires_grad=True)
        opt = SGD({"p": p, "q": q}, momentum=0.9, weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step(0.5)
        assert p.data[0] == 2.5
        assert q.data[0] == 4.0


class TestBuildModel:
    def test_framework_flag_controls_decoupler(self):
        on = build_model(tiny_encoder(), 4, tiny_train(framework_enabled=True))
        off = build_model(tiny_encoder(), 4, tiny_train(framework_enabled=False))
        assert on.decoupler is not None and off.decoupler is None
        _, ds = tiny_dataset()
        with pytest.raises(ConfigError, match="framework"):
            embedding_report(off, ds)

    def test_named_tensors_prefixes_decoupler(self):
        model = build_model(tiny_encoder(), 4, tiny_train())
        names = set(model.named_tensors())
        assert "head.w" in names
        assert "decouple.spatial_embed" in names


class TestTrainStep:
    def test_cold_start_total_equals_ce(self):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        model = build_model(tiny_encoder(), ds.num_classes, cfg)
        banks = make_banks(len(ds), cfg.embed_dim, seed=cfg.seed)
        opt = SGD(model.named_tensors(), cfg.momentum, cfg.weight_decay)
        batch = list(ds)[:4]
        record = train_step(batch, model, banks, cfg, opt, lr=cfg.learning_rate)
        assert record.loss_spatial == 0.0 and record.loss_temporal == 0.0
        assert record.total == record.loss_ce
        # every sequence skipped both banks
        assert record.skipped_positives == 2 * len(batch)
        # embeddings were still deposited for the next step
        assert all(banks[name].valid[seq.index] for name in banks for seq in batch)

    def test_additive_composition(self):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        model = build_model(tiny_encoder(), ds.num_classes, cfg)
        banks = make_banks(len(ds), cfg.embed_dim, seed=cfg.seed)
        opt = SGD(model.named_tensors(), cfg.momentum, cfg.weight_decay)
        for step in range(3):  # warm the banks so contrast terms are live
            record = train_step(list(ds)[:8], model, banks, cfg, opt,
                                lr=cfg.learning_rate, step=step)
        assert record.loss_spatial > 0.0 and record.loss_temporal > 0.0
        want = record.loss_ce + record.loss_spatial + record.loss_temporal
        assert abs(record.total - want) < 1e-6

    def test_framework_off_contributes_nothing(self):
        _, ds = tiny_dataset()
        cfg = tiny_train(framework_enabled=False)
        model = build_model(tiny_encoder(), ds.num_classes, cfg)
        banks = make_banks(len(ds), cfg.embed_dim, seed=cfg.seed)
        opt = SGD(model.named_tensors(), cfg.momentum, cfg.weight_decay)
        instrumentation.reset()
        record = train_step(list(ds)[:8], model, banks, cfg, opt, lr=0.01)
        assert record.loss_spatial == 0.0 and record.loss_temporal == 0.0
        assert record.total == record.loss_ce
        assert instrumentation.count("decouple_calls") == 0
        assert instrumentation.count("bank_reads") == 0
        assert instrumentation.count("bank_writes") == 0
        assert all(bank.fill_fraction() == 0.0 for bank in banks.values())


def warm_state(cfg, ds):
    """A model, its optimizer, and banks whose every slot already holds a row."""
    model = build_model(tiny_encoder(), ds.num_classes, cfg)
    banks = make_banks(len(ds), cfg.embed_dim, seed=cfg.seed)
    rng = np.random.default_rng(1)
    for seq in ds:
        for bank in banks.values():
            bank.update(seq.index, rng.standard_normal(cfg.embed_dim), seq.label)
    return model, banks, SGD(model.named_tensors(), cfg.momentum, cfg.weight_decay)


class TestOneTapePerStep:
    """A step is one batched forward, one tape and one backward, whatever the batch size."""

    def test_one_encode_decouple_and_backward_per_step(self, monkeypatch):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        model, banks, opt = warm_state(cfg, ds)
        calls = {"encode": 0, "decouple": 0, "backward": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(train, "encode", counted("encode", train.encode))
        monkeypatch.setattr(train, "decouple", counted("decouple", train.decouple))
        monkeypatch.setattr(Tensor, "backward", counted("backward", Tensor.backward))
        train_step(list(ds)[:8], model, banks, cfg, opt, lr=cfg.learning_rate)
        assert calls == {"encode": 1, "decouple": 1, "backward": 1}

    def test_tape_size_does_not_grow_with_the_batch(self, monkeypatch):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        sizes = []
        original = Tensor.backward

        def sized(root):
            sizes.append(len(tz._toposort(root)))
            return original(root)

        monkeypatch.setattr(Tensor, "backward", sized)
        for batch_size in (2, 8):
            model, banks, opt = warm_state(cfg, ds)
            record = train_step(list(ds)[:batch_size], model, banks, cfg, opt, lr=cfg.learning_rate)
            assert record.loss_spatial > 0.0 and record.loss_temporal > 0.0
        assert len(sizes) == 2 and sizes[0] == sizes[1]

    def test_gradients_are_the_mean_of_per_sequence_ce_gradients(self):
        _, ds = tiny_dataset()
        cfg = tiny_train(framework_enabled=False)
        batch = list(ds)[:6]
        model = build_model(tiny_encoder(), ds.num_classes, cfg)
        opt = SGD(model.named_tensors(), cfg.momentum, cfg.weight_decay)
        train_step(batch, model, {}, cfg, opt, lr=cfg.learning_rate)

        reference = build_model(tiny_encoder(), ds.num_classes, cfg)
        summed = {name: np.zeros_like(t.data) for name, t in reference.params.items()}
        for seq in batch:
            for t in reference.params.values():
                t.zero_grad()
            logits = classify(reference.params, encode(reference.params, reference.encoder_cfg, seq.coords[None]))
            tz.softmax_cross_entropy(logits, [seq.label]).backward()
            for name, t in reference.params.items():
                summed[name] += t.grad
        for name, t in model.params.items():
            np.testing.assert_allclose(t.grad, summed[name] / len(batch), rtol=1e-10, atol=1e-14, err_msg=name)

    def test_float32_steps_stay_float32(self):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        with tz.using_precision("float32"):
            model = build_model(tiny_encoder(), ds.num_classes, cfg)
            banks = make_banks(len(ds), cfg.embed_dim, seed=cfg.seed)
            opt = SGD(model.named_tensors(), cfg.momentum, cfg.weight_decay)
            for step in range(3):  # the first step fills the banks the next two mine
                record = train_step(list(ds)[:4], model, banks, cfg, opt, lr=cfg.learning_rate, step=step)
        assert record.loss_spatial > 0.0 and record.loss_temporal > 0.0
        for name, t in model.named_tensors().items():
            assert t.data.dtype == np.float32, name
            assert t.grad is not None and t.grad.dtype == np.float32, name
            assert opt.velocity[name].dtype == np.float32, name


class TestFit:
    def test_zero_epochs_returns_init(self, tmp_path):
        _, ds = tiny_dataset()
        cfg = tiny_train(epochs=0)
        result = fit(ds, tiny_encoder(), cfg, out_dir=str(tmp_path))
        assert result.history == [] and result.eval_history == []
        reference = build_model(tiny_encoder(), ds.num_classes, cfg)
        for name, t in reference.named_tensors().items():
            np.testing.assert_array_equal(t.data, result.model.named_tensors()[name].data)
        assert os.path.exists(result.checkpoint_path)
        with open(result.metrics_path) as f:
            assert f.read().strip() == ",".join(METRICS_HEADER)

    def test_same_seed_bitwise_identical(self, tmp_path):
        _, ds = tiny_dataset()
        cfg = tiny_train(epochs=2)
        r1 = fit(ds, tiny_encoder(), cfg, out_dir=str(tmp_path / "a"))
        r2 = fit(ds, tiny_encoder(), cfg, out_dir=str(tmp_path / "b"))
        with open(r1.metrics_path, "rb") as f1, open(r2.metrics_path, "rb") as f2:
            assert f1.read() == f2.read()
        for name, t in r1.model.named_tensors().items():
            np.testing.assert_array_equal(t.data, r2.model.named_tensors()[name].data)

    def test_different_seed_differs(self):
        _, ds = tiny_dataset()
        r1 = fit(ds, tiny_encoder(), tiny_train(epochs=1, seed=0))
        r2 = fit(ds, tiny_encoder(), tiny_train(epochs=1, seed=1))
        diffs = [
            (r1.model.named_tensors()[k].data != r2.model.named_tensors()[k].data).any()
            for k in r1.model.named_tensors()
        ]
        assert any(diffs)

    def test_disabled_equals_zero_weights_trajectory(self):
        _, ds = tiny_dataset()
        base = dict(epochs=2, batch_size=4, learning_rate=0.01, seed=3,
                    embed_dim=6, reduction=2, n_pos_hard=2, n_neg_hard=2, n_neg_rand=2)
        off = fit(ds, tiny_encoder(), tiny_train(framework_enabled=False, **base))
        zero = fit(ds, tiny_encoder(), tiny_train(framework_enabled=True,
                                                  lambda_spatial=0.0,
                                                  lambda_temporal=0.0, **base))
        for name, t in off.model.named_tensors().items():
            np.testing.assert_array_equal(t.data, zero.model.named_tensors()[name].data)
        # the zero-weight run must leave its decoupler exactly at init
        init = build_model(tiny_encoder(), ds.num_classes,
                           tiny_train(framework_enabled=True, **base))
        for key, t in init.decoupler.named().items():
            np.testing.assert_array_equal(t.data, zero.model.decoupler.named()[key].data)

    def test_ce_beats_uniform_bound_after_training(self):
        _, ds = tiny_dataset(per_class=5)
        cfg = tiny_train(epochs=20, batch_size=4, learning_rate=0.02,
                         framework_enabled=False)
        result = fit(ds, tiny_encoder(), cfg)
        last_epoch = max(r.epoch for r in result.history)
        ce = [r.loss_ce for r in result.history if r.epoch == last_epoch]
        assert sum(ce) / len(ce) < math.log(ds.num_classes)

    def test_metrics_csv_schema(self, tmp_path):
        _, ds = tiny_dataset()
        cfg = tiny_train(epochs=2, eval_every=1)
        result = fit(ds, tiny_encoder(), cfg, out_dir=str(tmp_path))
        with open(result.metrics_path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == METRICS_HEADER
        kinds = {row[0] for row in rows[1:]}
        assert kinds == {"step", "eval"}
        train_rows = [r for r in rows[1:] if r[0] == "step"]
        steps_per_epoch = math.ceil(len(ds) / cfg.batch_size)
        assert len(train_rows) == cfg.epochs * steps_per_epoch
        eval_rows = [r for r in rows[1:] if r[0] == "eval"]
        assert len(eval_rows) == cfg.epochs
        for row in eval_rows:
            assert 0.0 <= float(row[-1]) <= 1.0
        for row in train_rows:
            float(row[3])  # loss_ce parses
            int(row[8-1])  # skipped_positives parses as int

    def test_checkpoint_excludes_banks(self, tmp_path):
        _, ds = tiny_dataset()
        cfg = tiny_train(epochs=1)
        result = fit(ds, tiny_encoder(), cfg, out_dir=str(tmp_path))
        model, meta = load_model(result.checkpoint_path)
        names = set(model.named_tensors())
        assert not any("bank" in n for n in names)
        assert meta["num_classes"] == ds.num_classes


class TestEvaluate:
    def test_constant_predictor(self):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        model = build_model(tiny_encoder(), ds.num_classes, cfg)
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = 0.0
        report = evaluate(model, ds)
        share0 = float(np.mean(ds.labels() == 0))
        assert report.accuracy == pytest.approx(share0)
        assert report.per_class[0] == pytest.approx(1.0)
        assert report.per_class[1:] == pytest.approx(np.zeros(ds.num_classes - 1))

    def test_biased_predictor_hits_one_class(self):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        model = build_model(tiny_encoder(), ds.num_classes, cfg)
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = 0.0
        model.params["head.b"].data[2] = 5.0
        report = evaluate(model, ds)
        assert report.accuracy == pytest.approx(float(np.mean(ds.labels() == 2)))
        assert report.per_class[2] == pytest.approx(1.0)

    def test_chunked_test_path_matches_single_sequences(self):
        _, ds = tiny_dataset(per_class=5)
        assert len(ds) > TEST_CHUNK  # spans a chunk boundary
        model = build_model(tiny_encoder(), ds.num_classes, tiny_train())
        logits = np.stack([predict_logits(model, seq.coords) for seq in ds])
        report = evaluate(model, ds)
        predictions = np.argmax(logits, axis=1)
        assert report.accuracy == pytest.approx(float(np.mean(predictions == ds.labels())))
        embeddings = embedding_report(model, ds)
        for seq in ds:
            pair = decouple(encode(model.params, model.encoder_cfg, seq.coords[None]), model.decoupler)
            np.testing.assert_allclose(embeddings.spatial[seq.index], pair.spatial.data[0], rtol=1e-12)
            np.testing.assert_allclose(embeddings.temporal[seq.index], pair.temporal.data[0], rtol=1e-12)

    def test_logits_deterministic(self):
        _, ds = tiny_dataset()
        model = build_model(tiny_encoder(), ds.num_classes, tiny_train())
        a = predict_logits(model, ds[0].coords)
        b = predict_logits(model, ds[0].coords)
        np.testing.assert_array_equal(a, b)


class TestEmbeddingsAndCheckpoint:
    def test_embedding_report_shapes(self):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        model = build_model(tiny_encoder(), ds.num_classes, cfg)
        report = embedding_report(model, ds)
        assert report.spatial.shape == (len(ds), cfg.embed_dim)
        assert report.temporal.shape == (len(ds), cfg.embed_dim)
        assert -1.0 <= report.silhouette_spatial <= 1.0
        assert -1.0 <= report.silhouette_temporal <= 1.0

    def test_export_embeddings_tsv(self, tmp_path):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        model = build_model(tiny_encoder(), ds.num_classes, cfg)
        report = embedding_report(model, ds)
        path = tmp_path / "emb.tsv"
        export_embeddings_tsv(report, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == len(ds) + 1
        header = lines[0].split("\t")
        assert header[:2] == ["index", "label"]
        assert len(header) == 2 + 2 * cfg.embed_dim

    def test_save_load_round_trip(self, tmp_path):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        model = build_model(tiny_encoder(), ds.num_classes, cfg)
        path = str(tmp_path / "m.ckpt")
        save_model(path, model, model_meta(model, cfg))
        back, meta = load_model(path)
        assert back.encoder_cfg == model.encoder_cfg
        assert back.num_classes == model.num_classes
        assert (back.decoupler is None) == (model.decoupler is None)
        for name, t in model.named_tensors().items():
            np.testing.assert_allclose(back.named_tensors()[name].data, t.data,
                                       atol=1e-7)  # float32 payload
        a = predict_logits(model, ds[0].coords)
        b = predict_logits(back, ds[0].coords)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_load_without_decoupler(self, tmp_path):
        _, ds = tiny_dataset()
        cfg = tiny_train(framework_enabled=False)
        model = build_model(tiny_encoder(), ds.num_classes, cfg)
        path = str(tmp_path / "m.ckpt")
        save_model(path, model, model_meta(model, cfg))
        back, _ = load_model(path)
        assert back.decoupler is None
