"""Training loop: config, optimizer, loss composition, determinism, artifacts."""

import csv
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from stdcl import instrumentation, train
from stdcl import tensor as tz
from stdcl.checkpoint import save_checkpoint
from stdcl.contrast import make_banks
from stdcl.data import SkeletonDataset, SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from stdcl.decoupling import decouple
from stdcl.encoder import EncoderConfig, classify, encode
from stdcl.errors import ConfigError, DataFormatError, NumericError
from stdcl.experiments import DecouplingStudyConfig, ImprovementStudyConfig
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
    model_shapes,
    predict_logits,
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
        assert "decouple.spatial_embed" in on.params
        assert not any(name.startswith("decouple.") for name in off.params)
        _, ds = tiny_dataset()
        with pytest.raises(ConfigError, match="framework"):
            embedding_report(off, ds)

    def test_model_of_2_to_the_31_values_is_rejected_before_allocating(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("allocated the model")

        monkeypatch.setattr(train, "init_params", fail)
        monkeypatch.setattr(train, "init_decoupler", fail)
        huge_channels = EncoderConfig(joints=4, frames=8, channels=2**30, hidden=(4,), kernel_size=3)
        for framework_enabled in (True, False):
            with pytest.raises(ConfigError, match=r"\d+ parameters; it must have fewer than 2\*\*31"):
                build_model(huge_channels, 4, tiny_train(framework_enabled=framework_enabled, reduction=8))
        # the decoupler's matrices count only when the framework is on
        with pytest.raises(ConfigError, match="parameters"):
            build_model(tiny_encoder(), 4, tiny_train(embed_dim=2**27))
        monkeypatch.setattr(train, "init_params", lambda *args, **kwargs: {})
        assert build_model(tiny_encoder(), 4, tiny_train(embed_dim=2**27, framework_enabled=False)).params == {}

    def test_model_that_does_not_fit_in_memory_is_config_error(self):
        """Under the 2**31 bound, a model larger than the address space allows ends in ConfigError."""
        probe = textwrap.dedent("""
            import math, resource
            resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))
            from stdcl.encoder import EncoderConfig, param_shapes
            from stdcl.errors import ConfigError
            from stdcl.train import TrainConfig, build_model
            cfg = EncoderConfig(joints=4, frames=8, channels=2**25, hidden=(16,), kernel_size=3)
            print(sum(math.prod(shape) for shape in param_shapes(cfg, 4).values()))
            try:
                build_model(cfg, 4, TrainConfig(framework_enabled=False))
            except ConfigError as exc:
                print(exc)
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        count, message = out.stdout.splitlines()
        assert 2**30 < int(count) < 2**31  # 12 GiB of float64 or more
        assert message == f"the model's {count} parameters do not fit in memory"

    @pytest.mark.parametrize("count,allowed", [(2**31 - 1, True), (2**31, False)])
    def test_parameter_bound_is_2_to_the_31(self, monkeypatch, count, allowed):
        monkeypatch.setattr(train, "param_shapes", lambda *args: {"w": (count // 2, 2), "b": (count % 2,)})
        monkeypatch.setattr(train, "init_params", lambda *args, **kwargs: {})
        off = tiny_train(framework_enabled=False)
        if allowed:
            assert build_model(tiny_encoder(), 4, off).params == {}
        else:
            with pytest.raises(ConfigError, match=f"{count} parameters"):
                build_model(tiny_encoder(), 4, off)

    def test_named_tensors_prefixes_decoupler(self):
        """One name table: the decoupler's matrices sit in `params` under their checkpoint names."""
        model = build_model(tiny_encoder(), 4, tiny_train())
        assert model.named_tensors() is model.params
        names = set(model.named_tensors())
        assert "head.w" in names
        assert "decouple.spatial_embed" in names

    @pytest.mark.parametrize("framework_enabled", [True, False])
    def test_model_shapes_are_the_tensors_built_and_loaded(self, tmp_path, framework_enabled):
        cfg = tiny_train(framework_enabled=framework_enabled, embed_dim=5, reduction=4)
        model = build_model(tiny_encoder(), 3, cfg)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model.params, model_meta(model, cfg))
        shapes = model_shapes(tiny_encoder(), 3, *((5, 4) if framework_enabled else ()))
        assert any(name.startswith("decouple.") for name in shapes) == framework_enabled
        for built in (model, load_model(path)[0]):
            assert [(name, t.shape) for name, t in built.params.items()] == list(shapes.items())

    @pytest.mark.parametrize("reduction", [1, 2, 4, 8])
    def test_meta_reads_embed_dim_and_reduction_off_the_shapes(self, reduction):
        cfg = tiny_train(reduction=reduction, embed_dim=5)
        meta = model_meta(build_model(tiny_encoder(), 4, cfg))
        assert (meta["embed_dim"], meta["reduction"]) == (cfg.embed_dim, cfg.reduction)
        off = model_meta(build_model(tiny_encoder(), 4, tiny_train(framework_enabled=False)))
        assert (off["embed_dim"], off["reduction"]) == (None, None)


class TestTrainStep:
    def test_cold_start_total_equals_ce(self):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        model = build_model(tiny_encoder(), ds.num_classes, cfg)
        banks = make_banks(len(ds), cfg.embed_dim, seed=cfg.seed)
        opt = SGD(model.named_tensors(), cfg.momentum, cfg.weight_decay)
        rows = np.array([5, 0, 9, 2])
        record = train_step(ds, rows, model, banks, cfg, opt, lr=cfg.learning_rate)
        assert record.loss_spatial == 0.0 and record.loss_temporal == 0.0
        assert record.total == record.loss_ce
        # every sequence skipped both banks
        assert record.skipped_positives == 2 * len(rows)
        # embeddings were still deposited for the next step, each in its row's slot with its row's label
        for bank in banks.values():
            assert np.flatnonzero(bank.valid).tolist() == sorted(rows)
            np.testing.assert_array_equal(bank.labels[rows], ds.targets[rows])

    def test_additive_composition(self):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        model = build_model(tiny_encoder(), ds.num_classes, cfg)
        banks = make_banks(len(ds), cfg.embed_dim, seed=cfg.seed)
        opt = SGD(model.named_tensors(), cfg.momentum, cfg.weight_decay)
        for step in range(3):  # warm the banks so contrast terms are live
            record = train_step(ds, np.arange(8), model, banks, cfg, opt,
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
        record = train_step(ds, np.arange(8), model, banks, cfg, opt, lr=0.01)
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
    for row, label in enumerate(ds.targets):
        for bank in banks.values():
            bank.update(row, rng.standard_normal(cfg.embed_dim), label)
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
        train_step(ds, np.arange(8), model, banks, cfg, opt, lr=cfg.learning_rate)
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
            record = train_step(ds, np.arange(batch_size), model, banks, cfg, opt, lr=cfg.learning_rate)
            assert record.loss_spatial > 0.0 and record.loss_temporal > 0.0
        assert len(sizes) == 2 and sizes[0] == sizes[1]

    def test_gradients_are_the_mean_of_per_sequence_ce_gradients(self):
        _, ds = tiny_dataset()
        cfg = tiny_train(framework_enabled=False)
        rows = np.arange(6)
        model = build_model(tiny_encoder(), ds.num_classes, cfg)
        opt = SGD(model.named_tensors(), cfg.momentum, cfg.weight_decay)
        train_step(ds, rows, model, {}, cfg, opt, lr=cfg.learning_rate)

        reference = build_model(tiny_encoder(), ds.num_classes, cfg)
        summed = {name: np.zeros_like(t.data) for name, t in reference.params.items()}
        for row in rows:
            for t in reference.params.values():
                t.zero_grad()
            logits = classify(reference.params, encode(reference.params, reference.encoder_cfg, ds.coords[row][None]))
            tz.softmax_cross_entropy(logits, ds.targets[row : row + 1]).backward()
            for name, t in reference.params.items():
                summed[name] += t.grad
        for name, t in model.params.items():
            np.testing.assert_allclose(t.grad, summed[name] / len(rows), rtol=1e-10, atol=1e-14, err_msg=name)

    def test_float32_steps_stay_float32(self):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        with tz.using_precision("float32"):
            model = build_model(tiny_encoder(), ds.num_classes, cfg)
            banks = make_banks(len(ds), cfg.embed_dim, seed=cfg.seed)
            opt = SGD(model.named_tensors(), cfg.momentum, cfg.weight_decay)
            for step in range(3):  # the first step fills the banks the next two mine
                record = train_step(ds, np.arange(4), model, banks, cfg, opt, lr=cfg.learning_rate, step=step)
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

    def test_trains_on_rows_without_building_a_sequence_record(self, tmp_path, monkeypatch):
        _, ds = tiny_dataset()
        cfg = tiny_train(checkpoint_every=1)
        want = fit(ds, tiny_encoder(), cfg)

        def fail(*args):
            raise AssertionError("built a SkeletonSequence")

        monkeypatch.setattr(SkeletonDataset, "__getitem__", fail)
        monkeypatch.setattr(SkeletonDataset, "__iter__", fail)
        got = fit(ds, tiny_encoder(), cfg, out_dir=str(tmp_path), eval_dataset=ds)
        assert got.history == want.history and len(got.eval_history) == cfg.epochs

    def test_shuffled_jsonl_trains_to_the_same_checkpoint_bytes(self, tmp_path):
        """Each record's index names its bank slot and its row, whatever the line order of the file."""
        _, ds = tiny_dataset(per_class=4)
        ordered, shuffled = tmp_path / "ordered.jsonl", tmp_path / "shuffled.jsonl"
        save_dataset(ds, str(ordered))
        lines = ordered.read_text().splitlines(keepends=True)
        shuffled.write_text("".join(lines[i] for i in np.random.default_rng(3).permutation(len(lines))))
        assert shuffled.read_text() != ordered.read_text()
        blobs = {}
        for path in (ordered, shuffled):
            result = fit(load_dataset(str(path)), tiny_encoder(), tiny_train(), out_dir=str(tmp_path / path.stem))
            with open(result.checkpoint_path, "rb") as f:
                blobs[path.stem] = f.read()
        assert blobs["shuffled"] == blobs["ordered"]

    @pytest.mark.parametrize("joints, frames, classes", [(5, 8, 2), (4, 12, 2), (4, 8, 4)])
    def test_eval_set_that_does_not_fit_the_model_is_rejected_before_training(
        self, tmp_path, monkeypatch, joints, frames, classes
    ):
        monkeypatch.setattr(train, "train_step", lambda *args, **kwargs: pytest.fail("trained"))
        spec = SyntheticSpec(joints=4, frames=8, num_spatial=1, num_temporal=2, per_class=3, noise_std=0.05)
        eval_spec = SyntheticSpec(joints=joints, frames=frames, num_spatial=classes // 2, num_temporal=2,
                                  per_class=2, noise_std=0.05)
        with pytest.raises(DataFormatError, match="eval dataset"):
            fit(generate_synthetic(spec), tiny_encoder(), tiny_train(), out_dir=str(tmp_path),
                eval_dataset=generate_synthetic(eval_spec))
        assert not os.listdir(tmp_path)

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
        decoupler = [key for key in init.params if key.startswith("decouple.")]
        assert len(decoupler) == 4
        for key in decoupler:
            np.testing.assert_array_equal(init.params[key].data, zero.model.params[key].data)

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

    def test_periodic_checkpoints_and_the_directories_in_their_way(self, tmp_path, monkeypatch):
        _, ds = tiny_dataset()
        cfg = tiny_train(epochs=5, checkpoint_every=2)
        # directories named like no file this fit writes: the last epoch's (saved as model.ckpt),
        # an epoch off the schedule, epoch 2 spelt another way, and another stem
        for name in ("model-epoch005.ckpt", "model-epoch003.ckpt", "model-epoch0002.ckpt", "other.ckpt"):
            (tmp_path / "run" / name).mkdir(parents=True)
        fit(ds, tiny_encoder(), cfg, out_dir=str(tmp_path / "run"))
        written = sorted(p.name for p in (tmp_path / "run").iterdir() if p.is_file())
        assert written == ["model-epoch002.ckpt", "model-epoch004.ckpt", "model-metrics.csv", "model.ckpt"]
        assert [load_model(str(tmp_path / "run" / f"model-epoch00{e}.ckpt"))[1]["epoch"] for e in (2, 4)] == [2, 4]

        monkeypatch.setattr(train, "train_step", lambda *args, **kwargs: pytest.fail("trained"))
        for name in ("model-epoch004.ckpt", "model-metrics.csv", "model.ckpt"):
            (tmp_path / name / name).mkdir(parents=True)
            with pytest.raises(ConfigError, match=f"{name}' is a directory"):
                fit(ds, tiny_encoder(), cfg, out_dir=str(tmp_path / name))

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
            heads = decouple(encode(model.params, model.encoder_cfg, seq.coords[None]), model.params)
            np.testing.assert_allclose(embeddings.spatial[seq.index], heads["spatial"].data[0], rtol=1e-12)
            np.testing.assert_allclose(embeddings.temporal[seq.index], heads["temporal"].data[0], rtol=1e-12)

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
        save_checkpoint(path, model.params, model_meta(model, cfg))
        back, meta = load_model(path)
        assert back.encoder_cfg == model.encoder_cfg
        assert back.num_classes == model.num_classes
        assert sorted(back.params) == sorted(model.params)
        for name, t in model.named_tensors().items():
            np.testing.assert_allclose(back.named_tensors()[name].data, t.data,
                                       atol=1e-7)  # float32 payload
        a = predict_logits(model, ds[0].coords)
        b = predict_logits(back, ds[0].coords)
        np.testing.assert_allclose(a, b, atol=1e-6)

    @pytest.mark.parametrize("checked", [True, False])
    def test_non_finite_value_is_data_error_in_or_out_of_checked_mode(self, tmp_path, monkeypatch, checked):
        cfg = tiny_train()
        model = build_model(tiny_encoder(), 4, cfg)
        model.params["decouple.spatial_reduce"].data[1, 0] = -np.inf
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model.params, model_meta(model, cfg))
        monkeypatch.setattr(tz, "_checked", checked)
        with pytest.raises(DataFormatError, match=r"m\.ckpt: array 'decouple\.spatial_reduce' holds a non-finite value$"):
            load_model(path)

    def test_load_without_decoupler(self, tmp_path):
        _, ds = tiny_dataset()
        cfg = tiny_train(framework_enabled=False)
        model = build_model(tiny_encoder(), ds.num_classes, cfg)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model.params, model_meta(model, cfg))
        back, _ = load_model(path)
        assert sorted(back.params) == sorted(model.params)
        assert not any(name.startswith("decouple.") for name in back.params)



# The studies whose configs the benchmark's decoupling and improvement workloads run
# (benchmarks/workloads.py); large-bank runs the `stdcl train` defaults
WORKLOAD_STUDIES = {"decoupling": DecouplingStudyConfig(epochs=1), "improvement": ImprovementStudyConfig(epochs=1),
                    "large-bank": None}
FAULTS = [(value, place) for value in (np.nan, np.inf, -np.inf) for place in ("first", "last", "all")]


@pytest.fixture(scope="module", params=sorted(WORKLOAD_STUDIES))
def warm_workload(request):
    """A workload's dataset, framework-on model, banks, optimizer and config after one epoch of steps
    on shuffled rows, so that every slot is written and both heads are live; and that epoch's order."""
    study = WORKLOAD_STUDIES[request.param]
    if study is None:
        spec = SyntheticSpec(num_spatial=4, num_temporal=4, per_class=100, noise_std=0.1)
        encoder_cfg, cfg = EncoderConfig(joints=spec.joints, frames=spec.frames, channels=32), TrainConfig(epochs=1)
    else:
        spec, encoder_cfg, cfg = study.synthetic_spec(), study.encoder_config(), study.train_config(0)
    ds = generate_synthetic(spec, seed=0)
    model = build_model(encoder_cfg, ds.num_classes, cfg)
    banks = make_banks(len(ds), cfg.embed_dim, cfg.seed)
    opt = SGD(model.params, cfg.momentum, cfg.weight_decay)
    order = np.random.default_rng(0).permutation(len(ds))
    for step, start in enumerate(range(0, len(ds), cfg.batch_size)):
        train_step(ds, order[start : start + cfg.batch_size], model, banks, cfg, opt, cfg.learning_rate, step=step)
    return ds, model, banks, opt, cfg, order


class TestCheckedAtBoundaries:
    """A step or a test-time chunk checked at its boundaries raises what per-op scans raise.

    For each op of a framework-on `train_step`, of `evaluate` and of
    `embedding_report`, NaN, +inf or -inf is written into the op's result
    (its first value, its last, or all of them), in the first run and in
    the replay alike, as a deterministic fault would be.  The exception
    must be the one raised when `tz.checked_at_boundaries` only calls its
    function, so that every op scans its result.
    """

    @staticmethod
    def op_names(monkeypatch, run):
        names, make = [], tz._make
        with monkeypatch.context() as m:
            m.setattr(tz, "_make", lambda data, parents, fn, op: names.append(op) or make(data, parents, fn, op))
            run()
        return names

    @staticmethod
    def inject(monkeypatch, at, value, place):
        """Write `value` into the result of op number `at` of each forward, counted from its `encode`."""
        make, encode_fn, calls = tz._make, train.encode, [0]

        def counted_encode(*args):
            calls[0] = 0
            return encode_fn(*args)

        def faulty_make(data, parents, backward_fn, op):
            if calls[0] == at:
                data = np.array(data, copy=True)
                data.reshape(-1)[{"first": 0, "last": -1, "all": slice(None)}[place]] = value
            calls[0] += 1
            return make(data, parents, backward_fn, op)

        monkeypatch.setattr(train, "encode", counted_encode)
        monkeypatch.setattr(tz, "_make", faulty_make)

    @staticmethod
    def outcome(run):
        try:
            run()
        except Exception as exc:  # noqa: BLE001 - the type is what is compared
            return type(exc), str(exc)
        return None

    def compare(self, monkeypatch, run, ops, reset=lambda: None):
        """Each fault in each op raises the same exception from `run` as with per-op scans, and leaves
        the same state (`reset()` returns it, and puts back the state `run` starts from)."""
        for at, op in enumerate(ops):
            for value, place in FAULTS:
                with monkeypatch.context() as m:
                    self.inject(m, at, value, place)
                    got = self.outcome(run), reset()
                    m.setattr(tz, "checked_at_boundaries", lambda run, boundaries, rewind=None: run())
                    want = self.outcome(run), reset()
                assert want[0] is not None, (at, op, value, place)
                assert got == want, (at, op, value, place)

    def test_every_op_of_a_train_step(self, warm_workload, monkeypatch):
        ds, model, banks, opt, cfg, order = warm_workload
        rows = order[: cfg.batch_size]
        params = {name: t.data.copy() for name, t in model.params.items()}
        features = {name: bank.features.copy() for name, bank in banks.items()}
        states = [bank.rng.bit_generator.state for bank in banks.values()]

        def run():
            train_step(ds, rows, model, banks, cfg, opt, cfg.learning_rate, epoch=1, step=7)

        def reset():
            """The bank RNG states a run left, once the warm state is back."""
            left = [bank.rng.bit_generator.state for bank in banks.values()]
            for name, t in model.params.items():
                t.data[...] = params[name]
            for (name, bank), state in zip(banks.items(), states):
                bank.features[...] = features[name]
                bank.rng.bit_generator.state = state
            return left

        ops = self.op_names(monkeypatch, run)
        reset()
        assert ops.count("info_nce_batch") == 2  # both heads live
        self.compare(monkeypatch, run, ops, reset)

    @pytest.mark.parametrize("path", ["evaluate", "embedding_report"])
    def test_every_op_of_a_test_time_chunk(self, warm_workload, monkeypatch, path):
        ds, model, *_, order = warm_workload
        rows = order[:TEST_CHUNK]
        chunk = SkeletonDataset(ds.coords[rows], ds.targets[rows], ds.num_classes)
        run = lambda: getattr(train, path)(model, chunk)  # noqa: E731
        self.compare(monkeypatch, run, self.op_names(monkeypatch, run))

    def test_non_finite_gradient_names_parameter_epoch_and_step(self, monkeypatch):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        model, banks, opt = warm_state(cfg, ds)
        params = {name: t.data.copy() for name, t in model.params.items()}
        features = {name: bank.features.copy() for name, bank in banks.items()}
        backward = Tensor.backward

        def spoiled(root):
            backward(root)
            model.params["decouple.temporal_embed"].grad[2, 1] = np.inf

        monkeypatch.setattr(Tensor, "backward", spoiled)
        with pytest.raises(NumericError) as caught:
            train_step(ds, np.arange(4), model, banks, cfg, opt, cfg.learning_rate, epoch=3, step=11)
        assert str(caught.value) == ("train_step: non-finite value in gradient of 'decouple.temporal_embed' "
                                     "at epoch 3 step 11")
        for name, t in model.params.items():
            np.testing.assert_array_equal(t.data, params[name], err_msg=name)
        for name, bank in banks.items():
            np.testing.assert_array_equal(bank.features, features[name], err_msg=name)

    def test_step_scans_its_logits_loss_and_gradients_once(self, monkeypatch):
        _, ds = tiny_dataset()
        cfg = tiny_train()
        model, banks, opt = warm_state(cfg, ds)
        seen = []
        monkeypatch.setattr(tz, "_scan", lambda data, op, what: seen.append((op, what)))
        train_step(ds, np.arange(4), model, banks, cfg, opt, cfg.learning_rate, epoch=0, step=5)
        gradients = [("train_step", f"gradient of {name!r} at epoch 0 step 5") for name in model.params]
        assert seen == [("train_step", "logits"), ("train_step", "loss"), *gradients]
        seen.clear()
        classify(model.params, encode(model.params, model.encoder_cfg, ds.coords[:4]))
        assert [op for op, _ in seen] == ["tensor"] + ["temporal_conv", "matmul"] * 2 + [
            "mean_over_axes", "matmul", "add"]
