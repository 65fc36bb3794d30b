"""End-to-end checks of the command-line surface, run in-process."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stdcl import cli, gradcheck, train
from stdcl.checkpoint import load_checkpoint, save_checkpoint
from stdcl.config import CONFIG_SCHEMA, RunManifest, read_manifest, write_manifest
from stdcl.encoder import EncoderConfig
from stdcl.errors import ConfigError
from stdcl.train import TrainConfig


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset_path(workdir):
    path = workdir / "toy.jsonl"
    code = run_cli(
        "gen-data", "--joints", 4, "--frames", 8, "--spatial-motifs", 2,
        "--temporal-motifs", 2, "--per-class", 5, "--seed", 11, "-o", path,
    )
    assert code == cli.EXIT_OK
    return path


@pytest.fixture(scope="module")
def config_path(workdir, dataset_path):
    path = workdir / "cfg.txt"
    path.write_text(
        "# toy training config\n"
        f"data.path = {dataset_path}\n"
        "train.epochs = 2\n"
        "train.batch_size = 4\n"
        "train.learning_rate = 0.05\n"
        "train.seed = 3\n"
        "train.embed_dim = 8\n"
        "train.reduction = 2\n"
        "encoder.channels = 8\n"
        "encoder.kernel_size = 3\n"
        "contrast.n_pos_hard = 1\n"
        "contrast.n_neg_hard = 2\n"
        "contrast.n_neg_rand = 2\n"
        f"out.dir = {workdir / 'run'}\n"
    )
    return path


@pytest.fixture(scope="module")
def trained_run(workdir, config_path):
    """One committed training run shared by the eval tests."""
    out = workdir / "trained"
    code = run_cli("train", "-c", config_path, "--out", out)
    assert code == cli.EXIT_OK
    return out


class TestGenData:
    def test_writes_dataset_manifest_and_count(self, workdir, capsys):
        path = workdir / "gen" / "ds.jsonl"
        code = run_cli(
            "gen-data", "--joints", 4, "--frames", 8, "--spatial-motifs", 2,
            "--temporal-motifs", 2, "--per-class", 5, "--seed", 0, "-o", path,
        )
        assert code == cli.EXIT_OK
        assert "wrote 20 sequences (4 classes)" in capsys.readouterr().out
        assert path.exists()
        manifest = read_manifest(str(path) + ".manifest.json")
        assert manifest.command == "gen-data"
        assert manifest.seed == 0
        assert manifest.config["per_class"] == 5

    def test_same_seed_is_byte_identical(self, workdir):
        args = ["gen-data", "--joints", 4, "--frames", 8, "--spatial-motifs", 2,
                "--temporal-motifs", 2, "--per-class", 3, "--seed", 42]
        a, b, c = (workdir / name for name in ("rep-a.jsonl", "rep-b.jsonl", "rep-c.jsonl"))
        assert run_cli(*args, "-o", a) == cli.EXIT_OK
        assert run_cli(*args, "-o", b) == cli.EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert run_cli(*args[:-1], 43, "-o", c) == cli.EXIT_OK
        assert a.read_bytes() != c.read_bytes()

    def test_zero_motifs_rejected_with_named_constraint(self, workdir, capsys):
        code = run_cli("gen-data", "--spatial-motifs", 0, "-o", workdir / "bad.jsonl")
        assert code == cli.EXIT_USAGE
        assert "factor counts must be positive" in capsys.readouterr().err

    def test_aliasing_motif_count_rejected(self, workdir, capsys):
        code = run_cli("gen-data", "--frames", 8, "--temporal-motifs", 5,
                       "-o", workdir / "bad.jsonl")
        assert code == cli.EXIT_USAGE
        assert "frames // 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--noise-std", "--motif-scale"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_scale_is_usage_error(self, workdir, capsys, flag, value):
        assert run_cli("gen-data", flag, value, "-o", workdir / "non-finite.jsonl") == cli.EXIT_USAGE
        assert f"{flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err
        assert not (workdir / "non-finite.jsonl").exists()

    def test_sizes_past_the_header_or_the_memory_are_usage_errors(self, tmp_path):
        """Under a 3 GiB address space, 614 GB of coordinates and 2**31 joints or more both exit 2."""
        output = tmp_path / "big.skl"
        probe = textwrap.dedent(f"""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))
            from stdcl import cli
            for flags in (["--joints", "4000", "--frames", "4000", "--per-class", "100"], ["--joints", "3000000000"]):
                print(cli.main(["gen-data", *flags, "-o", {str(output)!r}]))
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.split() == [str(cli.EXIT_USAGE)] * 2
        assert out.stderr.splitlines() == [
            f"error: the dataset's {1600 * 4000 * 4000 * 3} coordinates do not fit in memory",
            "error: joints (3000000000), frames (24) and sequences (160) must each be below 2**31",
        ]
        assert not output.exists()


class TestTrain:
    def test_artifacts_and_final_accuracy_line(self, trained_run, capsys):
        assert (trained_run / "model.ckpt").exists()
        assert (trained_run / "model-metrics.csv").exists()
        assert (trained_run / "model-manifest.json").exists()

    def test_manifest_diff_shows_only_framework_flag(self, workdir, config_path):
        out = workdir / "flagdiff"
        assert run_cli("train", "-c", config_path, "--out", out, "--no-framework") == cli.EXIT_OK
        baseline_cfg = dict(read_manifest(out / "model-manifest.json").config)
        baseline_metrics = (out / "model-metrics.csv").read_bytes()
        assert run_cli("train", "-c", config_path, "--out", out) == cli.EXIT_OK
        framework_cfg = dict(read_manifest(out / "model-manifest.json").config)
        framework_metrics = (out / "model-metrics.csv").read_bytes()

        differing = {k for k in framework_cfg if framework_cfg[k] != baseline_cfg[k]}
        assert differing == {"train.framework_enabled"}
        assert baseline_cfg["train.framework_enabled"] is False
        assert framework_cfg["train.framework_enabled"] is True
        assert baseline_metrics != framework_metrics

    def test_tau_flag_lands_in_manifest_verbatim(self, workdir, config_path):
        out = workdir / "tau"
        assert run_cli("train", "-c", config_path, "--out", out, "--tau", 0.5,
                       "--epochs", 1) == cli.EXIT_OK
        manifest = read_manifest(out / "model-manifest.json")
        assert manifest.config["contrast.tau"] == 0.5

    def test_rerun_from_manifest_is_bit_identical(self, workdir, trained_run):
        replay = workdir / "replay"
        code = run_cli("train", "--from-manifest", trained_run / "model-manifest.json",
                       "--out", replay)
        assert code == cli.EXIT_OK
        assert (replay / "model.ckpt").read_bytes() == (trained_run / "model.ckpt").read_bytes()
        assert (replay / "model-metrics.csv").read_bytes() == \
            (trained_run / "model-metrics.csv").read_bytes()

    def test_missing_dataset_file_is_usage_error(self, workdir, capsys):
        cfg = workdir / "missing-data.txt"
        cfg.write_text("data.path = /nowhere/at/all.jsonl\n")
        assert run_cli("train", "-c", cfg) == cli.EXIT_USAGE
        assert "dataset file not found" in capsys.readouterr().err

    def test_directory_as_dataset_is_usage_error(self, workdir, capsys):
        cfg = workdir / "dir-data.txt"
        cfg.write_text(f"data.path = {workdir}\n")
        assert run_cli("train", "-c", cfg) == cli.EXIT_USAGE
        assert f"cannot read dataset {workdir}" in capsys.readouterr().err

    def test_unset_dataset_path_is_usage_error(self, workdir, capsys):
        cfg = workdir / "no-data.txt"
        cfg.write_text("train.epochs = 1\n")
        assert run_cli("train", "-c", cfg) == cli.EXIT_USAGE
        assert "no dataset configured" in capsys.readouterr().err

    def test_config_parse_error_reports_line_number(self, workdir, capsys):
        cfg = workdir / "broken.txt"
        cfg.write_text("train.epochs = 1\ntrain.batch_size 4\n")
        assert run_cli("train", "-c", cfg) == cli.EXIT_USAGE
        assert f"{cfg}:2:" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_usage_error(self, workdir, capsys):
        cfg = workdir / "not-utf8.txt"
        cfg.write_bytes(b"train.epochs = 1\n# \xff\xfe\n")
        assert run_cli("train", "-c", cfg) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {cfg}: not UTF-8 text")

    @pytest.mark.parametrize("setting", [
        "train.learning_rate=inf", "train.weight_decay=nan", "train.lambda_ce=nan",
        "train.lambda_spatial=inf", "train.lr_decay_gamma=inf", "contrast.tau=inf",
    ])
    def test_non_finite_setting_is_usage_error(self, workdir, config_path, capsys, monkeypatch, setting):
        monkeypatch.setattr(train, "train_step", lambda *args, **kwargs: pytest.fail("trained"))
        code = run_cli("train", "-c", config_path, "--out", workdir / "non-finite", "--set", setting)
        assert code == cli.EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err

    def test_non_finite_manifest_value_is_usage_error(self, workdir, trained_run, capsys, monkeypatch):
        """JSON reads 1e999 as inf."""
        text = (trained_run / "model-manifest.json").read_text()
        edited, count = re.subn(r'"train\.learning_rate": [^,\n]+', '"train.learning_rate": 1e999', text)
        assert count == 1
        path = workdir / "inf-manifest.json"
        path.write_text(edited)
        monkeypatch.setattr(train, "train_step", lambda *args, **kwargs: pytest.fail("trained"))
        code = run_cli("train", "--from-manifest", path, "--out", workdir / "inf-manifest")
        assert code == cli.EXIT_USAGE
        assert "learning_rate must be finite, got inf" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, workdir, capsys):
        cfg = workdir / "unknown.txt"
        cfg.write_text("train.warp_speed = 9\n")
        assert run_cli("train", "-c", cfg) == cli.EXIT_USAGE
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,named", [
        pytest.param(lambda p: {**p, "config": {**p["config"], "train.epochs": "abc"}},
                     "train.epochs", id="string-epochs"),
        pytest.param(lambda p: [p], "JSON object", id="list-payload"),
        pytest.param(lambda p: {**p, "config": {**p["config"], "encoder.hidden": 5}},
                     "encoder.hidden", id="int-hidden"),
        pytest.param(lambda p: {**p, "config": {**p["config"], "train.batch_size": True}},
                     "train.batch_size", id="bool-batch-size"),
        pytest.param(lambda p: {**p, "config": {**p["config"], "train.framework_enabled": "yes"}},
                     "train.framework_enabled", id="string-flag"),
        pytest.param(lambda p: {**p, "config": {**p["config"], "contrast.tau": "0.5"}},
                     "contrast.tau", id="string-tau"),
        pytest.param(lambda p: {**p, "seed": "3"}, "integer seed", id="string-seed"),
    ])
    def test_malformed_manifest_is_usage_error(self, workdir, trained_run, capsys, edit, named):
        payload = json.loads((trained_run / "model-manifest.json").read_text())
        path = workdir / "edited-manifest.json"
        path.write_text(json.dumps(edit(payload)))
        assert run_cli("train", "--from-manifest", path, "--out", workdir / "edited") == cli.EXIT_USAGE
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-data", "eval", None])
    def test_manifest_of_another_command_is_usage_error(self, workdir, trained_run, dataset_path, capsys, command):
        if command == "gen-data":
            path = f"{dataset_path}.manifest.json"
        else:
            payload = json.loads((trained_run / "model-manifest.json").read_text())
            payload.pop("command")
            path = workdir / "other-manifest.json"
            path.write_text(json.dumps({**payload, "command": command} if command else payload))
        assert run_cli("train", "--from-manifest", path, "--out", workdir / "other") == cli.EXIT_USAGE
        assert f"not a train manifest (command {command or ''!r})" in capsys.readouterr().err

    @pytest.mark.parametrize("key,named", [
        ("encoder.channels", "encoder.channels must be an integer below 2**31"),
        ("encoder.hidden", "encoder.hidden[0] must be an integer below 2**31"),
        ("train.embed_dim", "embedding dim must be in [1, 2**31)"),
        ("data.frames", f"cannot resample to {2**31} frames"),
    ])
    def test_size_of_2_to_the_31_is_usage_error(self, workdir, config_path, capsys, monkeypatch, key, named):
        monkeypatch.setattr(train, "train_step", lambda *args, **kwargs: pytest.fail("trained"))
        code = run_cli("train", "-c", config_path, "--out", workdir / "huge-size", "--set", f"{key}={2**31}")
        assert code == cli.EXIT_USAGE
        assert named in capsys.readouterr().err

    def test_model_of_2_to_the_31_values_is_usage_error(self, workdir, config_path, capsys, monkeypatch):
        monkeypatch.setattr(train, "init_params", lambda *args, **kwargs: pytest.fail("allocated the model"))
        code = run_cli("train", "-c", config_path, "--out", workdir / "huge-model",
                       "--set", "encoder.channels=1073741824", "--epochs", 0)
        assert code == cli.EXIT_USAGE
        assert "parameters; it must have fewer than 2**31" in capsys.readouterr().err

    def test_model_that_does_not_fit_in_memory_is_usage_error(self, workdir, config_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(train, "init_params", out_of_memory)
        code = run_cli("train", "-c", config_path, "--out", workdir / "no-memory", "--epochs", 0)
        assert code == cli.EXIT_USAGE
        assert "parameters do not fit in memory" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_parameter_beyond_float32_is_numeric_error_and_keeps_the_old_checkpoint(
        self, workdir, config_path, capsys, monkeypatch, value
    ):
        """float32 would store the finite value as an infinity, which `stdcl eval` refuses."""
        def init_params(*args, **kwargs):
            params = train_init_params(*args, **kwargs)
            params["head.w"].data[0, 0] = value
            return params

        train_init_params = train.init_params
        monkeypatch.setattr(train, "init_params", init_params)
        out = workdir / f"overflow{value:+g}"
        out.mkdir()
        (out / "model.ckpt").write_bytes(b"the previous checkpoint")
        code = run_cli("train", "-c", config_path, "--out", out, "--epochs", 0)
        assert code == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == (
            f"error: {out / 'model.ckpt'}: array 'head.w' holds a finite value beyond float32's range\n")
        assert (out / "model.ckpt").read_bytes() == b"the previous checkpoint"

    @pytest.mark.parametrize("flags, named", [
        (("--joints", 5, "--spatial-motifs", 2, "--temporal-motifs", 2),
         "eval dataset has 4 classes of 5 joints x 8 frames; the model takes at most 4 classes, of 4 x 8"),
        (("--joints", 4, "--spatial-motifs", 4, "--temporal-motifs", 4),
         "eval dataset has 16 classes of 4 joints x 8 frames; the model takes at most 4 classes, of 4 x 8"),
    ], ids=["other-joints", "more-classes"])
    def test_eval_set_that_does_not_fit_the_model_is_data_error(
        self, workdir, config_path, capsys, monkeypatch, flags, named
    ):
        """An eval set with other sequence shapes, or more classes, fails before the first step, as in eval."""
        eval_path = workdir / f"eval-{'-'.join(map(str, flags))}.jsonl"
        assert run_cli("gen-data", *flags, "--frames", 8, "--per-class", 2, "-o", eval_path) == cli.EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(train, "train_step", lambda *args, **kwargs: pytest.fail("trained"))
        code = run_cli("train", "-c", config_path, "--out", workdir / "eval-mismatch",
                       "--set", f"data.eval_path={eval_path}")
        assert code == cli.EXIT_DATA
        assert named in capsys.readouterr().err

    def test_directory_named_as_the_stem_does_not_block_training(self, workdir, config_path):
        out = workdir / "stem-dir"
        (out / "model").mkdir(parents=True)
        assert run_cli("train", "-c", config_path, "--out", out, "--epochs", 0) == cli.EXIT_OK
        assert (out / "model.ckpt").is_file()

    def test_unknown_precision_is_usage_error(self, workdir, config_path, capsys):
        code = run_cli("train", "-c", config_path, "--out", workdir / "f16",
                       "--set", "numeric.precision=float16")
        assert code == cli.EXIT_USAGE
        assert "numeric.precision" in capsys.readouterr().err

    def test_config_and_manifest_together_is_usage_error(self, workdir, config_path, trained_run, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "-c", config_path, "--from-manifest", trained_run / "model-manifest.json",
                    "--out", workdir / "both")
        assert exc.value.code == cli.EXIT_USAGE
        assert "not allowed with argument -c/--config" in capsys.readouterr().err
        assert not (workdir / "both").exists()

    def test_requires_config_or_manifest(self, capsys):
        assert run_cli("train") == cli.EXIT_USAGE
        assert "-c/--config or --from-manifest" in capsys.readouterr().err


class TestEval:
    def test_accuracy_line_and_csv_report(self, trained_run, dataset_path, capsys):
        code = run_cli("eval", trained_run / "model.ckpt", "-d", dataset_path)
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        match = re.search(r"accuracy (\d\.\d{4}) over 20 sequences", out)
        assert match, out
        assert 0.0 <= float(match.group(1)) <= 1.0
        report = (trained_run / "eval.csv").read_text().splitlines()
        assert report[0] == "metric,value"
        rows = dict(line.split(",") for line in report[1:])
        assert 0.0 <= float(rows["accuracy"]) <= 1.0
        assert rows["count"] == "20"
        assert {k for k in rows if k.startswith("per_class.")} == \
            {f"per_class.{k}" for k in range(4)}

    def test_embeddings_export(self, workdir, trained_run, dataset_path):
        tsv = workdir / "emb.tsv"
        code = run_cli("eval", trained_run / "model.ckpt", "-d", dataset_path,
                       "--embeddings", tsv)
        assert code == cli.EXIT_OK
        lines = tsv.read_text().splitlines()
        assert len(lines) == 21  # header + one row per sequence
        header = lines[0].split("\t")
        assert header[:2] == ["index", "label"]
        assert sum(col.startswith("s") for col in header) == 8
        assert sum(col.startswith("t") for col in header) == 8
        labels = {int(line.split("\t")[1]) for line in lines[1:]}
        assert labels == {0, 1, 2, 3}

    def test_corrupt_checkpoint_magic_is_data_error(self, workdir, dataset_path, capsys):
        bad = workdir / "bad.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert run_cli("eval", bad, "-d", dataset_path) == cli.EXIT_DATA
        assert "magic" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.ckpt", "."])
    def test_unreadable_checkpoint_is_usage_error(self, workdir, dataset_path, capsys, name):
        path = workdir / name
        assert run_cli("eval", path, "-d", dataset_path) == cli.EXIT_USAGE
        assert f"cannot read checkpoint {path}" in capsys.readouterr().err

    def test_class_count_mismatch_is_data_error(self, workdir, trained_run, capsys):
        wide = workdir / "wide.jsonl"
        assert run_cli("gen-data", "--joints", 4, "--frames", 8, "--spatial-motifs", 4,
                       "--temporal-motifs", 2, "--per-class", 2, "-o", wide) == cli.EXIT_OK
        assert run_cli("eval", trained_run / "model.ckpt", "-d", wide) == cli.EXIT_DATA
        assert "classes" in capsys.readouterr().err

    @pytest.mark.parametrize("joints,frames", [(4, 12), (5, 8)])
    def test_sequence_shape_mismatch_is_data_error(self, workdir, trained_run, capsys, joints, frames):
        other = workdir / f"shape-{joints}x{frames}.jsonl"
        assert run_cli("gen-data", "--joints", joints, "--frames", frames, "--spatial-motifs", 2,
                       "--temporal-motifs", 2, "--per-class", 2, "-o", other) == cli.EXIT_OK
        capsys.readouterr()
        assert run_cli("eval", trained_run / "model.ckpt", "-d", other) == cli.EXIT_DATA
        assert f"{joints} joints x {frames} frames" in capsys.readouterr().err

    @staticmethod
    def edited_checkpoint(workdir, trained_run, name, edit):
        """The trained checkpoint rewritten with `edit(arrays, meta)` applied."""
        arrays, meta = load_checkpoint(str(trained_run / "model.ckpt"))
        edit(arrays, meta)
        path = workdir / f"{name}.ckpt"
        save_checkpoint(str(path), arrays, meta)
        return path

    def test_checkpoint_without_decoupler_array_is_data_error(
        self, workdir, trained_run, dataset_path, capsys
    ):
        path = self.edited_checkpoint(workdir, trained_run, "no-spatial-embed",
                                      lambda arrays, meta: arrays.pop("decouple.spatial_embed"))
        assert run_cli("eval", path, "-d", dataset_path) == cli.EXIT_DATA
        assert "decouple.spatial_embed" in capsys.readouterr().err

    def test_checkpoint_without_encoder_meta_is_data_error(
        self, workdir, trained_run, dataset_path, capsys
    ):
        path = self.edited_checkpoint(workdir, trained_run, "no-encoder-meta",
                                      lambda arrays, meta: meta.pop("encoder"))
        assert run_cli("eval", path, "-d", dataset_path) == cli.EXIT_DATA
        assert "lacks encoder" in capsys.readouterr().err

    def test_checkpoint_with_wrong_head_shape_is_data_error(
        self, workdir, trained_run, dataset_path, capsys
    ):
        def widen_head(arrays, meta):
            rows, cols = arrays["head.w"].shape
            arrays["head.w"] = np.zeros((rows + 1, cols))

        path = self.edited_checkpoint(workdir, trained_run, "wide-head", widen_head)
        assert run_cli("eval", path, "-d", dataset_path) == cli.EXIT_DATA
        assert "'head.w' has shape" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_checkpoint_with_non_finite_value_is_data_error(
        self, workdir, trained_run, dataset_path, capsys, value
    ):
        def spoil_head(arrays, meta):
            arrays["head.w"][0, 0] = value

        path = self.edited_checkpoint(workdir, trained_run, f"head-{value}", spoil_head)
        assert run_cli("eval", path, "-d", dataset_path) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: {path}: array 'head.w' holds a non-finite value\n"


    def test_train_on_an_overflowing_label_is_data_error(self, workdir, config_path, dataset_path, capsys):
        record = json.loads(dataset_path.read_text().splitlines()[0])
        data = workdir / "huge-label.jsonl"
        data.write_text(json.dumps({**record, "label": 10**30}) + "\n")
        code = run_cli("train", "-c", config_path, "--set", f"data.path={data}", "--out", workdir / "huge")
        assert code == cli.EXIT_DATA
        assert f"{data}:1:" in capsys.readouterr().err

    def test_train_on_more_classes_than_sequences_is_data_error(
        self, workdir, config_path, dataset_path, capsys, monkeypatch
    ):
        """One sequence labelled 10**8 would size the head at (32, 100000001), ~25.6 GB; fit refuses first."""
        def build_model(*args):
            raise AssertionError("fit built the model")

        monkeypatch.setattr(train, "build_model", build_model)
        record = json.loads(dataset_path.read_text().splitlines()[0])
        data = workdir / "label-sized.jsonl"
        data.write_text(json.dumps({**record, "label": 10**8}) + "\n")
        code = run_cli("train", "-c", config_path, "--set", f"data.path={data}", "--out", workdir / "label-sized")
        assert code == cli.EXIT_DATA
        assert "more classes (100000001) than sequences (1)" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        "list-record", "string-coords", "non-integer-label", "non-utf8-jsonl", "non-utf8-array-name",
    ])
    def test_malformed_input_is_data_error(self, workdir, trained_run, dataset_path, capsys, case):
        checkpoint, data = trained_run / "model.ckpt", dataset_path
        record = json.loads(dataset_path.read_text().splitlines()[0])
        if case == "non-utf8-array-name":
            blob = checkpoint.read_bytes()
            at = blob.rfind(b"head.b")
            checkpoint = workdir / "bad-name.ckpt"
            checkpoint.write_bytes(blob[:at] + b"head\xffb" + blob[at + 6:])
            where = f"{checkpoint}:"
        else:
            content, line = {
                "list-record": (b"[1, 2, 3]\n", 1),
                "string-coords": (json.dumps({**record, "coords": "abc"}).encode() + b"\n", 1),
                "non-integer-label": (json.dumps({**record, "label": "one"}).encode() + b"\n", 1),
                "non-utf8-jsonl": (json.dumps(record).encode() + b"\n\xff\xfe\n", 2),
            }[case]
            data = workdir / f"{case}.jsonl"
            data.write_bytes(content)
            where = f"{data}:{line}:"
        assert run_cli("eval", checkpoint, "-d", data) == cli.EXIT_DATA
        assert where in capsys.readouterr().err


@pytest.mark.parametrize("case", [
    "out-dir-is-a-file", "empty-out-dir", "stem-with-a-separator", "empty-stem", "stem-with-a-nul",
    "gen-data-output-under-a-file", "eval-report-under-a-file", "eval-embeddings-under-a-file",
    "gen-data-output-is-a-dir", "gen-data-empty-output", "eval-report-is-a-dir", "eval-embeddings-is-a-dir",
    "checkpoint-path-is-a-dir", "metrics-path-is-a-dir", "epoch-checkpoint-path-is-a-dir",
])
def test_output_path_that_cannot_be_made_is_usage_error(
    workdir, config_path, dataset_path, trained_run, capsys, monkeypatch, case
):
    """Exit 2 with an error line, and nothing trained, evaluated or printed first."""
    def fail(*args, **kwargs):
        raise AssertionError(f"{case}: ran past a bad output path")

    blocker = workdir / "blocker"
    blocker.write_text("a file, not a directory\n")
    a_dir = workdir / "a-dir"
    (a_dir / "model.ckpt").mkdir(parents=True, exist_ok=True)
    (workdir / "metrics-dir" / "model-metrics.csv").mkdir(parents=True, exist_ok=True)
    (workdir / "epoch-dir" / "model-epoch002.ckpt").mkdir(parents=True, exist_ok=True)
    checkpoint = trained_run / "model.ckpt"
    argv = {
        "out-dir-is-a-file": ["train", "-c", config_path, "--out", blocker],
        "empty-out-dir": ["train", "-c", config_path, "--out", ""],
        "stem-with-a-separator": ["train", "-c", config_path, "--out", workdir / "stems", "--set", "out.stem=a/b"],
        "empty-stem": ["train", "-c", config_path, "--out", workdir / "stems", "--set", "out.stem="],
        "stem-with-a-nul": ["train", "-c", config_path, "--out", workdir / "stems", "--set", "out.stem=a\0b"],
        "gen-data-output-under-a-file": ["gen-data", "-o", blocker / "x.skl"],
        "eval-report-under-a-file": ["eval", checkpoint, "-d", dataset_path, "--report", blocker / "r.csv"],
        "eval-embeddings-under-a-file": ["eval", checkpoint, "-d", dataset_path, "--embeddings", blocker / "e.tsv"],
        "gen-data-output-is-a-dir": ["gen-data", "-o", a_dir],
        "gen-data-empty-output": ["gen-data", "-o", ""],
        "eval-report-is-a-dir": ["eval", checkpoint, "-d", dataset_path, "--report", a_dir],
        "eval-embeddings-is-a-dir": ["eval", checkpoint, "-d", dataset_path, "--embeddings", a_dir],
        "checkpoint-path-is-a-dir": ["train", "-c", config_path, "--out", a_dir],
        "metrics-path-is-a-dir": ["train", "-c", config_path, "--out", workdir / "metrics-dir"],
        "epoch-checkpoint-path-is-a-dir": ["train", "-c", config_path, "--out", workdir / "epoch-dir",
                                           "--epochs", 3, "--set", "train.checkpoint_every=2"],
    }[case]
    monkeypatch.setattr(cli, "generate_synthetic", fail)
    monkeypatch.setattr(train, "train_step", fail)
    monkeypatch.setattr(cli, "evaluate", fail)
    if "stem" in case or case == "empty-out-dir":  # checked before any data loads
        monkeypatch.setattr(cli, "load_dataset", fail)
    assert run_cli(*argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not (workdir / "stems").exists()


@pytest.fixture(scope="module")
def manifest_blobs(trained_run, dataset_path):
    """The bytes of a real train manifest and of a real gen-data manifest."""
    gen_data = dataset_path.parent / f"{dataset_path.name}.manifest.json"
    return [(trained_run / "model-manifest.json").read_bytes(), gen_data.read_bytes()]


_json_value = st.one_of(st.integers(-2, 40), st.sampled_from(
    [None, True, False, 0.0, -1.5, 2.5, float("nan"), 10**20, "", "train", "float32", [], [3], [1, "x"], {}]))


@st.composite
def damaged_manifests(draw, blobs):
    """A real manifest with fields dropped or given values of any type, then maybe truncated or bit-flipped."""
    payload = json.loads(draw(st.sampled_from(blobs)))
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from([payload, *[payload.get("config")] * 3]))
        if not isinstance(target, dict) or not target:
            continue
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(_json_value)
    damaged = bytearray(json.dumps(payload, indent=2, sort_keys=True).encode())
    damage = draw(st.sampled_from(["none", "none", "truncate", "flip"]))
    if damage == "truncate":
        damaged = damaged[: draw(st.integers(0, len(damaged) - 1))]
    elif damage == "flip":
        flips = st.tuples(st.integers(0, len(damaged) - 1), st.integers(0, 7))
        for at, bit in draw(st.lists(flips, min_size=1, max_size=3)):
            damaged[at] ^= 1 << bit
    return bytes(damaged)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_manifest_is_read_or_rejected_and_never_crashes_train(workdir, manifest_blobs, data):
    path = workdir / "damaged-manifest.json"
    path.write_bytes(data.draw(damaged_manifests(manifest_blobs), label="manifest"))
    try:
        read_manifest(str(path))
    except ConfigError:
        pass
    code = run_cli("train", "--from-manifest", path, "--epochs", 0, "--out", workdir / "damaged")
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC)


def test_write_manifest_bytes(tmp_path):
    path = tmp_path / "manifest.json"
    manifest = RunManifest(command="train", config={"train.tau": 0.5, "encoder.hidden": (4, 2)}, seed=3,
                           artifacts={"checkpoint": "run/model.ckpt"})
    write_manifest(str(path), manifest)
    assert path.read_text(encoding="utf-8") == textwrap.dedent("""\
        {
          "artifacts": {
            "checkpoint": "run/model.ckpt"
          },
          "command": "train",
          "config": {
            "encoder.hidden": [
              4,
              2
            ],
            "train.tau": 0.5
          },
          "format_version": 1,
          "seed": 3
        }
        """)


class TestConfigMapping:
    """`stdcl train` builds its configs from the schema keys whose suffixes are field names."""

    @staticmethod
    def schema_defaults(*sections):
        keys = [key for key in CONFIG_SCHEMA if key.partition(".")[0] in sections]
        defaults = {key.partition(".")[2]: CONFIG_SCHEMA[key][1] for key in keys}
        assert len(defaults) == len(keys)  # no two sections share a suffix
        return defaults

    def test_train_and_contrast_keys_are_train_config_fields(self):
        schema = self.schema_defaults("train", "contrast")
        fields = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        assert set(schema) == set(fields)
        assert schema == fields

    def test_encoder_keys_are_encoder_config_fields(self):
        schema = self.schema_defaults("encoder")
        fields = {f.name: f.default for f in dataclasses.fields(EncoderConfig)}
        assert set(schema) == set(fields) - {"joints", "frames"}
        for name, default in schema.items():
            if fields[name] is not dataclasses.MISSING:
                assert default == fields[name], name


class TestGradcheck:
    def test_small_run_passes_every_op(self, capsys):
        code = run_cli("gradcheck", "--trials", 2, "--pipeline-trials", 1)
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "all gradient checks passed" in out
        assert "FAIL" not in out
        assert "full_pipeline" in out

    def test_op_filter_restricts_scope(self, capsys):
        code = run_cli("gradcheck", "--op", "matmul", "--trials", 2)
        assert code == cli.EXIT_OK
        body = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("pass")]
        assert len(body) == 1
        assert "matmul" in body[0]

    def test_unknown_op_rejected(self, capsys):
        assert run_cli("gradcheck", "--op", "warp") == cli.EXIT_USAGE
        assert "unknown op" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--trials", "--pipeline-trials"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_fewer_than_one_trial_is_usage_error_before_any_check(self, capsys, monkeypatch, flag, count):
        monkeypatch.setattr(gradcheck, "compare_gradients", lambda *args, **kwargs: pytest.fail("checked"))
        assert run_cli("gradcheck", flag, count) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at least 1 trial, got {count}" in captured.err

    def test_unknown_fault_op_rejected(self, capsys):
        code = run_cli("gradcheck", "--op", "matmul", "--trials", 1, "--inject-fault", "nosuchop")
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "unknown op" in captured.err and "nosuchop" in captured.err
        assert "passed" not in captured.out

    def test_injected_fault_is_detected_and_named(self, capsys):
        code = run_cli("gradcheck", "--op", "matmul", "--trials", 2,
                       "--inject-fault", "matmul")
        assert code == cli.EXIT_NUMERIC
        out = capsys.readouterr().out
        assert "FAILED: matmul" in out
