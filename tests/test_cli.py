"""End-to-end checks of the command-line surface, run in-process."""

import dataclasses
import json
import re

import numpy as np
import pytest

from stdcl import cli
from stdcl.checkpoint import load_checkpoint, save_checkpoint
from stdcl.config import CONFIG_SCHEMA, read_manifest
from stdcl.encoder import EncoderConfig
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

    def test_unknown_precision_is_usage_error(self, workdir, config_path, capsys):
        code = run_cli("train", "-c", config_path, "--out", workdir / "f16",
                       "--set", "numeric.precision=float16")
        assert code == cli.EXIT_USAGE
        assert "numeric.precision" in capsys.readouterr().err

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

    def test_injected_fault_is_detected_and_named(self, capsys):
        code = run_cli("gradcheck", "--op", "matmul", "--trials", 2,
                       "--inject-fault", "matmul")
        assert code == cli.EXIT_NUMERIC
        out = capsys.readouterr().out
        assert "FAILED: matmul" in out
