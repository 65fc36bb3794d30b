"""Artifact writers replace a file whole: a failed write leaves the old file and no temp file."""

import builtins
import os

import numpy as np
import pytest

from stdcl import checkpoint, cli, config, train
from stdcl.config import RunManifest
from stdcl.data import SyntheticSpec, generate_synthetic, save_dataset
from stdcl.encoder import EncoderConfig


class FailingFile:
    """Writes half of the first chunk to the real file, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, chunk):
        self.f.write(chunk[: len(chunk) // 2])
        raise OSError("disk full")


def write_checkpoint(path, where):
    checkpoint.save_checkpoint(path, {"w": np.ones((2, 3))}, {"step": 1})


def write_metrics_csv(path, where):
    train.write_metrics_csv(path, [["eval", 0, "", "", "", "", "", "", "0.5"]] * 3)


def write_manifest(path, where):
    config.write_manifest(path, RunManifest(command="gen-data", config={"per_class": 2}, seed=0))


def write_embeddings_tsv(path, where):
    report = train.EmbeddingReport(
        spatial=np.ones((3, 2)), temporal=np.zeros((3, 2)), labels=np.array([0, 1, 0]),
        silhouette_spatial=0.0, silhouette_temporal=0.0,
    )
    train.export_embeddings_tsv(report, path)


def write_eval_report(path, where):
    data = os.path.join(where, "toy.skl")
    save_dataset(generate_synthetic(SyntheticSpec(joints=3, frames=8, num_spatial=2, num_temporal=2,
                                                  per_class=2), seed=0), data)
    encoder_cfg = EncoderConfig(joints=3, frames=8, channels=4, hidden=(), kernel_size=3)
    cfg = train.TrainConfig(framework_enabled=False)
    model = train.build_model(encoder_cfg, 4, cfg)
    ckpt = os.path.join(where, "m.ckpt")
    checkpoint.save_checkpoint(ckpt, model.params, train.model_meta(model, cfg))
    assert cli.main(["eval", ckpt, "-d", data, "--report", path]) == cli.EXIT_OK


# writer -> (module whose `open` writes the file, the call)
WRITERS = {
    "checkpoint": (checkpoint, write_checkpoint),
    "metrics_csv": (train, write_metrics_csv),
    "manifest": (config, write_manifest),
    "embeddings_tsv": (train, write_embeddings_tsv),
    "eval_report": (cli, write_eval_report),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_existing_file(tmp_path, monkeypatch, writer):
    module, write = WRITERS[writer]
    out = tmp_path / "out"
    out.mkdir()
    path = out / "artifact"
    path.write_bytes(b"old contents")
    with monkeypatch.context() as m:
        m.setattr(module, "open", lambda *a, **kw: FailingFile(builtins.open(*a, **kw)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            write(str(path), str(tmp_path))
    assert path.read_bytes() == b"old contents"
    assert os.listdir(out) == ["artifact"]
    write(str(path), str(tmp_path))
    assert path.read_bytes() != b"old contents"
    assert os.listdir(out) == ["artifact"]
