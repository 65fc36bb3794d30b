"""The CKPT reader against damaged files: every failure is a typed StdclError."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stdcl import cli
from stdcl.checkpoint import MAGIC, VERSION, load_checkpoint
from stdcl.data import SyntheticSpec, generate_synthetic, save_dataset
from stdcl.encoder import EncoderConfig
from stdcl.errors import DataFormatError, StdclError
from stdcl.train import TrainConfig, build_model, load_model, model_meta, save_model


def one_entry_checkpoint(path, dims, payload=b"\0" * 16):
    """A CKPT file whose only entry claims `dims` but holds `payload` bytes of data."""
    meta = b"{}"
    path.write_bytes(
        MAGIC + struct.pack("<II", VERSION, len(meta)) + meta + struct.pack("<I", 1)
        + struct.pack("<H", 1) + b"w" + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + payload
    )
    return path


# element counts whose int64 product wraps: to -2**33 + 1, and to 0
OVERFLOWING_DIMS = [(2**32 - 1, 2**32 - 1), (2**31, 2**31, 4)]


@pytest.mark.parametrize("dims", OVERFLOWING_DIMS)
def test_overflowing_entry_size_is_truncation(tmp_path, dims):
    path = one_entry_checkpoint(tmp_path / "huge.ckpt", dims)
    with pytest.raises(DataFormatError, match="truncated checkpoint data for 'w'"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("dims", OVERFLOWING_DIMS)
def test_eval_of_overflowing_checkpoint_exits_data(tmp_path, capsys, dims):
    data = tmp_path / "toy.jsonl"
    save_dataset(generate_synthetic(SyntheticSpec(joints=4, frames=8, num_spatial=2, num_temporal=2,
                                                  per_class=2), seed=0), str(data))
    path = one_entry_checkpoint(tmp_path / "huge.ckpt", dims)
    assert cli.main(["eval", str(path), "-d", str(data)]) == cli.EXIT_DATA
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("dims", [(0,) * 65, (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)])
def test_empty_entry_numpy_cannot_shape_is_data_error(tmp_path, dims):
    path = one_entry_checkpoint(tmp_path / "empty.ckpt", dims, payload=b"")
    with pytest.raises(DataFormatError, match="impossible shape"):
        load_checkpoint(str(path))


def test_signalling_nan_payload_loads_without_warning(tmp_path):
    path = one_entry_checkpoint(tmp_path / "snan.ckpt", (1,), payload=struct.pack("<I", 0x7F800001))
    arrays, _ = load_checkpoint(str(path))  # pytest turns a RuntimeWarning from the cast into an error
    assert np.isnan(arrays["w"]).all()


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """A small model with both decoupler branches, as `save_model` writes it."""
    where = tmp_path_factory.mktemp("ckpt")
    encoder_cfg = EncoderConfig(joints=4, frames=8, channels=8, hidden=(4,), kernel_size=3)
    cfg = TrainConfig(embed_dim=6, reduction=2)
    model = build_model(encoder_cfg, 4, cfg)
    path = where / "model.ckpt"
    save_model(str(path), model, model_meta(model, cfg))
    return where / "damaged.ckpt", path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_loads_or_raises_typed_error(saved_checkpoint, data):
    path, blob = saved_checkpoint
    damaged = bytearray(blob[: data.draw(st.integers(0, len(blob)), label="length")])
    if damaged:
        flips = st.tuples(st.integers(0, len(damaged) - 1), st.integers(1, 255))
        for at, mask in data.draw(st.lists(flips, max_size=6), label="flips"):
            damaged[at] ^= mask
    path.write_bytes(bytes(damaged))
    try:
        load_model(str(path))
    except StdclError:
        pass
