"""Dataset containers, the synthetic generator's factor structure, file formats."""

import builtins
import json
import os
import re
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stdcl import data
from stdcl.data import (
    JSONL_CHUNK,
    SkeletonDataset,
    SkeletonSequence,
    SyntheticSpec,
    _json_arrays,
    _round9,
    generate_synthetic,
    load_dataset,
    resample_time,
    save_binary,
    save_dataset,
    save_jsonl,
)
from stdcl.errors import ConfigError, DataFormatError
from stdcl.experiments import DecouplingStudyConfig, ImprovementStudyConfig
from stdcl.rng import seeded_rng


def small_spec(**kw):
    defaults = dict(joints=6, frames=16, num_spatial=2, num_temporal=2, per_class=3, noise_std=0.05)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


def jsonl_record(index, label, joints=2, frames=4):
    return json.dumps({"index": index, "label": label, "joints": joints, "frames": frames,
                       "coords": [0.5] * (joints * frames * 3)}) + "\n"


class TestContainers:
    @pytest.mark.parametrize("shape", [(3, 2, 4), (3, 2, 4, 2), (3, 2, 4, 3, 1), ()])
    def test_wrong_rank_or_last_axis(self, shape):
        with pytest.raises(DataFormatError, match="sequences, joints, frames, 3"):
            SkeletonDataset(np.zeros(shape), np.zeros(3, dtype=int), num_classes=2)

    def test_sequence_validation(self):
        """Every sequence's values are checked at once, and the first bad one is named."""
        for bad in (np.nan, np.inf, -np.inf):
            coords = np.zeros((5, 2, 4, 3))
            coords[3, 1, 2, 0] = bad
            coords[4, 0, 0, 2] = bad
            with pytest.raises(DataFormatError, match="sequence 3: non-finite"):
                SkeletonDataset(coords, np.zeros(5, dtype=int), num_classes=2)

    def test_label_range_enforced(self):
        for labels, named in (([0, 1, 5, 0], "sequence 2: label 5 outside"),
                              ([0, -1, 0, 2], "sequence 1: label -1 outside")):
            with pytest.raises(DataFormatError, match=named):
                SkeletonDataset(np.zeros((4, 2, 4, 3)), labels, num_classes=2)

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 0, 1], [[0, 1, 0]], []])
    def test_label_count_must_match(self, labels):
        with pytest.raises(DataFormatError, match="3 sequences but labels of shape"):
            SkeletonDataset(np.zeros((3, 2, 4, 3)), labels, num_classes=2)

    def test_empty_dataset(self):
        with pytest.raises(DataFormatError, match="empty"):
            SkeletonDataset(np.zeros((0, 2, 4, 3)), [], num_classes=2)

    @pytest.mark.parametrize("num_classes", [1, 0, -3])
    def test_fewer_than_two_classes(self, num_classes):
        with pytest.raises(DataFormatError, match="at least 2 classes"):
            SkeletonDataset(np.zeros((2, 2, 4, 3)), [0, 0], num_classes=num_classes)

    def test_sequences_are_views_of_the_rows(self):
        coords = np.arange(4 * 2 * 4 * 3, dtype=np.float64).reshape(4, 2, 4, 3)
        ds = SkeletonDataset(coords, [1, 0, 1, 0], num_classes=2, name="toy")
        assert (len(ds), ds.joints, ds.frames) == (4, 2, 4)
        assert all(isinstance(seq, SkeletonSequence) for seq in ds)
        assert [(seq.label, seq.index) for seq in ds] == [(1, 0), (0, 1), (1, 2), (0, 3)]
        assert ds[-1].index == 3 and ds[-1].label == 0 and type(ds[-1].label) is int
        assert all(np.shares_memory(seq.coords, ds.coords) for seq in ds)
        np.testing.assert_array_equal(ds[2].coords, coords[2])
        with pytest.raises(IndexError):
            ds[4]
        labels = ds.labels()
        labels[:] = 7
        assert ds.labels().tolist() == [1, 0, 1, 0]

    def test_dataset_index_contract(self, tmp_path):
        """A file's indices are bank slots: they must be a permutation of 0..len-1, in either format."""
        for indices in ([0, 2], [1, 1], [1, 2], [0, 1, 3]):
            n = len(indices)
            jsonl = tmp_path / "d.jsonl"
            jsonl.write_text("".join(jsonl_record(index, k % 2) for k, index in enumerate(indices)))
            skl = tmp_path / "d.skl"
            save_binary(SkeletonDataset(np.zeros((n, 2, 4, 3)), np.arange(n) % 2, num_classes=2), str(skl))
            skl.write_bytes(skl.read_bytes()[:-4 * n] + np.array(indices, dtype="<i4").tobytes())
            for path in (jsonl, skl):
                with pytest.raises(DataFormatError, match=re.escape(f"{path}: sequence indices must be a permutation")):
                    load_dataset(str(path))

    def test_dataset_shape_consistency(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(jsonl_record(0, 0) + jsonl_record(1, 1, frames=5))
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:2: (joints, frames) = (2, 5) differs")):
            load_dataset(str(path))


class TestSyntheticSpec:
    def test_counts_and_labels(self):
        spec = small_spec()
        ds = generate_synthetic(spec, seed=1)
        assert len(ds) == spec.length == 12
        assert ds.num_classes == 4
        labels = ds.labels()
        for label in range(4):
            assert (labels == label).sum() == 3
        assert spec.spatial_factor(3) == 1 and spec.temporal_factor(3) == 1

    def test_validation(self):
        with pytest.raises(ConfigError, match="at least 2 classes"):
            small_spec(num_spatial=1, num_temporal=1)
        with pytest.raises(ConfigError, match="subspace"):
            small_spec(joints=2, num_spatial=8)
        with pytest.raises(ConfigError, match="alias"):
            small_spec(frames=8, num_temporal=7)
        with pytest.raises(ConfigError):
            small_spec(noise_std=-0.1)

    @pytest.mark.parametrize("changes, named", [
        (dict(joints=2**31), f"joints ({2**31}), frames (16) and sequences (12) must each be below 2**31"),
        (dict(frames=2**31), f"joints (6), frames ({2**31}) and sequences (12) must each be below 2**31"),
        (dict(per_class=2**29), f"joints (6), frames (16) and sequences ({2**31}) must each be below 2**31"),
        (dict(noise_std=float("nan")), "noise_std must be finite"),
        (dict(noise_std=float("inf")), "noise_std must be finite"),
        (dict(motif_scale=float("nan")), "motif_scale must be finite"),
        (dict(motif_scale=float("inf")), "motif_scale must be finite"),
    ])
    def test_sizes_an_skl1_header_cannot_store_and_non_finite_scales_are_rejected(self, changes, named):
        assert small_spec(per_class=2**29 - 1).length == 2**31 - 4  # a spec allocates nothing
        with pytest.raises(ConfigError, match=re.escape(named)):
            small_spec(**changes)

    def test_determinism(self):
        a = generate_synthetic(small_spec(), seed=9)
        b = generate_synthetic(small_spec(), seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.coords, y.coords)
        c = generate_synthetic(small_spec(), seed=10)
        assert any((x.coords != y.coords).any() for x, y in zip(a, c))

    def test_factor_structure_decouples(self):
        """Time-averaging must erase the temporal factor and joint-averaging
        the spatial factor (up to noise)."""
        spec = small_spec(per_class=8, noise_std=0.01)
        ds = generate_synthetic(spec, seed=3)
        labels = ds.labels()
        time_means = np.stack([seq.coords.mean(axis=1) for seq in ds])  # (L, J, 3)
        joint_means = np.stack([seq.coords.mean(axis=0) for seq in ds])  # (L, T, 3)

        def group_gap(x, factor):
            mu = [x[factor == v].mean(axis=0) for v in np.unique(factor)]
            return np.linalg.norm(mu[0] - mu[1])

        spa = labels // spec.num_temporal
        tem = labels % spec.num_temporal
        # time-mean: spatial groups far apart, temporal groups ~noise apart
        assert group_gap(time_means, spa) > 10 * group_gap(time_means, tem)
        # joint-mean: the reverse
        assert group_gap(joint_means, tem) > 10 * group_gap(joint_means, spa)

    def test_spatial_offsets_zero_mean_and_energy(self):
        spec = small_spec(noise_std=0.0)
        ds = generate_synthetic(spec, seed=5)
        # with zero noise, a class's time-mean is base + offset exactly
        seq = ds[0]
        time_mean = seq.coords.mean(axis=1)
        # subtracting the across-class mean isolates the offset; offsets are
        # zero-mean over joints
        other = ds[[s.label for s in ds].index(2)]
        diff = time_mean - other.coords.mean(axis=1)
        assert abs(diff.mean(axis=0)).max() < 1e-9

    def test_temporal_envelopes_zero_mean_over_frames(self):
        spec = small_spec(noise_std=0.0)
        ds = generate_synthetic(spec, seed=5)
        for seq in ds:
            joint_mean = seq.coords.mean(axis=0)  # (T, 3)
            # mean over frames leaves base only -> frame deviations sum to 0
            dev = joint_mean - joint_mean.mean(axis=0)
            assert abs(dev.sum(axis=0)).max() < 1e-9


def per_sequence_generator(spec: SyntheticSpec, seed: int) -> SkeletonDataset:
    """The generator as it was before it drew its noise one class block at a time: one draw per sequence."""
    base_rng = seeded_rng(seed, "synthetic/base")
    offset_rng = seeded_rng(seed, "synthetic/spatial")
    noise_rng = seeded_rng(seed, "synthetic/noise")
    base = base_rng.standard_normal((spec.joints, 1, 3))
    direction = base_rng.standard_normal(3)
    direction *= np.sqrt(3.0) / np.linalg.norm(direction)
    offsets = data._spatial_offsets(spec, offset_rng)
    envelopes = spec.motif_scale * data._temporal_envelopes(spec)
    sequences, labels = [], []
    for a in range(spec.num_spatial):
        for b in range(spec.num_temporal):
            for _ in range(spec.per_class):
                sequences.append(
                    base
                    + offsets[a][:, None, :]
                    + envelopes[b][None, :, None] * direction[None, None, :]
                    + noise_rng.normal(0.0, spec.noise_std, (spec.joints, spec.frames, 3))
                )
                labels.append(a * spec.num_temporal + b)
    return SkeletonDataset(np.stack(sequences), labels, num_classes=spec.num_classes)


_GENERATOR_SPECS = {
    # the three benchmark workloads (benchmarks/workloads.py)
    "decoupling": DecouplingStudyConfig().synthetic_spec(),
    "improvement": ImprovementStudyConfig().synthetic_spec(),
    "large-bank": SyntheticSpec(num_spatial=4, num_temporal=4, per_class=100, noise_std=0.1),
    "one-per-class": SyntheticSpec(per_class=1),
    "no-noise": SyntheticSpec(noise_std=0.0, per_class=3),
    "most-temporal-factors": SyntheticSpec(frames=8, num_spatial=1, num_temporal=4, per_class=3),
}


class TestGeneratorBlocks:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name", list(_GENERATOR_SPECS))
    def test_matches_per_sequence_draws_bit_for_bit(self, name, seed):
        spec = _GENERATOR_SPECS[name]
        got, want = generate_synthetic(spec, seed=seed), per_sequence_generator(spec, seed)
        assert len(got) == len(want) == spec.length
        for g, w in zip(got, want):
            assert (g.label, g.index) == (w.label, w.index)
            assert g.coords.dtype == w.coords.dtype and g.coords.shape == w.coords.shape
            assert g.coords.tobytes() == w.coords.tobytes(), f"{name} seed {seed}: sequence {g.index}"

    def test_writing_one_sequence_leaves_the_others_unchanged(self):
        ds = generate_synthetic(small_spec(per_class=4), seed=2)
        before = [seq.coords.copy() for seq in ds]
        for k in (0, 1, len(ds) - 1):  # the first two rows of a class block, and the last one
            ds[k].coords[...] = -7.0
            for i, seq in enumerate(ds):
                if i != k:
                    assert seq.coords.tobytes() == before[i].tobytes(), f"writing {k} changed {i}"
            ds[k].coords[...] = before[k]


class TestResample:
    def test_identity(self):
        coords = np.random.default_rng(0).standard_normal((3, 10, 3))
        out = resample_time(coords, 10)
        np.testing.assert_array_equal(out, coords)

    def test_endpoints_preserved(self):
        coords = np.random.default_rng(1).standard_normal((2, 7, 3))
        out = resample_time(coords, 13)
        np.testing.assert_allclose(out[:, 0], coords[:, 0])
        np.testing.assert_allclose(out[:, -1], coords[:, -1])

    def test_linear_signal_exact(self):
        t = np.linspace(0, 1, 9)
        coords = np.tile((2 * t - 1)[None, :, None], (2, 1, 3))
        out = resample_time(coords, 5)
        expect = np.tile((2 * np.linspace(0, 1, 5) - 1)[None, :, None], (2, 1, 3))
        np.testing.assert_allclose(out, expect, atol=1e-12)


class TestFileFormats:
    def test_jsonl_round_trip(self, tmp_path):
        ds = generate_synthetic(small_spec(), seed=2)
        path = str(tmp_path / "d.jsonl")
        save_jsonl(ds, path)
        back = load_dataset(path)
        assert len(back) == len(ds)
        assert back.num_classes == ds.num_classes
        for a, b in zip(ds, back):
            assert a.label == b.label and a.index == b.index
            np.testing.assert_allclose(a.coords, b.coords, atol=1e-8)

    def test_binary_round_trip(self, tmp_path):
        ds = generate_synthetic(small_spec(), seed=2)
        path = str(tmp_path / "d.skl")
        save_binary(ds, path)
        back = load_dataset(path)
        assert back.num_classes == ds.num_classes
        for a, b in zip(ds, back):
            assert a.label == b.label and a.index == b.index
            np.testing.assert_allclose(a.coords, b.coords, atol=1e-6)  # float32 payload

    def test_round_trips_give_identical_arrays(self, tmp_path):
        """JSONL keeps each value rounded to 9 places, SKL1 each value as float32; both keep the labels."""
        ds = generate_synthetic(small_spec(), seed=2)
        stored = {"d.jsonl": _round9(ds.coords).reshape(ds.coords.shape),
                  "d.skl": ds.coords.astype(np.float32).astype(np.float64)}
        quantized = SkeletonDataset(np.round(ds.coords * 256) / 256, ds.targets, ds.num_classes)  # 8 places
        for name, want in stored.items():
            save_dataset(ds, str(tmp_path / name))
            back = load_dataset(str(tmp_path / name))
            assert back.coords.dtype == np.float64 and back.coords.flags.c_contiguous
            assert back.coords.tobytes() == want.tobytes()
            assert back.targets.tobytes() == ds.targets.tobytes() and back.num_classes == ds.num_classes
            # values that both formats hold exactly come back as they were, from either format
            save_dataset(quantized, str(tmp_path / f"q-{name}"))
            assert load_dataset(str(tmp_path / f"q-{name}")).coords.tobytes() == quantized.coords.tobytes()

    @pytest.mark.parametrize("name", ["d.jsonl", "d.skl"])
    def test_records_load_in_index_order(self, tmp_path, name):
        ds = generate_synthetic(small_spec(), seed=6)
        path = tmp_path / name
        save_dataset(ds, str(path))
        order = np.random.default_rng(0).permutation(len(ds))
        if name.endswith(".jsonl"):
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[i] for i in order))
        else:
            blob = path.read_bytes()
            header, n = blob[:20], len(ds)
            coords = np.frombuffer(blob, "<f4", offset=20, count=ds.coords.size).reshape(n, -1)
            labels, indices = np.frombuffer(blob[20 + coords.nbytes:], "<i4").reshape(2, n)
            path.write_bytes(header + coords[order].tobytes() + labels[order].tobytes() + indices[order].tobytes())
        back = load_dataset(str(path))
        save_dataset(ds, str(tmp_path / f"ordered-{name}"))
        want = load_dataset(str(tmp_path / f"ordered-{name}"))
        assert back.coords.tobytes() == want.coords.tobytes()
        assert back.targets.tobytes() == want.targets.tobytes()

    @pytest.mark.parametrize("name, damage, named", [
        ("d.skl", "label", "sequence 2: label 9 outside [0, 4)"),
        ("d.skl", "coordinate", "sequence 1: non-finite coordinates"),
        ("d.skl", "class count", "dataset needs at least 2 classes, got 1"),
        ("d.jsonl", "coordinate", "sequence 1: non-finite coordinates"),
    ])
    def test_a_dataset_that_fails_the_container_checks_is_named_by_its_file(self, tmp_path, name, damage, named):
        ds = generate_synthetic(small_spec(), seed=2)
        path = tmp_path / name
        save_dataset(ds, str(path))
        if name.endswith(".jsonl"):  # json.loads reads NaN
            lines = path.read_text().splitlines(keepends=True)
            lines[1] = json.dumps({**json.loads(lines[1]), "coords": [float("nan")] * ds.coords[1].size}) + "\n"
            path.write_text("".join(lines))
        else:
            blob = bytearray(path.read_bytes())
            offset, fmt, value = {
                "label": (20 + ds.coords.size * 4 + 2 * 4, "<i", 9),
                "coordinate": (20 + ds.coords[0].size * 4 + 5 * 4, "<f", float("nan")),
                "class count": (12, "<i", 1),
            }[damage]
            struct.pack_into(fmt, blob, offset, value)
            path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError) as exc:
            load_dataset(str(path))
        assert str(exc.value) == f"{path}: {named}"

    def test_format_sniffing(self, tmp_path):
        ds = generate_synthetic(small_spec(), seed=2)
        jpath, bpath = str(tmp_path / "a.dat"), str(tmp_path / "b.dat")
        save_jsonl(ds, jpath)
        save_binary(ds, bpath)
        assert len(load_dataset(jpath)) == len(load_dataset(bpath)) == len(ds)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.skl"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataFormatError, match="magic"):
            load_dataset(str(path))

    def test_binary_truncated(self, tmp_path):
        ds = generate_synthetic(small_spec(), seed=2)
        path = tmp_path / "t.skl"
        save_binary(ds, str(path))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataFormatError, match="bytes"):
            load_dataset(str(path))

    def test_jsonl_bad_line_numbered(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"index": 0, "label": 0, "joints": 2, "frames": 2, "coords": [0,0,0,0,0,0,0,0,0,0,0,0]}\nnot json\n')
        with pytest.raises(DataFormatError, match=":2"):
            load_dataset(str(path))

    def test_jsonl_whose_array_does_not_fit_in_memory_is_data_error(self, tmp_path):
        """The array is sized by the file's line count; one too large for the address space ends in DataFormatError."""
        path = tmp_path / "wide.jsonl"
        path.write_text(jsonl_record(0, 0, joints=20, frames=20) + "\n" * 2**19)  # 2**19 + 1 rows of 9,600 bytes
        probe = textwrap.dedent(f"""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))
            from stdcl.data import load_dataset
            from stdcl.errors import DataFormatError
            try:
                load_dataset({str(path)!r})
            except DataFormatError as exc:
                print(exc)
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.startswith(f"{path}:1: malformed record: Unable to allocate")

    def test_jsonl_wrong_coord_count(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"index": 0, "label": 0, "joints": 2, "frames": 2, "coords": [1.0]}\n')
        with pytest.raises(DataFormatError, match="expected 12"):
            load_dataset(str(path))

    @pytest.mark.parametrize("field, value", [
        ("label", True),
        ("label", 10**30),
        ("label", -1),
        ("joints", "2"),
        ("frames", 2.0),
        ("joints", 0),
        ("index", 0.9),
        ("index", 2**31),
        ("coords", ["0"] * 12),
        ("coords", [0.0] * 11 + [False]),
        ("coords", [[0.0] * 3] * 4),
        ("coords", [0.0] * 11 + [None]),
        ("coords", [0.0] * 11 + [True]),
        ("coords", [0.0] * 11 + [{}]),
        ("coords", "0" * 12),
    ])
    def test_jsonl_fields_must_be_json_integers_and_numbers(self, tmp_path, field, value):
        record = {"index": 0, "label": 0, "joints": 2, "frames": 2, "coords": [0.0] * 12, field: value}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DataFormatError, match=":1"):
            load_dataset(str(path))

    def test_round9_matches_python_round_bit_for_bit(self):
        rng = np.random.default_rng(11)
        odd = rng.integers(-2**20, 2**20, size=2000) * 2 + 1
        binary_halves = odd * 2.0**-10  # x * 1e9 is exactly n + 0.5
        decimal_halves = (rng.integers(-10**12, 10**12, size=2000) + 0.5) / 1e9
        edges = np.array([0.0, -0.0, 5e-10, -5e-10, 1.5e-9, 2.5e-9, 1e-300, -1e-300, 5e-324,
                          1e300, -1e300, 2.0**52 / 1e9, 2.0**52, 1.7976931348623157e308])
        values = np.concatenate([
            edges,
            *(np.nextafter(h, toward) for h in (binary_halves, decimal_halves) for toward in (-np.inf, np.inf)),
            binary_halves,
            decimal_halves,
            rng.standard_normal(5000) * 10.0 ** rng.integers(-12, 8, size=5000),
        ])
        got = _round9(values)
        want = np.array([round(float(v), 9) for v in values])
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert np.signbit(_round9(np.array([-0.0, -1e-300, -4e-10]))).all()

    def test_jsonl_bytes_match_per_value_rounding(self, tmp_path):
        ds = generate_synthetic(small_spec(per_class=4), seed=9)
        path = tmp_path / "d.jsonl"
        save_jsonl(ds, str(path))
        want = "".join(
            json.dumps({
                "index": seq.index,
                "label": seq.label,
                "joints": ds.joints,
                "frames": ds.frames,
                "coords": [round(float(v), 9) for v in seq.coords.reshape(-1)],
            }) + "\n"
            for seq in ds
        )
        assert path.read_bytes() == want.encode("utf-8")

    def test_jsonl_bytes_match_across_writer_chunks(self, tmp_path):
        ds = generate_synthetic(small_spec(per_class=JSONL_CHUNK // 2 + 1), seed=9)
        assert len(ds) > 2 * JSONL_CHUNK and len(ds) % JSONL_CHUNK
        # values the numpy formatter hands back to json.dumps (3e-5, -2e6) and
        # one whose rounding _round9 recomputes with round()
        planted = (3e-5, -2e6, 0.4098311425)
        for i in (0, len(ds) // 2, len(ds) - 1):
            ds[i].coords[0, 1, :] = planted
        path = tmp_path / "d.jsonl"
        save_jsonl(ds, str(path))
        want = "".join(
            json.dumps({
                "index": seq.index,
                "label": seq.label,
                "joints": ds.joints,
                "frames": ds.frames,
                "coords": [round(float(v), 9) for v in seq.coords.reshape(-1)],
            }) + "\n"
            for seq in ds
        )
        assert path.read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("name", ["d.jsonl", "d.skl"])
    def test_failed_save_leaves_existing_file(self, tmp_path, monkeypatch, name):
        ds = generate_synthetic(small_spec(per_class=JSONL_CHUNK // 2 + 1), seed=3)
        path = tmp_path / name
        path.write_bytes(b"old contents")

        class FailingFile:
            """Passes the first write to the real file and fails every later one."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, chunk):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("disk full")
                return self.f.write(chunk)

        with monkeypatch.context() as m:
            m.setattr(data, "open", lambda *a, **kw: FailingFile(builtins.open(*a, **kw)), raising=False)
            with pytest.raises(OSError, match="disk full"):
                save_dataset(ds, str(path))
        assert path.read_bytes() == b"old contents"
        assert os.listdir(tmp_path) == [name]
        save_dataset(ds, str(path))
        assert len(load_dataset(str(path))) == len(ds)
        assert os.listdir(tmp_path) == [name]

    def test_byte_identical_rewrites(self, tmp_path):
        ds = generate_synthetic(small_spec(), seed=4)
        p1, p2 = tmp_path / "1.jsonl", tmp_path / "2.jsonl"
        save_jsonl(ds, str(p1))
        save_jsonl(ds, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        b1, b2 = tmp_path / "1.skl", tmp_path / "2.skl"
        save_binary(ds, str(b1))
        save_binary(ds, str(b2))
        assert b1.read_bytes() == b2.read_bytes()


@settings(max_examples=20, deadline=None)
@given(
    joints=st.integers(2, 10),
    frames=st.integers(8, 30),
    num_spatial=st.integers(1, 3),
    num_temporal=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_generator_invariants(joints, frames, num_spatial, num_temporal, seed):
    if num_spatial * num_temporal < 2:
        return
    if num_spatial > (joints - 1) * 3 or num_temporal > frames // 2:
        return
    spec = SyntheticSpec(
        joints=joints, frames=frames, num_spatial=num_spatial,
        num_temporal=num_temporal, per_class=2, noise_std=0.02,
    )
    ds = generate_synthetic(spec, seed=seed)
    assert len(ds) == spec.length
    assert ds.joints == joints and ds.frames == frames
    labels = ds.labels()
    assert labels.min() >= 0 and labels.max() < spec.num_classes
    assert np.isfinite(np.stack([s.coords for s in ds])).all()


def _ulps(x: float, k: int) -> float:
    """The double `k` steps from the positive double `x`."""
    return float((np.float64(x).view(np.int64) + k).view(np.float64))


_ROUND9_EDGES = [0.0, -0.0, 5e-10, -5e-10, 1.5e-9, 2.5e-9, 1e-300, -1e-300, 5e-324, 1e300, -1e300,
                 2.0**52 / 1e9, 2.0**52, 1.7976931348623157e308]
_steps = st.integers(-3, 3)
_sign = st.sampled_from([1.0, -1.0])
_coordinate = st.one_of(
    st.sampled_from(_ROUND9_EDGES),
    # the _round9 test's binary and decimal half-way points, and their neighbours
    st.builds(lambda k, d, s: s * _ulps((2 * k + 1) * 2.0**-10, d), st.integers(0, 2**20), _steps, _sign),
    st.builds(lambda k, d, s: s * _ulps((k + 0.5) / 1e9, d), st.integers(0, 10**12), _steps, _sign),
    # the edges of the numpy formatter's domain, and of _round9's
    st.builds(lambda x, d, s: s * _ulps(x, d), st.sampled_from([1e-4, 5e-5, 1e6, 1e7, 2.0**52 / 1e9]), _steps, _sign),
    st.builds(lambda m, s: s * float(np.int64(m).view(np.float64)), st.integers(1, 2**52 - 1), _sign),  # subnormals
    st.sampled_from([1e300, -1e300]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-12, 7)),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_coordinate, min_size=1, max_size=12))
def test_json_arrays_match_json_dumps(values):
    one_row = np.array([values])
    assert _json_arrays(one_row) == [json.dumps([round(float(v), 9) for v in values])]
    assert _json_arrays(one_row.T) == [json.dumps([round(float(v), 9)]) for v in values]


_number = st.one_of(st.floats(-1e3, 1e3), st.integers(-10, 10))
_non_number = st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.lists(_number, max_size=2), st.just({}))


@settings(max_examples=200, deadline=None)
@given(coords=st.lists(_number, min_size=12, max_size=12),
       intruder=st.none() | st.tuples(st.integers(0, 11), _non_number),
       extra=st.dictionaries(st.text(max_size=4), _number | _non_number, max_size=2), extra_first=st.booleans())
def test_jsonl_coords_load_exactly_when_all_are_numbers(tmp_path_factory, coords, intruder, extra, extra_first):
    """Whatever other fields a record carries, and wherever they sit, only numeric coords load."""
    if intruder is not None:
        coords[intruder[0]] = intruder[1]
    fields = {"index": 0, "label": 0, "joints": 2, "frames": 2, "coords": coords}
    extra = {k: v for k, v in extra.items() if k not in fields}
    path = tmp_path_factory.mktemp("coords") / "d.jsonl"
    path.write_text(json.dumps({**extra, **fields} if extra_first else {**fields, **extra}) + "\n")
    if intruder is None:
        np.testing.assert_array_equal(load_dataset(str(path))[0].coords.reshape(-1), coords)
    else:
        with pytest.raises(DataFormatError, match=":1"):
            load_dataset(str(path))


@pytest.fixture(scope="module")
def dataset_files(tmp_path_factory):
    """The bytes of one small dataset in each file format."""
    ds = generate_synthetic(SyntheticSpec(joints=2, frames=4, num_spatial=2, num_temporal=1, per_class=2), seed=5)
    blobs = {}
    for fmt, name in (("jsonl", "d.jsonl"), ("binary", "d.skl")):
        path = tmp_path_factory.mktemp("fuzz") / name
        save_dataset(ds, str(path), fmt)
        blobs[fmt] = path.read_bytes()
    return blobs


def load_or_data_error(tmp_path_factory, blob: bytes) -> None:
    """Loading `blob` returns a dataset or raises a DataFormatError that names the file, nothing else."""
    path = tmp_path_factory.mktemp("damaged") / "d.dat"
    path.write_bytes(blob)
    try:
        load_dataset(str(path))
    except DataFormatError as exc:
        assert str(exc).startswith(f"{path}:"), exc


FORMATS = st.sampled_from(["jsonl", "binary"])


@settings(max_examples=150, deadline=None)
@given(fmt=FORMATS, keep=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_dataset_loads_or_raises_data_error(dataset_files, tmp_path_factory, fmt, keep):
    blob = dataset_files[fmt]
    load_or_data_error(tmp_path_factory, blob[: int(keep * len(blob))])


@settings(max_examples=300, deadline=None)
@given(fmt=FORMATS, flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7)),
                                   min_size=1, max_size=4))
def test_bit_flipped_dataset_loads_or_raises_data_error(dataset_files, tmp_path_factory, fmt, flips):
    blob = bytearray(dataset_files[fmt])
    for at, bit in flips:
        blob[int(at * len(blob))] ^= 1 << bit
    load_or_data_error(tmp_path_factory, bytes(blob))


@settings(max_examples=100, deadline=None)
@given(fmt=FORMATS, at=st.floats(0.0, 1.0, exclude_max=True), key=st.sampled_from(
    ["index", "label", "joints", "frames", "coords"]))
def test_dataset_with_a_dropped_field_raises_data_error(dataset_files, tmp_path_factory, fmt, at, key):
    """JSONL: one record loses a key.  SKL1: one 4-byte field (a header value, label or index) is cut out."""
    blob = dataset_files[fmt]
    if fmt == "jsonl":
        lines = blob.decode().splitlines()
        line = int(at * len(lines))
        record = json.loads(lines[line])
        del record[key]
        lines[line] = json.dumps(record)
        blob = ("\n".join(lines) + "\n").encode()
    else:
        field = 1 + int(at * (len(blob) // 4 - 1))  # any 4-byte word after the magic
        blob = blob[: 4 * field] + blob[4 * field + 4 :]
    path = tmp_path_factory.mktemp("dropped") / "d.dat"
    path.write_bytes(blob)
    with pytest.raises(DataFormatError):
        load_dataset(str(path))
