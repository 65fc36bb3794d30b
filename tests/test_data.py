"""Dataset containers, the synthetic generator's factor structure, file formats."""

import builtins
import json
import os

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


def small_spec(**kw):
    defaults = dict(joints=6, frames=16, num_spatial=2, num_temporal=2, per_class=3, noise_std=0.05)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


class TestContainers:
    def test_sequence_validation(self):
        with pytest.raises(DataFormatError, match="joints, frames, 3"):
            SkeletonSequence(coords=np.zeros((4, 5)), label=0, index=0)
        with pytest.raises(DataFormatError, match="non-finite"):
            SkeletonSequence(coords=np.full((2, 3, 3), np.nan), label=0, index=0)
        with pytest.raises(DataFormatError, match="negative label"):
            SkeletonSequence(coords=np.zeros((2, 3, 3)), label=-1, index=0)

    def test_dataset_index_contract(self):
        seqs = [SkeletonSequence(np.zeros((2, 4, 3)), label=0, index=i) for i in (0, 2)]
        with pytest.raises(DataFormatError, match="0..len-1"):
            SkeletonDataset(sequences=seqs, num_classes=2)

    def test_dataset_shape_consistency(self):
        seqs = [
            SkeletonSequence(np.zeros((2, 4, 3)), label=0, index=0),
            SkeletonSequence(np.zeros((2, 5, 3)), label=1, index=1),
        ]
        with pytest.raises(DataFormatError, match="differs"):
            SkeletonDataset(sequences=seqs, num_classes=2)

    def test_label_range_enforced(self):
        seqs = [SkeletonSequence(np.zeros((2, 4, 3)), label=5, index=0),
                SkeletonSequence(np.zeros((2, 4, 3)), label=0, index=1)]
        with pytest.raises(DataFormatError, match="outside"):
            SkeletonDataset(sequences=seqs, num_classes=2)


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

    def test_jsonl_wrong_coord_count(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"index": 0, "label": 0, "joints": 2, "frames": 2, "coords": [1.0]}\n')
        with pytest.raises(DataFormatError, match="expected 12"):
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
                "joints": seq.joints,
                "frames": seq.frames,
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
                "joints": seq.joints,
                "frames": seq.frames,
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
