"""Oracles for the embedding-quality metrics.

The silhouette score is the judge for the decoupling claims, so it gets an
independent loop-transcribed oracle and hand-computed fixtures, not just
range checks.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from stdcl.errors import DimensionError
from stdcl.metrics import (
    SILHOUETTE_BLOCK,
    _block_distances,
    per_class_accuracy,
    silhouette_score,
    top1_accuracy,
)


def oracle_silhouette(x: np.ndarray, labels: np.ndarray) -> float:
    """Textbook mean silhouette, written with explicit loops."""
    n = len(x)
    unique = sorted(set(labels.tolist()))
    if len(unique) < 2:
        return 0.0
    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = float(np.mean([np.linalg.norm(x[i] - x[j]) for j in own]))
        b = min(
            float(np.mean([np.linalg.norm(x[i] - x[j]) for j in range(n) if labels[j] == c]))
            for c in unique
            if c != labels[i]
        )
        scores.append(0.0 if max(a, b) == 0.0 else (b - a) / max(a, b))
    return float(np.mean(scores))


def cdist_silhouette(x: np.ndarray, labels: np.ndarray) -> float:
    """Textbook mean silhouette over a full scipy distance matrix."""
    dist = cdist(x, x)
    scores = np.zeros(len(x))
    for i in range(len(x)):
        own = labels == labels[i]
        if own.sum() == 1:
            continue
        a = dist[i, own].sum() / (own.sum() - 1)
        b = min(dist[i, labels == c].mean() for c in np.unique(labels) if c != labels[i])
        scores[i] = 0.0 if max(a, b) == 0.0 else (b - a) / max(a, b)
    return float(scores.mean())


def tiled_distances(x: np.ndarray, block: int) -> np.ndarray:
    """The full distance matrix, stacked from the helper's row blocks."""
    sq = np.sum(x * x, axis=1)
    starts = range(0, len(x), block)
    return np.vstack([_block_distances(x, sq, s, min(s + block, len(x))) for s in starts])


class TestPairwiseDistances:
    def test_matches_norm_loops(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 5))
        dist = tiled_distances(x, block=5)  # blocks of 5, 5 and 2 rows
        for i in range(12):
            for j in range(12):
                assert dist[i, j] == pytest.approx(np.linalg.norm(x[i] - x[j]), abs=1e-10)

    def test_zero_diagonal_and_symmetry(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((9, 3))
        dist = tiled_distances(x, block=4)
        assert np.allclose(np.diag(dist), 0.0)
        assert np.allclose(dist, dist.T)


class TestSilhouette:
    def test_matches_loop_oracle_on_random_data(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(4, 40))
            x = rng.standard_normal((n, 4))
            labels = rng.integers(0, int(rng.integers(2, 5)), size=n)
            got = silhouette_score(x, labels)
            want = oracle_silhouette(x, labels)
            assert got == pytest.approx(want, abs=1e-12), f"trial {trial}"

    def test_matches_cdist_oracle_across_blocks(self):
        # 700 rows: two full blocks and a partial third
        assert 2 * SILHOUETTE_BLOCK < 700 < 3 * SILHOUETTE_BLOCK
        rng = np.random.default_rng(11)
        codes = np.array([-3, 5, 12, 40])
        labels = codes[rng.integers(0, 4, size=700)]
        x = rng.standard_normal((700, 6)) + 3.0 * labels[:, None] / 40.0
        labels[SILHOUETTE_BLOCK] = 77  # a singleton class opening the second block
        x[650] = x[20]  # coincident points in different blocks
        labels[650] = labels[20]
        got = silhouette_score(x, labels)
        assert got == pytest.approx(cdist_silhouette(x, labels), rel=1e-12, abs=0.0)

    def test_memory_stays_below_one_dense_matrix(self):
        # one 3000 x 3000 float64 matrix is 68.7 MiB; blocks hold 256 rows
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3000, 8))
        labels = rng.integers(0, 5, size=3000)
        tracemalloc.start()
        try:
            silhouette_score(x, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_hand_computed_two_tight_pairs(self):
        # pairs {0,1} and {10,11}: per-point s = 19/21, 17/19, 17/19, 19/21
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        score = silhouette_score(x, np.array([0, 0, 1, 1]))
        assert score == pytest.approx((19 / 21 + 17 / 19) / 2, abs=1e-12)

    def test_hand_computed_wrong_grouping_is_negative(self):
        # same geometry, labels split across the pairs: mean s = -0.45
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        score = silhouette_score(x, np.array([0, 1, 0, 1]))
        assert score == pytest.approx(-0.45, abs=1e-12)

    def test_coincident_clusters_score_one(self):
        x = np.array([[0.0, 0.0]] * 3 + [[5.0, 0.0]] * 3)
        score = silhouette_score(x, np.array([0, 0, 0, 1, 1, 1]))
        assert score == pytest.approx(1.0, abs=1e-6)

    def test_single_label_scores_zero(self):
        assert silhouette_score(np.eye(4), np.zeros(4)) == 0.0

    def test_all_singleton_clusters_score_zero(self):
        assert silhouette_score(np.eye(4), np.arange(4)) == 0.0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((15, 3))
        labels = rng.integers(0, 3, size=15)
        remapped = np.array([10, 99, 7])[labels]
        assert silhouette_score(x, labels) == silhouette_score(x, remapped)

    def test_shape_errors(self):
        with pytest.raises(DimensionError, match="2-D"):
            silhouette_score(np.zeros(4), np.zeros(4))
        with pytest.raises(DimensionError, match="labels"):
            silhouette_score(np.eye(3), np.zeros(5))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_range_and_translation_invariance(self, data):
        n = data.draw(st.integers(3, 16))
        flat = data.draw(
            st.lists(
                st.floats(-50, 50, allow_nan=False, width=32),
                min_size=n * 2, max_size=n * 2,
            )
        )
        x = np.array(flat, dtype=np.float64).reshape(n, 2)
        labels = np.array(data.draw(
            st.lists(st.integers(0, 3), min_size=n, max_size=n)
        ))
        score = silhouette_score(x, labels)
        assert -1.0 <= score <= 1.0
        shifted = silhouette_score(x + np.array([17.0, -4.0]), labels)
        assert shifted == pytest.approx(score, abs=1e-7)


class TestAccuracy:
    def test_top1_fraction(self):
        predictions = np.array([0, 1, 2, 2, 1])
        labels = np.array([0, 1, 1, 2, 0])
        assert top1_accuracy(predictions, labels) == pytest.approx(0.6)

    def test_top1_shape_mismatch(self):
        with pytest.raises(DimensionError):
            top1_accuracy(np.zeros(3), np.zeros(4))

    def test_per_class_breakdown_with_absent_class(self):
        predictions = np.array([0, 0, 1, 1])
        labels = np.array([0, 1, 1, 1])
        out = per_class_accuracy(predictions, labels, num_classes=3)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(2 / 3)
        assert np.isnan(out[2])
