"""Embedding-quality metrics."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

SILHOUETTE_BLOCK = 256  # distance rows held at once: memory grows as 256 x n, not n x n


def _block_distances(x: np.ndarray, sq: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Euclidean distances from rows start:stop of x to every row (sq: squared row norms)."""
    d2 = (sq[start:stop, None] + sq[None, :]) - 2.0 * (x[start:stop] @ x.T)
    # the Gram expansion cancels near zero: pin self-distances to exactly 0
    np.maximum(d2, 0.0, out=d2)
    d2[np.arange(stop - start), np.arange(start, stop)] = 0.0
    return np.sqrt(d2, out=d2)


def silhouette_score(x: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over samples, streaming distances in SILHOUETTE_BLOCK-row blocks.

    Conventions for degenerate cases: a sample alone in its cluster
    scores 0, so a labeling with one point per cluster scores 0 overall;
    a single distinct label also scores 0.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2:
        raise DimensionError(f"silhouette expects a 2-D sample matrix, got shape {x.shape}")
    if x.shape[0] != labels.shape[0]:
        raise DimensionError(f"{x.shape[0]} samples but {labels.shape[0]} labels")
    unique, own = np.unique(labels, return_inverse=True)
    if unique.size < 2:
        return 0.0
    n, rows = x.shape[0], np.arange(x.shape[0])
    onehot = np.eye(unique.size)[own]
    sq = np.sum(x * x, axis=1)
    sums = np.empty((n, unique.size))  # summed distance from each sample to each cluster
    for start in range(0, n, SILHOUETTE_BLOCK):
        stop = min(start + SILHOUETTE_BLOCK, n)
        sums[start:stop] = _block_distances(x, sq, start, stop) @ onehot
    sizes = np.bincount(own)
    own_size = sizes[own]
    a = sums[rows, own] / np.maximum(own_size - 1, 1)  # exclude self (distance 0)
    means = sums / sizes
    means[rows, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)  # lone members, and samples with a == b == 0, score 0
    scores = np.divide(b - a, denom, out=np.zeros(n), where=(own_size > 1) & (denom > 0.0))
    return float(scores.mean())


def top1_accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise DimensionError(f"predictions {predictions.shape} vs labels {labels.shape}")
    return float((predictions == labels).mean())


def per_class_accuracy(predictions: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Accuracy per class; classes absent from labels report NaN."""
    out = np.full(num_classes, np.nan)
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    for c in range(num_classes):
        mask = labels == c
        if mask.any():
            out[c] = float((predictions[mask] == c).mean())
    return out
