"""Broadcast numpy intersection-over-union of every box pair.

The reference for ``tsdiag.tracker.iou`` and the per-frame overlaps of
``tsdiag.evaluation``: one array expression per quantity, with no
short-cut for disjoint pairs.
"""

import numpy as np


def iou_matrix(a, b) -> np.ndarray:
    """``iou`` of every pair: boxes a (..., n, 4) and b (..., m, 4) give (..., n, m)."""
    a = np.asarray(a, dtype=float)[..., :, None, :]
    b = np.asarray(b, dtype=float)[..., None, :, :]
    overlap = np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2])
    inter = overlap[..., 0] * overlap[..., 1]
    size_a = np.maximum(0.0, a[..., 2:] - a[..., :2])
    size_b = np.maximum(0.0, b[..., 2:] - b[..., :2])
    union = size_a[..., 0] * size_a[..., 1] + size_b[..., 0] * size_b[..., 1] - inter
    positive = (np.minimum(overlap[..., 0], overlap[..., 1]) > 0.0) & (union > 0.0)
    return np.divide(inter, union, out=np.zeros(union.shape), where=positive)
