"""Shot encoding: sparse frame sampling plus average pooling.

A shot feature is the mean of the descriptors of a few sampled frames.
"""
from __future__ import annotations

import numpy as np

from .features import FeatureStore
from .frames import FrameSequence
from .segment import SegmenterParams, Shot, frame_histogram


def sample_frames(shot: Shot, m: int) -> list[int]:
    """Pick m frame indices from a shot: the center frame of each of m equal
    segments. Shots shorter than m repeat indices by the same arithmetic."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return [shot.start + (2 * i + 1) * shot.length // (2 * m) for i in range(m)]


class HistogramEdgeExtractor:
    """Hand-crafted frame descriptor.

    It concatenates a 128-bin HSV histogram, an 8-bin gradient
    orientation histogram, and the intensity mean and standard deviation
    (138 values).
    """

    dim = 138
    params = SegmenterParams()

    def describe(self, frame: np.ndarray) -> np.ndarray:
        """The 138-value descriptor of one RGB frame."""
        hsv = frame_histogram(frame, self.params)
        gray = np.asarray(frame, dtype=np.float64).mean(axis=2)
        gy, gx = np.gradient(gray)
        magnitude = np.hypot(gx, gy)
        total = magnitude.sum()
        if total > 0:
            angle = np.arctan2(gy, gx)  # [-pi, pi)
            bins = np.minimum(((angle + np.pi) / (2 * np.pi) * 8).astype(np.int64), 7)
            orient = np.bincount(bins.reshape(-1), weights=magnitude.reshape(-1), minlength=8)
            orient = orient / total
        else:
            orient = np.full(8, 1.0 / 8)
        moments = np.array([gray.mean() / 255.0, gray.std() / 255.0])
        return np.concatenate([hsv, orient, moments]).astype(np.float32)


def extract_features(seq: FrameSequence, shots: list[Shot], extractor, m: int = 3) -> FeatureStore:
    """Deterministic (center-frame) shot descriptors for the cache.

    Every shot must lie inside the clip; one that does not raises.
    """
    store = FeatureStore(extractor.dim)
    for shot in shots:
        if shot.start < 0 or shot.end > seq.frame_count:
            raise ValueError(f"shot {shot.video_id}#{shot.ordinal} [{shot.start}, {shot.end}) "
                             f"lies outside the clip of {seq.frame_count} frames")
        picks = sample_frames(shot, m)
        raw = np.stack([extractor.describe(seq.frame(i)) for i in picks])
        store.add(shot.video_id, shot.ordinal, raw.mean(axis=0))
    return store
