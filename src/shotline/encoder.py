"""Shot encoding: sparse frame sampling plus average pooling.

A shot feature is the mean of the descriptors of a few sampled frames.
"""
from __future__ import annotations

import numpy as np

from .features import FeatureStore
from .frames import FrameSequence
from .segment import Shot, frame_histogram

FRAMES_PER_SHOT = 3  # frames sampled and averaged per shot


def sample_frames(shot: Shot) -> list[int]:
    """Pick FRAMES_PER_SHOT frame indices from a shot: the center frame of
    each of that many equal segments. Shorter shots repeat indices by the
    same arithmetic."""
    return [shot.start + (2 * i + 1) * shot.length // (2 * FRAMES_PER_SHOT)
            for i in range(FRAMES_PER_SHOT)]


class HistogramEdgeExtractor:
    """Hand-crafted frame descriptor.

    It concatenates a 128-bin HSV histogram, an 8-bin gradient
    orientation histogram, and the intensity mean and standard deviation
    (138 values).
    """

    dim = 138

    def describe(self, frame: np.ndarray) -> np.ndarray:
        """The 138-value descriptor of one RGB frame."""
        hsv = frame_histogram(frame)
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


def extract_features(seq: FrameSequence, shots: list[Shot]) -> FeatureStore:
    """Deterministic (center-frame) shot descriptors for the cache.

    Every shot must lie inside the clip; one that does not raises.
    """
    extractor = HistogramEdgeExtractor()
    store = FeatureStore(extractor.dim)
    for shot in shots:
        if shot.start < 0 or shot.end > seq.frame_count:
            raise ValueError(f"shot {shot.video_id}#{shot.ordinal} [{shot.start}, {shot.end}) "
                             f"lies outside the clip of {seq.frame_count} frames")
        picks = sample_frames(shot)
        raw = np.stack([extractor.describe(seq.frame(i)) for i in picks])
        store.add(shot.video_id, shot.ordinal, raw.mean(axis=0))
    return store
