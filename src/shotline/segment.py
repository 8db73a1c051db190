"""Shot boundary detection by adaptive-threshold histogram differencing.

A cut is declared where the chi-square distance between adjacent frame
histograms spikes above the recent score statistics. This targets the
hard cuts that dominate movie and trailer editing; gradual transitions
are only found if their per-frame score clears the same bar.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binio import read_tsv
from .frames import FrameSequence

CHI_SQUARE_EPS = 1e-10


@dataclass(frozen=True)
class SegmenterParams:
    hue_bins: int = 8
    sat_bins: int = 4
    val_bins: int = 4
    window: int = 24
    threshold_scale: float = 4.0
    min_shot_len: int = 8
    score_floor: float = 0.2

    def __post_init__(self):
        for name in ("hue_bins", "sat_bins", "val_bins", "window", "min_shot_len"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.threshold_scale <= 0 or self.score_floor <= 0:
            raise ValueError("threshold_scale and score_floor must be positive")

    @property
    def total_bins(self) -> int:
        return self.hue_bins * self.sat_bins * self.val_bins


@dataclass(frozen=True, order=True)
class Shot:
    """Half-open frame range [start, end) of one coherent shot."""

    video_id: str
    ordinal: int
    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"empty shot range [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start


def _hsv_bin_indices(frames: np.ndarray, params: SegmenterParams) -> np.ndarray:
    """Joint HSV bin index per pixel, for frames shaped (..., h, w, 3)."""
    rgb = frames.astype(np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
    delta = mx - mn
    safe = np.where(delta == 0, 1.0, delta)
    hue = np.zeros_like(mx)
    is_r = (mx == r) & (delta > 0)
    is_g = (mx == g) & (delta > 0) & ~is_r
    is_b = (delta > 0) & ~is_r & ~is_g
    hue = np.where(is_r, ((g - b) / safe) % 6.0, hue)
    hue = np.where(is_g, (b - r) / safe + 2.0, hue)
    hue = np.where(is_b, (r - g) / safe + 4.0, hue)
    hue *= 60.0
    sat = np.where(mx > 0, delta / np.where(mx == 0, 1.0, mx), 0.0)
    val = mx
    hb = np.minimum((hue / 360.0 * params.hue_bins).astype(np.int64), params.hue_bins - 1)
    sb = np.minimum((sat * params.sat_bins).astype(np.int64), params.sat_bins - 1)
    vb = np.minimum((val * params.val_bins).astype(np.int64), params.val_bins - 1)
    return (hb * params.sat_bins + sb) * params.val_bins + vb


def frame_histogram(frame: np.ndarray, params: SegmenterParams | None = None) -> np.ndarray:
    """L1-normalized joint HSV histogram of one RGB frame."""
    params = params or SegmenterParams()
    idx = _hsv_bin_indices(np.asarray(frame), params)
    counts = np.bincount(idx.reshape(-1), minlength=params.total_bins)
    return counts / idx.size


def sequence_histograms(seq: FrameSequence, params: SegmenterParams) -> np.ndarray:
    """Per-frame histograms, shape (frame_count, total_bins).

    One frame at a time, so the float HSV conversion never holds more than
    a frame; this is the same histogram the descriptor uses.
    """
    return np.stack([frame_histogram(frame, params) for frame in seq.frames])


def boundary_score(h1: np.ndarray, h2: np.ndarray) -> float:
    """Chi-square distance between two unit-sum histograms."""
    h1 = np.asarray(h1, dtype=np.float64)
    h2 = np.asarray(h2, dtype=np.float64)
    if h1.shape != h2.shape:
        raise ValueError(f"histogram length mismatch: {h1.shape} vs {h2.shape}")
    diff = h1 - h2
    return float((diff * diff / (h1 + h2 + CHI_SQUARE_EPS)).sum())


def detect_shots(seq: FrameSequence, params: SegmenterParams | None = None,
                 video_id: str = "video") -> list[Shot]:
    """Partition a frame sequence into shots tiling [0, frame_count).

    A cut lands before frame t when its boundary score exceeds both the
    adaptive threshold (mean + threshold_scale * std over the trailing
    window of scores) and the absolute floor. Shots shorter than
    min_shot_len are merged into their predecessor (the first shot, which
    has none, merges forward).
    """
    params = params or SegmenterParams()
    total = seq.frame_count
    if total == 0:
        raise ValueError("detect_shots: empty frame sequence")
    if total == 1:
        return [Shot(video_id, 0, 0, 1)]

    hists = sequence_histograms(seq, params)
    diff = hists[1:] - hists[:-1]
    scores = (diff * diff / (hists[1:] + hists[:-1] + CHI_SQUARE_EPS)).sum(axis=1)

    cuts = []
    for i in range(scores.shape[0]):
        window = scores[max(0, i - params.window):i]
        if window.size:
            threshold = window.mean() + params.threshold_scale * window.std()
        else:
            threshold = 0.0
        if scores[i] > threshold and scores[i] > params.score_floor:
            cuts.append(i + 1)

    bounds = [0] + cuts + [total]
    spans = [[bounds[i], bounds[i + 1]] for i in range(len(bounds) - 1)]

    merged: list[list[int]] = []
    for span in spans:
        if merged and span[1] - span[0] < params.min_shot_len:
            merged[-1][1] = span[1]
        else:
            merged.append(span)
    if len(merged) > 1 and merged[0][1] - merged[0][0] < params.min_shot_len:
        merged[1][0] = merged[0][0]
        merged.pop(0)

    return [Shot(video_id, i, s, e) for i, (s, e) in enumerate(merged)]


def write_shot_list(path, shots: list[Shot]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for shot in shots:
            fh.write(f"{shot.video_id}\t{shot.ordinal}\t{shot.start}\t{shot.end}\n")


def read_shot_list(path) -> list[Shot]:
    return read_tsv(path, 4, lambda p: Shot(p[0], int(p[1]), int(p[2]), int(p[3])))
