"""Shot boundary detection by adaptive-threshold histogram differencing.

A cut is declared where the chi-square distance between adjacent frame
histograms spikes above the recent score statistics. This targets the
hard cuts that dominate movie and trailer editing; gradual transitions
are only found if their per-frame score clears the same bar.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .binio import read_tsv, write_lines
from .frames import FrameSequence

CHI_SQUARE_EPS = 1e-10
HUE_BINS, SAT_BINS, VAL_BINS = 8, 4, 4  # joint HSV histogram bins per channel
TOTAL_BINS = HUE_BINS * SAT_BINS * VAL_BINS
WINDOW = 24             # trailing boundary scores behind a cut's adaptive threshold
THRESHOLD_SCALE = 4.0   # standard deviations above the window mean a cut must reach
SCORE_FLOOR = 0.2       # a cut's boundary score must also exceed this absolute floor
MIN_SHOT_LEN = 8        # shorter shots merge into a neighbour


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


# Frames binned per pass of the histogram kernel: enough pixels to keep
# numpy's per-call overhead small, few enough that the temporaries stay
# at a few MB whatever the clip length.
HISTOGRAM_CHUNK = 16

# Hue offset of each branch code: red with g >= b, red with g < b (this is
# the wrap of ``% 6.0``), green, blue.
_HUE_OFFSETS = np.array([0.0, 6.0, 2.0, 4.0])


@functools.cache
def _bin_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables of the HSV kernel, built once.

    ``unit[x]`` is ``x / 255.0``. Indexed by ``max << 8 | min`` of a
    pixel's uint8 channels, ``safe`` is the hue divisor (the chroma, or 1
    where it is 0) and ``sat_val`` the saturation-and-value part of the
    joint bin. Each comes from the same float64 operations as the
    per-pixel HSV formulas, so a lookup returns the value they would give.
    """
    unit = np.arange(256) / 255.0
    mx = unit[:, None]
    delta = mx - unit[None, :]
    safe = np.where(delta == 0, 1.0, delta)
    sat = np.where(mx > 0, delta / np.where(mx == 0, 1.0, mx), 0.0)
    sb = np.minimum((sat * SAT_BINS).astype(np.intp), SAT_BINS - 1)
    vb = np.minimum((mx * VAL_BINS).astype(np.intp), VAL_BINS - 1)
    tables = (unit, safe.reshape(-1), (sb * VAL_BINS + vb).reshape(-1))
    for table in tables:
        table.setflags(write=False)
    return tables


def _bin_indices(frames: np.ndarray) -> np.ndarray:
    """Joint HSV bin index of every pixel of uint8 frames, flattened.

    Max, min and the hue branch are taken on the uint8 channels: ``x/255``
    is strictly increasing, so they agree with the same tests on floats.
    The hue is then one float64 subtraction and division of table values
    plus the branch offset, and is scaled and truncated as in the float
    formulation ``hue = 60 * (branch numerator / chroma + offset)``.
    """
    unit, safe, sat_val = _bin_tables()
    r, g, b = np.moveaxis(frames.reshape(-1, 3), -1, 0).copy()
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    is_r = mx == r
    not_r = ~is_r
    is_g = (mx == g) & not_r
    is_b = not_r & ~is_g
    # Masks of 0xFF select each pixel's numerator pair (np.where is several
    # times slower on random masks). A grey pixel takes the red branch: its
    # numerator is 0, and so its hue.
    m_r, m_g, m_b = (-mask.view(np.uint8) for mask in (is_r, is_g, is_b))
    num_a = (g & m_r) | (b & m_g) | (r & m_b)
    num_b = (b & m_r) | (r & m_g) | (g & m_b)
    branch = ((g < b) & is_r).view(np.uint8) | (not_r.view(np.uint8) << 1) | is_b.view(np.uint8)
    key = mx.astype(np.intp)
    key <<= 8
    key |= mn
    hue = unit.take(num_a)
    hue -= unit.take(num_b)
    hue /= safe.take(key)
    hue += _HUE_OFFSETS.take(branch)
    hue *= 60.0
    hue /= 360.0
    hue *= HUE_BINS
    idx = hue.astype(np.intp)
    np.minimum(idx, HUE_BINS - 1, out=idx)
    idx *= SAT_BINS * VAL_BINS
    idx += sat_val.take(key)
    return idx


def _check_frames(frames: np.ndarray, ndim: int, layout: str) -> None:
    if frames.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got {frames.dtype}")
    if frames.ndim != ndim or frames.shape[-1] != 3 or 0 in frames.shape[-3:-1]:
        raise ValueError(f"expected frames shaped {layout} with at least one pixel, "
                         f"got {frames.shape}")


def _histograms(frames: np.ndarray) -> np.ndarray:
    """Histograms of a (count, h, w, 3) uint8 stack, HISTOGRAM_CHUNK frames
    per pass, each counted with one offset bincount."""
    count, height, width, _ = frames.shape
    pixels = height * width
    out = np.empty((count, TOTAL_BINS))
    for start in range(0, count, HISTOGRAM_CHUNK):
        chunk = frames[start:start + HISTOGRAM_CHUNK]
        n = chunk.shape[0]
        idx = _bin_indices(chunk).reshape(n, pixels)
        idx += np.arange(0, n * TOTAL_BINS, TOTAL_BINS)[:, None]
        counts = np.bincount(idx.reshape(-1), minlength=n * TOTAL_BINS).reshape(n, TOTAL_BINS)
        np.divide(counts, pixels, out=out[start:start + n])
    return out


def frame_histogram(frame: np.ndarray) -> np.ndarray:
    """L1-normalized joint HSV histogram of one uint8 RGB frame (h, w, 3)."""
    frame = np.asarray(frame)
    _check_frames(frame, 3, "(height, width, 3)")
    return _histograms(frame[None])[0]


def sequence_histograms(seq: FrameSequence) -> np.ndarray:
    """Per-frame histograms, shape (frame_count, TOTAL_BINS); row t is
    frame_histogram of frame t."""
    _check_frames(seq.frames, 4, "(count, height, width, 3)")
    return _histograms(seq.frames)


def boundary_scores(hists: np.ndarray) -> np.ndarray:
    """Chi-square distance between each pair of adjacent rows of a
    (frames, bins) float64 array of unit-sum histograms: (frames - 1,) scores."""
    diff = hists[1:] - hists[:-1]
    return (diff * diff / (hists[1:] + hists[:-1] + CHI_SQUARE_EPS)).sum(axis=1)


def cut_thresholds(scores: np.ndarray) -> np.ndarray:
    """Adaptive threshold of every boundary score: mean + THRESHOLD_SCALE * std
    of the trailing window of up to WINDOW scores before it (0 for
    the first score). Full windows are reduced as rows of one strided view,
    with the floats of a per-window mean() and std()."""
    thresholds = np.zeros(scores.shape[0])
    for i in range(1, min(WINDOW, scores.shape[0])):
        thresholds[i] = scores[:i].mean() + THRESHOLD_SCALE * scores[:i].std()
    if scores.shape[0] > WINDOW:
        full = np.lib.stride_tricks.sliding_window_view(scores[:-1], WINDOW)
        thresholds[WINDOW:] = full.mean(axis=1) + THRESHOLD_SCALE * full.std(axis=1)
    return thresholds


def detect_shots(seq: FrameSequence, video_id: str = "video") -> list[Shot]:
    """Partition a frame sequence into shots tiling [0, frame_count).

    A cut lands before frame t when its boundary score exceeds both the
    adaptive threshold (mean + THRESHOLD_SCALE * std over the trailing
    WINDOW scores) and the absolute floor. Shots shorter than
    MIN_SHOT_LEN are merged into their predecessor (the first shot, which
    has none, merges forward).
    """
    total = seq.frame_count
    if total == 0:
        raise ValueError("detect_shots: empty frame sequence")

    scores = boundary_scores(sequence_histograms(seq))

    cuts = (np.flatnonzero((scores > cut_thresholds(scores))
                           & (scores > SCORE_FLOOR)) + 1).tolist()
    bounds = [0] + cuts + [total]
    spans = [[bounds[i], bounds[i + 1]] for i in range(len(bounds) - 1)]

    merged: list[list[int]] = []
    for span in spans:
        if merged and span[1] - span[0] < MIN_SHOT_LEN:
            merged[-1][1] = span[1]
        else:
            merged.append(span)
    if len(merged) > 1 and merged[0][1] - merged[0][0] < MIN_SHOT_LEN:
        merged[1][0] = merged[0][0]
        merged.pop(0)

    return [Shot(video_id, i, s, e) for i, (s, e) in enumerate(merged)]


def write_shot_list(path, shots: list[Shot]) -> None:
    write_lines(path, (f"{s.video_id}\t{s.ordinal}\t{s.start}\t{s.end}" for s in shots))


def read_shot_list(path) -> list[Shot]:
    return read_tsv(path, 4, lambda p: Shot(p[0], int(p[1]), int(p[2]), int(p[3])))
