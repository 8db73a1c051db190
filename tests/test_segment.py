import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotline import segment
from shotline.binio import FormatError
from shotline.frames import FrameSequence, read_fseq, write_fseq
from shotline.segment import (HUE_BINS, MIN_SHOT_LEN, SAT_BINS, THRESHOLD_SCALE, TOTAL_BINS,
                              VAL_BINS, WINDOW, Shot, boundary_scores, detect_shots,
                              frame_histogram, read_shot_list, write_shot_list)

from _util import fill_disk_after


def solid_frame(rgb, h=16, w=16):
    return np.full((h, w, 3), rgb, dtype=np.uint8)


def color_sequence(segments, h=16, w=16, noise_sigma=0.0, seed=0):
    """Frames from (rgb, length) segments, with optional pixel noise."""
    rng = np.random.default_rng(seed)
    frames = []
    for rgb, length in segments:
        for _ in range(length):
            frame = np.full((h, w, 3), rgb, dtype=np.float64)
            if noise_sigma > 0:
                frame = frame + rng.normal(0, noise_sigma, frame.shape)
            frames.append(np.clip(frame, 0, 255).astype(np.uint8))
    return FrameSequence(np.stack(frames))


# -- the float64 oracle -----------------------------------------------------------


def oracle_bin_indices(frames: np.ndarray) -> np.ndarray:
    """Joint HSV bin index per pixel by the float64 formulas, one pass per
    step: the reference the table-driven kernel must match exactly."""
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
    hb = np.minimum((hue / 360.0 * HUE_BINS).astype(np.int64), HUE_BINS - 1)
    sb = np.minimum((sat * SAT_BINS).astype(np.int64), SAT_BINS - 1)
    vb = np.minimum((val * VAL_BINS).astype(np.int64), VAL_BINS - 1)
    return (hb * SAT_BINS + sb) * VAL_BINS + vb


def oracle_histogram(frame: np.ndarray) -> np.ndarray:
    idx = oracle_bin_indices(frame)
    return np.bincount(idx.reshape(-1), minlength=TOTAL_BINS) / idx.size


def rgb_triples(start: int, stop: int, step: int = 1) -> np.ndarray:
    """The RGB triples whose 24-bit codes are range(start, stop, step), shape (n, 3)."""
    codes = np.arange(start, stop, step, dtype=np.uint32)
    return np.stack([codes >> 16, (codes >> 8) & 255, codes & 255], axis=-1).astype(np.uint8)


def test_kernel_bins_every_rgb_triple_like_the_oracle():
    block = 1 << 21
    for start in range(0, 1 << 24, block):
        pixels = rgb_triples(start, start + block)
        got = segment._bin_indices(pixels)
        want = oracle_bin_indices(pixels)
        bad = np.flatnonzero(got != want)
        assert bad.size == 0, (f"{bad.size} triples differ, first {pixels[bad[0]].tolist()}: "
                               f"bin {got[bad[0]]} vs {want[bad[0]]}")


@pytest.mark.parametrize("count", [1, 15, 16, 17, 33])
def test_sequence_histograms_match_the_oracle_across_chunk_edges(count):
    assert segment.HISTOGRAM_CHUNK == 16
    rng = np.random.default_rng(count)
    frames = rng.integers(0, 256, (count, 7, 9, 3), dtype=np.uint8)
    frames[count // 2] = frames[0]  # repeated frames must not share counts across rows
    hists = segment.sequence_histograms(FrameSequence(frames))
    want = np.stack([oracle_histogram(frame) for frame in frames])
    assert hists.shape == (count, TOTAL_BINS)
    assert np.array_equal(hists, want)
    for t in (0, count - 1):
        assert np.array_equal(frame_histogram(frames[t]), want[t])


def oracle_detect_shots(seq, video_id):
    """detect_shots with the oracle's per-frame histograms swapped in."""
    original = segment.sequence_histograms
    segment.sequence_histograms = lambda s: np.stack([oracle_histogram(f) for f in s.frames])
    try:
        return detect_shots(seq, video_id=video_id)
    finally:
        segment.sequence_histograms = original


@given(st.lists(st.tuples(st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)),
                          st.integers(1, 30)), min_size=1, max_size=5),
       st.floats(0.0, 40.0), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_detect_shots_matches_an_oracle_histogram_detector(segments, noise_sigma, seed):
    seq = color_sequence(segments, h=6, w=8, noise_sigma=noise_sigma, seed=seed)
    assert detect_shots(seq, "v") == oracle_detect_shots(seq, "v")


def loop_cut_thresholds(scores):
    """The per-score loop cut_thresholds replaced: one window.mean() and
    window.std() over the trailing window of each score."""
    out = np.zeros(scores.shape[0])
    for i in range(scores.shape[0]):
        window = scores[max(0, i - WINDOW):i]
        if window.size:
            out[i] = window.mean() + THRESHOLD_SCALE * window.std()
    return out


@given(st.integers(0, 3000), st.sampled_from(["uniform", "spiky", "steps"]),
       st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_cut_thresholds_equal_the_per_score_loop(count, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        scores = rng.uniform(0, 2, count)
    elif kind == "spiky":
        scores = rng.exponential(0.05, count) + (rng.random(count) < 0.05) * rng.uniform(1, 50, count)
    else:  # long runs of one value, where a rolling sum would drift
        scores = np.repeat(rng.uniform(0, 1, count // 7 + 1), 7)[:count]
    got = segment.cut_thresholds(scores)
    assert got.dtype == np.float64 and got.tobytes() == loop_cut_thresholds(scores).tobytes()


@given(st.lists(st.tuples(st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)),
                          st.integers(1, 40)), min_size=1, max_size=6),
       st.floats(0.0, 40.0), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_detect_shots_matches_the_per_score_threshold_loop(segments, noise_sigma, seed):
    seq = color_sequence(segments, h=6, w=8, noise_sigma=noise_sigma, seed=seed)
    got = detect_shots(seq, "v")
    original = segment.cut_thresholds
    segment.cut_thresholds = loop_cut_thresholds
    try:
        want = detect_shots(seq, "v")
    finally:
        segment.cut_thresholds = original
    assert got == want


@pytest.mark.parametrize("frame, message", [
    (np.zeros((4, 4, 3), dtype=np.float64), "uint8 pixels, got float64"),
    (np.zeros((4, 4, 3), dtype=np.int64), "uint8 pixels, got int64"),
    (np.zeros((4, 4), dtype=np.uint8), r"\(height, width, 3\) .*, got \(4, 4\)"),
    (np.zeros((4, 4, 4), dtype=np.uint8), r"got \(4, 4, 4\)"),
    (np.zeros((2, 4, 4, 3), dtype=np.uint8), r"got \(2, 4, 4, 3\)"),
    (np.zeros((0, 4, 3), dtype=np.uint8), r"at least one pixel, got \(0, 4, 3\)"),
])
def test_frame_histogram_rejects_frames_the_tables_cannot_index(frame, message):
    with pytest.raises(ValueError, match=message):
        frame_histogram(frame)


def test_sequence_histograms_rejects_frames_the_tables_cannot_index():
    seq = FrameSequence(np.zeros((2, 4, 4, 3), dtype=np.uint8))
    seq.frames = seq.frames.astype(np.float32)
    with pytest.raises(ValueError, match="uint8 pixels, got float32"):
        segment.sequence_histograms(seq)
    with pytest.raises(ValueError, match=r"at least one pixel, got \(2, 4, 0, 3\)"):
        segment.sequence_histograms(FrameSequence(np.zeros((2, 4, 0, 3), np.uint8)))


# -- histograms ---------------------------------------------------------------

def test_histogram_solid_color_single_bin():
    hist = frame_histogram(solid_frame((255, 0, 0)))
    assert hist.max() == 1.0
    assert (hist > 0).sum() == 1
    assert abs(hist.sum() - 1.0) < 1e-12


def test_histogram_hue_rotation_changes_bins():
    # same saturation and value, hue moved by 120 degrees
    red = frame_histogram(solid_frame((200, 40, 40)))
    green = frame_histogram(solid_frame((40, 200, 40)))
    assert not np.array_equal(red, green)


def test_histogram_two_color_split():
    frame = np.zeros((10, 10, 3), dtype=np.uint8)
    frame[:5] = (255, 0, 0)
    frame[5:] = (0, 0, 255)
    hist = frame_histogram(frame)
    expected = np.zeros(128)
    for half in (solid_frame((255, 0, 0), 5, 10), solid_frame((0, 0, 255), 5, 10)):
        expected += frame_histogram(half) * 0.5
    assert np.allclose(hist, expected)
    assert sorted(hist[hist > 0].tolist()) == [0.5, 0.5]


def test_boundary_score_identical_is_zero():
    hist = frame_histogram(solid_frame((12, 200, 99)))
    assert boundary_scores(np.stack([hist, hist])).tolist() == [0.0]


def test_boundary_score_disjoint_one_hots():
    hists = np.zeros((2, 128))
    hists[0, 3] = 1.0
    hists[1, 40] = 1.0
    assert abs(boundary_scores(hists)[0] - 2.0) < 1e-6


def test_boundary_score_matches_direct_sum():
    rng = np.random.default_rng(5)
    hists = rng.random((4, 128))
    hists /= hists.sum(axis=1, keepdims=True)
    direct = [sum((a - b) ** 2 / (a + b + 1e-10) for a, b in zip(h1, h2))
              for h1, h2 in zip(hists[:-1], hists[1:])]
    assert np.abs(boundary_scores(hists) - direct).max() < 1e-12


def test_boundary_scores_need_a_stack_of_histograms():
    with pytest.raises(ValueError):
        boundary_scores(np.ones(4) / 4)


# -- detection ------------------------------------------------------------------

def test_one_frame_is_one_shot():
    assert detect_shots(color_sequence([((9, 9, 9), 1)]), video_id="v") == [Shot("v", 0, 0, 1)]


def test_constant_sequence_is_one_shot():
    seq = color_sequence([((0, 128, 255), 100)])
    shots = detect_shots(seq, video_id="v")
    assert shots == [Shot("v", 0, 0, 100)]


def test_red_blue_cut_recovered_exactly():
    seq = color_sequence([((255, 0, 0), 50), ((0, 0, 255), 50)])
    shots = detect_shots(seq, video_id="v")
    assert [(s.start, s.end) for s in shots] == [(0, 50), (50, 100)]


def test_five_segments_recovered():
    colors = [(255, 0, 0), (0, 255, 0), (0, 0, 255), (255, 255, 0), (128, 0, 200)]
    lengths = [20, 13, 31, 9, 27]
    seq = color_sequence(list(zip(colors, lengths)), noise_sigma=4.0, seed=3)
    shots = detect_shots(seq, video_id="v")
    expected_bounds = np.cumsum(lengths)[:-1].tolist()
    assert [s.start for s in shots[1:]] == expected_bounds


def test_empty_sequence_rejected():
    with pytest.raises(ValueError, match="empty"):
        detect_shots(FrameSequence(np.zeros((0, 4, 4, 3), dtype=np.uint8)))


def test_short_shots_merge_into_predecessor():
    # middle segment shorter than min_shot_len disappears into its predecessor
    seq = color_sequence([((255, 0, 0), 30), ((0, 255, 0), 3), ((0, 0, 255), 30)])
    shots = detect_shots(seq, video_id="v")
    assert sum(s.length for s in shots) == 63
    assert all(s.length >= MIN_SHOT_LEN for s in shots)
    assert [(s.start, s.end) for s in shots] == [(0, 33), (33, 63)]


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 40)), min_size=1, max_size=6),
       st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_shots_always_tile_input(segments, seed):
    palette = [(255, 0, 0), (0, 255, 0), (0, 0, 255), (200, 200, 0), (0, 180, 180), (90, 90, 90)]
    seq = color_sequence([(palette[c], n) for c, n in segments], noise_sigma=6.0, seed=seed)
    shots = detect_shots(seq, video_id="v")
    assert shots[0].start == 0
    assert shots[-1].end == seq.frame_count
    for a, b in zip(shots, shots[1:]):
        assert a.end == b.start
    assert [s.ordinal for s in shots] == list(range(len(shots)))


def test_detection_is_deterministic():
    seq = color_sequence([((255, 0, 0), 40), ((0, 0, 255), 40)], noise_sigma=8.0, seed=9)
    assert detect_shots(seq) == detect_shots(seq)


def test_noisy_cut_benchmark_small():
    # the full 200-sequence benchmark runs in the acceptance suite
    rng = np.random.default_rng(77)
    palette = [(230, 30, 30), (30, 230, 30), (30, 30, 230), (220, 220, 30), (150, 30, 220)]
    hits = total_true = total_pred = 0
    for i in range(20):
        k = int(rng.integers(2, 5))
        colors = rng.choice(len(palette), size=k, replace=False)
        lengths = rng.integers(10, 40, size=k)
        seq = color_sequence([(palette[c], int(n)) for c, n in zip(colors, lengths)],
                             noise_sigma=8.0, seed=1000 + i)
        true_cuts = set(np.cumsum(lengths)[:-1].tolist())
        pred_cuts = {s.start for s in detect_shots(seq)[1:]}
        hits += len(true_cuts & pred_cuts)
        total_true += len(true_cuts)
        total_pred += len(pred_cuts)
    assert hits / total_true >= 0.95
    assert hits / total_pred >= 0.95


# -- io -----------------------------------------------------------------------------

def test_shot_validation():
    with pytest.raises(ValueError):
        Shot("v", 0, 5, 5)


def test_shot_list_round_trip(tmp_path):
    shots = [Shot("vid a", 0, 0, 10), Shot("vid a", 1, 10, 25)]
    path = tmp_path / "shots.tsv"
    write_shot_list(path, shots)
    assert read_shot_list(path) == shots
    assert path.read_text() == "vid a\t0\t0\t10\nvid a\t1\t10\t25\n"


def test_fseq_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    seq = FrameSequence(rng.integers(0, 256, (7, 6, 5, 3), dtype=np.uint8).astype(np.uint8))
    path = tmp_path / "clip.fseq"
    write_fseq(path, seq)
    loaded = read_fseq(path)
    assert np.array_equal(loaded.frames, seq.frames)
    write_fseq(tmp_path / "clip2.fseq", loaded)
    assert path.read_bytes() == (tmp_path / "clip2.fseq").read_bytes()


@pytest.mark.parametrize("budget", [21, 100])
def test_a_failed_fseq_write_leaves_the_old_clip(tmp_path, monkeypatch, budget):
    # the header is 21 bytes, so the write fails in the frame data
    path = tmp_path / "clip.fseq"
    write_fseq(path, FrameSequence(np.zeros((2, 4, 4, 3), dtype=np.uint8)))
    old = path.read_bytes()
    fill_disk_after(monkeypatch, budget)
    with pytest.raises(OSError, match="No space left"):
        write_fseq(path, FrameSequence(np.full((5, 6, 7, 3), 9, dtype=np.uint8)))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["clip.fseq"]


def test_fseq_truncation_reports_offset(tmp_path):
    seq = FrameSequence(np.zeros((3, 4, 4, 3), dtype=np.uint8))
    path = tmp_path / "clip.fseq"
    write_fseq(path, seq)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError, match=r"clip\.fseq: truncated file reading frame data "
                                          r"at byte 21: 3 frames of 4x4 need 144 bytes, 139 left"):
        read_fseq(path)


def fseq_header(width, height, count, channels=3):
    return b"FSEQ" + struct.pack("<IIIBI", 1, width, height, channels, count)


def test_fseq_huge_declared_size_fails_before_allocating(tmp_path):
    path = tmp_path / "huge.fseq"
    path.write_bytes(fseq_header(60000, 60000, 100000) + bytes(12))
    with pytest.raises(FormatError, match=r"huge\.fseq: truncated file reading frame data "
                                          r"at byte 21: 100000 frames of 60000x60000"):
        read_fseq(path)


def test_fseq_header_errors_name_the_file(tmp_path):
    path = tmp_path / "clip.fseq"
    path.write_bytes(fseq_header(2, 1, 1, channels=4) + bytes(8))
    with pytest.raises(FormatError, match=r"clip\.fseq: expected 3 channels, got 4"):
        read_fseq(path)
    path.write_bytes(b"FSEX" + bytes(20))
    with pytest.raises(FormatError, match=r"clip\.fseq: bad magic"):
        read_fseq(path)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_fseq_truncated_or_padded_anywhere_fails_naming_the_file(tmp_path_factory, count,
                                                                 height, width, data):
    rng = np.random.default_rng(count * 25 + height * 5 + width)
    seq = FrameSequence(rng.integers(0, 256, (count, height, width, 3), dtype=np.uint8))
    path = tmp_path_factory.mktemp("fseq") / "clip.fseq"
    write_fseq(path, seq)
    blob = path.read_bytes()
    keep = data.draw(st.integers(0, len(blob) - 1), label="keep")
    path.write_bytes(blob[:keep])
    with pytest.raises(FormatError, match=r"clip\.fseq: truncated file reading .* at byte \d+"):
        read_fseq(path)
    path.write_bytes(blob + data.draw(st.binary(min_size=1, max_size=9), label="extra"))
    with pytest.raises(FormatError, match=rf"clip\.fseq: trailing bytes at byte {len(blob)}$"):
        read_fseq(path)
    path.write_bytes(blob)
    assert np.array_equal(read_fseq(path).frames, seq.frames)
