import numpy as np
import pytest

from shotline import autodiff as ad
from shotline.autodiff import Tensor
from shotline.encoder import HistogramEdgeExtractor, extract_features, sample_frames
from shotline.frames import FrameSequence
from shotline.segment import TOTAL_BINS, Shot
from shotline.tags import sample_shots

from _util import check_gradients


def make_seq(colors):
    return FrameSequence(np.stack([np.full((8, 8, 3), c, dtype=np.uint8) for c in colors]))


# -- sampling -------------------------------------------------------------------

def test_sample_frames_segment_centers():
    assert sample_frames(Shot("v", 0, 0, 30)) == [5, 15, 25]


def test_sample_frames_degenerate_repeat():
    assert sample_frames(Shot("v", 0, 0, 1)) == [0, 0, 0]


def test_sample_frames_center_formula():
    assert sample_frames(Shot("v", 0, 10, 16)) == [11, 13, 15]


def test_sample_shots_with_replacement_when_short():
    picks = sample_shots(3, 8, np.random.default_rng(1))
    assert len(picks) == 8
    assert set(picks) <= {0, 1, 2}
    assert picks == sorted(picks)


def test_sample_shots_distinct_in_train_mode():
    picks = sample_shots(20, 8, np.random.default_rng(3))
    assert len(set(picks)) == 8
    assert picks == sorted(picks)


def test_sample_shots_empty_error():
    with pytest.raises(ValueError):
        sample_shots(0, 4, np.random.default_rng(0))


# -- descriptor ------------------------------------------------------------------

def test_descriptor_width_is_the_hsv_bins_plus_ten():
    # 8 gradient-orientation bins and 2 intensity moments follow the histogram
    assert HistogramEdgeExtractor.dim == TOTAL_BINS + 10


def test_descriptor_shape_and_blocks():
    ext = HistogramEdgeExtractor()
    desc = ext.describe(np.full((8, 8, 3), (10, 200, 30), dtype=np.uint8))
    assert desc.shape == (138,)
    assert np.isfinite(desc).all()
    assert abs(desc[:128].sum() - 1.0) < 1e-5
    assert abs(desc[128:136].sum() - 1.0) < 1e-5


def test_descriptor_deterministic():
    rng = np.random.default_rng(0)
    frame = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
    ext = HistogramEdgeExtractor()
    assert np.array_equal(ext.describe(frame), ext.describe(frame))


# -- pooling ---------------------------------------------------------------------

def test_extract_features_identical_frames():
    ext = HistogramEdgeExtractor()
    seq = make_seq([(200, 10, 10)] * 9)
    store = extract_features(seq, [Shot("v", 0, 0, 9)])
    assert np.allclose(store.rows([("v", 0)])[0], ext.describe(seq.frame(0)), atol=1e-7)


def test_extract_features_two_frame_average():
    ext = HistogramEdgeExtractor()
    seq = make_seq([(255, 0, 0), (0, 0, 255)])
    store = extract_features(seq, [Shot("v", 0, 0, 2)])
    u = ext.describe(seq.frame(0))
    v = ext.describe(seq.frame(1))
    # the three segment centers of a two-frame shot are frames 0, 1 and 1
    assert np.array_equal(store.rows([("v", 0)])[0], np.stack([u, v, v]).mean(axis=0))


def test_extract_features_rejects_shot_outside_clip():
    seq = make_seq([(1, 2, 3)] * 4)
    # past the end, and before the start (a negative index would wrap)
    for start, end in ((0, 9), (-6, 3)):
        shots = [Shot("v", 0, 0, 2), Shot("v", 1, start, end)]
        with pytest.raises(ValueError, match=rf"shot v#1 \[{start}, {end}\) lies outside "
                                             r"the clip of 4 frames"):
            extract_features(seq, shots)


def test_pooling_permutation_invariance():
    rng = np.random.default_rng(0)
    rows = rng.normal(0, 1, (6, 10)).astype(np.float32)
    perm = rng.permutation(6)
    assert np.allclose(rows.mean(axis=0), rows[perm].mean(axis=0), atol=1e-6)


def test_pooling_linearity():
    # the tag model pools shots before its linear projection: mean(rows @ P) = mean(rows) @ P
    rng = np.random.default_rng(1)
    rows = rng.normal(0, 1, (5, 7)).astype(np.float32)
    proj = rng.normal(0, 1, (7, 3)).astype(np.float32)
    assert np.allclose((rows * 3.0).mean(axis=0), 3.0 * rows.mean(axis=0), atol=1e-5)
    assert np.allclose((rows @ proj).mean(axis=0), rows.mean(axis=0) @ proj, atol=1e-5)


def test_gradient_through_both_pooling_levels():
    # per-shot mean -> video mean in numpy, then the projection
    rng = np.random.default_rng(12)
    proj = Tensor(rng.normal(0, 0.5, (9, 4)), requires_grad=True)
    shots_raw = [rng.normal(0, 1, (3, 9)) for _ in range(4)]
    video = Tensor(np.stack([raw.mean(axis=0) for raw in shots_raw]).mean(axis=0)[None])
    w = Tensor(rng.normal(0, 1, (1, 4)))
    check_gradients(lambda: ad.sum_all(ad.hadamard(ad.matmul(video, proj), w)), [proj])


def test_extract_features_center_sampling(tmp_path):
    rng = np.random.default_rng(3)
    frames = rng.integers(0, 256, (10, 8, 8, 3)).astype(np.uint8)
    seq = FrameSequence(frames)
    ext = HistogramEdgeExtractor()
    shots = [Shot("vid", 0, 0, 5), Shot("vid", 1, 5, 10)]
    store = extract_features(seq, shots)
    assert store.dim == 138
    assert len(store) == 2
    expected = np.stack([ext.describe(seq.frame(i)) for i in sample_frames(shots[1])]).mean(axis=0)
    assert np.array_equal(store.rows([("vid", 1)])[0], expected)
