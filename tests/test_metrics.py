import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotline.metrics import average_precision, mean_average_precision, recall_at_k


def brute_force_recall_at_k(scores, truths, k):
    per_video = []
    for row, truth in zip(scores, truths):
        if not truth:
            continue
        ranked = sorted(range(len(row)), key=lambda j: (-row[j], j))[:k]
        per_video.append(len(set(ranked) & truth) / min(k, len(truth)))
    return sum(per_video) / len(per_video)


def brute_force_label_map(scores, truths):
    scores = np.asarray(scores, dtype=np.float64)
    n_videos, n_labels = scores.shape
    aps = []
    for j in range(n_labels):
        positives = [i for i in range(n_videos) if j in truths[i]]
        if not positives:
            continue
        order = sorted(range(n_videos), key=lambda i: (-scores[i, j], i))
        hits = 0
        ap = 0.0
        for rank, video in enumerate(order, start=1):
            if j in truths[video]:
                hits += 1
                ap += hits / rank
        aps.append(ap / len(positives))
    return sum(aps) / len(aps)


def test_recall_single_truth_hit():
    scores = np.array([[0.9, 0.5, 0.4, 0.1]])
    assert recall_at_k(scores, [{0}], k=3) == 1.0


def test_recall_partial_overlap():
    # truth {a,b,c,d} = {0,1,2,3}; top-3 = {0, 1, 5}
    scores = np.array([[0.9, 0.8, 0.1, 0.05, 0.0, 0.85]])
    assert recall_at_k(scores, [{0, 1, 2, 3}], k=3) == pytest.approx(2 / 3)


def test_recall_three_video_hand_case():
    scores = np.array([
        [0.9, 0.1, 0.5, 0.3],
        [0.2, 0.8, 0.7, 0.6],
        [0.5, 0.5, 0.5, 0.5],   # tie broken by label index: top-3 = {0,1,2}
    ])
    truths = [{0, 2}, {3}, {3}]
    # video 0: top-3 {0,2,3} covers both truths; video 1: {1,2,3} hits 3; video 2: tie-broken {0,1,2} misses
    assert recall_at_k(scores, truths, k=3) == pytest.approx(
        brute_force_recall_at_k(scores, truths, 3))
    assert recall_at_k(scores, truths, k=3) == pytest.approx((1.0 + 1.0 + 0.0) / 3)


def test_recall_skips_empty_truth():
    scores = np.array([[0.9, 0.1], [0.1, 0.9]])
    assert recall_at_k(scores, [{0}, set()], k=1) == 1.0


def test_map_perfect_ranking():
    scores = np.array([[0.9], [0.8], [0.1]])
    truths = [{0}, {0}, set()]
    assert mean_average_precision(scores, truths) == 1.0


def test_map_positive_ranked_second():
    scores = np.array([[0.9], [0.5]])
    truths = [set(), {0}]
    assert mean_average_precision(scores, truths) == 0.5


def test_map_random_case_vs_oracle():
    rng = np.random.default_rng(0)
    scores = rng.random((5, 4))
    truths = [{0, 1}, {2}, set(), {1, 3}, {0}]
    assert mean_average_precision(scores, truths) == pytest.approx(
        brute_force_label_map(scores, truths), abs=1e-12)


def test_average_precision_requires_positive():
    with pytest.raises(ValueError):
        average_precision(np.zeros(4))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_metrics_match_brute_force_on_random_matrices(seed):
    rng = np.random.default_rng(seed)
    scores = rng.random((8, 6))
    truths = [set(np.flatnonzero(rng.random(6) < 0.4).tolist()) for _ in range(8)]
    if not any(truths):
        truths[0] = {0}
    assert recall_at_k(scores, truths, 3) == pytest.approx(
        brute_force_recall_at_k(scores, truths, 3), abs=1e-9)
    assert mean_average_precision(scores, truths) == pytest.approx(
        brute_force_label_map(scores, truths), abs=1e-9)


@given(st.integers(0, 2**31 - 1), st.floats(0.1, 5.0))
@settings(max_examples=20, deadline=None)
def test_metrics_invariant_under_monotone_transform(seed, power):
    rng = np.random.default_rng(seed)
    scores = rng.random((6, 5))
    truths = [set(np.flatnonzero(rng.random(5) < 0.4).tolist()) for _ in range(6)]
    if not any(truths):
        truths[0] = {1}
    transformed = np.exp(power * scores)  # strictly increasing
    assert recall_at_k(scores, truths, 3) == recall_at_k(transformed, truths, 3)
    assert mean_average_precision(scores, truths) == pytest.approx(
        mean_average_precision(transformed, truths), abs=1e-12)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_metrics_reject_a_non_finite_score_naming_its_video(data):
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
    scores = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1))).random((rows, cols))
    truths = [{0}] * rows
    poisoned = data.draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                                  min_size=1, max_size=4))
    for i, j in poisoned:
        scores[i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    first = min(i for i, _ in poisoned)
    with pytest.raises(ValueError, match=f"^recall_at_k: non-finite score for video {first}$"):
        recall_at_k(scores, truths, 3)
    with pytest.raises(ValueError, match=f"^mean_average_precision: non-finite score for "
                                         f"video {first}$"):
        mean_average_precision(scores.astype(np.float32), truths)
