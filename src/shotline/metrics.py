"""Ranking metrics for multi-label tag prediction, and the metrics file.

Both metrics are rank-based: any strictly increasing transform of the
scores leaves them unchanged. Ties break deterministically by ascending
index. Every eval subcommand writes its figures with write_metrics.
"""
from __future__ import annotations

import numpy as np

from .binio import write_lines


def _ranking(scores: np.ndarray) -> np.ndarray:
    # lexsort is stable: sort by -score, then by index for ties
    return np.lexsort((np.arange(scores.shape[0]), -scores.astype(np.float64)))


def _check_scores(scores: np.ndarray, truths: list[set], metric: str) -> None:
    if scores.ndim != 2 or scores.shape[0] != len(truths):
        raise ValueError(f"scores {scores.shape} do not cover {len(truths)} videos")
    finite = np.isfinite(scores).all(axis=1)
    if not finite.all():
        raise ValueError(f"{metric}: non-finite score for video {int(np.argmin(finite))}")


def recall_at_k(scores: np.ndarray, truths: list[set], k: int) -> float:
    """Mean over videos of |top-k predictions ∩ truth| / min(k, |truth|).

    Videos with empty truth sets are skipped. A NaN or infinite score
    raises ValueError naming its video's row.
    """
    scores = np.asarray(scores)
    _check_scores(scores, truths, "recall_at_k")
    per_video = []
    for row, truth in zip(scores, truths):
        if not truth:
            continue
        top = set(_ranking(row)[:k].tolist())
        per_video.append(len(top & truth) / min(k, len(truth)))
    if not per_video:
        raise ValueError("recall_at_k: every video has an empty truth set")
    return float(np.mean(per_video))


def average_precision(ranked_relevance: np.ndarray) -> float:
    """AP of one ranked 0/1 relevance list: sum of precision@hit / #positives."""
    rel = np.asarray(ranked_relevance, dtype=np.float64)
    positives = rel.sum()
    if positives == 0:
        raise ValueError("average_precision: no positives")
    precision_at = np.cumsum(rel) / np.arange(1, rel.size + 1)
    return float((precision_at * rel).sum() / positives)


def mean_average_precision(scores: np.ndarray, truths: list[set]) -> float:
    """Label-centric MAP: rank videos per label, average the APs.

    Labels without a positive are excluded. A NaN or infinite score raises
    ValueError naming its video's row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    _check_scores(scores, truths, "mean_average_precision")
    n_videos, n_labels = scores.shape
    hot = np.zeros((n_videos, n_labels), dtype=np.float64)
    for i, truth in enumerate(truths):
        hot[i, sorted(truth)] = 1.0
    aps = [average_precision(hot[_ranking(scores[:, j]), j])
           for j in range(n_labels) if hot[:, j].any()]
    if not aps:
        raise ValueError("mean_average_precision: nothing to rank")
    return float(np.mean(aps))


def write_metrics(path, values: dict) -> None:
    """One ``metric<TAB>value`` line per entry, sorted by name, 6 decimals."""
    write_lines(path, (f"{key}\t{values[key]:.6f}" for key in sorted(values)))
