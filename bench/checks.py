"""Output checks for every timed stage.

Each check parses what a stage wrote with its own reader (it never calls
the program) and raises CheckError on the first thing that is wrong. A
failed check counts the stage invocation as failed.
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np


class CheckError(Exception):
    """An artifact does not match what the stage must produce."""


def _fail(path, message):
    raise CheckError(f"{Path(path).name}: {message}")


def _tsv(path, fields: int) -> list[list[str]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != fields:
                _fail(path, f"line {line_no}: expected {fields} fields, got {len(parts)}")
            rows.append(parts)
    return rows


def _unit_score(path, text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        _fail(path, f"score {text} is not a finite value in [0, 1]")
    return value


# -- containers ----------------------------------------------------------------------


def read_shtf_index(path) -> tuple[int, list[tuple[str, int]]]:
    """Dimension and record keys of an SHTF cache; every value must be finite."""
    data = Path(path).read_bytes()
    if data[:4] != b"SHTF" or len(data) < 20:
        _fail(path, "not an SHTF file")
    dim, count = struct.unpack_from("<IQ", data, 8)
    keys = []
    offset = 20
    for _ in range(count):
        (id_len,) = struct.unpack_from("<H", data, offset)
        video_id = data[offset + 2:offset + 2 + id_len].decode("utf-8")
        offset += 2 + id_len
        (ordinal,) = struct.unpack_from("<I", data, offset)
        values = np.frombuffer(data, dtype="<f4", count=dim, offset=offset + 4)
        if not np.isfinite(values).all():
            _fail(path, f"non-finite feature in {video_id}#{ordinal}")
        offset += 4 + 4 * dim
        keys.append((video_id, ordinal))
    if offset != len(data):
        _fail(path, f"{len(data) - offset} bytes after {count} records")
    return dim, keys


def shot_counts(keys) -> dict[str, int]:
    """Shots per video; ordinals must run 0..n-1 within each video."""
    counts: dict[str, int] = {}
    for video_id, ordinal in keys:
        if ordinal != counts.get(video_id, 0):
            raise CheckError(f"{video_id}: ordinal {ordinal} out of sequence")
        counts[video_id] = ordinal + 1
    return counts


def check_checkpoint(path) -> int:
    """Parameter count of an STLN checkpoint whose values are all finite."""
    data = Path(path).read_bytes()
    if data[:4] != b"STLN":
        _fail(path, "not an STLN checkpoint")
    (count,) = struct.unpack_from("<I", data, 8)
    offset = 12
    total = 0
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, offset)
        name = data[offset + 2:offset + 2 + name_len].decode("utf-8")
        offset += 2 + name_len
        rank = data[offset]
        shape = struct.unpack_from(f"<{rank}I", data, offset + 1)
        offset += 1 + 4 * rank
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        values = np.frombuffer(data, dtype="<f4", count=n, offset=offset)
        if not np.isfinite(values).all():
            _fail(path, f"non-finite values in {name}")
        offset += 4 * n
        total += n
    if offset != len(data):
        _fail(path, "trailing bytes")
    if total == 0:
        _fail(path, "no parameters")
    return total


def last_manifest_row(run_log) -> dict:
    with open(run_log, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CheckError("run manifest is empty")
    return json.loads(lines[-1])


# -- next-shot questions and results -------------------------------------------------------


def expected_question_count(counts: dict[str, int], movies, pool_movies, settings,
                            mctx: int, candidates: int, stride: int) -> int:
    """Questions the generator must emit: one per context window whose
    distractor pool holds at least candidates - 1 shots."""
    pool_total = sum(counts.get(m, 0) for m in pool_movies)
    total = 0
    for movie in movies:
        n = counts.get(movie, 0)
        if n <= mctx:
            continue
        windows = len(range(0, n - mctx, stride))
        for setting in settings:
            pool = (n if setting == "in_movie" else pool_total) - (mctx + 1)
            if pool >= candidates - 1:
                total += windows
    return total


def check_questions(path, counts: dict[str, int], movies, pool_movies, settings,
                    mctx: int, candidates: int, stride: int) -> dict[str, int]:
    """qid -> correct index, after checking every question's shape and ids."""
    rows = _tsv(path, 6)
    expected = expected_question_count(counts, movies, pool_movies, settings,
                                       mctx, candidates, stride)
    if len(rows) != expected:
        _fail(path, f"{len(rows)} questions, expected {expected} from shot counts and stride")
    movie_set = set(movies)
    answers = {}
    for qid, movie, setting, ctx, cands, correct in rows:
        if setting not in settings or movie not in movie_set:
            _fail(path, f"{qid}: unexpected setting {setting!r} or movie {movie!r}")
        context = [c.rpartition("#") for c in ctx.split(",")]
        options = [c.rpartition("#") for c in cands.split(",")]
        start = int(context[0][2])
        if qid != f"{setting}-{movie}-{start:06d}" or start % stride:
            _fail(path, f"{qid}: id does not match its window")
        if [(v, int(o)) for v, _, o in context] != [(movie, start + i) for i in range(mctx)]:
            _fail(path, f"{qid}: context is not {mctx} consecutive shots")
        index = int(correct)
        if len(options) != candidates or not 0 <= index < candidates:
            _fail(path, f"{qid}: {len(options)} candidates, answer index {index}")
        keys = [(v, int(o)) for v, _, o in options]
        if keys[index] != (movie, start + mctx) or len(set(keys)) != candidates:
            _fail(path, f"{qid}: answer is not the next shot, or candidates repeat")
        for video, ordinal in keys:
            if not 0 <= ordinal < counts.get(video, 0):
                _fail(path, f"{qid}: candidate {video}#{ordinal} is not in the store")
            if setting == "in_movie" and video != movie:
                _fail(path, f"{qid}: in-movie candidate from {video}")
        answers[qid] = index
    return answers


def check_temporal_results(results_path, metrics_path, answers: dict[str, int],
                           candidates: int) -> float:
    """LSTM accuracy over all questions, cross-checked with the metrics file."""
    rows = _tsv(results_path, 3)
    if [r[0] for r in rows] != sorted(answers):
        _fail(results_path, f"{len(rows)} rows do not match the {len(answers)} questions")
    hits = 0
    by_setting: dict[str, list[int]] = {}
    for qid, chosen, prob in rows:
        index = int(chosen)
        if not 0 <= index < candidates:
            _fail(results_path, f"{qid}: chosen index {index} out of range")
        _unit_score(results_path, prob)
        hit = int(index == answers[qid])
        hits += hit
        by_setting.setdefault(qid.split("-", 1)[0], []).append(hit)
    metrics = {k: float(v) for k, v in _tsv(metrics_path, 2)}
    for setting, flags in by_setting.items():
        reported = metrics.get(f"lstm.{setting}.accuracy")
        if reported is None or abs(reported - sum(flags) / len(flags)) > 1e-5:
            _fail(metrics_path, f"lstm.{setting}.accuracy {reported} disagrees with results")
    accuracy = hits / len(rows)
    if accuracy <= 1.0 / candidates:
        _fail(results_path, f"accuracy {accuracy:.4f} does not beat chance 1/{candidates}")
    return accuracy


# -- tags --------------------------------------------------------------------------


def expected_random_ap(positives: int, videos: int) -> float:
    """Expected average precision of a uniformly random ranking."""
    if videos == 1:
        return 1.0
    harmonic = sum(1.0 / i for i in range(1, videos + 1))
    return ((positives - 1) / (videos - 1) * (videos - harmonic) + harmonic) / videos


def chance_map(truths: list[set], labels: int) -> float:
    """Label-centric MAP that a random ranking of the videos reaches on average."""
    aps = [expected_random_ap(p, len(truths))
           for p in (sum(j in t for t in truths) for j in range(labels)) if p]
    return float(np.mean(aps))


def label_map(scores: np.ndarray, truths: list[set]) -> float:
    """Label-centric MAP; ties rank the lower video index first."""
    aps = []
    for j in range(scores.shape[1]):
        order = np.lexsort((np.arange(scores.shape[0]), -scores[:, j]))
        rel = np.array([j in truths[i] for i in order], dtype=np.float64)
        if rel.sum():
            aps.append(float((np.cumsum(rel) / np.arange(1, rel.size + 1) * rel).sum() / rel.sum()))
    return float(np.mean(aps))


def check_tag_eval(out_dir, movies: list[dict], genres: list[str], keywords: list[str]) -> float:
    """feature_lstm genre MAP on the evaluated movies; it must beat chance.

    The score-average MAP is recomputed from predictions.tsv, which checks
    the metric pipeline as well as the file.
    """
    out = Path(out_dir)
    metrics = {k: float(v) for k, v in _tsv(out / "metrics.tsv", 2)}
    for key, value in metrics.items():
        if not 0.0 <= value <= 1.0:
            _fail(out / "metrics.tsv", f"{key} = {value} outside [0, 1]")
    rows = _tsv(out / "predictions.tsv", 4)
    if len(rows) != len(movies) * (len(genres) + len(keywords)):
        _fail(out / "predictions.tsv", f"{len(rows)} rows for {len(movies)} movies")
    index = {m["id"]: i for i, m in enumerate(movies)}
    scores = np.full((len(movies), len(genres)), np.nan)
    for video, branch, label, score in rows:
        value = _unit_score(out / "predictions.tsv", score)
        if branch == "genre":
            scores[index[video], genres.index(label)] = value
    if np.isnan(scores).any():
        _fail(out / "predictions.tsv", "missing genre predictions")
    truths = [{genres.index(g) for g in m["genres"]} for m in movies]
    recomputed = label_map(scores, truths)
    if abs(recomputed - metrics["score_average.genres.map"]) > 1e-3:
        _fail(out / "metrics.tsv", f"score_average.genres.map disagrees with predictions "
                                   f"({recomputed:.6f})")
    tag_map = metrics["feature_lstm.genres.map"]
    chance = chance_map(truths, len(genres))
    if tag_map <= chance:
        _fail(out / "metrics.tsv", f"feature_lstm.genres.map {tag_map:.4f} <= chance {chance:.4f}")
    return tag_map


def check_retrieve(series_path, ranked_path, shots: int, top: int) -> None:
    series = _tsv(series_path, 2)
    if [int(r[0]) for r in series] != list(range(shots)):
        _fail(series_path, f"{len(series)} rows, expected one per shot ({shots})")
    scores = [_unit_score(series_path, r[1]) for r in series]
    ranked = _tsv(ranked_path, 2)
    expect = sorted(range(shots), key=lambda i: (-scores[i], i))[:top]
    if [int(r[0]) for r in ranked] != expect:
        _fail(ranked_path, "ranking does not follow the response series")


# -- ingest --------------------------------------------------------------------------


def check_shot_list(path, video_id: str, frames: int) -> list[int]:
    """Cut positions of a shot list that tiles [0, frames) exactly."""
    rows = _tsv(path, 4)
    if not rows:
        _fail(path, "no shots")
    cursor = 0
    for ordinal, (video, number, start, end) in enumerate(rows):
        if video != video_id or int(number) != ordinal:
            _fail(path, f"line {ordinal + 1}: expected {video_id} shot {ordinal}")
        if int(start) != cursor or int(end) <= int(start):
            _fail(path, f"line {ordinal + 1}: [{start}, {end}) does not continue at {cursor}")
        cursor = int(end)
    if cursor != frames:
        _fail(path, f"shots end at frame {cursor}, clip has {frames}")
    return [int(r[2]) for r in rows[1:]]


def cut_accuracy(planted: list[list[int]], found: list[list[int]]) -> tuple[float, float]:
    """Precision and recall of detected cuts, pooled over clips."""
    hits = sum(len(set(p) & set(f)) for p, f in zip(planted, found))
    total_found = sum(len(f) for f in found)
    total_planted = sum(len(p) for p in planted)
    precision = hits / total_found if total_found else 0.0
    return precision, hits / total_planted


def check_extract(path, shot_list_path) -> int:
    """An extract cache holds one finite 138-dim record per listed shot."""
    dim, keys = read_shtf_index(path)
    if dim != 138:
        _fail(path, f"dimension {dim}, expected 138")
    listed = [(r[0], int(r[1])) for r in _tsv(shot_list_path, 4)]
    if keys != listed:
        _fail(path, f"{len(keys)} records do not match the {len(listed)} listed shots")
    return len(keys)
