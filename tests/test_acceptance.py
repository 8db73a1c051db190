"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with its measured numbers.

Criteria marked with runtime budgets assert wall time too. The heavier
fixtures (trained models on seeded synthetic worlds) are session-scoped
so the whole suite stays inside its budgets.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from shotline import autodiff as ad
from shotline import qa, tags, temporal
from shotline.autodiff import Tensor
from shotline.checkpoint import load_checkpoint, save_checkpoint
from shotline.cli import _tag_config, _world_config, main as cli_main
from shotline.corpus import generate_world, make_splits
from shotline.features import FeatureStore, read_shtf, write_shtf
from shotline.frames import FrameSequence
from shotline.metrics import mean_average_precision, recall_at_k
from shotline.nn import LstmCell, RowMlp
from shotline.segment import detect_shots

from _util import default_config, finite_difference_gradient, rel_err

REPO = Path(__file__).resolve().parent.parent


def report(number, name, passed, detail):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


# -- criterion 1: gradient suite ------------------------------------------------


def _check(build, params, h=1e-3, tol=1e-3):
    for p in params:
        p.grad = None
    build().backward()
    worst = 0.0
    for p in params:
        got = p.grad.copy()
        fd = finite_difference_gradient(lambda _x: build(), p, h)
        worst = max(worst, rel_err(got, fd))
    return worst


def _op_cases(rng):
    x = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
    y = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
    bias = Tensor(rng.normal(0, 1, (4,)), requires_grad=True)
    a = Tensor(rng.normal(0, 1, (3, 5)), requires_grad=True)
    b = Tensor(rng.normal(0, 1, (5, 2)), requires_grad=True)
    logits = Tensor(rng.normal(0, 2, (2, 6)), requires_grad=True)
    bce_logits = Tensor(rng.normal(0, 2, (7,)), requires_grad=True)
    bce_targets = rng.integers(0, 2, 7).astype(np.float64)
    targets = rng.integers(0, 6, 2)
    w34 = Tensor(rng.normal(0, 1, (3, 4)))
    w32 = Tensor(rng.normal(0, 1, (3, 2)))
    w26 = Tensor(rng.normal(0, 1, (2, 6)))
    w38 = Tensor(rng.normal(0, 1, (3, 8)))
    w64 = Tensor(rng.normal(0, 1, (6, 4)))
    w24 = Tensor(rng.normal(0, 1, (2, 4)))
    seq = Tensor(rng.normal(0, 1, (2, 3, 3)), requires_grad=True)
    lstm_w = Tensor(rng.normal(0, 0.5, (5, 8)), requires_grad=True)
    lstm_b = Tensor(rng.normal(0, 0.5, (8,)), requires_grad=True)
    w232 = Tensor(rng.normal(0, 1, (2, 3, 2)))
    return [
        ("matmul", lambda: ad.sum_all(ad.hadamard(ad.matmul(a, b), w32)), [a, b]),
        ("softmax_rows", lambda: ad.sum_all(ad.hadamard(ad.softmax_rows(logits), w26)), [logits]),
        ("nll_loss", lambda: ad.nll_loss(ad.softmax_rows(logits), targets), [logits]),
        ("tanh", lambda: ad.sum_all(ad.hadamard(ad.tanh(x), w34)), [x]),
        ("sigmoid", lambda: ad.sum_all(ad.hadamard(ad.sigmoid(x), w34)), [x]),
        ("add", lambda: ad.sum_all(ad.hadamard(ad.add(x, y), w34)), [x, y]),
        ("add_bias", lambda: ad.sum_all(ad.hadamard(ad.add(x, bias), w34)), [x, bias]),
        ("hadamard", lambda: ad.sum_all(ad.hadamard(ad.hadamard(x, y), w34)), [x, y]),
        ("concat_cols", lambda: ad.sum_all(ad.hadamard(ad.concat_cols(x, y), w38)), [x, y]),
        ("bce_with_logits", lambda: ad.bce_with_logits(bce_logits, bce_targets), [bce_logits]),
        ("scale", lambda: ad.sum_all(ad.scale(x, 0.6)), [x]),
        ("sum_all", lambda: ad.sum_all(ad.hadamard(x, w34)), [x]),
        ("reshape", lambda: ad.sum_all(ad.hadamard(ad.reshape(x, (6, 2)), Tensor(w34.data.reshape(6, 2)))), [x]),
        ("slice_rows", lambda: ad.sum_all(ad.hadamard(ad.slice_rows(x, 1, 3), w24)), [x]),
        ("slice_cols", lambda: ad.sum_all(ad.hadamard(ad.slice_cols(x, 1, 3), w32)), [x]),
        ("lstm_sequence", lambda: ad.sum_all(ad.hadamard(ad.lstm_sequence(seq, lstm_w, lstm_b),
                                                          w232)), [seq, lstm_w, lstm_b]),
    ]


def _next_shot_case(rng):
    cell = LstmCell.fresh(4, 6, rng)
    cell.weights = Tensor(rng.normal(0, 0.4, (10, 24)), requires_grad=True)
    cell.bias = Tensor(rng.normal(0, 0.2, (24,)), requires_grad=True)
    mlp = RowMlp.fresh(10, (8, 4), rng)
    params = [cell.weights, cell.bias]
    for i, (w, b) in enumerate(mlp.layers):
        w64 = Tensor(rng.normal(0, 0.5, w.data.shape), requires_grad=True)
        b64 = Tensor(rng.normal(0, 0.2, b.data.shape), requires_grad=True)
        mlp.layers[i] = (w64, b64)
        params.extend([w64, b64])
    ctx = [Tensor(rng.normal(0, 1, (1, 4))) for _ in range(2)]
    cands = Tensor(rng.normal(0, 1, (3, 4)))
    target = int(rng.integers(3))

    def build():
        h, c = Tensor(np.zeros((1, 6))), Tensor(np.zeros((1, 6)))
        for x in ctx:
            h, c = cell.step(x, h, c)
        return ad.nll_loss(ad.softmax_rows(ad.reshape(mlp.scores(h, cands), (1, 3))), [target])

    return build, params


def _qa_case(rng):
    mlp = RowMlp.fresh(4 + 2 * 6, (8, 4), rng)
    params = []
    for i, (w, b) in enumerate(mlp.layers):
        w64 = Tensor(rng.normal(0, 0.5, w.data.shape), requires_grad=True)
        b64 = Tensor(rng.normal(0, 0.2, b.data.shape), requires_grad=True)
        mlp.layers[i] = (w64, b64)
        params.extend([w64, b64])
    base = Tensor(rng.normal(0, 1, (1, 10)))   # clip(4) + question(6)
    answers = Tensor(rng.normal(0, 1, (3, 6)))
    target = int(rng.integers(3))

    def build():
        return ad.nll_loss(ad.softmax_rows(ad.reshape(mlp.scores(base, answers), (1, 3))),
                           [target])

    return build, params


def test_criterion_01_gradient_suite():
    started = time.time()
    worst = 0.0
    worst_name = ""
    for seed in range(10):
        for name, build, params in _op_cases(np.random.default_rng(10_000 + seed)):
            err = _check(build, params)
            if err > worst:
                worst, worst_name = err, name
        for name, maker in (("next_shot_scorer", _next_shot_case), ("qa_scorer", _qa_case)):
            build, params = maker(np.random.default_rng(20_000 + seed))
            err = _check(build, params)
            if err > worst:
                worst, worst_name = err, name
    elapsed = time.time() - started
    report(1, "gradient-suite", worst <= 1e-3 and elapsed < 30,
           f"worst rel err {worst:.2e} at {worst_name}, {elapsed:.1f}s")


# -- criterion 2: metric oracles ---------------------------------------------------


def test_criterion_02_metric_oracles():
    def oracle_recall(scores, truths, k):
        per = []
        for row, truth in zip(scores, truths):
            if not truth:
                continue
            ranked = sorted(range(len(row)), key=lambda j: (-row[j], j))[:k]
            per.append(len(set(ranked) & truth) / min(k, len(truth)))
        return sum(per) / len(per)

    def oracle_map(scores, truths):
        aps = []
        for j in range(scores.shape[1]):
            positives = [i for i in range(scores.shape[0]) if j in truths[i]]
            if not positives:
                continue
            order = sorted(range(scores.shape[0]), key=lambda i: (-scores[i, j], i))
            hits, ap = 0, 0.0
            for rank, vid in enumerate(order, start=1):
                if j in truths[vid]:
                    hits += 1
                    ap += hits / rank
            aps.append(ap / len(positives))
        return sum(aps) / len(aps)

    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(30_000 + seed)
        scores = rng.random((8, 6))
        truths = [set(np.flatnonzero(rng.random(6) < 0.35).tolist()) for _ in range(8)]
        if not any(truths):
            truths[0] = {0}
        worst = max(worst, abs(recall_at_k(scores, truths, 3) - oracle_recall(scores, truths, 3)))
        worst = max(worst, abs(mean_average_precision(scores, truths) - oracle_map(scores, truths)))
    report(2, "metric-oracles", worst <= 1e-9, f"worst abs diff {worst:.2e} over 100 matrices")


# -- criterion 3: chance calibration --------------------------------------------------


def test_criterion_03_chance_calibration():
    cfg = default_config(_world_config, topics=8, feature_dim=32, n_movies=55, n_trailers=0,
                         noise_sigma=0.15, seed=13)
    _, _, store, entries = generate_world(cfg)
    movies = [e.video_id for e in entries if e.kind == "movie"]
    questions, _ = temporal.generate_questions(store, movies, temporal.IN_MOVIE,
                                               mctx=8, n_candidates=32, stride=1, seed=13)
    assert len(questions) >= 10_000
    questions = questions[:10_000]
    model = temporal.NextShotModel.fresh(store.dim, 64, (128, 32), seed=99,
                                         input_scale=np.sqrt(32))
    acc, _ = temporal.evaluate_accuracy(model, questions)

    rng = np.random.default_rng(4)
    qa_store = FeatureStore(16)
    table = {}
    items = []
    n = 4000
    for i in range(n):
        qa_store.add(f"c{i}", 0, rng.normal(0, 1, 16).astype(np.float32))
        table[f"a{i}"] = rng.normal(0, 1, 16).astype(np.float32)
    for i in range(n):
        others = rng.choice(n - 1, size=4, replace=False)
        others = [o if o < i else o + 1 for o in others]
        answers = [f"a{o}" for o in others]
        pos = int(rng.integers(5))
        answers.insert(pos, f"a{i}")
        items.append(qa.QaItem(f"i{i}", "", answers, [(f"c{i}", 0)], pos))
    qa_model = qa.QaModel.fresh(16, 16, (128, 32), seed=1)
    qa_acc = qa.evaluate_qa(qa_model, items, qa.TableEmbeddingProvider(table, dim=16), qa_store)

    ok = abs(acc - 0.03125) <= 0.005 and abs(qa_acc - 0.2) <= 0.02
    report(3, "chance-calibration", ok,
           f"temporal {acc:.4f} (0.03125 +/- 0.005), qa {qa_acc:.4f} (0.2 +/- 0.02)")


# -- criteria 4 and 5: next-shot ordering ----------------------------------------------


@pytest.fixture(scope="module")
def temporal_world():
    started = time.time()
    cfg = default_config(_world_config, topics=8, feature_dim=32, n_movies=50, n_trailers=0,
                         noise_sigma=0.15, movie_style_sigma=0.12,
                         self_transition=0.6, successor_mass=0.3, seed=7)
    _, _, store, entries = generate_world(cfg)
    split = make_splits(entries, (0.7, 0.1, 0.2), seed=7, subset_sizes=())
    train_q, val_q = [], []
    for setting in (temporal.IN_MOVIE, temporal.CROSS_MOVIE):
        qs, _ = temporal.generate_questions(store, split.train_movies, setting,
                                            mctx=8, n_candidates=32, stride=2, seed=7)
        train_q.append(qs)
        qs, _ = temporal.generate_questions(store, split.val_movies, setting,
                                            mctx=8, n_candidates=32, seed=8)
        val_q.append(qs)
    train_q, val_q = temporal.QuestionSet.concat(train_q), temporal.QuestionSet.concat(val_q)
    test_in, _ = temporal.generate_questions(store, split.test_movies, temporal.IN_MOVIE,
                                             mctx=8, n_candidates=32, stride=2, seed=9)
    test_cross, _ = temporal.generate_questions(store, split.test_movies, temporal.CROSS_MOVIE,
                                                mctx=8, n_candidates=32, stride=2, seed=9)
    config = temporal.TemporalTrainConfig(epochs=25, batch_size=64, learning_rate=0.3,
                                          momentum=0.9, hidden_dim=64, scorer_widths=(128, 32))
    model, _ = temporal.train_next_shot(train_q, config, seed=7, val_questions=val_q)
    acc_in, _ = temporal.evaluate_accuracy(model, test_in)
    acc_cross, _ = temporal.evaluate_accuracy(model, test_cross)
    base_in, _ = temporal.accuracy_by_setting(test_in, temporal.baseline_average_cosine(test_in))
    return {"acc_in": acc_in, "acc_cross": acc_cross, "base_in": base_in,
            "wall": time.time() - started}


def test_criterion_04_lstm_beats_average_in_movie(temporal_world):
    w = temporal_world
    ok = (w["acc_in"] - w["base_in"] >= 0.05) and w["wall"] < 300
    report(4, "next-shot-ordering", ok,
           f"lstm in-movie {w['acc_in']:.3f} vs average {w['base_in']:.3f} "
           f"(margin {w['acc_in'] - w['base_in']:.3f} >= 0.05), {w['wall']:.0f}s < 300s")


def test_criterion_05_cross_movie_easier(temporal_world):
    w = temporal_world
    report(5, "cross-movie-easier", w["acc_cross"] > w["acc_in"],
           f"cross {w['acc_cross']:.3f} > in {w['acc_in']:.3f}")


# -- criteria 6 and 11: trailer-to-movie transfer ---------------------------------------


@pytest.fixture(scope="module")
def tag_world():
    started = time.time()
    cfg = default_config(_world_config, topics=8, feature_dim=32, n_movies=60, n_trailers=400,
                         noise_sigma=0.15, movie_style_sigma=0.0,
                         movie_topic_count=3, seed=5)
    world, videos, store, entries = generate_world(cfg)
    split = make_splits(entries, (0.7, 0.1, 0.2), seed=5, subset_sizes=())
    by_id = {e.video_id: e for e in entries}
    train_trailers = [by_id[t] for t in split.trailer_pool]
    test_movies = [by_id[m] for m in split.test_movies]
    config = default_config(_tag_config, epochs=40, batch_size=16, learning_rate=0.3, momentum=0.9)
    model, _ = tags.train_tags(train_trailers, store, world.vocabulary, config,
                               seed=5, proj_dim=32)
    return {"world": world, "videos": videos, "store": store, "split": split,
            "by_id": by_id, "train_trailers": train_trailers, "test_movies": test_movies,
            "model": model, "wall": time.time() - started}


def test_criterion_06_weak_supervision_transfer(tag_world):
    t = tag_world
    vocab = t["world"].vocabulary
    scores, truths = [], []
    for e in t["test_movies"]:
        pred = tags.infer_score_average(t["model"], e.video_id, t["store"].sequence(e.video_id))
        scores.append(pred.genre_scores)
        truths.append({vocab.genre_index[g] for g in e.genres})
    recall = recall_at_k(np.stack(scores), truths, 3)
    marginals = np.zeros(len(vocab.genres))
    for e in t["train_trailers"]:
        for g in e.genres:
            marginals[vocab.genre_index[g]] += 1
    top3 = set(np.argsort(-marginals, kind="stable")[:3].tolist())
    chance = float(np.mean([len(top3 & truth) / min(3, len(truth)) for truth in truths]))
    ok = recall >= 2 * chance and t["wall"] < 180
    report(6, "weak-supervision-transfer", ok,
           f"movie recall@3 {recall:.3f} >= 2 x chance {chance:.3f}, "
           f"train+eval {t['wall']:.0f}s < 180s")


def test_criterion_11_retrieval_sanity(tag_world):
    t = tag_world
    vocab = t["world"].vocabulary
    topics_by_id = {v.video_id: v.topics for v in t["videos"]}
    movie = t["by_id"][t["split"].test_movies[0]]
    precisions = {}
    for genre in sorted(movie.genres):
        topic = vocab.genre_index[genre]
        series = tags.shot_tag_response(t["model"], movie.video_id,
                                        t["store"].sequence(movie.video_id), genre)
        top5 = tags.top_shots(series, 5)
        precisions[genre] = float(np.mean([topics_by_id[movie.video_id][o] == topic
                                           for o in top5]))
    ok = all(p >= 0.8 for p in precisions.values())
    report(11, "retrieval-sanity", ok,
           "precision@5 per tag: " + ", ".join(f"{g}={p:.2f}" for g, p in precisions.items()))


# -- criterion 7: more trailers help ------------------------------------------------------


def test_criterion_07_trailer_count_monotonicity():
    started = time.time()
    monotone = 0
    rows = []
    for seed in (1, 2, 3, 4, 5):
        cfg = default_config(_world_config, topics=8, feature_dim=32, n_movies=60, n_trailers=600,
                             noise_sigma=0.15, movie_style_sigma=0.0,
                             movie_topic_count=3, seed=seed)
        world, _, store, entries = generate_world(cfg)
        split = make_splits(entries, (0.7, 0.1, 0.2), seed=seed, subset_sizes=(25, 100, 400))
        by_id = {e.video_id: e for e in entries}
        test_movies = [by_id[m] for m in split.test_movies]
        vocab = world.vocabulary
        recalls = []
        for size in (25, 100, 400):
            subset = [by_id[t] for t in split.trailer_subsets[size]]
            config = default_config(_tag_config, epochs=40, batch_size=16, learning_rate=0.3,
                                    momentum=0.9)
            model, _ = tags.train_tags(subset, store, vocab, config, seed=seed, proj_dim=32)
            scores, truths = [], []
            for e in test_movies:
                pred = tags.infer_score_average(model, e.video_id, store.sequence(e.video_id))
                scores.append(pred.genre_scores)
                truths.append({vocab.genre_index[g] for g in e.genres})
            recalls.append(recall_at_k(np.stack(scores), truths, 3))
        monotone += recalls[0] <= recalls[1] <= recalls[2]
        rows.append("/".join(f"{r:.3f}" for r in recalls))
    elapsed = time.time() - started
    report(7, "trailer-count-monotonicity", monotone >= 4,
           f"{monotone}/5 seeds non-decreasing [{'; '.join(rows)}], {elapsed:.0f}s")


# -- criterion 8: planted-answer QA --------------------------------------------------------


def test_criterion_08_qa_planted_answers():
    started = time.time()
    rng = np.random.default_rng(3)
    n_items, clip_dim, embed_dim = 1200, 16, 16
    mapping = rng.normal(0, 1, (clip_dim, embed_dim)) / np.sqrt(clip_dim)
    store = FeatureStore(clip_dim)
    table = {}
    items = []
    for i in range(n_items):
        clip = rng.normal(0, 1, clip_dim)
        clip /= np.linalg.norm(clip)
        store.add(f"c{i:05d}", 0, clip.astype(np.float32))
        target = mapping.T @ clip
        target /= np.linalg.norm(target)
        table[f"ans{i:05d}"] = (target + rng.normal(0, 0.1, embed_dim)).astype(np.float32)
        table[f"q{i:05d}"] = rng.normal(0, 0.3, embed_dim).astype(np.float32)
    for i in range(n_items):
        others = rng.choice(n_items - 1, size=4, replace=False)
        others = [o if o < i else o + 1 for o in others]
        answers = [f"ans{o:05d}" for o in others]
        pos = int(rng.integers(5))
        answers.insert(pos, f"ans{i:05d}")
        items.append(qa.QaItem(f"q{i:05d}", f"q{i:05d}", answers, [(f"c{i:05d}", 0)], pos))
    provider = qa.TableEmbeddingProvider(table, embed_dim)
    config = qa.QaTrainConfig(epochs=60, learning_rate=0.3, momentum=0.9,
                              scorer_widths=(128, 32), patience=10)
    model, _ = qa.train_qa(items[:700], provider, store, config, seed=3,
                           val_items=items[700:900])
    accuracy = qa.evaluate_qa(model, items[900:], provider, store)
    elapsed = time.time() - started
    report(8, "qa-planted-answers", accuracy >= 0.9 and elapsed < 120,
           f"test accuracy {accuracy:.3f} >= 0.9 (chance 0.2), {elapsed:.0f}s < 120s")


# -- criterion 9: shot detector benchmark ----------------------------------------------------


def test_criterion_09_shot_detector_benchmark():
    started = time.time()
    rng = np.random.default_rng(77)
    palette = np.array([(230, 30, 30), (30, 230, 30), (30, 30, 230), (220, 220, 30),
                        (150, 30, 220), (30, 190, 190), (240, 130, 20), (120, 120, 120)])
    hits = total_true = total_pred = 0
    tiled = True
    for i in range(200):
        k = int(rng.integers(2, 6))
        colors = rng.choice(len(palette), size=k, replace=False)
        lengths = rng.integers(10, 40, size=k)
        frames = []
        for color, length in zip(colors, lengths):
            block = np.full((int(length), 24, 24, 3), palette[color], dtype=np.float64)
            block += rng.normal(0, 8, block.shape)
            frames.append(np.clip(block, 0, 255).astype(np.uint8))
        seq = FrameSequence(np.concatenate(frames))
        shots = detect_shots(seq, video_id=f"v{i}")
        tiled &= shots[0].start == 0 and shots[-1].end == seq.frame_count
        tiled &= all(a.end == b.start for a, b in zip(shots, shots[1:]))
        true_cuts = set(np.cumsum(lengths)[:-1].tolist())
        pred_cuts = {s.start for s in shots[1:]}
        hits += len(true_cuts & pred_cuts)
        total_true += len(true_cuts)
        total_pred += len(pred_cuts)
    precision = hits / total_pred if total_pred else 0.0
    recall = hits / total_true
    elapsed = time.time() - started
    report(9, "shot-detector", precision >= 0.95 and recall >= 0.95 and tiled,
           f"precision {precision:.3f}, recall {recall:.3f}, tiling exact={tiled}, {elapsed:.0f}s")


# -- criterion 10: determinism and persistence ------------------------------------------------


def _run_repro_pipeline(root: Path):
    root.mkdir(parents=True, exist_ok=True)
    tiny = str(REPO / "configs" / "tiny.cfg")
    log = root / "log.jsonl"

    def cli(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    base = ["--run-log", log, "--config", tiny, "--seed", 11]
    cli(*base, "synth", "--out-dir", root)
    cli(*base, "split", "--manifest", root / "manifest.jsonl",
        "--vocab", root / "vocab.json", "--output", root / "split.json")
    cli(*base, "gen-questions", "--features", root / "features.shtf",
        "--split", root / "split.json", "--subset", "train", "--setting", "both",
        "--output", root / "questions.tsv")
    cli(*base, "--set", "temporal_epochs=3",
        "train-temporal", "--features", root / "features.shtf",
        "--questions", root / "questions.tsv", "--output", root / "temporal.stln")
    cli(*base, "eval-temporal", "--features", root / "features.shtf",
        "--questions", root / "questions.tsv", "--model", root / "temporal.stln",
        "--results", root / "results.tsv", "--metrics", root / "metrics.tsv")
    cli(*base, "--set", "epochs=3", "--set", "tag_lstm_epochs=2",
        "train-tags", "--manifest", root / "manifest.jsonl",
        "--vocab", root / "vocab.json", "--features", root / "features.shtf",
        "--split", root / "split.json", "--output", root / "tags.stln")
    return ["features.shtf", "manifest.jsonl", "truth.jsonl", "split.json", "questions.tsv",
            "temporal.stln", "results.tsv", "metrics.tsv", "tags.stln"]


def test_criterion_10_determinism_and_persistence(tmp_path):
    names = _run_repro_pipeline(tmp_path / "a")
    _run_repro_pipeline(tmp_path / "b")
    identical = [name for name in names
                 if (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()]
    repro_ok = identical == names

    round_trip_ok = True
    for seed in range(20):
        rng = np.random.default_rng(50_000 + seed)
        store = FeatureStore(int(rng.integers(1, 9)))
        for r in range(int(rng.integers(0, 40))):
            store.add(f"v{rng.integers(5)}", r, rng.normal(0, 50, store.dim).astype(np.float32))
        path = tmp_path / f"s{seed}.shtf"
        write_shtf(path, store)
        loaded = read_shtf(path)
        write_shtf(tmp_path / "s2.shtf", loaded)
        round_trip_ok &= path.read_bytes() == (tmp_path / "s2.shtf").read_bytes()

        params = {f"p{j}": rng.normal(0, 10, size=rng.integers(1, 6, size=rng.integers(0, 3))
                                      ).astype(np.float32)
                  for j in range(int(rng.integers(0, 5)))}
        ck = tmp_path / f"c{seed}.stln"
        save_checkpoint(ck, params)
        save_checkpoint(tmp_path / "c2.stln", load_checkpoint(ck))
        round_trip_ok &= ck.read_bytes() == (tmp_path / "c2.stln").read_bytes()

    report(10, "determinism-and-persistence", repro_ok and round_trip_ok,
           f"{len(identical)}/{len(names)} artifacts byte-identical on rerun, "
           f"40 random round-trips bit-exact={round_trip_ok}")
