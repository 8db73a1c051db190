import json
import time
from pathlib import Path

import numpy as np
import pytest

from shotline import qa, temporal
from shotline.checkpoint import load_checkpoint
from shotline.cli import load_config, main
from shotline.features import FeatureStore, read_shtf, write_shtf
from shotline.frames import FrameSequence, write_fseq
from shotline.rng import derive_rng

REPO = Path(__file__).resolve().parent.parent
TINY = str(REPO / "configs" / "tiny.cfg")


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_load_config_precedence(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("epochs=3\nseed=5\n# comment\n\n")
    config = load_config(str(cfg), ["epochs=7"])
    assert config["epochs"] == 7
    assert config["seed"] == 5
    assert config["batch_size"] == 16


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("not_a_key=3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(str(cfg), [])


def test_cli_error_is_machine_readable(tmp_path, capsys):
    rc = run_cli("--run-log", tmp_path / "log.jsonl",
                 "segment", "--input", tmp_path / "missing.fseq",
                 "--output", tmp_path / "shots.tsv")
    assert rc == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error\t") for line in err.splitlines())


def test_segment_and_extract_flow(tmp_path):
    rng = np.random.default_rng(0)
    frames = []
    for color in ((255, 0, 0), (0, 0, 255)):
        block = np.full((30, 12, 12, 3), color, dtype=np.float64)
        block += rng.normal(0, 5, block.shape)
        frames.append(np.clip(block, 0, 255).astype(np.uint8))
    write_fseq(tmp_path / "clip.fseq", FrameSequence(np.concatenate(frames)))
    rc = run_cli("--run-log", tmp_path / "log.jsonl",
                 "segment", "--input", tmp_path / "clip.fseq",
                 "--video-id", "clip", "--output", tmp_path / "shots.tsv")
    assert rc == 0
    shots = (tmp_path / "shots.tsv").read_text().splitlines()
    assert shots == ["clip\t0\t0\t30", "clip\t1\t30\t60"]
    rc = run_cli("--run-log", tmp_path / "log.jsonl",
                 "extract", "--input", tmp_path / "clip.fseq",
                 "--shots", tmp_path / "shots.tsv", "--output", tmp_path / "clip.shtf")
    assert rc == 0
    store = read_shtf(tmp_path / "clip.shtf")
    assert len(store) == 2 and store.dim == 138
    log_rows = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
    assert [r["command"] for r in log_rows] == ["segment", "extract"]
    assert all("wall_time_ms" in r and r["input_digests"] for r in log_rows)


def synth_and_split(root, seed=0):
    world = root / "world"
    assert run_cli("--run-log", root / "log.jsonl", "--config", TINY, "--seed", seed,
                   "synth", "--out-dir", world) == 0
    assert run_cli("--run-log", root / "log.jsonl", "--config", TINY, "--seed", seed,
                   "split", "--manifest", world / "manifest.jsonl",
                   "--vocab", world / "vocab.json",
                   "--output", world / "split.json") == 0
    return world


def make_qa_fixture(world, store, n_items=60, seed=0):
    """Planted-answer items over the synthetic movies' shots."""
    rng = derive_rng(seed, "qa.fixture")
    movie_ids = sorted({key[0] for key, _ in store.items() if key[0].startswith("m")})
    table = {}
    items = []
    mapping = rng.normal(0, 1, (store.dim, 16)) / np.sqrt(store.dim)
    clips = []
    for i in range(n_items):
        movie = movie_ids[i % len(movie_ids)]
        count = store.shot_count(movie)
        first = int(rng.integers(0, count - 2))
        clip_ids = [(movie, first), (movie, first + 1)]
        clip = np.stack([store.get(*sid) for sid in clip_ids]).mean(axis=0)
        target = mapping.T @ clip
        target /= np.linalg.norm(target)
        table[f"ans{i:03d}"] = (target + rng.normal(0, 0.1, 16)).astype(np.float32)
        table[f"q{i:03d}"] = rng.normal(0, 0.3, 16).astype(np.float32)
        clips.append(clip_ids)
    for i in range(n_items):
        others = rng.choice(n_items - 1, size=4, replace=False)
        others = [o if o < i else o + 1 for o in others]
        answers = [f"ans{o:03d}" for o in others]
        pos = int(rng.integers(5))
        answers.insert(pos, f"ans{i:03d}")
        items.append(qa.QaItem(f"item{i:03d}", f"q{i:03d}", answers, clips[i], pos))
    qa.write_embedding_table(world / "embeddings.txt", table)
    qa.write_qa_items(world / "qa_items.tsv", items)


def run_pipeline(root, seed=0):
    world = synth_and_split(root, seed)
    log = root / "log.jsonl"
    base = ["--run-log", log, "--config", TINY, "--seed", seed]
    assert run_cli(*base, "train-tags", "--manifest", world / "manifest.jsonl",
                   "--vocab", world / "vocab.json", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--output", world / "tags.stln") == 0
    assert run_cli(*base, "eval-tags", "--manifest", world / "manifest.jsonl",
                   "--vocab", world / "vocab.json", "--features", world / "features.shtf",
                   "--model", world / "tags.stln", "--split", world / "split.json",
                   "--subset", "test", "--out-dir", world / "tag_eval") == 0
    assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--subset", "train",
                   "--setting", "both", "--output", world / "train_q.tsv") == 0
    assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--subset", "test",
                   "--setting", "both", "--output", world / "test_q.tsv") == 0
    assert run_cli(*base, "train-temporal", "--features", world / "features.shtf",
                   "--questions", world / "train_q.tsv",
                   "--output", world / "temporal.stln") == 0
    assert run_cli(*base, "eval-temporal", "--features", world / "features.shtf",
                   "--questions", world / "test_q.tsv", "--model", world / "temporal.stln",
                   "--results", world / "temporal_results.tsv",
                   "--metrics", world / "temporal_metrics.tsv") == 0
    make_qa_fixture(world, read_shtf(world / "features.shtf"), seed=seed)
    assert run_cli(*base, "train-qa", "--features", world / "features.shtf",
                   "--items", world / "qa_items.tsv",
                   "--embeddings", world / "embeddings.txt",
                   "--output", world / "qa.stln") == 0
    assert run_cli(*base, "eval-qa", "--features", world / "features.shtf",
                   "--items", world / "qa_items.tsv", "--model", world / "qa.stln",
                   "--embeddings", world / "embeddings.txt",
                   "--metrics", world / "qa_metrics.tsv") == 0
    vocab = json.loads((world / "vocab.json").read_text())
    manifest_rows = [json.loads(l) for l in (world / "manifest.jsonl").read_text().splitlines()]
    movie = next(r for r in manifest_rows if r["kind"] == "movie" and r["genres"])
    assert run_cli(*base, "retrieve", "--vocab", world / "vocab.json",
                   "--features", world / "features.shtf", "--model", world / "tags.stln",
                   "--video-id", movie["id"], "--tag", movie["genres"][0],
                   "--output", world / "series.tsv",
                   "--ranked-output", world / "ranked.tsv") == 0
    return world


ARTIFACTS = ["features.shtf", "vocab.json", "manifest.jsonl", "truth.jsonl", "split.json",
             "tags.stln", "tag_eval/metrics.tsv", "tag_eval/predictions.tsv",
             "train_q.tsv", "test_q.tsv", "temporal.stln", "temporal_results.tsv",
             "temporal_metrics.tsv", "qa.stln", "qa_metrics.tsv", "series.tsv", "ranked.tsv"]


def test_full_tiny_pipeline_under_60s_and_deterministic(tmp_path):
    started = time.time()
    world_a = run_pipeline(tmp_path / "a", seed=3)
    elapsed = time.time() - started
    assert elapsed < 60, f"tiny pipeline took {elapsed:.1f}s"
    world_b = run_pipeline(tmp_path / "b", seed=3)
    for name in ARTIFACTS:
        assert (world_a / name).read_bytes() == (world_b / name).read_bytes(), name
    # outputs and inputs are digest-tracked
    rows = [json.loads(l) for l in (tmp_path / "a" / "log.jsonl").read_text().splitlines()]
    assert len(rows) == 11
    assert all(r["output_digests"] for r in rows)
    # sanity: metrics files carry both inference modes and both branches
    metrics = dict(l.split("\t") for l in (world_a / "tag_eval/metrics.tsv").read_text().splitlines())
    assert any(k.startswith("score_average.genres") for k in metrics)
    assert any(k.startswith("feature_lstm.genres") for k in metrics)
    t_metrics = dict(l.split("\t") for l in (world_a / "temporal_metrics.tsv").read_text().splitlines())
    assert set(t_metrics) == {"lstm.in_movie.accuracy", "lstm.cross_movie.accuracy",
                              "average.in_movie.accuracy", "average.cross_movie.accuracy"}


def test_eval_temporal_random_init_near_chance(tmp_path):
    world = synth_and_split(tmp_path, seed=1)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1]
    assert run_cli(*base, "--set", "stride=1",
                   "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--subset", "train",
                   "--setting", "in_movie",
                   "--output", world / "q.tsv") == 0
    assert run_cli(*base, "eval-temporal", "--features", world / "features.shtf",
                   "--questions", world / "q.tsv", "--random-init",
                   "--results", world / "r.tsv", "--metrics", world / "m.tsv") == 0
    metrics = dict(l.split("\t") for l in (world / "m.tsv").read_text().splitlines())
    acc = float(metrics["lstm.in_movie.accuracy"])
    # tiny config uses 8 candidates: chance 0.125 over ~250 questions
    assert abs(acc - 0.125) < 0.07


@pytest.mark.parametrize("pooling", ["final", "mean"])
def test_temporal_checkpoint_round_trips_context_pooling(tmp_path, pooling):
    world = synth_and_split(tmp_path, seed=7)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 7]
    for subset in ("train", "test"):
        assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                       "--split", world / "split.json", "--subset", subset,
                       "--output", world / f"{subset}_q.tsv") == 0
    assert run_cli(*base, "--set", f"context_pooling={pooling}", "--set", "temporal_epochs=2",
                   "train-temporal", "--features", world / "features.shtf",
                   "--questions", world / "train_q.tsv", "--output", world / "t.stln") == 0
    # evaluated under the default config: the pooling comes from the checkpoint
    assert run_cli(*base, "eval-temporal", "--features", world / "features.shtf",
                   "--questions", world / "test_q.tsv", "--model", world / "t.stln",
                   "--results", world / "r.tsv", "--metrics", world / "m.tsv") == 0
    state = load_checkpoint(world / "t.stln")
    store = read_shtf(world / "features.shtf")
    model = temporal.NextShotModel(store.dim, 32, (64, 16))
    model.load_state(state)
    assert model.context_pooling == pooling
    model.context_pooling = pooling
    questions = temporal.read_questions(world / "test_q.tsv")
    contexts, candidates, targets = temporal._question_arrays(questions, store)
    probs = model.probabilities_batch(contexts, candidates).data
    chosen = probs.argmax(axis=1)
    expected = sorted(f"{q.qid}\t{c}\t{p[c]:.6f}" for q, c, p in zip(questions, chosen, probs))
    assert (world / "r.tsv").read_text().splitlines() == expected
    metrics = dict(l.split("\t") for l in (world / "m.tsv").read_text().splitlines())
    for setting in (temporal.IN_MOVIE, temporal.CROSS_MOVIE):
        hits = [c == t for q, c, t in zip(questions, chosen, targets) if q.setting == setting]
        assert metrics[f"lstm.{setting}.accuracy"] == f"{np.mean(hits):.6f}"


def test_non_finite_training_loss_fails_the_command(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=8)
    clean = read_shtf(world / "features.shtf")
    store = FeatureStore(clean.dim)
    for i, (key, values) in enumerate(clean.items()):
        store.add(*key, np.full_like(values, np.nan) if i == 5 else values)
    write_shtf(world / "features.shtf", store)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 8]
    assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--output", world / "q.tsv") == 0
    capsys.readouterr()
    assert run_cli(*base, "train-temporal", "--features", world / "features.shtf",
                   "--questions", world / "q.tsv", "--output", world / "t.stln") == 1
    err = capsys.readouterr().err.splitlines()
    assert any(l.startswith("error\tFloatingPointError\ttrain_next_shot: epoch 0, batch start ")
               and l.endswith("non-finite loss nan") for l in err)
    assert not (world / "t.stln").exists()


def test_eval_temporal_requires_model_choice(tmp_path, capsys):
    rc = run_cli("eval-temporal", "--features", "x.shtf", "--questions", "q.tsv",
                 "--results", "r.tsv", "--metrics", "m.tsv")
    assert rc == 1
    assert "error\t" in capsys.readouterr().err


def test_split_respects_paper_ratios(tmp_path):
    world = synth_and_split(tmp_path, seed=2)
    split = json.loads((world / "split.json").read_text())
    assert len(split["train_movies"]) == 3
    assert len(split["val_movies"]) == 1
    assert len(split["test_movies"]) == 1


def test_train_tags_on_trailer_subset(tmp_path):
    world = tmp_path / "world"
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 4]
    assert run_cli(*base, "synth", "--out-dir", world) == 0
    assert run_cli(*base, "--set", "trailer_subsets=3",
                   "split", "--manifest", world / "manifest.jsonl",
                   "--vocab", world / "vocab.json", "--output", world / "split.json") == 0
    split = json.loads((world / "split.json").read_text())
    assert len(split["trailer_subsets"]["3"]) == 3
    assert run_cli(*base, "train-tags", "--manifest", world / "manifest.jsonl",
                   "--vocab", world / "vocab.json", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--subset-size", 3,
                   "--output", world / "tags3.stln") == 0
    assert (world / "tags3.stln").exists()


def test_frame_backed_tag_training(tmp_path):
    # pixels all the way to a trained model: FSEQ -> shots -> descriptor
    # cache -> projection + heads
    rng = np.random.default_rng(6)
    palette = {"warm": (220, 60, 40), "cold": (40, 90, 220)}
    store_paths = []
    manifest_lines = []
    for i, (label, color) in enumerate([("warm", palette["warm"]), ("cold", palette["cold"]),
                                        ("warm", palette["warm"])]):
        vid = f"vid{i}"
        blocks = []
        for shade in (0, 25):
            block = np.full((20, 12, 12, 3), np.array(color) - shade, dtype=np.float64)
            block += rng.normal(0, 4, block.shape)
            blocks.append(np.clip(block, 0, 255).astype(np.uint8))
        write_fseq(tmp_path / f"{vid}.fseq", FrameSequence(np.concatenate(blocks)))
        assert run_cli("--run-log", tmp_path / "log.jsonl",
                       "segment", "--input", tmp_path / f"{vid}.fseq",
                       "--video-id", vid, "--output", tmp_path / f"{vid}.shots") == 0
        assert run_cli("--run-log", tmp_path / "log.jsonl",
                       "extract", "--input", tmp_path / f"{vid}.fseq",
                       "--shots", tmp_path / f"{vid}.shots",
                       "--output", tmp_path / f"{vid}.shtf") == 0
        store_paths.append(tmp_path / f"{vid}.shtf")
        kind = "trailer" if i < 2 else "movie"
        manifest_lines.append({"id": vid, "kind": kind, "path": f"{vid}.shtf",
                               "genres": [label], "keywords": [], "linked_movie_id": None})
    # merge the per-video caches into one store
    merged = None
    for path in store_paths:
        part = read_shtf(path)
        if merged is None:
            merged = FeatureStore(part.dim)
        for key, values in part.items():
            merged.add(*key, values)
    write_shtf(tmp_path / "all.shtf", merged)
    (tmp_path / "manifest.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in manifest_lines))
    (tmp_path / "vocab.json").write_text(json.dumps({"genres": ["cold", "warm"], "keywords": []}))
    assert run_cli("--run-log", tmp_path / "log.jsonl", "--seed", 6,
                   "--set", "epochs=15", "--set", "proj_dim=16", "--set", "batch_size=2",
                   "--set", "learning_rate=0.2", "--set", "tag_lstm_epochs=2",
                   "--set", "tag_lstm_hidden=8", "--set", "shots_per_video=2",
                   "train-tags", "--manifest", tmp_path / "manifest.jsonl",
                   "--vocab", tmp_path / "vocab.json", "--features", tmp_path / "all.shtf",
                   "--output", tmp_path / "tags.stln") == 0
    assert run_cli("--run-log", tmp_path / "log.jsonl", "--seed", 6,
                   "eval-tags", "--manifest", tmp_path / "manifest.jsonl",
                   "--vocab", tmp_path / "vocab.json", "--features", tmp_path / "all.shtf",
                   "--model", tmp_path / "tags.stln", "--out-dir", tmp_path / "eval") == 0
    metrics = dict(l.split("\t") for l in (tmp_path / "eval/metrics.tsv").read_text().splitlines())
    # one held-in movie with one true genre out of two: the trained model ranks it first
    assert float(metrics["score_average.genres.recall_at_3"]) == 1.0


def test_qa_hashing_fallback(tmp_path):
    world = synth_and_split(tmp_path, seed=5)
    store = read_shtf(world / "features.shtf")
    make_qa_fixture(world, store, n_items=20, seed=5)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 5,
            "--set", "qa_epochs=2"]
    # no --embeddings: answers hash into buckets instead of table lookups
    assert run_cli(*base, "train-qa", "--features", world / "features.shtf",
                   "--items", world / "qa_items.tsv", "--output", world / "qa.stln") == 0
    assert run_cli(*base, "eval-qa", "--features", world / "features.shtf",
                   "--items", world / "qa_items.tsv", "--model", world / "qa.stln",
                   "--metrics", world / "qa_metrics.tsv") == 0
    metrics = dict(l.split("\t") for l in (world / "qa_metrics.tsv").read_text().splitlines())
    assert 0.0 <= float(metrics["qa.accuracy"]) <= 1.0
