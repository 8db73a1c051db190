import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotline import corpus, qa, tags, temporal
from shotline.autodiff import Tensor
from shotline.checkpoint import load_checkpoint, save_checkpoint
from shotline.cli import _numbers, _temporal_config, build_parser, load_config, main
from shotline.features import FeatureStore, read_shtf, write_shtf
from shotline.frames import FrameSequence, write_fseq
from shotline.metrics import write_metrics
from shotline.nn import RowMlp
from shotline.rng import derive_rng

from _util import (multi_node_scores, oracle_set, pool_generator, write_embedding_table,
                   write_oracle_questions)

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
    two_shot_clip(tmp_path / "clip.fseq")
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
    assert (log_rows[0]["frames"], log_rows[0]["shots"]) == (60, 2)
    assert log_rows[1]["shots"] == 2


def synth_and_split(root, seed=0):
    world = root / "world"
    assert run_cli("--run-log", root / "log.jsonl", "--config", TINY, "--seed", seed,
                   "synth", "--out-dir", world) == 0
    assert run_cli("--run-log", root / "log.jsonl", "--config", TINY, "--seed", seed,
                   "split", "--manifest", world / "manifest.jsonl",
                   "--vocab", world / "vocab.json",
                   "--output", world / "split.json") == 0
    return world


def untrained_checkpoint(world, seed):
    """Write world/untrained.stln, the next-shot model that train-temporal
    starts from under configs/tiny.cfg at this seed, and return its path."""
    store = read_shtf(world / "features.shtf")
    config = _temporal_config(load_config(TINY, []))
    model = temporal.NextShotModel.fresh(store.dim, config.hidden_dim, config.scorer_widths,
                                         seed=derive_rng(seed, "nextshot.init").integers(2**32),
                                         input_scale=temporal._unit_rms_scale(store))
    save_checkpoint(world / "untrained.stln", model.state())
    return world / "untrained.stln"


def make_qa_fixture(world, store, n_items=60, seed=0):
    """Planted-answer items over the synthetic movies' shots."""
    rng = derive_rng(seed, "qa.fixture")
    movie_ids = sorted({v for v, _ in store.keys() if v.startswith("m")})
    table = {}
    items = []
    mapping = rng.normal(0, 1, (store.dim, 16)) / np.sqrt(store.dim)
    clips = []
    for i in range(n_items):
        movie = movie_ids[i % len(movie_ids)]
        count = store.shot_count(movie)
        first = int(rng.integers(0, count - 2))
        clip_ids = [(movie, first), (movie, first + 1)]
        clip = store.rows(clip_ids).mean(axis=0)
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
    write_embedding_table(world / "embeddings.txt", table)
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


def two_shot_clip(path):
    """A 60-frame FSEQ clip of two solid-colour shots with pixel noise."""
    rng = np.random.default_rng(0)
    frames = []
    for color in ((255, 0, 0), (0, 0, 255)):
        block = np.full((30, 12, 12, 3), color, dtype=np.float64)
        block += rng.normal(0, 5, block.shape)
        frames.append(np.clip(block, 0, 255).astype(np.uint8))
    write_fseq(path, FrameSequence(np.concatenate(frames)))


def test_evaluation_and_ingest_commands_are_deterministic(tmp_path):
    """eval-tags, retrieve, train-qa, eval-qa, eval-temporal of an untrained
    model, segment and extract write the same bytes when run twice at one seed."""
    world = synth_and_split(tmp_path, seed=2)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 2]
    tagged = ["--vocab", world / "vocab.json", "--features", world / "features.shtf",
              "--model", world / "tags.stln"]
    assert run_cli(*base, "--set", "epochs=1", "--set", "tag_lstm_epochs=1", "train-tags",
                   "--manifest", world / "manifest.jsonl", *tagged[:4],
                   "--split", world / "split.json", "--output", world / "tags.stln") == 0
    assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--subset", "test",
                   "--output", world / "q.tsv") == 0
    make_qa_fixture(world, read_shtf(world / "features.shtf"), n_items=20, seed=2)
    untrained = untrained_checkpoint(world, seed=2)
    two_shot_clip(tmp_path / "clip.fseq")
    movie = json.loads((world / "split.json").read_text())["test_movies"][0]
    genre = corpus.TagVocabulary.load(world / "vocab.json").genres[0]
    qa_args = ["--features", world / "features.shtf", "--items", world / "qa_items.tsv",
               "--embeddings", world / "embeddings.txt"]

    def run_all(out):
        for argv in (
                ["eval-tags", "--manifest", world / "manifest.jsonl", *tagged,
                 "--split", world / "split.json", "--out-dir", out / "tag_eval"],
                ["retrieve", *tagged, "--video-id", movie, "--tag", genre,
                 "--output", out / "series.tsv", "--ranked-output", out / "ranked.tsv"],
                ["train-qa", *qa_args, "--output", out / "qa.stln"],
                ["eval-qa", *qa_args, "--model", out / "qa.stln", "--metrics", out / "qa.tsv"],
                ["eval-temporal", "--features", world / "features.shtf", "--questions",
                 world / "q.tsv", "--model", untrained, "--results", out / "results.tsv",
                 "--metrics", out / "temporal.tsv"],
                ["segment", "--input", tmp_path / "clip.fseq", "--video-id", "clip",
                 "--output", out / "shots.tsv"],
                ["extract", "--input", tmp_path / "clip.fseq", "--shots", out / "shots.tsv",
                 "--output", out / "clip.shtf"]):
            assert run_cli(*base, *argv) == 0, argv[0]
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    first, second = run_all(tmp_path / "a"), run_all(tmp_path / "b")
    assert len(first) == 10 and first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name


def test_eval_temporal_random_init_near_chance(tmp_path):
    world = synth_and_split(tmp_path, seed=1)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1]
    assert run_cli(*base, "--set", "stride=1",
                   "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--subset", "train",
                   "--setting", "in_movie",
                   "--output", world / "q.tsv") == 0
    assert run_cli(*base, "eval-temporal", "--features", world / "features.shtf",
                   "--questions", world / "q.tsv", "--model", untrained_checkpoint(world, 1),
                   "--results", world / "r.tsv", "--metrics", world / "m.tsv") == 0
    metrics = dict(l.split("\t") for l in (world / "m.tsv").read_text().splitlines())
    acc = float(metrics["lstm.in_movie.accuracy"])
    # tiny config uses 8 candidates: chance 0.125 over ~250 questions
    assert abs(acc - 0.125) < 0.07


@pytest.mark.parametrize("val", [pytest.param(False, id="no-val"), pytest.param(True, id="val")])
def test_temporal_checkpoint_round_trips_through_eval_temporal(tmp_path, capsys, val):
    world = synth_and_split(tmp_path, seed=7)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 7]
    for subset in ("train", "val", "test"):
        assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                       "--split", world / "split.json", "--subset", subset,
                       "--output", world / f"{subset}_q.tsv") == 0
    val_args = ["--val-questions", world / "val_q.tsv"] if val else []
    capsys.readouterr()
    assert run_cli(*base, "--set", "temporal_epochs=2", "train-temporal",
                   "--features", world / "features.shtf",
                   "--questions", world / "train_q.tsv", *val_args,
                   "--output", world / "t.stln") == 0
    summary = capsys.readouterr().err.splitlines()[-1].split("\t")
    row = [json.loads(l) for l in (tmp_path / "log.jsonl").read_text().splitlines()][-1]
    # a val figure is printed only when there is a validation set
    assert summary[0] == "train-temporal" and summary[2].startswith("loss ")
    assert summary[3:] == ([f"val {row['epoch_val_accuracy'][-1]:.4f}"] if val else [])
    assert row["command"] == "train-temporal" and len(row["epoch_loss"]) == 2
    assert all(np.isfinite(row["epoch_loss"]))
    assert len(row["epoch_s"]) == len(row["examples_per_s"]) == 2
    assert all(s > 0 for s in row["epoch_s"]) and all(r > 0 for r in row["examples_per_s"])
    if val:
        assert len(row["epoch_val_accuracy"]) == 2
        assert all(0.0 <= a <= 1.0 for a in row["epoch_val_accuracy"])
    else:
        assert "epoch_val_accuracy" not in row
    # evaluated under the default config: the widths come from the checkpoint
    assert run_cli(*base, "eval-temporal", "--features", world / "features.shtf",
                   "--questions", world / "test_q.tsv", "--model", world / "t.stln",
                   "--results", world / "r.tsv", "--metrics", world / "m.tsv") == 0
    store = read_shtf(world / "features.shtf")
    model = temporal.NextShotModel.from_state(load_checkpoint(world / "t.stln"))
    # tiny.cfg's widths and the rms scale of the world's features
    assert model.hidden_dim == 32
    assert [w.data.shape[1] for w, _ in model.scorer.layers] == [64, 16, 1]
    assert model.input_scale == np.float32(temporal._unit_rms_scale(store))
    questions = temporal.read_questions(world / "test_q.tsv", store)
    targets = questions.correct
    probs = model.probabilities_batch(store.matrix[questions.context],
                                      store.matrix[questions.candidates]).data
    chosen = probs.argmax(axis=1)
    expected = sorted(f"{qid}\t{c}\t{p[c]:.6f}" for qid, c, p in zip(questions.qids, chosen, probs))
    assert (world / "r.tsv").read_text().splitlines() == expected
    metrics = dict(l.split("\t") for l in (world / "m.tsv").read_text().splitlines())
    for setting in (temporal.IN_MOVIE, temporal.CROSS_MOVIE):
        hits = [c == t for s, c, t in zip(questions.settings, chosen, targets) if s == setting]
        assert metrics[f"lstm.{setting}.accuracy"] == f"{np.mean(hits):.6f}"


@pytest.mark.parametrize("proj_dim", [0, 16])
def test_tag_checkpoint_round_trips_through_eval_tags_and_retrieve(tmp_path, proj_dim):
    world = synth_and_split(tmp_path, seed=9)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 9]
    tagged = ["--vocab", world / "vocab.json", "--features", world / "features.shtf"]
    assert run_cli(*base, "--set", f"proj_dim={proj_dim}", "train-tags",
                   "--manifest", world / "manifest.jsonl", *tagged,
                   "--split", world / "split.json", "--output", world / "tags.stln") == 0
    row = [json.loads(l) for l in (tmp_path / "log.jsonl").read_text().splitlines()][-1]
    assert row["command"] == "train-tags" and "epoch_val_accuracy" not in row
    assert len(row["epoch_loss"]) == len(row["epoch_s"]) == len(row["examples_per_s"]) == 8
    assert min(row["epoch_s"]) > 0 and min(row["examples_per_s"]) > 0
    # tiny.cfg trains the tag sequence scorer for 3 epochs
    assert (len(row["lstm_epoch_loss"]) == len(row["lstm_epoch_s"])
            == len(row["lstm_examples_per_s"]) == 3)
    assert min(row["lstm_epoch_s"]) > 0 and min(row["lstm_examples_per_s"]) > 0
    assert "lstm_epoch_val_accuracy" not in row
    # evaluated under the default config: the projection comes from the checkpoint
    assert run_cli(*base, "eval-tags", "--manifest", world / "manifest.jsonl", *tagged,
                   "--model", world / "tags.stln", "--split", world / "split.json",
                   "--out-dir", world / "eval") == 0
    split = json.loads((world / "split.json").read_text())
    movie = split["test_movies"][0]
    vocabulary = corpus.TagVocabulary.load(world / "vocab.json")
    genre = vocabulary.genres[0]
    assert run_cli(*base, "retrieve", *tagged, "--model", world / "tags.stln",
                   "--video-id", movie, "--tag", genre, "--output", world / "series.tsv",
                   "--ranked-output", world / "ranked.tsv") == 0
    store = read_shtf(world / "features.shtf")
    model = tags.TagModel.from_state(load_checkpoint(world / "tags.stln"), vocabulary)
    assert (model.projection is None) == (proj_dim == 0)
    predictions = [tags.infer_score_average(model, vid, store.sequence(vid))
                   for vid in split["test_movies"]]
    tags.write_predictions(world / "expected.tsv", predictions, vocabulary)
    assert (world / "eval/predictions.tsv").read_text() == (world / "expected.tsv").read_text()
    series = tags.shot_tag_response(model, store.sequence(movie), genre)
    assert (world / "series.tsv").read_text() == "".join(f"{o}\t{v:.6f}\n" for o, v in series)


def test_non_finite_training_loss_fails_the_command(tmp_path, capsys):
    # a feature store cannot hold a NaN any more, so the weights overflow instead
    world = synth_and_split(tmp_path, seed=8)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 8,
            "--set", "temporal_learning_rate=3e38", "--set", "temporal_batch_size=4"]
    assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--output", world / "q.tsv") == 0
    capsys.readouterr()
    assert run_cli(*base, "train-temporal", "--features", world / "features.shtf",
                   "--questions", world / "q.tsv", "--output", world / "t.stln") == 1
    err = capsys.readouterr().err.splitlines()
    assert any(l.startswith("error\tFloatingPointError\ttrain_next_shot: epoch 0, batch start ")
               and l.endswith("non-finite loss nan") for l in err)
    assert not (world / "t.stln").exists()


def test_non_finite_qa_loss_fails_the_command(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=8)
    store = read_shtf(world / "features.shtf")
    make_qa_fixture(world, store, n_items=20, seed=8)
    # every input is finite, but the float32 mean of item 3's clip overflows to
    # inf in two columns, so the scorer's first layer sums inf and -inf
    clip = qa.read_qa_items(world / "qa_items.tsv", store)[3].clip_shots
    poisoned = FeatureStore(store.dim)
    for key, values in zip(store.keys(), store.matrix):
        poisoned.add(*key, np.where(np.arange(store.dim) < 2, np.float32(3e38), values)
                     if key in clip else values)
    write_shtf(world / "features.shtf", poisoned)
    capsys.readouterr()
    assert run_cli("--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 8,
                   "train-qa", "--features", world / "features.shtf",
                   "--items", world / "qa_items.tsv", "--embeddings", world / "embeddings.txt",
                   "--output", world / "qa.stln") == 1
    err = capsys.readouterr().err.splitlines()
    assert any(l.startswith("error\tFloatingPointError\ttrain_qa: epoch 0, batch start ")
               and l.endswith("non-finite loss nan") for l in err)
    assert not (world / "qa.stln").exists()


def _poison(path, name):
    """Rewrite the checkpoint at path with one NaN in its entry name."""
    state = load_checkpoint(path)
    state[name].flat[1] = np.nan
    save_checkpoint(path, state)


@given(kind=st.sampled_from(["nextshot", "tags"]), feature_dim=st.integers(1, 6),
       hidden=st.integers(1, 6), widths=st.lists(st.integers(1, 6), max_size=2),
       proj_dim=st.integers(0, 4), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_non_finite_value_anywhere_in_a_state_is_named(tmp_path_factory, kind, feature_dim,
                                                         hidden, widths, proj_dim, bad, data):
    root = tmp_path_factory.mktemp("poisoned")
    vocab = corpus.TagVocabulary(["g0", "g1"], ["k0", "k1", "k2"])
    if kind == "nextshot":
        model = temporal.NextShotModel.fresh(feature_dim, hidden, tuple(widths), seed=1,
                                             input_scale=1.0)
    else:
        model = tags.TagModel.fresh(vocab, feature_dim, proj_dim or None, derive_rng(1, "t"))
    state = model.state()
    names = list(model.parameters())
    entry = data.draw(st.sampled_from(names))
    index = tuple(data.draw(st.integers(0, size - 1)) for size in state[entry].shape)
    state[entry][index] = bad
    save_checkpoint(root / "model.stln", state)
    loaded = load_checkpoint(root / "model.stln")
    message = f"'{entry}' holds 1 non-finite value(s), the first at index {index}"
    with pytest.raises(ValueError) as caught:
        if kind == "nextshot":
            temporal.NextShotModel.from_state(loaded)
        else:
            tags.TagModel.from_state(loaded, vocab)
    assert str(caught.value) == message
    if kind == "tags":
        return
    store = FeatureStore(feature_dim)
    for o in range(12):
        store.add("m0", o, np.full(feature_dim, o + 1, dtype=np.float32))
    write_shtf(root / "features.shtf", store)
    temporal.write_questions(root / "q.tsv", temporal.generate_questions(
        store, ["m0"], temporal.IN_MOVIE, mctx=2, n_candidates=3, seed=0)[0])
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert run_cli("--run-log", root / "log.jsonl", "eval-temporal", "--features",
                       root / "features.shtf", "--questions", root / "q.tsv", "--model",
                       root / "model.stln", "--results", root / "r.tsv",
                       "--metrics", root / "m.tsv") == 1
    assert f"error\tValueError\t{root / 'model.stln'}: {message}" in err.getvalue()
    assert not (root / "r.tsv").exists() and not (root / "m.tsv").exists()


def test_a_non_finite_checkpoint_weight_fails_every_loader(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=9)
    make_qa_fixture(world, read_shtf(world / "features.shtf"), n_items=20, seed=9)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 9]
    tag_inputs = ["--vocab", world / "vocab.json", "--features", world / "features.shtf"]
    assert run_cli(*base, "--set", "epochs=1", "--set", "tag_lstm_epochs=1", "train-tags",
                   "--manifest", world / "manifest.jsonl", *tag_inputs,
                   "--output", world / "tags.stln") == 0
    assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--output", world / "q.tsv") == 0
    assert run_cli(*base, "--set", "temporal_epochs=1", "train-temporal",
                   "--features", world / "features.shtf", "--questions", world / "q.tsv",
                   "--output", world / "t.stln") == 0
    assert run_cli(*base, "--set", "qa_epochs=1", "train-qa",
                   "--features", world / "features.shtf", "--items", world / "qa_items.tsv",
                   "--output", world / "qa.stln") == 0
    _poison(world / "tags.stln", "head.genre.weights")
    _poison(world / "t.stln", "nextshot.mlp.1.weights")
    _poison(world / "qa.stln", "qa.mlp.0.bias")
    movie = corpus.load_manifest(world / "manifest.jsonl")[0].video_id
    runs = {
        "eval-tags": (["--manifest", world / "manifest.jsonl", *tag_inputs,
                       "--model", world / "tags.stln", "--out-dir", world / "tag_eval"],
                      world / "tags.stln", "head.genre.weights", world / "tag_eval"),
        "retrieve": ([*tag_inputs, "--model", world / "tags.stln", "--video-id", movie,
                      "--tag", "x", "--output", world / "s.tsv",
                      "--ranked-output", world / "r.tsv"],
                     world / "tags.stln", "head.genre.weights", world / "s.tsv"),
        "eval-temporal": (["--features", world / "features.shtf", "--questions", world / "q.tsv",
                           "--model", world / "t.stln", "--results", world / "res.tsv",
                           "--metrics", world / "m.tsv"],
                          world / "t.stln", "nextshot.mlp.1.weights", world / "res.tsv"),
        "eval-qa": (["--features", world / "features.shtf", "--items", world / "qa_items.tsv",
                     "--model", world / "qa.stln", "--metrics", world / "qa_m.tsv"],
                    world / "qa.stln", "qa.mlp.0.bias", world / "qa_m.tsv"),
    }
    for command, (args, checkpoint, entry, output) in runs.items():
        capsys.readouterr()
        assert run_cli(*base, command, *args) == 1, command
        assert (f"error\tValueError\t{checkpoint}: '{entry}' holds 1 non-finite value(s), "
                f"the first at index ") in capsys.readouterr().err, command
        assert not output.exists(), command


def _trained_checkpoints(tmp_path):
    """A tiny world with a one-epoch tag checkpoint and next-shot checkpoint."""
    world = synth_and_split(tmp_path, seed=5)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 5]
    assert run_cli(*base, "--set", "epochs=1", "--set", "tag_lstm_epochs=1", "train-tags",
                   "--manifest", world / "manifest.jsonl", "--vocab", world / "vocab.json",
                   "--features", world / "features.shtf", "--output", world / "tags.stln") == 0
    assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--output", world / "q.tsv") == 0
    assert run_cli(*base, "--set", "temporal_epochs=1", "train-temporal",
                   "--features", world / "features.shtf", "--questions", world / "q.tsv",
                   "--output", world / "t.stln") == 0
    return world, base


def _checkpoint_runs(world, features):
    """command -> (arguments, checkpoint, outputs) of each loader of a checkpoint."""
    tagged = ["--vocab", world / "vocab.json", "--features", features,
              "--model", world / "tags.stln"]
    movie = json.loads((world / "split.json").read_text())["test_movies"][0]
    return {
        "eval-tags": (["--manifest", world / "manifest.jsonl", *tagged,
                       "--out-dir", world / "tag_eval"], world / "tags.stln",
                      [world / "tag_eval"]),
        "retrieve": ([*tagged, "--video-id", movie, "--tag", "x", "--output", world / "s.tsv",
                      "--ranked-output", world / "r.tsv"], world / "tags.stln",
                     [world / "s.tsv", world / "r.tsv"]),
        "eval-temporal": (["--features", features, "--questions", world / "q.tsv",
                           "--model", world / "t.stln", "--results", world / "res.tsv",
                           "--metrics", world / "m.tsv"], world / "t.stln",
                          [world / "res.tsv", world / "m.tsv"]),
    }


def _assert_fails_writing_nothing(capsys, base, command, args, outputs, error):
    """The command exits 1 with error as its last stderr line, creates none of
    outputs and appends no row to the run log (base is ["--run-log", log, ...])."""
    log = base[1]
    rows = log.read_text()
    capsys.readouterr()
    assert run_cli(*base, command, *args) == 1, command
    assert capsys.readouterr().err.splitlines()[-1] == error, command
    assert not any(path.exists() for path in outputs), command
    assert log.read_text() == rows, command


def _write_wide_copy(world) -> FeatureStore:
    """Write world/wide.shtf, the world's features with three more values
    each, and return the world's own store."""
    store = read_shtf(world / "features.shtf")
    wide = FeatureStore(store.dim + 3)
    for key, values in zip(store.keys(), store.matrix):
        wide.add(*key, np.concatenate([values, np.ones(3, dtype=np.float32)]))
    write_shtf(world / "wide.shtf", wide)
    return store


def test_a_checkpoint_of_another_feature_width_fails_before_any_work(tmp_path, capsys):
    world, base = _trained_checkpoints(tmp_path)
    store = _write_wide_copy(world)
    for command, (args, checkpoint, outputs) in _checkpoint_runs(world,
                                                                 world / "wide.shtf").items():
        _assert_fails_writing_nothing(
            capsys, base, command, args, outputs,
            f"error\tValueError\t{checkpoint} takes {store.dim}-value features, "
            f"but {world / 'wide.shtf'} holds {store.dim + 3}-value ones")


def test_a_tag_sequence_scorer_of_another_width_fails_eval_tags(tmp_path, capsys):
    world, base = _trained_checkpoints(tmp_path)
    state = load_checkpoint(world / "tags.stln")
    vocabulary = corpus.TagVocabulary.load(world / "vocab.json")
    state.update(tags.TagLstm.fresh(vocabulary, 17, 16, derive_rng(0, "other")).state())
    save_checkpoint(world / "tags.stln", state)
    args, checkpoint, outputs = _checkpoint_runs(world, world / "features.shtf")["eval-tags"]
    _assert_fails_writing_nothing(
        capsys, base, "eval-tags", args, outputs,
        f"error\tValueError\t{checkpoint}: 'taglstm.lstm.weights' takes 17-value inputs, "
        f"but the tag model gives 16")


@pytest.mark.parametrize("command, scalar", [("eval-temporal", "nextshot.input_scale")])
def test_a_checkpoint_without_a_scalar_fails_naming_it(tmp_path, capsys, command, scalar):
    world, base = _trained_checkpoints(tmp_path)
    args, checkpoint, outputs = _checkpoint_runs(world, world / "features.shtf")[command]
    state = load_checkpoint(checkpoint)
    del state[scalar]
    save_checkpoint(checkpoint, state)
    _assert_fails_writing_nothing(capsys, base, command, args, outputs,
                                  f"error\tValueError\t{checkpoint}: model state has no '{scalar}'")


def test_a_version_1_checkpoint_fails_naming_the_file(tmp_path, capsys):
    # version 1 states also held tags.scoring and nextshot.context_pooling, where
    # code 1 meant the removed softmax scoring or mean pooling: none may load
    world, base = _trained_checkpoints(tmp_path)
    make_qa_fixture(world, read_shtf(world / "features.shtf"), n_items=20, seed=5)
    save_checkpoint(world / "qa.stln", qa.QaModel.fresh(16, 16, (64, 16), seed=0).state())
    runs = _checkpoint_runs(world, world / "features.shtf")
    runs["eval-qa"] = (["--features", world / "features.shtf", "--items", world / "qa_items.tsv",
                        "--embeddings", world / "embeddings.txt", "--model", world / "qa.stln",
                        "--metrics", world / "qa_m.tsv"], world / "qa.stln", [world / "qa_m.tsv"])
    for path, code in ((world / "tags.stln", "tags.scoring"),
                       (world / "t.stln", "nextshot.context_pooling"), (world / "qa.stln", None)):
        state = load_checkpoint(path)
        if code == "tags.scoring":  # written after the tag model's weights, as version 1 did
            names = list(state)
            split = names.index("taglstm.lstm.weights")
            state = {**{k: state[k] for k in names[:split]}, code: np.float32(1),
                     **{k: state[k] for k in names[split:]}}
        elif code:
            state[code] = np.float32(1)
        save_checkpoint(path, state)
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<I", 1) + data[8:])
    for command, (args, checkpoint, outputs) in runs.items():
        _assert_fails_writing_nothing(
            capsys, base, command, args, outputs,
            f"error\tFormatError\t{checkpoint}: unsupported format version 1 (expected 2)")


def test_eval_qa_on_features_of_another_width_names_both_files(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=6)
    store = _write_wide_copy(world)
    make_qa_fixture(world, store, n_items=20, seed=6)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 6]
    assert run_cli(*base, "--set", "qa_epochs=1", "train-qa",
                   "--features", world / "features.shtf", "--items", world / "qa_items.tsv",
                   "--output", world / "qa.stln") == 0
    # rows of 16 + 2 * 16 = 48 values; the wide copy's 19-value features give 51
    _assert_fails_writing_nothing(
        capsys, base, "eval-qa", ["--features", world / "wide.shtf", "--items",
                                  world / "qa_items.tsv", "--model", world / "qa.stln",
                                  "--metrics", world / "m.tsv"], [world / "m.tsv"],
        f"error\tValueError\t{world / 'qa.stln'} scores 48-value rows, but "
        f"{world / 'wide.shtf'} holds 19-value features, which with embed_dim=16 give "
        f"51-value ones")


def test_retrieve_names_an_unknown_video_or_tag_with_its_flag(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=4)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 4]
    vocabulary = corpus.TagVocabulary.load(world / "vocab.json")
    save_checkpoint(world / "tags.stln",
                    tags.TagModel.fresh(vocabulary, 16, 16, derive_rng(4, "tags.init")).state())
    movie = json.loads((world / "split.json").read_text())["test_movies"][0]
    outputs = [world / "s.tsv", world / "r.tsv"]
    for video, tag, error in (
            ("nope", vocabulary.genres[0],
             f"--video-id 'nope': {world / 'features.shtf'} holds no features of that video"),
            (movie, "nope",
             f"--tag 'nope': {world / 'vocab.json'} has no genre or keyword of that name")):
        _assert_fails_writing_nothing(
            capsys, base, "retrieve", ["--vocab", world / "vocab.json",
                                       "--features", world / "features.shtf",
                                       "--model", world / "tags.stln", "--video-id", video,
                                       "--tag", tag, "--output", outputs[0],
                                       "--ranked-output", outputs[1]],
            outputs, f"error\tValueError\t{error}")


@pytest.mark.parametrize("value", [-1, 0])
def test_retrieve_rejects_top_shots_below_one(tmp_path, capsys, value):
    world = synth_and_split(tmp_path, seed=1)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1,
            "--set", f"top_shots={value}"]
    vocabulary = corpus.TagVocabulary.load(world / "vocab.json")
    save_checkpoint(world / "tags.stln",
                    tags.TagModel.fresh(vocabulary, 16, 16, derive_rng(1, "tags.init")).state())
    movie = json.loads((world / "split.json").read_text())["test_movies"][0]
    outputs = [world / "s.tsv", world / "r.tsv"]
    _assert_fails_writing_nothing(
        capsys, base, "retrieve", ["--vocab", world / "vocab.json",
                                   "--features", world / "features.shtf",
                                   "--model", world / "tags.stln", "--video-id", movie,
                                   "--tag", vocabulary.genres[0], "--output", outputs[0],
                                   "--ranked-output", outputs[1]],
        outputs, f"error\tValueError\ttop_shots must be at least 1, got {value}")


@pytest.mark.parametrize("key, value", [("stride", -3), ("exclusion_radius", -2)])
def test_gen_questions_rejects_a_negative_stride_or_radius(tmp_path, capsys, key, value):
    world = synth_and_split(tmp_path, seed=1)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1,
            "--set", f"{key}={value}"]
    _assert_fails_writing_nothing(
        capsys, base, "gen-questions", ["--features", world / "features.shtf",
                                        "--split", world / "split.json", "--subset", "train",
                                        "--setting", "both", "--output", world / "q.tsv"],
        [world / "q.tsv"],
        f"error\tValueError\tgenerate_questions: {key} must not be negative, got {value}")


@pytest.mark.parametrize("key, value", [
    ("context_pooling", "mean"), ("scoring", "softmax"), ("map_axis", "video"), ("recall_k", "5"),
    ("frames_per_shot", "3"), ("seg_window", "24"), ("seg_threshold_scale", "4.0"),
    ("seg_min_shot_len", "8"), ("seg_floor", "0.2"), ("genre_weight", "0.5"),
    ("tag_lstm_learning_rate", "0.05"), ("qa_batch_size", "32"), ("qa_learning_rate", "0.05"),
    ("qa_patience", "5"), ("prototype_max_cos", "0.3"), ("tag_threshold", "0.1"),
    ("trailer_len_min", "15"), ("trailer_len_max", "40"), ("trailer_shuffle", "1"),
    ("trailer_subsets", "3")])
def test_a_removed_config_key_is_unknown(tmp_path, capsys, key, value):
    config = tmp_path / "c.cfg"
    config.write_text(f"{key}={value}\n")
    for options, where in ((["--set", f"{key}={value}"], f"--set {key}={value}"),
                           (["--config", config], f"{config}: line 1")):
        capsys.readouterr()
        assert run_cli("--run-log", tmp_path / "log.jsonl", *options,
                       "synth", "--out-dir", tmp_path / "world") == 1
        assert (capsys.readouterr().err.splitlines()[-1]
                == f"error\tValueError\t{where}: unknown config key {key!r}")
    assert not (tmp_path / "world").exists() and not (tmp_path / "log.jsonl").exists()


@pytest.mark.parametrize("text, kind, parsed", [
    ("", int, ()), ("64,16", int, (64, 16)), ("64,16,", int, (64, 16)), ("2, 5", int, (2, 5)),
    ("0.6,0.2,0.2", float, (0.6, 0.2, 0.2))])
def test_a_list_setting_parses_to_a_tuple(text, kind, parsed):
    assert _numbers({"key": text}, "key", kind) == parsed


def test_a_list_setting_that_does_not_parse_is_named(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=4)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 4]
    assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--output", world / "q.tsv") == 0
    split_args = ["--manifest", world / "manifest.jsonl", "--output", world / "s.json"]
    temporal_args = ["--features", world / "features.shtf", "--questions", world / "q.tsv",
                     "--output", world / "t.stln"]
    for key, value, kind, command, args, output in [
            ("split_ratios", "0.6,x,0.2", "float", "split", split_args, world / "s.json"),
            ("scorer_widths", "64,x", "int", "train-temporal", temporal_args, world / "t.stln")]:
        _assert_fails_writing_nothing(
            capsys, [*base, "--set", f"{key}={value}"], command, args, [output],
            f"error\tValueError\tcannot parse {key}={value!r} as a list of {kind}")


@pytest.mark.parametrize("setting, error", [
    ("movies=0", "n_movies must be at least 1, got 0"),
    ("keyword_prob=1.5", "keyword_prob must be in [0, 1], got 1.5"),
    ("movie_topic_count=-2", "movie_topic_count must not be negative, got -2"),
    ("movie_topic_count=9", "movie_topic_count must not exceed topics (6), got 9"),
    # NaN fails every comparison, so a plain "< 0" test would let it through
    ("noise_sigma=nan", "noise_sigma must not be negative, got nan"),
    ("movie_style_sigma=nan", "movie_style_sigma must not be negative, got nan"),
    ("successor_mass=nan", "successor_mass must not be negative, got nan"),
    # an infinite sigma overflows every feature it touches
    ("noise_sigma=inf", "noise_sigma must be finite, got inf"),
    ("movie_style_sigma=inf", "movie_style_sigma must be finite, got inf")])
def test_synth_rejects_an_out_of_range_world_setting(tmp_path, capsys, setting, error):
    log = tmp_path / "log.jsonl"
    log.write_text("")
    _assert_fails_writing_nothing(
        capsys, ["--run-log", log, "--config", TINY, "--seed", 1, "--set", setting], "synth",
        ["--out-dir", tmp_path / "world"], [tmp_path / "world"], f"error\tValueError\t{error}")


def test_train_tags_rejects_a_negative_proj_dim(tmp_path, capsys):
    # 0 means no projection; a negative width is an error, not another way to say 0
    world = synth_and_split(tmp_path, seed=1)
    _assert_fails_writing_nothing(
        capsys, ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1,
                 "--set", "proj_dim=-1"],
        "train-tags", ["--manifest", world / "manifest.jsonl", "--vocab", world / "vocab.json",
                       "--features", world / "features.shtf", "--output", world / "tags.stln"],
        [world / "tags.stln"], "error\tValueError\tproj_dim must not be negative, got -1")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_learning_rate_fails_before_the_first_batch(tmp_path, capsys, value):
    world = synth_and_split(tmp_path, seed=1)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1]
    assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--output", world / "q.tsv") == 0
    tag_args = ["--manifest", world / "manifest.jsonl", "--vocab", world / "vocab.json",
                "--features", world / "features.shtf", "--output", world / "tags.stln"]
    temporal_args = ["--features", world / "features.shtf", "--questions", world / "q.tsv",
                     "--output", world / "t.stln"]
    for key, command, args, where in [
            ("learning_rate", "train-tags", tag_args, "train_tags"),
            ("temporal_learning_rate", "train-temporal", temporal_args, "train_next_shot")]:
        _assert_fails_writing_nothing(
            capsys, [*base, "--set", f"{key}={value}"], command, args, [args[-1]],
            f"error\tValueError\t{where}: learning_rate must be finite and positive, got {value}")


@pytest.mark.parametrize("ratios, parsed", [
    ("1", "(1.0,)"), ("0.5,0.2,0.2,0.1", "(0.5, 0.2, 0.2, 0.1)"),
    ("1.2,-0.1,-0.1", "(1.2, -0.1, -0.1)"), ("0.5,nan,0.5", "(0.5, nan, 0.5)")])
def test_split_rejects_ratios_that_are_not_three_in_the_unit_interval(tmp_path, capsys,
                                                                      ratios, parsed):
    world = synth_and_split(tmp_path, seed=1)
    _assert_fails_writing_nothing(
        capsys, ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1,
                 "--set", f"split_ratios={ratios}"],
        "split", ["--manifest", world / "manifest.jsonl", "--output", world / "s.json"],
        [world / "s.json"],
        f"error\tValueError\tsplit_ratios must be three values in [0, 1], got {parsed}")


def test_wall_time_survives_a_clock_that_steps_back(tmp_path, monkeypatch):
    from shotline import cli
    wall_clock = time.time
    readings = []

    def stepping_back():
        readings.append(wall_clock())
        return readings[-1] - (3600.0 if len(readings) > 1 else 0.0)

    monkeypatch.setattr(cli.time, "time", stepping_back)
    assert run_cli("--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1,
                   "synth", "--out-dir", tmp_path / "world") == 0
    monkeypatch.undo()
    row = json.loads((tmp_path / "log.jsonl").read_text())
    assert row["wall_time_ms"] >= 0


def _overflow(path, prefix):
    """Rewrite the scorer of the checkpoint at path so that every score
    overflows: the last hidden layer saturates at 1 and the output weights
    are 3e37, finite, so the loader takes them, but 16 of them sum to inf."""
    state = load_checkpoint(path)
    state[f"{prefix}mlp.1.bias"][...] = 1e3
    state[f"{prefix}mlp.2.weights"][...] = 3e37
    save_checkpoint(path, state)


def test_eval_temporal_fails_on_a_non_finite_distribution(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=1)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1]
    assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--output", world / "q.tsv") == 0
    assert run_cli(*base, "--set", "temporal_epochs=1", "train-temporal",
                   "--features", world / "features.shtf", "--questions", world / "q.tsv",
                   "--output", world / "t.stln") == 0
    _overflow(world / "t.stln", "nextshot.")
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert run_cli(*base, "eval-temporal", "--features", world / "features.shtf",
                       "--questions", world / "q.tsv", "--model", world / "t.stln",
                       "--results", world / "res.tsv", "--metrics", world / "m.tsv") == 1
    first = (world / "q.tsv").read_text().split("\t", 1)[0]
    assert (f"error\tFloatingPointError\t{first}: non-finite candidate distribution"
            in capsys.readouterr().err.splitlines())
    assert not (world / "res.tsv").exists() and not (world / "m.tsv").exists()


def test_eval_qa_fails_on_a_non_finite_distribution(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=1)
    make_qa_fixture(world, read_shtf(world / "features.shtf"), n_items=20, seed=1)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1]
    assert run_cli(*base, "--set", "qa_epochs=1", "train-qa",
                   "--features", world / "features.shtf", "--items", world / "qa_items.tsv",
                   "--output", world / "qa.stln") == 0
    _overflow(world / "qa.stln", "qa.")
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert run_cli(*base, "eval-qa", "--features", world / "features.shtf",
                       "--items", world / "qa_items.tsv", "--model", world / "qa.stln",
                       "--metrics", world / "m.tsv") == 1
    assert ("error\tFloatingPointError\titem000: non-finite answer distribution"
            in capsys.readouterr().err.splitlines())
    assert not (world / "m.tsv").exists()


def test_qa_items_naming_a_missing_shot_fail_train_and_eval_qa(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=1)
    make_qa_fixture(world, read_shtf(world / "features.shtf"), n_items=20, seed=1)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1]
    assert run_cli(*base, "--set", "qa_epochs=1", "train-qa",
                   "--features", world / "features.shtf", "--items", world / "qa_items.tsv",
                   "--output", world / "qa.stln") == 0
    missing = tmp_path / "missing.tsv"
    missing.write_text("i0\twho?\ta|b\tm0000#999\t0\n")
    message = f"error\tValueError\t{missing}: line 1: no feature for shot m0000#999"
    runs = {"train-qa": ["--output", tmp_path / "qa.stln"],
            "eval-qa": ["--model", world / "qa.stln", "--metrics", tmp_path / "m.tsv"]}
    for command, args in runs.items():
        capsys.readouterr()
        assert run_cli(*base, command, "--features", world / "features.shtf",
                       "--items", missing, *args) == 1, command
        assert message in capsys.readouterr().err.splitlines(), command
        assert not args[-1].exists(), command


def test_extract_rejects_a_shot_outside_the_clip(tmp_path, capsys):
    frames = np.full((20, 8, 8, 3), 120, dtype=np.uint8)
    write_fseq(tmp_path / "clip.fseq", FrameSequence(frames))
    (tmp_path / "shots.tsv").write_text("v\t0\t-6\t3\n")
    capsys.readouterr()
    assert run_cli("--run-log", tmp_path / "log.jsonl",
                   "extract", "--input", tmp_path / "clip.fseq",
                   "--shots", tmp_path / "shots.tsv", "--output", tmp_path / "clip.shtf") == 1
    err = capsys.readouterr().err.splitlines()
    assert "error\tValueError\tshot v#0 [-6, 3) lies outside the clip of 20 frames" in err
    assert not (tmp_path / "clip.shtf").exists()


def test_eval_qa_rejects_a_mismatched_embed_dim(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=6)
    make_qa_fixture(world, read_shtf(world / "features.shtf"), n_items=20, seed=6)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 6]
    assert run_cli(*base, "--set", "qa_epochs=1", "train-qa",
                   "--features", world / "features.shtf", "--items", world / "qa_items.tsv",
                   "--output", world / "qa.stln") == 0
    capsys.readouterr()
    # trained with embed_dim=16: rows of 16 + 2 * 16 = 48; embed_dim=8 gives 32
    assert run_cli(*base, "--set", "embed_dim=8", "eval-qa",
                   "--features", world / "features.shtf", "--items", world / "qa_items.tsv",
                   "--model", world / "qa.stln", "--metrics", world / "m.tsv") == 1
    err = capsys.readouterr().err.splitlines()
    assert (f"error\tValueError\t{world / 'qa.stln'} scores 48-value rows, but "
            f"{world / 'features.shtf'} holds 16-value features, which with embed_dim=8 give "
            f"32-value ones") in err
    assert not (world / "m.tsv").exists()


def test_eval_qa_names_the_table_when_embed_dim_does_not_fit_it(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=6)
    make_qa_fixture(world, read_shtf(world / "features.shtf"), n_items=20, seed=6)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 6]
    table = world / "embeddings.txt"
    # a checkpoint for embed_dim=8 passes the width check; the 16-value table does not fit
    save_checkpoint(world / "qa.stln", qa.QaModel.fresh(16, 8, (64, 16), seed=0).state())
    capsys.readouterr()
    assert run_cli(*base, "--set", "embed_dim=8", "eval-qa", "--embeddings", table,
                   "--features", world / "features.shtf", "--items", world / "qa_items.tsv",
                   "--model", world / "qa.stln", "--metrics", world / "m.tsv") == 1
    err = capsys.readouterr().err.splitlines()
    assert (f"error\tValueError\t{table}: vector for 'ans000' has shape (16,), expected (8,); "
            "the table's vectors must have embed_dim=8 values") in err
    assert not (world / "m.tsv").exists()


def test_gen_questions_rejects_a_movie_with_an_ordinal_gap(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=2)
    clean = read_shtf(world / "features.shtf")
    split = json.loads((world / "split.json").read_text())
    gapped = split["train_movies"][0]
    store = FeatureStore(clean.dim)
    for (vid, ordinal), values in zip(clean.keys(), clean.matrix):
        if (vid, ordinal) != (gapped, 10):
            store.add(vid, ordinal, values)
    write_shtf(world / "features.shtf", store)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 2]
    capsys.readouterr()
    # a test-subset question pool still reads the gapped training movie
    for subset in ("train", "test"):
        assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                       "--split", world / "split.json", "--subset", subset,
                       "--output", world / "q.tsv") == 1
        err = capsys.readouterr().err.splitlines()
        assert any(l.startswith(f"error\tValueError\tmovie '{gapped}': shot ordinals are not ")
                   and l.endswith("first missing ordinal 10") for l in err)
    assert not (world / "q.tsv").exists()


def test_gen_questions_refuses_an_id_a_label_cannot_carry(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=2)
    split = json.loads((world / "split.json").read_text())
    renamed = split["train_movies"][0]
    clean = read_shtf(world / "features.shtf")
    store = FeatureStore(clean.dim)
    for (vid, ordinal), values in zip(clean.keys(), clean.matrix):
        store.add(f"{vid},x" if vid == renamed else vid, ordinal, values)
    write_shtf(world / "features.shtf", store)
    split["train_movies"][0] = f"{renamed},x"
    (world / "split.json").write_text(json.dumps(split))
    capsys.readouterr()
    assert run_cli("--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 2,
                   "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--subset", "train",
                   "--output", world / "q.tsv") == 1
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == (f"error\tValueError\t{world / 'q.tsv'}: video id '{renamed},x' holds a "
                     f"comma, tab or line break, which a shot label cannot carry")
    assert not (world / "q.tsv").exists()


def test_next_shot_commands_match_the_per_question_oracle_path(tmp_path):
    """gen-questions, train-temporal and eval-temporal under the tiny config
    give the bytes of questions generated, written and resolved one shot id at
    a time, and of a baseline fed one question's shots at a time."""
    seed = 5
    world = synth_and_split(tmp_path, seed=seed)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", seed]
    features = world / "features.shtf"
    for subset in ("train", "test"):
        assert run_cli(*base, "gen-questions", "--features", features, "--split",
                       world / "split.json", "--subset", subset, "--setting", "both",
                       "--output", world / f"{subset}_q.tsv") == 0
    assert run_cli(*base, "train-temporal", "--features", features,
                   "--questions", world / "train_q.tsv", "--output", world / "temporal.stln") == 0
    assert run_cli(*base, "eval-temporal", "--features", features,
                   "--questions", world / "test_q.tsv", "--model", world / "temporal.stln",
                   "--results", world / "results.tsv", "--metrics", world / "metrics.tsv") == 0

    config = load_config(TINY, [])
    store = read_shtf(features)
    split = corpus.CorpusSplit.load(world / "split.json")
    pool = split.train_movies + split.val_movies + split.test_movies
    oracle = {}
    for subset, movies in (("train", split.train_movies), ("test", split.test_movies)):
        questions = []
        for setting in (temporal.IN_MOVIE, temporal.CROSS_MOVIE):
            questions += pool_generator(store, movies, setting, mctx=config["mctx"],
                                        n_candidates=config["candidates"], seed=seed,
                                        exclusion_radius=config["exclusion_radius"],
                                        pool_movie_ids=pool)[0]
        write_oracle_questions(tmp_path / f"{subset}_q.tsv", questions)
        assert ((tmp_path / f"{subset}_q.tsv").read_bytes()
                == (world / f"{subset}_q.tsv").read_bytes()), subset
        oracle[subset] = questions
    model, _ = temporal.train_next_shot(oracle_set(store, oracle["train"]),
                                        _temporal_config(config), seed)
    save_checkpoint(tmp_path / "temporal.stln", model.state())
    assert (tmp_path / "temporal.stln").read_bytes() == (world / "temporal.stln").read_bytes()

    test = oracle["test"]
    rows, hits, baseline_hits = [], {}, {}
    for start in range(0, len(test), 256):
        batch = test[start:start + 256]
        probs = model.probabilities_batch(
            np.stack([store.rows(q.context) for q in batch]),
            np.stack([store.rows(q.candidates) for q in batch])).data
        for q, p in zip(batch, probs):
            chosen = int(np.argmax(p))
            rows.append((q.qid, chosen, float(p[chosen])))
            hits.setdefault(q.setting, []).append(chosen == q.correct_index)
            mean = store.rows(q.context).astype(np.float64).mean(axis=0)
            cands = store.rows(q.candidates).astype(np.float64)
            sims = (cands @ mean) / (np.linalg.norm(cands, axis=1) * np.linalg.norm(mean))
            baseline_hits.setdefault(q.setting, []).append(int(np.argmax(sims)) == q.correct_index)
    temporal.write_results(tmp_path / "results.tsv", sorted(rows))
    metrics = {f"lstm.{s}.accuracy": sum(h) / len(h) for s, h in hits.items()}
    metrics.update({f"average.{s}.accuracy": sum(h) / len(h) for s, h in baseline_hits.items()})
    write_metrics(tmp_path / "metrics.tsv", metrics)
    for name in ("results.tsv", "metrics.tsv"):
        assert (tmp_path / name).read_bytes() == (world / name).read_bytes(), name


def test_eval_temporal_names_an_empty_question_file(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=6)
    (world / "q.tsv").write_text("")
    capsys.readouterr()
    assert run_cli("--config", TINY, "eval-temporal", "--features", world / "features.shtf",
                   "--questions", world / "q.tsv", "--model", untrained_checkpoint(world, 6),
                   "--results", world / "r.tsv", "--metrics", world / "m.tsv") == 1
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == f"error\tValueError\t{world / 'q.tsv'}: no questions to evaluate"


@pytest.mark.parametrize("command, files, what", [
    ("train-temporal", {"--questions": "empty.tsv"}, "questions"),
    ("train-temporal", {"--questions": "q.tsv", "--val-questions": "empty.tsv"}, "questions"),
    ("train-qa", {"--items": "empty.tsv"}, "items"),
    ("train-qa", {"--items": "qa_items.tsv", "--val-items": "empty.tsv"}, "items"),
    ("eval-qa", {"--items": "empty.tsv", "--model": "qa.stln"}, "items"),
])
def test_an_empty_question_or_item_file_fails_naming_it(tmp_path, capsys, command, files, what):
    world = synth_and_split(tmp_path, seed=3)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 3]
    (world / "empty.tsv").write_text("")
    if "q.tsv" in files.values():
        assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                       "--split", world / "split.json", "--output", world / "q.tsv") == 0
    if "qa_items.tsv" in files.values():
        make_qa_fixture(world, read_shtf(world / "features.shtf"), n_items=20, seed=3)
    out = ["--metrics", world / "m.tsv"] if command == "eval-qa" else ["--output", world / "o.stln"]
    if command == "eval-qa":  # a checkpoint that fits, so the item file is what fails
        save_checkpoint(world / "qa.stln", qa.QaModel.fresh(16, 16, (64, 16), seed=0).state())
    capsys.readouterr()
    argv = [a for flag, name in files.items() for a in (flag, world / name)]
    assert run_cli(*base, command, "--features", world / "features.shtf", *argv, *out) == 1
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == f"error\tValueError\t{world / 'empty.tsv'}: no {what}"
    assert not (world / "o.stln").exists() and not (world / "m.tsv").exists()


def test_a_count_below_one_names_the_trainer(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=3)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 3]
    assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--output", world / "q.tsv") == 0
    tag_args = ["train-tags", "--manifest", world / "manifest.jsonl",
                "--vocab", world / "vocab.json", "--features", world / "features.shtf",
                "--split", world / "split.json", "--output", world / "o.stln"]
    temporal_args = ["train-temporal", "--features", world / "features.shtf",
                     "--questions", world / "q.tsv", "--output", world / "o.stln"]
    for setting, argv, error in [
            ("epochs=0", tag_args, "train_tags: epochs must be at least 1, got 0"),
            # an untrained sequence scorer is no longer written
            ("tag_lstm_epochs=0", tag_args, "train_tag_lstm: epochs must be at least 1, got 0"),
            ("temporal_epochs=-1", temporal_args,
             "train_next_shot: epochs must be at least 1, got -1"),
            ("temporal_batch_size=0", temporal_args,
             "train_next_shot: batch_size must be at least 1, got 0")]:
        capsys.readouterr()
        assert run_cli(*base, "--set", setting, *argv) == 1, setting
        assert capsys.readouterr().err.splitlines()[-1] == f"error\tValueError\t{error}"
        assert not (world / "o.stln").exists()


def test_a_truncated_feature_store_is_named(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=6)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 6]
    path = world / "features.shtf"
    assert run_cli(*base, "gen-questions", "--features", path, "--split", world / "split.json",
                   "--output", world / "q.tsv") == 0
    model = untrained_checkpoint(world, 6)
    path.write_bytes(path.read_bytes()[:300])
    capsys.readouterr()
    assert run_cli(*base, "eval-temporal", "--features", path, "--questions", world / "q.tsv",
                   "--model", model, "--results", world / "r.tsv",
                   "--metrics", world / "m.tsv") == 1
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.startswith(f"error\tFormatError\t{path}: truncated file reading ")
    assert error.endswith(" at byte 256") and not (world / "r.tsv").exists()


def test_evaluation_builds_no_tape(tmp_path, monkeypatch):
    """eval-tags, retrieve, eval-temporal and eval-qa record no backward rule."""
    world = synth_and_split(tmp_path, seed=4)
    make_qa_fixture(world, read_shtf(world / "features.shtf"), n_items=20, seed=4)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 4,
            "--set", "temporal_epochs=1", "--set", "qa_epochs=1"]
    features = world / "features.shtf"
    tag_args = ["--vocab", world / "vocab.json", "--features", features]
    assert run_cli(*base, "train-tags", "--manifest", world / "manifest.jsonl", *tag_args,
                   "--split", world / "split.json", "--output", world / "tags.stln") == 0
    assert run_cli(*base, "gen-questions", "--features", features,
                   "--split", world / "split.json", "--output", world / "q.tsv") == 0
    assert run_cli(*base, "train-temporal", "--features", features,
                   "--questions", world / "q.tsv", "--output", world / "t.stln") == 0
    taped = []
    original = Tensor._result

    def counting_result(data, parents, backward):
        out = original(data, parents, backward)
        if out._backward is not None:
            taped.append(out)
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(counting_result))
    # the count sees training: it records a tape
    assert run_cli(*base, "train-qa", "--features", features,
                   "--items", world / "qa_items.tsv", "--val-items", world / "qa_items.tsv",
                   "--output", world / "qa.stln") == 0
    assert taped
    taped.clear()
    movie = json.loads((world / "split.json").read_text())["test_movies"][0]
    genre = json.loads((world / "vocab.json").read_text())["genres"][0]
    assert run_cli(*base, "eval-tags", "--manifest", world / "manifest.jsonl", *tag_args,
                   "--model", world / "tags.stln", "--split", world / "split.json",
                   "--out-dir", world / "tag_eval") == 0
    assert run_cli(*base, "retrieve", *tag_args, "--model", world / "tags.stln",
                   "--video-id", movie, "--tag", genre, "--output", world / "s.tsv",
                   "--ranked-output", world / "r.tsv") == 0
    assert run_cli(*base, "eval-temporal", "--features", features,
                   "--questions", world / "q.tsv", "--model", world / "t.stln",
                   "--results", world / "tr.tsv", "--metrics", world / "tm.tsv") == 0
    assert run_cli(*base, "eval-qa", "--features", features,
                   "--items", world / "qa_items.tsv", "--model", world / "qa.stln",
                   "--metrics", world / "qm.tsv") == 0
    assert len(taped) == 0


def test_eval_temporal_requires_model_choice(capsys):
    # --model is required, and --random-init is gone, so both exit 2 naming --model
    for extra in ([], ["--random-init"]):
        with pytest.raises(SystemExit) as caught:
            run_cli("eval-temporal", "--features", "x.shtf", "--questions", "q.tsv",
                    "--results", "r.tsv", "--metrics", "m.tsv", *extra)
        assert caught.value.code == 2
        assert "required: --model" in capsys.readouterr().err


def test_split_respects_paper_ratios(tmp_path):
    world = synth_and_split(tmp_path, seed=2)
    split = json.loads((world / "split.json").read_text())
    assert len(split["train_movies"]) == 3
    assert len(split["val_movies"]) == 1
    assert len(split["test_movies"]) == 1


def test_train_tags_on_trailer_subset(tmp_path):
    """--subset-size N trains on the first N trailers of the split's pool, and
    N = len(pool) on the whole pool, as no --subset-size does. A split file
    that still stores trailer subsets loads, and its stored lists go unused."""
    world = synth_and_split(tmp_path, seed=4)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 4]
    split = json.loads((world / "split.json").read_text())
    pool = split["trailer_pool"]
    (world / "first3.json").write_text(json.dumps({**split, "trailer_pool": pool[:3]}))
    # the subsets an older split file stored, here made not to be prefixes of the pool
    (world / "old.json").write_text(json.dumps(
        {**split, "trailer_subsets": {"3": pool[-3:], str(len(pool)): pool[::-1]}}))
    args = ["--manifest", world / "manifest.jsonl", "--vocab", world / "vocab.json",
            "--features", world / "features.shtf"]
    runs = {"all": ["split.json"], "all_n": ["split.json", len(pool)],
            "old_all_n": ["old.json", len(pool)], "first3": ["first3.json"],
            "new3": ["split.json", 3], "old3": ["old.json", 3]}
    for name, (split_file, *size) in runs.items():
        assert run_cli(*base, "train-tags", *args, "--split", world / split_file,
                       *(["--subset-size", *size] if size else []),
                       "--output", world / f"{name}.stln") == 0, name
    checkpoint = {name: (world / f"{name}.stln").read_bytes() for name in runs}
    assert checkpoint["all"] == checkpoint["all_n"] == checkpoint["old_all_n"]
    assert checkpoint["first3"] == checkpoint["new3"] == checkpoint["old3"] != checkpoint["all"]


def test_train_tags_rejects_a_subset_size_it_cannot_honour(tmp_path, capsys):
    """With no --split, or a size outside 0..len(pool), --subset-size exits 1
    before any features are read: the features file does not exist."""
    world = synth_and_split(tmp_path, seed=4)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 4]
    size = len(json.loads((world / "split.json").read_text())["trailer_pool"])
    args = ["--manifest", world / "manifest.jsonl", "--vocab", world / "vocab.json",
            "--features", tmp_path / "missing.shtf", "--output", world / "tags.stln"]
    _assert_fails_writing_nothing(
        capsys, base, "train-tags", [*args, "--subset-size", 3], [world / "tags.stln"],
        "error\tValueError\t--subset-size 3: trailer subsets come from a split file, and no "
        "--split was given")
    for value in (-1, size + 1):
        _assert_fails_writing_nothing(
            capsys, base, "train-tags",
            [*args, "--split", world / "split.json", "--subset-size", value],
            [world / "tags.stln"],
            f"error\tValueError\t--subset-size {value} is outside 0..{size}: "
            f"{world / 'split.json'} holds a pool of {size} trailers")


def _mismatched_worlds(tmp_path):
    """configs/tiny.cfg at seed 1: world a (5 movies, 10 trailers) with its
    split, world b (--set movies=4 --set trailers=4), which lacks a's m0004
    and t00005, and an untrained tag checkpoint that fits both."""
    a = synth_and_split(tmp_path, seed=1)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1]
    b = tmp_path / "b"
    assert run_cli(*base, "--set", "movies=4", "--set", "trailers=4", "synth",
                   "--out-dir", b) == 0
    split = json.loads((a / "split.json").read_text())
    assert split["test_movies"] == ["m0004"] and split["trailer_pool"][:2] == ["t00000", "t00005"]
    vocabulary = corpus.TagVocabulary.load(a / "vocab.json")
    rng = derive_rng(1, "tags.init")
    save_checkpoint(a / "tags.stln", {**tags.TagModel.fresh(vocabulary, 16, 16, rng).state(),
                                      **tags.TagLstm.fresh(vocabulary, 16, 16, rng).state()})
    return a, b, base


def test_a_split_naming_a_video_the_manifest_or_features_lack_is_named(tmp_path, capsys):
    """train-tags and eval-tags look each video of the split up in the manifest,
    then in the features file; the error names the split, the video and the
    file that lacks it, and nothing is written."""
    a, b, base = _mismatched_worlds(tmp_path)
    split = a / "split.json"
    for manifest, features, lacking in ((b / "manifest.jsonl", b / "features.shtf", "manifest"),
                                        (a / "manifest.jsonl", b / "features.shtf", "features")):
        files = ["--manifest", manifest, "--vocab", a / "vocab.json", "--features", features,
                 "--split", split]
        file = manifest if lacking == "manifest" else features
        for command, args, output, video in (
                ("train-tags", ["--output", a / "t.stln"], a / "t.stln", "t00005"),
                ("eval-tags", ["--model", a / "tags.stln", "--subset", "test",
                               "--out-dir", a / "eval"], a / "eval", "m0004")):
            _assert_fails_writing_nothing(
                capsys, base, command, [*files, *args], [output],
                f"error\tValueError\t{split} names video {video!r}, but {file} lacks it")


def test_gen_questions_names_a_split_movie_the_features_lack(tmp_path, capsys):
    """Every movie of the split is in the cross-movie pool, so each must be in
    the features file, whatever the subset: the command exits 1 and writes
    no question file, where generate_questions counts an absent movie as
    skipped."""
    a, b, base = _mismatched_worlds(tmp_path)
    for subset in ("test", "train"):
        _assert_fails_writing_nothing(
            capsys, base, "gen-questions",
            ["--features", b / "features.shtf", "--split", a / "split.json", "--subset", subset,
             "--output", a / "q.tsv"], [a / "q.tsv"],
            f"error\tValueError\t{a / 'split.json'} names video 'm0004', but "
            f"{b / 'features.shtf'} lacks it")


def test_train_tags_rejects_a_pool_trailer_of_a_held_out_movie(tmp_path, capsys):
    """A split of another world can pool a trailer that this world's manifest
    links to a movie the split holds out: at seed 1, the --set movies=4
    world's t00006 belongs to m0002, the val movie of the 5-movie split."""
    a = synth_and_split(tmp_path, seed=1)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1]
    b = tmp_path / "b"
    assert run_cli(*base, "--set", "movies=4", "synth", "--out-dir", b) == 0
    _assert_fails_writing_nothing(
        capsys, base, "train-tags",
        ["--manifest", b / "manifest.jsonl", "--vocab", a / "vocab.json",
         "--features", b / "features.shtf", "--split", a / "split.json",
         "--output", a / "t.stln"], [a / "t.stln"],
        f"error\tValueError\t{a / 'split.json'} pools trailer 't00006', which "
        f"{b / 'manifest.jsonl'} links to held-out movie 'm0002'")


@pytest.mark.parametrize("name, text, message", [
    pytest.param("split.json", '{"train_movies": [', "Expecting value: line 2 column 1 (char 19)",
                 id="truncated-split"),
    pytest.param("vocab.json", '{"genres": ["genre00"]}', "missing key 'keywords'",
                 id="vocab-without-keywords"),
    pytest.param("manifest.jsonl", '{"kind": "movie"}', "line 2: missing key 'id'",
                 id="manifest-without-id"),
    pytest.param("manifest.jsonl", '{"id": "m0", "kind": "film"}',
                 "line 2: unknown video kind 'film' for 'm0'", id="manifest-kind"),
    pytest.param("manifest.jsonl", '{"id": "m0", "kind": "movie", "genres": 3}',
                 "line 2: 'int' object is not iterable", id="manifest-genres"),
])
def test_a_malformed_input_file_is_named(tmp_path, capsys, name, text, message):
    """A manifest line follows the world's first line; the other files are
    the whole text."""
    world = synth_and_split(tmp_path, seed=1)
    bad = world / name
    if name == "manifest.jsonl":
        text = bad.read_text().splitlines()[0] + "\n" + text
    bad.write_text(text + "\n")
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1]
    _assert_fails_writing_nothing(
        capsys, base, "train-tags",
        ["--manifest", world / "manifest.jsonl", "--vocab", world / "vocab.json",
         "--features", world / "features.shtf", "--split", world / "split.json",
         "--output", world / "t.stln"], [world / "t.stln"],
        f"error\tValueError\t{bad}: {message}")


def test_an_item_file_with_two_answer_counts_fails_train_and_eval_qa(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=1)
    make_qa_fixture(world, read_shtf(world / "features.shtf"), n_items=20, seed=1)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 1]
    assert run_cli(*base, "--set", "qa_epochs=1", "train-qa",
                   "--features", world / "features.shtf", "--items", world / "qa_items.tsv",
                   "--output", world / "qa.stln") == 0
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text("i0\twho?\ta|b\tm0000#0\t0\ni1\twhat?\ta|b|c\tm0000#1\t2\n")
    error = f"error\tValueError\t{mixed}: line 2: 3 answers, where the first item has 2"
    runs = {"train-qa": ["--output", tmp_path / "qa.stln"],
            "eval-qa": ["--model", world / "qa.stln", "--metrics", tmp_path / "m.tsv"]}
    for command, args in runs.items():
        _assert_fails_writing_nothing(
            capsys, base, command, ["--features", world / "features.shtf", "--items", mixed,
                                    *args], [args[-1]], error)


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
        for key, values in zip(part.keys(), part.matrix):
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
                   "--items", world / "qa_items.tsv", "--val-items", world / "qa_items.tsv",
                   "--output", world / "qa.stln") == 0
    assert run_cli(*base, "eval-qa", "--features", world / "features.shtf",
                   "--items", world / "qa_items.tsv", "--model", world / "qa.stln",
                   "--metrics", world / "qa_metrics.tsv") == 0
    row = [json.loads(l) for l in (tmp_path / "log.jsonl").read_text().splitlines()][-2]
    assert row["command"] == "train-qa"
    epochs = len(row["epoch_loss"])
    assert epochs == len(row["epoch_val_accuracy"]) == len(row["epoch_s"]) == 2
    assert len(row["examples_per_s"]) == epochs and min(row["examples_per_s"]) > 0
    metrics = dict(l.split("\t") for l in (world / "qa_metrics.tsv").read_text().splitlines())
    model = qa.QaModel.from_state(load_checkpoint(world / "qa.stln"))
    items = qa.read_qa_items(world / "qa_items.tsv", store)
    accuracy = qa.evaluate_qa(model, items, qa.HashingEmbeddingProvider(16), store)
    assert metrics["qa.accuracy"] == f"{accuracy:.6f}"


def test_scorer_checkpoints_match_the_multi_node_form(tmp_path, monkeypatch):
    # configs/tiny.cfg training of both scorer users, under the fused pair_mlp
    # node and under the primitive-op form it replaced: the same bytes
    world = synth_and_split(tmp_path, seed=2)
    make_qa_fixture(world, read_shtf(world / "features.shtf"), seed=2)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 2]
    assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--subset", "train",
                   "--setting", "both", "--output", world / "q.tsv") == 0

    def train(tag):
        assert run_cli(*base, "train-temporal", "--features", world / "features.shtf",
                       "--questions", world / "q.tsv",
                       "--output", world / f"temporal_{tag}.stln") == 0
        assert run_cli(*base, "train-qa", "--features", world / "features.shtf",
                       "--items", world / "qa_items.tsv",
                       "--embeddings", world / "embeddings.txt",
                       "--output", world / f"qa_{tag}.stln") == 0

    train("fused")
    monkeypatch.setattr(RowMlp, "scores", multi_node_scores)
    train("multi_node")
    for name in ("temporal", "qa"):
        assert ((world / f"{name}_fused.stln").read_bytes()
                == (world / f"{name}_multi_node.stln").read_bytes()), name


def test_a_non_finite_feature_store_fails_eval_tags(tmp_path, capsys):
    world = synth_and_split(tmp_path, seed=3)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 3]
    path = world / "features.shtf"
    tag_args = ["--manifest", world / "manifest.jsonl", "--vocab", world / "vocab.json",
                "--features", path, "--split", world / "split.json"]
    assert run_cli(*base, "train-tags", *tag_args, "--output", world / "tags.stln") == 0
    # element 0 of shot 2 of every movie becomes NaN
    store = read_shtf(path)
    blob, at, poisoned = bytearray(path.read_bytes()), 20, []
    for video_id, ordinal in store.keys():
        at += 6 + len(video_id.encode("utf-8"))
        if ordinal == 2 and video_id.startswith("m"):
            blob[at:at + 4] = np.array(np.nan, "<f4").tobytes()
            poisoned.append(f"{video_id}#2 at byte {at}")
        at += 4 * store.dim
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert run_cli(*base, "eval-tags", *tag_args, "--model", world / "tags.stln",
                   "--subset", "test", "--out-dir", world / "tag_eval") == 1
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == f"error\tFormatError\t{path}: non-finite features in {poisoned[0]}"
    assert len(poisoned) > 1 and not (world / "tag_eval" / "metrics.tsv").exists()


def test_a_non_finite_tag_score_fails_eval_tags(tmp_path, capsys, monkeypatch):
    world = synth_and_split(tmp_path, seed=3)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 3]
    tag_args = ["--manifest", world / "manifest.jsonl", "--vocab", world / "vocab.json",
                "--features", world / "features.shtf", "--split", world / "split.json"]
    assert run_cli(*base, "train-tags", *tag_args, "--output", world / "tags.stln") == 0
    original = tags.infer_score_average

    def poisoned(model, video_id, seq):
        prediction = original(model, video_id, seq)
        prediction.genre_scores[1] = np.nan
        return prediction

    monkeypatch.setattr(tags, "infer_score_average", poisoned)
    capsys.readouterr()
    assert run_cli(*base, "eval-tags", *tag_args, "--model", world / "tags.stln",
                   "--subset", "test", "--out-dir", world / "tag_eval") == 1
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == "error\tValueError\trecall_at_k: non-finite score for video 0"
    assert not (world / "tag_eval" / "metrics.tsv").exists()


# -- what each subcommand loads ---------------------------------------------------

SHOTLINE_PROBE = """\
import sys
from shotline.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("shotline")))
"""


def _fresh_python(*argv) -> list[str]:
    """stdout words of a new interpreter run with src/ on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, *map(str, argv)], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.split()


def loaded_modules(tmp_path, *argv) -> set[str]:
    """The shotline modules a fresh process holds after one successful subcommand."""
    code, *modules = _fresh_python("-c", SHOTLINE_PROBE, "--run-log", tmp_path / "probe.jsonl",
                                   *argv)
    assert code == "0"
    return set(modules)


def test_importing_the_package_loads_no_submodule():
    assert _fresh_python("-c", "import sys, shotline; "
                         "print(*[m for m in sys.modules if m.startswith('shotline')])"
                         ) == ["shotline"]


def test_segment_and_extract_load_only_the_modules_they_run(tmp_path):
    frames = np.zeros((40, 12, 12, 3), dtype=np.uint8)
    frames[20:, ..., 2] = 255  # a hard cut from black to blue
    write_fseq(tmp_path / "clip.fseq", FrameSequence(frames))
    base = {"shotline", "shotline.cli", "shotline.segment", "shotline.frames",
            "shotline.binio"}
    assert loaded_modules(tmp_path, "segment", "--input", tmp_path / "clip.fseq",
                          "--output", tmp_path / "shots.tsv") == base
    assert loaded_modules(tmp_path, "extract", "--input", tmp_path / "clip.fseq",
                          "--shots", tmp_path / "shots.tsv",
                          "--output", tmp_path / "clip.shtf") == base | {
        "shotline.encoder", "shotline.features"}


def test_retrieve_and_eval_temporal_skip_the_other_models(tmp_path):
    world = synth_and_split(tmp_path, seed=2)
    base = ["--run-log", tmp_path / "log.jsonl", "--config", TINY, "--seed", 2]
    assert run_cli(*base, "--set", "epochs=1", "--set", "tag_lstm_epochs=1", "train-tags",
                   "--manifest", world / "manifest.jsonl", "--vocab", world / "vocab.json",
                   "--features", world / "features.shtf", "--output", world / "tags.stln") == 0
    assert run_cli(*base, "gen-questions", "--features", world / "features.shtf",
                   "--split", world / "split.json", "--output", world / "q.tsv") == 0
    movie = corpus.load_manifest(world / "manifest.jsonl")[0].video_id
    tag = json.loads((world / "vocab.json").read_text())["genres"][0]
    retrieve = loaded_modules(
        tmp_path, "--config", TINY, "retrieve", "--vocab", world / "vocab.json",
        "--features", world / "features.shtf", "--model", world / "tags.stln",
        "--video-id", movie, "--tag", tag, "--output", tmp_path / "series.tsv",
        "--ranked-output", tmp_path / "ranked.tsv")
    assert "shotline.tags" in retrieve
    assert not retrieve & {"shotline.temporal", "shotline.qa", "shotline.encoder"}
    eval_temporal = loaded_modules(
        tmp_path, "--config", TINY, "eval-temporal", "--features", world / "features.shtf",
        "--questions", world / "q.tsv", "--model", untrained_checkpoint(world, 2),
        "--results", tmp_path / "r.tsv", "--metrics", tmp_path / "m.tsv")
    assert "shotline.temporal" in eval_temporal
    assert not eval_temporal & {"shotline.tags", "shotline.corpus"}


def test_setting_choices_are_the_temporal_settings():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    setting = next(a for a in sub.choices["gen-questions"]._actions if a.dest == "setting")
    assert setting.choices == (temporal.IN_MOVIE, temporal.CROSS_MOVIE, "both")
