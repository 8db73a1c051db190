"""Command-line pipeline driver.

Every subcommand is a pure function of (inputs, config, seed): it echoes
its effective configuration, derives all randomness from the one seed,
and appends a run-manifest record with content digests of everything it
read and wrote.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import corpus, qa, segment, tags, temporal
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import HistogramEdgeExtractor, extract_features
from .features import read_shtf, write_shtf
from .frames import read_fseq
from .metrics import mean_average_precision, recall_at_k
from .rng import derive_rng

DEFAULTS = {
    "seed": 0,
    "threads": 0,
    # sampling and dimensions
    "frames_per_shot": 3,
    "shots_per_video": 8,
    "proj_dim": 64,
    # segmentation
    "seg_window": 24,
    "seg_threshold_scale": 4.0,
    "seg_min_shot_len": 8,
    "seg_floor": 0.2,
    # tag training
    "epochs": 12,
    "batch_size": 16,
    "learning_rate": 0.05,
    "momentum": 0.9,
    "genre_weight": 0.5,
    "scoring": "sigmoid",
    "tag_lstm_hidden": 64,
    "tag_lstm_epochs": 6,
    "tag_lstm_learning_rate": 0.05,
    "max_lstm_steps": 0,
    # next-shot prediction
    "mctx": 8,
    "candidates": 32,
    "stride": 0,
    "exclusion_radius": 0,
    "hidden_dim": 256,
    "scorer_widths": "256,64",
    "temporal_epochs": 30,
    "temporal_batch_size": 64,
    "temporal_learning_rate": 0.3,
    "context_pooling": "final",
    # question answering
    "qa_epochs": 40,
    "qa_batch_size": 32,
    "qa_learning_rate": 0.05,
    "qa_patience": 5,
    "embed_dim": 300,
    # splits
    "split_ratios": "0.7,0.1,0.2",
    "trailer_subsets": "",
    # synthetic world
    "topics": 8,
    "feature_dim": 32,
    "movies": 50,
    "trailers": 100,
    "self_transition": 0.6,
    "successor_mass": 0.3,
    "noise_sigma": 0.15,
    "prototype_max_cos": 0.3,
    "tag_threshold": 0.1,
    "movie_len_min": 120,
    "movie_len_max": 300,
    "trailer_len_min": 15,
    "trailer_len_max": 40,
    "movie_topic_count": 0,
    "movie_style_sigma": 0.0,
    "keyword_prob": 0.5,
    "trailer_fraction": 0.5,
    "trailer_shuffle": 1,
    # reporting
    "recall_k": 3,
    "map_axis": "label",
    "top_shots": 5,
}


def load_config(config_path: str | None, overrides: list[str]) -> dict:
    """Defaults, then key=value file lines, then --set overrides."""
    config = dict(DEFAULTS)

    def apply(key: str, raw: str, where: str):
        if key not in config:
            raise ValueError(f"{where}: unknown config key {key!r}")
        kind = type(DEFAULTS[key])
        try:
            config[key] = kind(raw) if kind is not bool else raw.lower() in ("1", "true", "yes")
        except ValueError:
            raise ValueError(f"{where}: cannot parse {key}={raw!r} as {kind.__name__}") from None

    if config_path:
        for line_no, line in enumerate(Path(config_path).read_text().splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{config_path}: line {line_no}: expected key=value")
            key, raw = line.split("=", 1)
            apply(key.strip(), raw.strip(), f"{config_path}: line {line_no}")
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set {item!r}: expected key=value")
        key, raw = item.split("=", 1)
        apply(key.strip(), raw.strip(), f"--set {item}")
    return config


def _echo_config(config: dict) -> None:
    for key in sorted(config):
        print(f"config\t{key}\t{config[key]}", file=sys.stderr)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _record_run(run_log: str, command: str, config: dict, inputs: list, outputs: list,
                started: float) -> None:
    row = {
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "seed": config["seed"],
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "output_digests": {str(p): _sha256(p) for p in outputs},
        "wall_time_ms": int((time.time() - started) * 1000),
    }
    with open(run_log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


def _parallel_map(fn, items, threads: int):
    """Map with a worker cap; results always come back in input order."""
    workers = threads if threads > 0 else (os.cpu_count() or 1)
    if workers == 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _widths(text: str) -> tuple[int, ...]:
    return tuple(int(w) for w in text.split(",") if w.strip())


def _ratios(text: str) -> tuple[float, ...]:
    return tuple(float(r) for r in text.split(","))


def _segmenter_params(config: dict) -> segment.SegmenterParams:
    return segment.SegmenterParams(
        window=config["seg_window"], threshold_scale=config["seg_threshold_scale"],
        min_shot_len=config["seg_min_shot_len"], score_floor=config["seg_floor"])


def _world_config(config: dict) -> corpus.SyntheticWorldConfig:
    return corpus.SyntheticWorldConfig(
        topics=config["topics"], feature_dim=config["feature_dim"],
        n_movies=config["movies"], n_trailers=config["trailers"],
        self_transition=config["self_transition"], successor_mass=config["successor_mass"],
        noise_sigma=config["noise_sigma"], prototype_max_cos=config["prototype_max_cos"],
        tag_threshold=config["tag_threshold"],
        movie_len=(config["movie_len_min"], config["movie_len_max"]),
        trailer_len=(config["trailer_len_min"], config["trailer_len_max"]),
        movie_topic_count=config["movie_topic_count"],
        movie_style_sigma=config["movie_style_sigma"],
        keyword_prob=config["keyword_prob"], trailer_fraction=config["trailer_fraction"],
        trailer_shuffle=bool(config["trailer_shuffle"]), seed=config["seed"])


def _tag_config(config: dict) -> tags.TagTrainConfig:
    return tags.TagTrainConfig(
        epochs=config["epochs"], batch_size=config["batch_size"],
        learning_rate=config["learning_rate"], momentum=config["momentum"],
        shots_per_video=config["shots_per_video"], genre_weight=config["genre_weight"],
        scoring=config["scoring"], lstm_hidden=config["tag_lstm_hidden"],
        lstm_epochs=config["tag_lstm_epochs"],
        lstm_learning_rate=config["tag_lstm_learning_rate"],
        max_lstm_steps=config["max_lstm_steps"])


def _load_tag_models(path, vocabulary, store_dim, config):
    state = load_checkpoint(path)
    proj_dim = state["projection"].shape[1] if "projection" in state else None
    model = tags.TagModel(vocabulary, store_dim, proj_dim, derive_rng(0, "load"),
                          scoring=config["scoring"])
    model.load_state(state)
    lstm = None
    if "taglstm.lstm.weights" in state:
        hidden = state["taglstm.lstm.weights"].shape[1] // 4
        feat_dim = state["taglstm.lstm.weights"].shape[0] - hidden
        lstm = tags.TagLstm(vocabulary, feat_dim, hidden, derive_rng(0, "load"))
        lstm.load_state(state)
    return model, lstm


def _load_temporal_model(path) -> temporal.NextShotModel:
    state = load_checkpoint(path)
    weights = state["nextshot.lstm.weights"]
    hidden = weights.shape[1] // 4
    feature_dim = weights.shape[0] - hidden
    widths = []
    i = 0
    while f"nextshot.mlp.{i}.weights" in state:
        widths.append(state[f"nextshot.mlp.{i}.weights"].shape[1])
        i += 1
    model = temporal.NextShotModel(feature_dim, hidden, tuple(widths[:-1]), seed=0)
    model.load_state(state)
    return model


def _provider(args, config):
    if args.embeddings:
        return qa.TableEmbeddingProvider(qa.read_embedding_table(args.embeddings),
                                         dim=config["embed_dim"])
    return qa.HashingEmbeddingProvider(dim=config["embed_dim"])


# -- subcommand handlers -----------------------------------------------------


def cmd_segment(args, config):
    seq = read_fseq(args.input)
    shots = segment.detect_shots(seq, _segmenter_params(config), video_id=args.video_id)
    segment.write_shot_list(args.output, shots)
    print(f"segment\t{args.video_id}\t{len(shots)} shots", file=sys.stderr)
    return [args.input], [args.output]


def cmd_extract(args, config):
    seq = read_fseq(args.input)
    shots = segment.read_shot_list(args.shots)
    extractor = HistogramEdgeExtractor(projection_dim=None)
    store = extract_features(seq, shots, extractor, m=config["frames_per_shot"])
    write_shtf(args.output, store)
    print(f"extract\t{len(store)} shot features\tdim {store.dim}", file=sys.stderr)
    return [args.input, args.shots], [args.output]


def cmd_synth(args, config):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world, videos, store, entries = corpus.generate_world(_world_config(config))
    features_path = out / "features.shtf"
    for entry in entries:
        entry.path = features_path.name
    write_shtf(features_path, store)
    world.vocabulary.save(out / "vocab.json")
    corpus.save_manifest(out / "manifest.jsonl", entries)
    corpus.write_ground_truth(out / "truth.jsonl", videos)
    print(f"synth\t{config['movies']} movies\t{config['trailers']} trailers\t"
          f"{len(store)} shot features", file=sys.stderr)
    return [], [features_path, out / "vocab.json", out / "manifest.jsonl", out / "truth.jsonl"]


def cmd_split(args, config):
    vocabulary = corpus.TagVocabulary.load(args.vocab) if args.vocab else None
    entries = corpus.load_manifest(args.manifest, vocabulary)
    sizes = tuple(int(s) for s in config["trailer_subsets"].split(",") if s.strip())
    split = corpus.make_splits(entries, _ratios(config["split_ratios"]),
                               config["seed"], subset_sizes=sizes)
    split.save(args.output)
    print(f"split\t{len(split.train_movies)}/{len(split.val_movies)}/"
          f"{len(split.test_movies)} movies\t{len(split.trailer_pool)} trailers eligible",
          file=sys.stderr)
    inputs = [args.manifest] + ([args.vocab] if args.vocab else [])
    return inputs, [args.output]


def cmd_train_tags(args, config):
    vocabulary = corpus.TagVocabulary.load(args.vocab)
    entries = corpus.load_manifest(args.manifest, vocabulary)
    store = read_shtf(args.features)
    split = corpus.CorpusSplit.load(args.split) if args.split else None
    by_id = {e.video_id: e for e in entries}
    if split is not None:
        if args.subset_size:
            train_ids = split.trailer_subsets[args.subset_size]
        else:
            train_ids = split.trailer_pool
    else:
        train_ids = [e.video_id for e in entries if e.kind == "trailer"]
    train_entries = [by_id[i] for i in train_ids]
    tag_config = _tag_config(config)
    proj_dim = config["proj_dim"] if config["proj_dim"] > 0 else None
    model, history = tags.train_tags(train_entries, store, vocabulary, tag_config,
                                     config["seed"], proj_dim=proj_dim)
    lstm = tags.train_tag_lstm(model, train_entries, store, vocabulary, tag_config,
                               config["seed"])
    state = dict(model.parameters())
    state.update(lstm.parameters())
    save_checkpoint(args.output, state)
    print(f"train-tags\t{len(train_entries)} videos\tloss "
          f"{history['loss'][0]:.4f}->{history['loss'][-1]:.4f}", file=sys.stderr)
    inputs = [args.manifest, args.vocab, args.features] + ([args.split] if args.split else [])
    return inputs, [args.output]


def cmd_eval_tags(args, config):
    vocabulary = corpus.TagVocabulary.load(args.vocab)
    entries = corpus.load_manifest(args.manifest, vocabulary)
    store = read_shtf(args.features)
    model, lstm = _load_tag_models(args.model, vocabulary, store.dim, config)
    by_id = {e.video_id: e for e in entries}
    if args.split:
        split = corpus.CorpusSplit.load(args.split)
        eval_ids = {"train": split.train_movies, "val": split.val_movies,
                    "test": split.test_movies}[args.subset]
    else:
        eval_ids = [e.video_id for e in entries if e.kind == "movie"]
    eval_entries = [by_id[i] for i in eval_ids]
    if not eval_entries:
        raise ValueError("eval-tags: empty evaluation set")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    k = config["recall_k"]
    axis = config["map_axis"]
    metrics: dict[str, float] = {}
    truths = {"genres": [], "keywords": []}
    for entry in eval_entries:
        truths["genres"].append({vocabulary.genre_index[g] for g in entry.genres})
        truths["keywords"].append({vocabulary.keyword_index[kw] for kw in entry.keywords})

    def infer_both(entry):
        seq = store.sequence(entry.video_id)
        return (tags.infer_score_average(model, entry.video_id, seq),
                tags.infer_feature_lstm(model, lstm, entry.video_id, seq,
                                        max_steps=config["max_lstm_steps"]))

    pairs = _parallel_map(infer_both, eval_entries, config["threads"])
    predictions = {"score_average": [p[0] for p in pairs],
                   "feature_lstm": [p[1] for p in pairs]}
    for mode, preds in predictions.items():
        for branch, getter in (("genres", lambda p: p.genre_scores),
                               ("keywords", lambda p: p.keyword_scores)):
            truth = truths[branch]
            if not any(truth):
                continue
            scores = np.stack([getter(p) for p in preds])
            metrics[f"{mode}.{branch}.recall_at_{k}"] = recall_at_k(scores, truth, k)
            metrics[f"{mode}.{branch}.map"] = mean_average_precision(scores, truth, axis=axis)
    tags.write_metrics(out / "metrics.tsv", metrics)
    tags.write_predictions(out / "predictions.tsv", predictions["score_average"], vocabulary)
    for key in sorted(metrics):
        print(f"metric\t{key}\t{metrics[key]:.6f}", file=sys.stderr)
    inputs = [args.manifest, args.vocab, args.features, args.model] + (
        [args.split] if args.split else [])
    return inputs, [out / "metrics.tsv", out / "predictions.tsv"]


def cmd_gen_questions(args, config):
    store = read_shtf(args.features)
    split = corpus.CorpusSplit.load(args.split)
    movie_ids = {"train": split.train_movies, "val": split.val_movies,
                 "test": split.test_movies}[args.subset]
    settings = ([temporal.IN_MOVIE, temporal.CROSS_MOVIE] if args.setting == "both"
                else [args.setting])
    stride = config["stride"] if config["stride"] > 0 else None
    corpus_movies = split.train_movies + split.val_movies + split.test_movies
    questions = []
    skipped = 0
    for setting in settings:
        qs, sk = temporal.generate_questions(
            store, movie_ids, setting, mctx=config["mctx"],
            n_candidates=config["candidates"], stride=stride, seed=config["seed"],
            exclusion_radius=config["exclusion_radius"], pool_movie_ids=corpus_movies)
        questions.extend(qs)
        skipped += sk
    temporal.write_questions(args.output, questions)
    print(f"gen-questions\t{len(questions)} questions\t{skipped} skipped", file=sys.stderr)
    return [args.features, args.split], [args.output]


def cmd_train_temporal(args, config):
    store = read_shtf(args.features)
    questions = temporal.read_questions(args.questions)
    val_questions = temporal.read_questions(args.val_questions) if args.val_questions else None
    t_config = temporal.TemporalTrainConfig(
        epochs=config["temporal_epochs"], batch_size=config["temporal_batch_size"],
        learning_rate=config["temporal_learning_rate"], momentum=config["momentum"],
        hidden_dim=config["hidden_dim"], scorer_widths=_widths(config["scorer_widths"]),
        context_pooling=config["context_pooling"])
    model, history = temporal.train_next_shot(questions, store, t_config, config["seed"],
                                              val_questions=val_questions)
    save_checkpoint(args.output, model.state())
    last_val = history["val_accuracy"][-1] if history["val_accuracy"] else float("nan")
    print(f"train-temporal\t{len(questions)} questions\tloss "
          f"{history['loss'][0]:.4f}->{history['loss'][-1]:.4f}\tval {last_val:.4f}",
          file=sys.stderr)
    inputs = [args.features, args.questions] + (
        [args.val_questions] if args.val_questions else [])
    return inputs, [args.output]


def cmd_eval_temporal(args, config):
    store = read_shtf(args.features)
    questions = temporal.read_questions(args.questions)
    if args.model:
        model = _load_temporal_model(args.model)
    else:
        model = temporal.NextShotModel(
            store.dim, config["hidden_dim"], _widths(config["scorer_widths"]),
            seed=derive_rng(config["seed"], "nextshot.init").integers(2**32),
            input_scale=temporal._unit_rms_scale(store))
    probs = temporal.predict_probabilities(model, questions, store)
    chosen = [int(np.argmax(p)) for p in probs]
    metrics = {}
    _, by_setting = temporal.accuracy_by_setting(questions, chosen)
    for setting, acc in sorted(by_setting.items()):
        metrics[f"lstm.{setting}.accuracy"] = acc
    _, baseline = temporal.evaluate_accuracy(temporal.baseline_average_cosine, questions, store)
    for setting, acc in sorted(baseline.items()):
        metrics[f"average.{setting}.accuracy"] = acc
    rows = [(q.qid, c, float(p[c])) for q, c, p in zip(questions, chosen, probs)]
    rows.sort(key=lambda r: r[0])
    temporal.write_results(args.results, rows)
    tags.write_metrics(args.metrics, metrics)
    for key in sorted(metrics):
        print(f"metric\t{key}\t{metrics[key]:.6f}", file=sys.stderr)
    inputs = [args.features, args.questions] + ([args.model] if args.model else [])
    return inputs, [args.results, args.metrics]


def cmd_train_qa(args, config):
    store = read_shtf(args.features)
    items = qa.read_qa_items(args.items)
    val_items = qa.read_qa_items(args.val_items) if args.val_items else None
    provider = _provider(args, config)
    qa_config = qa.QaTrainConfig(
        epochs=config["qa_epochs"], batch_size=config["qa_batch_size"],
        learning_rate=config["qa_learning_rate"], momentum=config["momentum"],
        scorer_widths=_widths(config["scorer_widths"]), patience=config["qa_patience"])
    model, history = qa.train_qa(items, provider, store, qa_config, config["seed"],
                                 val_items=val_items)
    state = dict(model.parameters())
    save_checkpoint(args.output, state)
    print(f"train-qa\t{len(items)} items\tloss "
          f"{history['loss'][0]:.4f}->{history['loss'][-1]:.4f}", file=sys.stderr)
    inputs = [args.features, args.items] + ([args.val_items] if args.val_items else []) + (
        [args.embeddings] if args.embeddings else [])
    return inputs, [args.output]


def cmd_eval_qa(args, config):
    store = read_shtf(args.features)
    items = qa.read_qa_items(args.items)
    provider = _provider(args, config)
    state = load_checkpoint(args.model)
    widths = []
    i = 0
    while f"qa.mlp.{i}.weights" in state:
        widths.append(state[f"qa.mlp.{i}.weights"].shape[1])
        i += 1
    input_dim = state["qa.mlp.0.weights"].shape[0]
    model = qa.QaModel(store.dim, (input_dim - store.dim) // 2, tuple(widths[:-1]), seed=0)
    model.load_state(state)
    accuracy = qa.evaluate_qa(model, items, provider, store)
    tags.write_metrics(args.metrics, {"qa.accuracy": accuracy})
    print(f"metric\tqa.accuracy\t{accuracy:.6f}", file=sys.stderr)
    inputs = [args.features, args.items, args.model] + (
        [args.embeddings] if args.embeddings else [])
    return inputs, [args.metrics]


def cmd_retrieve(args, config):
    vocabulary = corpus.TagVocabulary.load(args.vocab)
    store = read_shtf(args.features)
    model, _ = _load_tag_models(args.model, vocabulary, store.dim, config)
    series = tags.shot_tag_response(model, args.video_id, store.sequence(args.video_id),
                                    args.tag)
    with open(args.output, "w", encoding="utf-8") as fh:
        for ordinal, score in series:
            fh.write(f"{ordinal}\t{score:.6f}\n")
    ranked = tags.top_shots(series, config["top_shots"])
    with open(args.ranked_output, "w", encoding="utf-8") as fh:
        by_ordinal = dict(series)
        for ordinal in ranked:
            fh.write(f"{ordinal}\t{by_ordinal[ordinal]:.6f}\n")
    print(f"retrieve\t{args.video_id}\t{args.tag}\ttop {ranked}", file=sys.stderr)
    return [args.vocab, args.features, args.model], [args.output, args.ranked_output]


# -- argument plumbing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shotline",
        description="Shot-level movie analysis: tagging, next-shot prediction, QA.")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config value (repeatable)")
    parser.add_argument("--seed", type=int, help="root random seed")
    parser.add_argument("--threads", type=int, help="worker thread cap")
    parser.add_argument("--run-log", default="run_manifest.jsonl",
                        help="run manifest path (JSON lines, appended)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="FSEQ frames to a shot list")
    p.add_argument("--input", required=True)
    p.add_argument("--video-id", default="video")
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_segment)

    p = sub.add_parser("extract", help="FSEQ frames + shots to an SHTF feature cache")
    p.add_argument("--input", required=True)
    p.add_argument("--shots", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("split", help="train/val/test movie split with trailer pools")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab")
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("train-tags", help="train the tag model (and its sequence scorer)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--split")
    p.add_argument("--subset-size", type=int, default=0,
                   help="train on this trailer subset from the split file")
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_train_tags)

    p = sub.add_parser("eval-tags", help="recall@k and MAP in both inference modes")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split")
    p.add_argument("--subset", default="test", choices=("train", "val", "test"))
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_eval_tags)

    p = sub.add_parser("gen-questions", help="next-shot questions from a split")
    p.add_argument("--features", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--subset", default="train", choices=("train", "val", "test"))
    p.add_argument("--setting", default="both",
                   choices=(temporal.IN_MOVIE, temporal.CROSS_MOVIE, "both"))
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_gen_questions)

    p = sub.add_parser("train-temporal", help="train the next-shot model")
    p.add_argument("--features", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--val-questions")
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_train_temporal)

    p = sub.add_parser("eval-temporal", help="accuracy per setting, model and baseline")
    p.add_argument("--features", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--model")
    p.add_argument("--random-init", action="store_true",
                   help="evaluate an untrained model instead of a checkpoint")
    p.add_argument("--results", required=True)
    p.add_argument("--metrics", required=True)
    p.set_defaults(handler=cmd_eval_temporal)

    p = sub.add_parser("train-qa", help="train the multi-choice QA scorer")
    p.add_argument("--features", required=True)
    p.add_argument("--items", required=True)
    p.add_argument("--val-items")
    p.add_argument("--embeddings", help="token embedding table (hashing fallback if absent)")
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_train_qa)

    p = sub.add_parser("eval-qa", help="QA accuracy on an item file")
    p.add_argument("--features", required=True)
    p.add_argument("--items", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings")
    p.add_argument("--metrics", required=True)
    p.set_defaults(handler=cmd_eval_qa)

    p = sub.add_parser("retrieve", help="per-shot response series for one tag")
    p.add_argument("--vocab", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--video-id", required=True)
    p.add_argument("--tag", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--ranked-output", required=True)
    p.set_defaults(handler=cmd_retrieve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.set)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.threads is not None:
            config["threads"] = args.threads
        if getattr(args, "model", None) and getattr(args, "random_init", False):
            raise ValueError("pass either --model or --random-init, not both")
        if args.command == "eval-temporal" and not args.model and not args.random_init:
            raise ValueError("eval-temporal needs --model or --random-init")
        _echo_config(config)
        started = time.time()
        inputs, outputs = args.handler(args, config)
        _record_run(args.run_log, args.command, config, inputs, outputs, started)
    except Exception as exc:  # surfaced as a machine-readable line, nonzero exit
        print(f"error\t{type(exc).__name__}\t{exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
