"""Command-line pipeline driver.

Every subcommand is a pure function of (inputs, config, seed): it echoes
its effective configuration, derives all randomness from the one seed,
and appends a run-manifest record with content digests of everything it
read and wrote. The parser declares each file flag once, as read or
written, and those declarations are the record's file lists; a handler
returns only its extra entries. Each handler imports the modules it runs,
so a process loads (and, without a bytecode cache, compiles) only what its
subcommand needs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

DEFAULTS = {
    "seed": 0,
    # sampling and dimensions
    "shots_per_video": 8,
    "proj_dim": 64,
    # tag training
    "epochs": 12,
    "batch_size": 16,
    "learning_rate": 0.05,
    "momentum": 0.9,
    "tag_lstm_hidden": 64,
    "tag_lstm_epochs": 6,
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
    # question answering
    "qa_epochs": 40,
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
    "movie_len_min": 120,
    "movie_len_max": 300,
    "movie_topic_count": 0,
    "movie_style_sigma": 0.0,
    "keyword_prob": 0.5,
    "trailer_fraction": 0.5,
    # reporting
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
            config[key] = kind(raw)
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


def _declared_paths(args, role: str) -> list:
    """The paths of the file flags that args' command declares with role
    ("reads" or "writes") and that were given; a directory flag stands for
    the files declared under it."""
    paths = []
    for flag_role, dest, names in args.files:
        value = getattr(args, dest)
        if flag_role == role and value is not None:
            paths += [Path(value) / name for name in names] if names else [value]
    return paths


def _record_run(args, config: dict, started: float, report: dict | None) -> None:
    """Append one manifest row; ``report`` holds extra per-command entries."""
    row = {
        "command": args.command,
        "config": {k: config[k] for k in sorted(config)},
        "seed": config["seed"],
        "input_digests": {str(p): _sha256(p) for p in _declared_paths(args, "reads")},
        "output_digests": {str(p): _sha256(p) for p in _declared_paths(args, "writes")},
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
        **(report or {}),
    }
    with open(args.run_log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


def _numbers(config: dict, key: str, kind: type) -> tuple:
    """config[key], a comma-separated list, as a tuple of kind; blank items are
    skipped. An item that does not parse raises ValueError naming the key."""
    text = config[key]
    try:
        return tuple(kind(item) for item in text.split(",") if item.strip())
    except ValueError:
        raise ValueError(f"cannot parse {key}={text!r} as a list of {kind.__name__}") from None


def _world_config(config: dict):
    from .corpus import SyntheticWorldConfig
    return SyntheticWorldConfig(
        topics=config["topics"], feature_dim=config["feature_dim"],
        n_movies=config["movies"], n_trailers=config["trailers"],
        self_transition=config["self_transition"], successor_mass=config["successor_mass"],
        noise_sigma=config["noise_sigma"],
        movie_len=(config["movie_len_min"], config["movie_len_max"]),
        movie_topic_count=config["movie_topic_count"],
        movie_style_sigma=config["movie_style_sigma"],
        keyword_prob=config["keyword_prob"], trailer_fraction=config["trailer_fraction"],
        seed=config["seed"])


def _tag_config(config: dict):
    from .tags import TagTrainConfig
    return TagTrainConfig(
        epochs=config["epochs"], batch_size=config["batch_size"],
        learning_rate=config["learning_rate"], momentum=config["momentum"],
        shots_per_video=config["shots_per_video"],
        lstm_hidden=config["tag_lstm_hidden"], lstm_epochs=config["tag_lstm_epochs"])


def _temporal_config(config: dict):
    from .temporal import TemporalTrainConfig
    return TemporalTrainConfig(
        epochs=config["temporal_epochs"], batch_size=config["temporal_batch_size"],
        learning_rate=config["temporal_learning_rate"], momentum=config["momentum"],
        hidden_dim=config["hidden_dim"], scorer_widths=_numbers(config, "scorer_widths", int))


def _qa_config(config: dict):
    from .qa import QaTrainConfig
    return QaTrainConfig(epochs=config["qa_epochs"], momentum=config["momentum"],
                         scorer_widths=_numbers(config, "scorer_widths", int))


def _curves(history: dict) -> dict:
    """Manifest entries of an nn.fit history: epoch_loss, epoch_s,
    examples_per_s and, when the trainer validated, epoch_val_accuracy."""
    names = {"loss": "epoch_loss", "val_accuracy": "epoch_val_accuracy"}
    return {names.get(key, key): values for key, values in history.items()}


def _nonempty(rows, path, what: str):
    """The rows read from path; an empty file raises ValueError naming it."""
    if not len(rows):
        raise ValueError(f"{path}: no {what}")
    return rows


def _from_checkpoint(path, build):
    """build(state) for the checkpoint at path. A state the model rejects (a
    missing entry, a wrong shape, a non-finite weight) raises ValueError
    naming the file; the reader already names it for a malformed file."""
    from .checkpoint import load_checkpoint
    state = load_checkpoint(path)
    try:
        return build(state)
    except (ValueError, KeyError) as exc:
        raise ValueError(f"{path}: {exc.args[0] if exc.args else exc}") from None


def _check_width(args, width: int, store) -> None:
    """Raise ValueError, naming both files and widths, unless args.model takes store.dim."""
    if width != store.dim:
        raise ValueError(f"{args.model} takes {width}-value features, but {args.features} "
                         f"holds {store.dim}-value ones")


def _write_metrics(path, metrics: dict) -> None:
    """Write the metrics file and echo each figure to stderr, sorted by name."""
    from .metrics import write_metrics
    write_metrics(path, metrics)
    for key in sorted(metrics):
        print(f"metric\t{key}\t{metrics[key]:.6f}", file=sys.stderr)


def _provider(args, config):
    from . import qa
    if not args.embeddings:
        return qa.HashingEmbeddingProvider(dim=config["embed_dim"])
    table = qa.read_embedding_table(args.embeddings)
    try:
        return qa.TableEmbeddingProvider(table, dim=config["embed_dim"])
    except ValueError as exc:
        raise ValueError(f"{args.embeddings}: {exc}; the table's vectors must have "
                         f"embed_dim={config['embed_dim']} values") from None


# -- subcommand handlers -----------------------------------------------------


def cmd_segment(args, config):
    from . import segment
    from .frames import read_fseq
    seq = read_fseq(args.input)
    shots = segment.detect_shots(seq, video_id=args.video_id)
    segment.write_shot_list(args.output, shots)
    print(f"segment\t{args.video_id}\t{len(shots)} shots", file=sys.stderr)
    return {"frames": seq.frame_count, "shots": len(shots)}


def cmd_extract(args, config):
    from . import segment
    from .encoder import extract_features
    from .features import write_shtf
    from .frames import read_fseq
    seq = read_fseq(args.input)
    shots = segment.read_shot_list(args.shots)
    store = extract_features(seq, shots)
    write_shtf(args.output, store)
    print(f"extract\t{len(store)} shot features\tdim {store.dim}", file=sys.stderr)
    return {"shots": len(shots)}


def cmd_synth(args, config):
    from . import corpus
    from .features import write_shtf
    world_config = _world_config(config)  # checked before the output directory is made
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world, videos, store, entries = corpus.generate_world(world_config)
    features_path = out / "features.shtf"
    for entry in entries:
        entry.path = features_path.name
    write_shtf(features_path, store)
    world.vocabulary.save(out / "vocab.json")
    corpus.save_manifest(out / "manifest.jsonl", entries)
    corpus.write_ground_truth(out / "truth.jsonl", videos)
    print(f"synth\t{config['movies']} movies\t{config['trailers']} trailers\t"
          f"{len(store)} shot features", file=sys.stderr)


def cmd_split(args, config):
    from . import corpus
    vocabulary = corpus.TagVocabulary.load(args.vocab) if args.vocab else None
    entries = corpus.load_manifest(args.manifest, vocabulary)
    split = corpus.make_splits(entries, _numbers(config, "split_ratios", float), config["seed"],
                               subset_sizes=_numbers(config, "trailer_subsets", int))
    split.save(args.output)
    print(f"split\t{len(split.train_movies)}/{len(split.val_movies)}/"
          f"{len(split.test_movies)} movies\t{len(split.trailer_pool)} trailers eligible",
          file=sys.stderr)


def cmd_train_tags(args, config):
    from . import corpus, tags
    from .checkpoint import save_checkpoint
    from .features import read_shtf
    if config["proj_dim"] < 0:  # 0 means no projection
        raise ValueError(f"proj_dim must not be negative, got {config['proj_dim']}")
    vocabulary = corpus.TagVocabulary.load(args.vocab)
    entries = corpus.load_manifest(args.manifest, vocabulary)
    split = corpus.CorpusSplit.load(args.split) if args.split else None
    if args.subset_size and split is None:
        raise ValueError(f"--subset-size {args.subset_size}: trailer subsets come from a "
                         f"split file, and no --split was given")
    if args.subset_size and args.subset_size not in split.trailer_subsets:
        sizes = ", ".join(map(str, sorted(split.trailer_subsets))) or "none"
        raise ValueError(f"--subset-size {args.subset_size}: {args.split} holds no trailer "
                         f"subset of that size (its sizes: {sizes})")
    if split is None:
        train_ids = [e.video_id for e in entries if e.kind == "trailer"]
    elif args.subset_size:
        train_ids = split.trailer_subsets[args.subset_size]
    else:
        train_ids = split.trailer_pool
    store = read_shtf(args.features)
    by_id = {e.video_id: e for e in entries}
    train_entries = [by_id[i] for i in train_ids]
    tag_config = _tag_config(config)
    proj_dim = config["proj_dim"] or None
    model, history = tags.train_tags(train_entries, store, vocabulary, tag_config,
                                     config["seed"], proj_dim=proj_dim)
    lstm, lstm_history = tags.train_tag_lstm(model, train_entries, store, vocabulary,
                                             tag_config, config["seed"])
    save_checkpoint(args.output, {**model.state(), **lstm.state()})
    print(f"train-tags\t{len(train_entries)} videos\tloss "
          f"{history['loss'][0]:.4f}->{history['loss'][-1]:.4f}", file=sys.stderr)
    curves = _curves(history)
    curves.update({f"lstm_{k}": v for k, v in _curves(lstm_history).items()})
    return curves


def cmd_eval_tags(args, config):
    from . import corpus, tags
    from .features import read_shtf
    from .metrics import mean_average_precision, recall_at_k
    vocabulary = corpus.TagVocabulary.load(args.vocab)
    entries = corpus.load_manifest(args.manifest, vocabulary)
    store = read_shtf(args.features)
    model, lstm = _from_checkpoint(args.model, lambda state: (
        model := tags.TagModel.from_state(state, vocabulary),
        tags.TagLstm.from_state(state, model)))
    _check_width(args, model.input_dim, store)
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
    metrics: dict[str, float] = {}
    truths = {"genres": [], "keywords": []}
    predictions = {"score_average": [], "feature_lstm": []}
    for entry in eval_entries:
        truths["genres"].append({vocabulary.genre_index[g] for g in entry.genres})
        truths["keywords"].append({vocabulary.keyword_index[kw] for kw in entry.keywords})
        seq = store.sequence(entry.video_id)
        predictions["score_average"].append(tags.infer_score_average(model, entry.video_id, seq))
        predictions["feature_lstm"].append(tags.infer_feature_lstm(
            model, lstm, entry.video_id, seq))
    for mode, preds in predictions.items():
        for branch, getter in (("genres", lambda p: p.genre_scores),
                               ("keywords", lambda p: p.keyword_scores)):
            truth = truths[branch]
            if not any(truth):
                continue
            scores = np.stack([getter(p) for p in preds])
            metrics[f"{mode}.{branch}.recall_at_3"] = recall_at_k(scores, truth, 3)
            metrics[f"{mode}.{branch}.map"] = mean_average_precision(scores, truth)
    _write_metrics(out / "metrics.tsv", metrics)
    tags.write_predictions(out / "predictions.tsv", predictions["score_average"], vocabulary)


def cmd_gen_questions(args, config):
    from . import corpus, temporal
    from .features import read_shtf
    store = read_shtf(args.features)
    split = corpus.CorpusSplit.load(args.split)
    movie_ids = {"train": split.train_movies, "val": split.val_movies,
                 "test": split.test_movies}[args.subset]
    settings = ([temporal.IN_MOVIE, temporal.CROSS_MOVIE] if args.setting == "both"
                else [args.setting])
    corpus_movies = split.train_movies + split.val_movies + split.test_movies
    parts = []
    skipped = 0
    for setting in settings:
        qs, sk = temporal.generate_questions(
            store, movie_ids, setting, mctx=config["mctx"],
            n_candidates=config["candidates"], stride=config["stride"], seed=config["seed"],
            exclusion_radius=config["exclusion_radius"], pool_movie_ids=corpus_movies)
        parts.append(qs)
        skipped += sk
    questions = temporal.QuestionSet.concat(parts)
    temporal.write_questions(args.output, questions)
    print(f"gen-questions\t{len(questions)} questions\t{skipped} skipped", file=sys.stderr)


def cmd_train_temporal(args, config):
    from . import temporal
    from .checkpoint import save_checkpoint
    from .features import read_shtf
    store = read_shtf(args.features)
    questions = _nonempty(temporal.read_questions(args.questions, store), args.questions,
                          "questions")
    val_questions = (_nonempty(temporal.read_questions(args.val_questions, store),
                               args.val_questions, "questions") if args.val_questions else None)
    model, history = temporal.train_next_shot(questions, _temporal_config(config), config["seed"],
                                              val_questions=val_questions)
    save_checkpoint(args.output, model.state())
    val = f"\tval {history['val_accuracy'][-1]:.4f}" if val_questions is not None else ""
    print(f"train-temporal\t{len(questions)} questions\tloss "
          f"{history['loss'][0]:.4f}->{history['loss'][-1]:.4f}{val}", file=sys.stderr)
    return _curves(history)


def cmd_eval_temporal(args, config):
    from . import temporal
    from .features import read_shtf
    store = read_shtf(args.features)
    model = _from_checkpoint(args.model, temporal.NextShotModel.from_state)
    _check_width(args, model.feature_dim, store)
    questions = _nonempty(temporal.read_questions(args.questions, store), args.questions,
                          "questions to evaluate")
    probs = temporal.predict_probabilities(model, questions)
    chosen = probs.argmax(axis=1)
    metrics = {}
    _, by_setting = temporal.accuracy_by_setting(questions, chosen)
    for setting, acc in sorted(by_setting.items()):
        metrics[f"lstm.{setting}.accuracy"] = acc
    _, baseline = temporal.accuracy_by_setting(questions,
                                               temporal.baseline_average_cosine(questions))
    for setting, acc in sorted(baseline.items()):
        metrics[f"average.{setting}.accuracy"] = acc
    rows = list(zip(questions.qids, chosen.tolist(),
                    probs[np.arange(len(chosen)), chosen].tolist()))
    rows.sort(key=lambda r: r[0])
    temporal.write_results(args.results, rows)
    _write_metrics(args.metrics, metrics)


def cmd_train_qa(args, config):
    from . import qa
    from .checkpoint import save_checkpoint
    from .features import read_shtf
    store = read_shtf(args.features)
    items = _nonempty(qa.read_qa_items(args.items, store), args.items, "items")
    val_items = (_nonempty(qa.read_qa_items(args.val_items, store), args.val_items, "items")
                 if args.val_items else None)
    provider = _provider(args, config)
    model, history = qa.train_qa(items, provider, store, _qa_config(config), config["seed"],
                                 val_items=val_items)
    save_checkpoint(args.output, model.state())
    print(f"train-qa\t{len(items)} items\tloss "
          f"{history['loss'][0]:.4f}->{history['loss'][-1]:.4f}", file=sys.stderr)
    return _curves(history)


def cmd_eval_qa(args, config):
    from . import qa
    from .features import read_shtf
    store = read_shtf(args.features)
    model = _from_checkpoint(args.model, qa.QaModel.from_state)
    width, rows = model.scorer.layers[0][0].data.shape[0], store.dim + 2 * config["embed_dim"]
    if width != rows:
        raise ValueError(f"{args.model} scores {width}-value rows, but {args.features} holds "
                         f"{store.dim}-value features, which with embed_dim="
                         f"{config['embed_dim']} give {rows}-value ones")
    items = _nonempty(qa.read_qa_items(args.items, store), args.items, "items")
    provider = _provider(args, config)
    _write_metrics(args.metrics, {"qa.accuracy": qa.evaluate_qa(model, items, provider, store)})


def cmd_retrieve(args, config):
    from . import corpus, tags
    from .features import read_shtf
    vocabulary = corpus.TagVocabulary.load(args.vocab)
    store = read_shtf(args.features)
    model = _from_checkpoint(args.model, lambda state: tags.TagModel.from_state(state, vocabulary))
    _check_width(args, model.input_dim, store)
    if not store.shot_count(args.video_id):
        raise ValueError(f"--video-id {args.video_id!r}: {args.features} holds no features "
                         f"of that video")
    if args.tag not in vocabulary.genre_index and args.tag not in vocabulary.keyword_index:
        raise ValueError(f"--tag {args.tag!r}: {args.vocab} has no genre or keyword of that name")
    series = tags.shot_tag_response(model, args.video_id, store.sequence(args.video_id),
                                    args.tag)
    ranked = tags.top_shots(series, config["top_shots"])
    with open(args.output, "w", encoding="utf-8") as fh:
        for ordinal, score in series:
            fh.write(f"{ordinal}\t{score:.6f}\n")
    with open(args.ranked_output, "w", encoding="utf-8") as fh:
        by_ordinal = dict(series)
        for ordinal in ranked:
            fh.write(f"{ordinal}\t{by_ordinal[ordinal]:.6f}\n")
    print(f"retrieve\t{args.video_id}\t{args.tag}\ttop {ranked}", file=sys.stderr)


# -- argument plumbing ---------------------------------------------------------


def _command(sub, name: str, handler, summary: str, reads=(), optional=(), writes=(),
             out_dir=(), helps: dict | None = None) -> argparse.ArgumentParser:
    """The subcommand parser of handler, with each file flag declared once:
    the command reads the ``reads`` flags and, when given, the ``optional``
    ones, and writes the ``writes`` flags, or the ``out_dir`` files under
    --out-dir. The manifest row digests exactly the declared paths that were
    given. ``helps`` maps a flag to its help text."""
    p = sub.add_parser(name, help=summary)
    files = []
    for role, flags, required in (("reads", reads, True), ("reads", optional, False),
                                  ("writes", writes, True)):
        for flag in flags:
            dest = p.add_argument(flag, required=required, help=(helps or {}).get(flag)).dest
            files.append((role, dest, ()))
    if out_dir:
        p.add_argument("--out-dir", required=True)
        files.append(("writes", "out_dir", out_dir))
    p.set_defaults(handler=handler, files=files)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shotline",
        description="Shot-level movie analysis: tagging, next-shot prediction, QA.")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config value (repeatable)")
    parser.add_argument("--seed", type=int, help="root random seed")
    parser.add_argument("--run-log", default="run_manifest.jsonl",
                        help="run manifest path (JSON lines, appended)")
    sub = parser.add_subparsers(dest="command", required=True)
    subsets = ("train", "val", "test")

    p = _command(sub, "segment", cmd_segment, "FSEQ frames to a shot list",
                 reads=["--input"], writes=["--output"])
    p.add_argument("--video-id", default="video")
    _command(sub, "extract", cmd_extract, "FSEQ frames + shots to an SHTF feature cache",
             reads=["--input", "--shots"], writes=["--output"])
    _command(sub, "synth", cmd_synth, "generate a synthetic corpus with ground truth",
             out_dir=["features.shtf", "vocab.json", "manifest.jsonl", "truth.jsonl"])
    _command(sub, "split", cmd_split, "train/val/test movie split with trailer pools",
             reads=["--manifest"], optional=["--vocab"], writes=["--output"])
    p = _command(sub, "train-tags", cmd_train_tags, "train the tag model (and its sequence scorer)",
                 reads=["--manifest", "--vocab", "--features"], optional=["--split"],
                 writes=["--output"])
    p.add_argument("--subset-size", type=int, default=0,
                   help="train on this trailer subset from the split file")
    p = _command(sub, "eval-tags", cmd_eval_tags,
                 "recall@3 and label-centric MAP in both inference modes",
                 reads=["--manifest", "--vocab", "--features", "--model"], optional=["--split"],
                 out_dir=["metrics.tsv", "predictions.tsv"])
    p.add_argument("--subset", default="test", choices=subsets)
    p = _command(sub, "gen-questions", cmd_gen_questions, "next-shot questions from a split",
                 reads=["--features", "--split"], writes=["--output"])
    p.add_argument("--subset", default="train", choices=subsets)
    p.add_argument("--setting", default="both",
                   choices=("in_movie", "cross_movie", "both"))  # temporal's settings
    _command(sub, "train-temporal", cmd_train_temporal, "train the next-shot model",
             reads=["--features", "--questions"], optional=["--val-questions"],
             writes=["--output"])
    _command(sub, "eval-temporal", cmd_eval_temporal, "accuracy per setting, model and baseline",
             reads=["--features", "--questions", "--model"], writes=["--results", "--metrics"])
    _command(sub, "train-qa", cmd_train_qa, "train the multi-choice QA scorer",
             reads=["--features", "--items"], optional=["--val-items", "--embeddings"],
             writes=["--output"],
             helps={"--embeddings": "token embedding table (hashing fallback if absent)"})
    _command(sub, "eval-qa", cmd_eval_qa, "QA accuracy on an item file",
             reads=["--features", "--items", "--model"], optional=["--embeddings"],
             writes=["--metrics"])
    p = _command(sub, "retrieve", cmd_retrieve, "per-shot response series for one tag",
                 reads=["--vocab", "--features", "--model"], writes=["--output", "--ranked-output"])
    p.add_argument("--video-id", required=True)
    p.add_argument("--tag", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.set)
        if args.seed is not None:
            config["seed"] = args.seed
        _echo_config(config)
        started = time.perf_counter()
        report = args.handler(args, config)  # None or extra entries for the manifest row
        _record_run(args, config, started, report)
    except Exception as exc:  # surfaced as a machine-readable line, nonzero exit
        print(f"error\t{type(exc).__name__}\t{exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
