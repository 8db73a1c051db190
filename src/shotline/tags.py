"""Weakly supervised tag prediction from video-level genre/keyword labels.

The visual side is a learnable linear projection over cached shot
descriptors; video features are pooled from sampled shots and scored by
two affine branches (genres, keywords) trained multi-task. Inference
offers two modes: averaging per-shot predictions over the whole video,
and averaging the per-step outputs of a sequence model run over the
shots.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import SgdOptimizer, Tensor
from .corpus import TagVocabulary, VideoManifestEntry
from .encoder import sample_shots
from .features import FeatureStore
from .nn import LstmCell, pooling_matrix, uniform_init
from .rng import derive_rng


@dataclass
class TagPrediction:
    video_id: str
    genre_scores: np.ndarray
    keyword_scores: np.ndarray


@dataclass
class TagTrainConfig:
    epochs: int = 12
    batch_size: int = 16
    learning_rate: float = 0.05
    momentum: float = 0.9
    shots_per_video: int = 8
    genre_weight: float = 0.5       # loss mix: genre term weight, keywords get the rest
    scoring: str = "sigmoid"        # or "softmax": normalize each branch across labels
    lstm_hidden: int = 64
    lstm_epochs: int = 6
    lstm_learning_rate: float = 0.05
    max_lstm_steps: int = 0      # 0 means use every step


class TagModel:
    """Projection plus per-branch affine heads over pooled video features."""

    def __init__(self, vocabulary: TagVocabulary, input_dim: int,
                 proj_dim: int | None, rng: np.random.Generator, scoring: str = "sigmoid"):
        if scoring not in ("sigmoid", "softmax"):
            raise ValueError(f"unknown scoring mode {scoring!r}")
        self.vocabulary = vocabulary
        self.input_dim = input_dim
        self.proj_dim = proj_dim
        self.scoring = scoring
        feat_dim = proj_dim if proj_dim else input_dim
        self.projection = (Tensor(uniform_init(rng, (input_dim, proj_dim)), requires_grad=True)
                           if proj_dim else None)
        self.genre_w = Tensor(uniform_init(rng, (feat_dim, len(vocabulary.genres))), requires_grad=True)
        self.genre_b = Tensor(np.zeros(len(vocabulary.genres), dtype=np.float32), requires_grad=True)
        self.keyword_w = Tensor(uniform_init(rng, (feat_dim, max(1, len(vocabulary.keywords)))),
                                requires_grad=True)
        self.keyword_b = Tensor(np.zeros(max(1, len(vocabulary.keywords)), dtype=np.float32),
                                requires_grad=True)

    # -- differentiable paths -------------------------------------------

    def project(self, rows: Tensor) -> Tensor:
        return ad.matmul(rows, self.projection) if self.projection is not None else rows

    def video_feature(self, shot_rows: np.ndarray) -> Tensor:
        """Pool sampled shot descriptors into one trainable video feature."""
        return ad.mean_rows(self.project(Tensor(shot_rows)))

    def genre_logits(self, feats: Tensor) -> Tensor:
        return ad.add(ad.matmul(feats, self.genre_w), self.genre_b)

    def keyword_logits(self, feats: Tensor) -> Tensor:
        return ad.add(ad.matmul(feats, self.keyword_w), self.keyword_b)

    # -- plain numpy inference -------------------------------------------

    def _project_np(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float32)
        return rows @ self.projection.data if self.projection is not None else rows

    def _scores_np(self, logits: np.ndarray) -> np.ndarray:
        if self.scoring == "softmax":
            shifted = logits - logits.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            return e / e.sum(axis=-1, keepdims=True)
        return ad.sigmoid_values(logits)

    def shot_scores(self, shot_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-shot tag scores for every row of a (shots, input_dim) array."""
        feats = self._project_np(shot_rows)
        return (self._scores_np(feats @ self.genre_w.data + self.genre_b.data),
                self._scores_np(feats @ self.keyword_w.data + self.keyword_b.data))

    def parameters(self) -> dict:
        params = {}
        if self.projection is not None:
            params["projection"] = self.projection
        params.update({
            "head.genre.weights": self.genre_w, "head.genre.bias": self.genre_b,
            "head.keyword.weights": self.keyword_w, "head.keyword.bias": self.keyword_b,
        })
        return params

    def load_state(self, state: dict) -> None:
        for name, tensor in self.parameters().items():
            tensor.data[...] = state[name]


def forward_video(model: TagModel, video_id: str, video_feature: np.ndarray) -> TagPrediction:
    """Score a single pooled video feature with both branches."""
    feat = np.asarray(video_feature, dtype=np.float32)
    if feat.shape != (model.genre_w.data.shape[0],):
        raise ValueError(f"feature shape {feat.shape} does not match head "
                         f"({model.genre_w.data.shape[0]},)")
    genre = model._scores_np(feat @ model.genre_w.data + model.genre_b.data)
    keyword = model._scores_np(feat @ model.keyword_w.data + model.keyword_b.data)
    return TagPrediction(video_id, genre, keyword)


def _hot(index_sets: list[set], width: int) -> np.ndarray:
    out = np.zeros((len(index_sets), width), dtype=np.float32)
    for i, idx in enumerate(index_sets):
        for j in idx:
            if not 0 <= j < width:
                raise IndexError(f"label index {j} out of range for {width} labels")
            out[i, j] = 1.0
    return out


def multitask_loss(genre_logits: Tensor, genre_truth: list[set],
                   keyword_logits: Tensor | None, keyword_truth: list[set],
                   genre_weight: float) -> Tensor:
    """Mix genre and keyword BCE; videos without keyword labels skip that term.

    keyword_logits carries only the rows of videos that have keyword
    annotations; the term is rescaled so the total stays the mean of
    per-video losses over the whole batch.
    """
    batch = genre_logits.data.shape[0]
    loss = ad.scale(ad.bce_with_logits(genre_logits, _hot(genre_truth, genre_logits.data.shape[1])),
                    genre_weight)
    if keyword_logits is not None and keyword_logits.data.shape[0] > 0:
        kw_rows = keyword_logits.data.shape[0]
        kw = ad.bce_with_logits(keyword_logits, _hot(keyword_truth, keyword_logits.data.shape[1]))
        loss = ad.add(loss, ad.scale(kw, (1.0 - genre_weight) * kw_rows / batch))
    return loss


def _truth_indices(entry: VideoManifestEntry, vocabulary: TagVocabulary) -> tuple[set, set]:
    genres = {vocabulary.genre_index[g] for g in entry.genres}
    keywords = {vocabulary.keyword_index[k] for k in entry.keywords}
    return genres, keywords


def train_tags(entries: list[VideoManifestEntry], store: FeatureStore,
               vocabulary: TagVocabulary, config: TagTrainConfig, seed: int,
               proj_dim: int | None = None) -> tuple[TagModel, dict]:
    """Minibatch SGD over videos; every step re-samples shots per video."""
    if not entries:
        raise ValueError("train_tags: empty corpus")
    for e in entries:
        if not e.genres:
            raise ValueError(f"training video {e.video_id!r} has no genres")
    model = TagModel(vocabulary, store.dim, proj_dim, derive_rng(seed, "tags.init"),
                     scoring=config.scoring)
    optimizer = SgdOptimizer(model.parameters(), config.learning_rate, config.momentum)
    sequences = {e.video_id: store.sequence(e.video_id) for e in entries}
    history = {"loss": []}
    for epoch in range(config.epochs):
        order = derive_rng(seed, "tags.epoch", epoch).permutation(len(entries))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [entries[i] for i in order[start:start + config.batch_size]]
            feats, kw_feats, genre_truth, kw_truth = [], [], [], []
            for entry in batch:
                seq = sequences[entry.video_id]
                rng = derive_rng(seed, f"tags.sample.{entry.video_id}", epoch)
                picks = sample_shots(seq.shape[0], config.shots_per_video, rng)
                feat = model.video_feature(seq[picks])
                feats.append(feat)
                g_idx, k_idx = _truth_indices(entry, vocabulary)
                genre_truth.append(g_idx)
                if entry.keywords:
                    kw_feats.append(feat)
                    kw_truth.append(k_idx)
            genre_logits = model.genre_logits(ad.stack_rows(feats))
            kw_logits = model.keyword_logits(ad.stack_rows(kw_feats)) if kw_feats else None
            loss = multitask_loss(genre_logits, genre_truth, kw_logits, kw_truth,
                                  config.genre_weight)
            value = ad.finite_loss(loss, f"train_tags: epoch {epoch}, batch start {start}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += value * len(batch)
        history["loss"].append(epoch_loss / len(entries))
    return model, history


# -- sequence-model inference mode ----------------------------------------


class TagLstm:
    """Recurrent tag scorer: per-step hidden states feed their own heads."""

    def __init__(self, vocabulary: TagVocabulary, feat_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        self.vocabulary = vocabulary
        self.cell = LstmCell(feat_dim, hidden_dim, rng)
        self.genre_w = Tensor(uniform_init(rng, (hidden_dim, len(vocabulary.genres))),
                              requires_grad=True)
        self.genre_b = Tensor(np.zeros(len(vocabulary.genres), dtype=np.float32), requires_grad=True)
        self.keyword_w = Tensor(uniform_init(rng, (hidden_dim, max(1, len(vocabulary.keywords)))),
                                requires_grad=True)
        self.keyword_b = Tensor(np.zeros(max(1, len(vocabulary.keywords)), dtype=np.float32),
                                requires_grad=True)

    def step_outputs(self, feats: Tensor) -> Tensor:
        """Hidden state per step for a (steps, feat_dim) sequence."""
        steps, feat_dim = feats.data.shape
        states = self.cell.fold(ad.reshape(feats, (1, steps, feat_dim)))
        return ad.reshape(states, (steps, self.cell.hidden_dim))

    def parameters(self) -> dict:
        params = {f"taglstm.{k}": v for k, v in self.cell.parameters().items()}
        params.update({
            "taglstm.head.genre.weights": self.genre_w, "taglstm.head.genre.bias": self.genre_b,
            "taglstm.head.keyword.weights": self.keyword_w,
            "taglstm.head.keyword.bias": self.keyword_b,
        })
        return params

    def load_state(self, state: dict) -> None:
        for name, tensor in self.parameters().items():
            tensor.data[...] = state[name]


def _lstm_inputs(model: TagModel, seq: np.ndarray, max_steps: int) -> np.ndarray:
    """Projected per-shot inputs; long sequences are subsampled only when
    a positive cap is configured."""
    rows = model._project_np(seq)
    if max_steps > 0 and rows.shape[0] > max_steps:
        picks = sample_shots(rows.shape[0], max_steps, rng=None)
        rows = rows[picks]
    return rows


def train_tag_lstm(model: TagModel, entries: list[VideoManifestEntry], store: FeatureStore,
                   vocabulary: TagVocabulary, config: TagTrainConfig, seed: int) -> TagLstm:
    """Fit the recurrent scorer on frozen projected features.

    The per-video loss is the multitask BCE applied to the mean of the
    per-step logits. Each minibatch runs as one zero-padded batch; the
    mean pools only a video's own steps, so padding adds exactly nothing.
    """
    if not entries:
        raise ValueError("train_tag_lstm: empty corpus")
    feat_dim = model.proj_dim if model.proj_dim else model.input_dim
    lstm = TagLstm(vocabulary, feat_dim, config.lstm_hidden, derive_rng(seed, "taglstm.init"))
    optimizer = SgdOptimizer(lstm.parameters(), config.lstm_learning_rate, config.momentum)
    inputs = {e.video_id: _lstm_inputs(model, store.sequence(e.video_id), config.max_lstm_steps)
              for e in entries}
    for epoch in range(config.lstm_epochs):
        order = derive_rng(seed, "taglstm.epoch", epoch).permutation(len(entries))
        for start in range(0, len(order), config.batch_size):
            batch = [entries[i] for i in order[start:start + config.batch_size]]
            lengths = np.array([inputs[e.video_id].shape[0] for e in batch])
            padded = np.zeros((len(batch), lengths.max(), feat_dim), dtype=np.float32)
            for row, entry in enumerate(batch):
                padded[row, :lengths[row]] = inputs[entry.video_id]
            # one pooling matmul gives every video's mean, then again the
            # rows of the videos that have keyword labels
            pooling = pooling_matrix(lengths, padded.shape[1], "mean")
            kw_rows = [row for row, entry in enumerate(batch) if entry.keywords]
            pooled = lstm.cell.fold(Tensor(padded), np.concatenate([pooling, pooling[kw_rows]]))
            truth = [_truth_indices(entry, vocabulary) for entry in batch]
            genre_feats = ad.slice_rows(pooled, 0, len(batch))
            genre_logits = ad.add(ad.matmul(genre_feats, lstm.genre_w), lstm.genre_b)
            kw_logits = None
            if kw_rows:
                kw_feats = ad.slice_rows(pooled, len(batch), len(batch) + len(kw_rows))
                kw_logits = ad.add(ad.matmul(kw_feats, lstm.keyword_w), lstm.keyword_b)
            loss = multitask_loss(genre_logits, [g for g, _ in truth], kw_logits,
                                  [truth[row][1] for row in kw_rows], config.genre_weight)
            ad.finite_loss(loss, f"train_tag_lstm: epoch {epoch}, batch start {start}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
    return lstm


def infer_score_average(model: TagModel, video_id: str, seq: np.ndarray) -> TagPrediction:
    """Average per-shot predictions over every shot of the video."""
    if seq.shape[0] < 1:
        raise ValueError("infer_score_average: video has no shots")
    genre, keyword = model.shot_scores(seq)
    return TagPrediction(video_id, genre.mean(axis=0), keyword.mean(axis=0))


def infer_feature_lstm(model: TagModel, lstm: TagLstm | None, video_id: str,
                       seq: np.ndarray, max_steps: int = 0) -> TagPrediction:
    """Average the per-step tag scores of the recurrent scorer."""
    if lstm is None:
        raise ValueError("feature+lstm inference requires a trained tag sequence model")
    rows = _lstm_inputs(model, seq, max_steps)
    hidden = lstm.step_outputs(Tensor(rows)).data
    genre = model._scores_np(hidden @ lstm.genre_w.data + lstm.genre_b.data)
    keyword = model._scores_np(hidden @ lstm.keyword_w.data + lstm.keyword_b.data)
    return TagPrediction(video_id, genre.mean(axis=0), keyword.mean(axis=0))


def shot_tag_response(model: TagModel, video_id: str, seq: np.ndarray,
                      tag: str) -> list[tuple[int, float]]:
    """Per-shot response series for one tag, in shot order."""
    if tag in model.vocabulary.genre_index:
        branch, column = 0, model.vocabulary.genre_index[tag]
    elif tag in model.vocabulary.keyword_index:
        branch, column = 1, model.vocabulary.keyword_index[tag]
    else:
        raise KeyError(f"tag {tag!r} not in vocabulary")
    scores = model.shot_scores(seq)[branch][:, column]
    return [(i, float(s)) for i, s in enumerate(scores)]


def top_shots(series: list[tuple[int, float]], k: int = 5) -> list[int]:
    ranked = sorted(series, key=lambda pair: (-pair[1], pair[0]))
    return [ordinal for ordinal, _ in ranked[:k]]


# -- report files ----------------------------------------------------------


def write_predictions(path, predictions: list[TagPrediction], vocabulary: TagVocabulary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pred in predictions:
            for name, score in zip(vocabulary.genres, pred.genre_scores):
                fh.write(f"{pred.video_id}\tgenre\t{name}\t{score:.6f}\n")
            for name, score in zip(vocabulary.keywords, pred.keyword_scores):
                fh.write(f"{pred.video_id}\tkeyword\t{name}\t{score:.6f}\n")


def write_metrics(path, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(values):
            fh.write(f"{key}\t{values[key]:.6f}\n")
