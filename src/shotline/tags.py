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
from .autodiff import Tensor
from .corpus import TagVocabulary, VideoManifestEntry
from .features import FeatureStore
from .nn import LstmCell, fit, pooling_matrix, read_weights, uniform_init
from .rng import derive_rng

# Loss mix of multitask_loss: the genre term's weight; keywords get the rest.
GENRE_WEIGHT = 0.5
LSTM_LEARNING_RATE = 0.05   # SGD step of the tag sequence scorer


@dataclass
class TagPrediction:
    video_id: str
    genre_scores: np.ndarray
    keyword_scores: np.ndarray


@dataclass
class TagTrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float
    shots_per_video: int
    lstm_hidden: int
    lstm_epochs: int


class _TagHeads:
    """Genre and keyword affine heads, shared by the tag model and its TagLstm: the
    ``heads`` arrays, in HEADS order. No keywords still gives one keyword column."""

    HEADS = ("genre.weights", "genre.bias", "keyword.weights", "keyword.bias")

    def __init__(self, vocabulary: TagVocabulary, heads):
        self.vocabulary = vocabulary
        self.genre_w, self.genre_b, self.keyword_w, self.keyword_b = (
            Tensor(h, requires_grad=True) for h in heads)

    @staticmethod
    def _head_shapes(vocabulary: TagVocabulary, width: int | None) -> list[tuple]:
        genres, keywords = len(vocabulary.genres), max(1, len(vocabulary.keywords))
        return [(width, genres), (genres,), (width, keywords), (keywords,)]

    @classmethod
    def _fresh_heads(cls, vocabulary: TagVocabulary, width: int, rng: np.random.Generator):
        return [uniform_init(rng, shape) if len(shape) == 2 else np.zeros(shape, np.float32)
                for shape in cls._head_shapes(vocabulary, width)]

    @classmethod
    def _read_heads(cls, state: dict, prefix: str, vocabulary: TagVocabulary,
                    width: int | None):
        """The heads stored under prefix, over width-value inputs (None: any)."""
        return [read_weights(state, f"{prefix}head.{name}", shape)
                for name, shape in zip(cls.HEADS, cls._head_shapes(vocabulary, width))]

    def genre_logits(self, feats: Tensor) -> Tensor:
        return ad.add(ad.matmul(feats, self.genre_w), self.genre_b)

    def keyword_logits(self, feats: Tensor) -> Tensor:
        return ad.add(ad.matmul(feats, self.keyword_w), self.keyword_b)

    def head_logits(self, feats: Tensor, batch: int) -> tuple[Tensor, Tensor | None]:
        """Genre logits of feats' first batch rows; keyword logits of the rest, if any."""
        genre, rows = self.genre_logits(ad.slice_rows(feats, 0, batch)), feats.data.shape[0]
        keyword = self.keyword_logits(ad.slice_rows(feats, batch, rows)) if rows > batch else None
        return genre, keyword

    def _head_parameters(self, prefix: str) -> dict:
        return dict(zip((f"{prefix}head.{name}" for name in self.HEADS),
                        (self.genre_w, self.genre_b, self.keyword_w, self.keyword_b)))

    def state(self) -> dict:
        return {k: v.data.copy() for k, v in self.parameters().items()}


class TagModel(_TagHeads):
    """Projection (if any) plus per-branch affine heads over pooled video features."""

    def __init__(self, vocabulary: TagVocabulary, projection: np.ndarray | None, heads):
        super().__init__(vocabulary, heads)
        self.projection = None if projection is None else Tensor(projection, requires_grad=True)
        self.output_dim = self.genre_w.data.shape[0]
        self.input_dim = self.output_dim if projection is None else projection.shape[0]

    @classmethod
    def fresh(cls, vocabulary: TagVocabulary, input_dim: int, proj_dim: int | None,
              rng: np.random.Generator) -> "TagModel":
        """A new model; a proj_dim of None or 0 means no projection."""
        projection = uniform_init(rng, (input_dim, proj_dim)) if proj_dim else None
        return cls(vocabulary, projection,
                   cls._fresh_heads(vocabulary, proj_dim or input_dim, rng))

    def project(self, rows: Tensor) -> Tensor:
        return ad.matmul(rows, self.projection) if self.projection is not None else rows

    def batch_logits(self, pooled: np.ndarray, kw_rows: list[int]) -> tuple[Tensor, Tensor | None]:
        """head_logits of pooled shot means and their kw_rows, projected after pooling."""
        return self.head_logits(self.project(Tensor(np.concatenate([pooled, pooled[kw_rows]]))),
                                pooled.shape[0])

    @ad.no_grad()
    def shot_scores(self, shot_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-shot sigmoid tag scores for every row of a (shots, input_dim) array."""
        feats = self.project(Tensor(shot_rows, dtype=np.float32))
        return (ad.sigmoid_values(self.genre_logits(feats).data),
                ad.sigmoid_values(self.keyword_logits(feats).data))

    def parameters(self) -> dict:
        params = {"projection": self.projection} if self.projection is not None else {}
        return {**params, **self._head_parameters("")}

    @classmethod
    def from_state(cls, state: dict, vocabulary: TagVocabulary) -> "TagModel":
        """The model of a state(), whose heads must fit the vocabulary."""
        projection = (read_weights(state, "projection", (None, None)) if "projection" in state
                      else None)
        width = None if projection is None else projection.shape[1]
        return cls(vocabulary, projection, cls._read_heads(state, "", vocabulary, width))


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


def sample_shots(shot_count: int, n: int, rng: np.random.Generator) -> list[int]:
    """n shot indices of a video in temporal order: distinct uniform draws,
    with replacement only when the video has fewer than n shots."""
    if shot_count < 1:
        raise ValueError("sample_shots: video has no shots")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if shot_count >= n:
        picks = rng.choice(shot_count, size=n, replace=False)
    else:
        picks = rng.integers(0, shot_count, size=n)
    return sorted(int(i) for i in picks)


def train_tags(entries: list[VideoManifestEntry], store: FeatureStore,
               vocabulary: TagVocabulary, config: TagTrainConfig, seed: int,
               proj_dim: int | None) -> tuple[TagModel, dict]:
    """Minibatch SGD over videos; every step re-samples shots per video."""
    if not entries:
        raise ValueError("train_tags: empty corpus")
    for e in entries:
        if not e.genres:
            raise ValueError(f"training video {e.video_id!r} has no genres")
    model = TagModel.fresh(vocabulary, store.dim, proj_dim, derive_rng(seed, "tags.init"))
    sequence_rows = [store.sequence_rows(e.video_id) for e in entries]
    truths = [_truth_indices(e, vocabulary) for e in entries]
    matrix, shots = store.matrix, config.shots_per_video

    def batch_loss(epoch: int, batch: np.ndarray) -> Tensor:
        rows = np.concatenate([
            sequence_rows[i][sample_shots(
                len(sequence_rows[i]), shots,
                derive_rng(seed, f"tags.sample.{entries[i].video_id}", epoch))]
            for i in batch])
        pooled = matrix[rows].reshape(len(batch), shots, store.dim).mean(axis=1)
        kw_rows = [row for row, i in enumerate(batch) if entries[i].keywords]
        genre_logits, kw_logits = model.batch_logits(pooled, kw_rows)
        return multitask_loss(genre_logits, [truths[i][0] for i in batch], kw_logits,
                              [truths[batch[r]][1] for r in kw_rows], GENRE_WEIGHT)

    history = fit(model.parameters(), len(entries), config.epochs, config.batch_size,
                  config.learning_rate, config.momentum,
                  lambda e: derive_rng(seed, "tags.epoch", e).permutation(len(entries)),
                  batch_loss, "train_tags")
    return model, history


# -- sequence-model inference mode ----------------------------------------


class TagLstm(_TagHeads):
    """Recurrent tag scorer: per-step hidden states feed their own heads."""

    def __init__(self, vocabulary: TagVocabulary, cell: LstmCell, heads):
        super().__init__(vocabulary, heads)
        self.cell = cell

    @classmethod
    def fresh(cls, vocabulary: TagVocabulary, feat_dim: int, hidden_dim: int,
              rng: np.random.Generator) -> "TagLstm":
        cell = LstmCell.fresh(feat_dim, hidden_dim, rng)
        return cls(vocabulary, cell, cls._fresh_heads(vocabulary, hidden_dim, rng))

    def step_outputs(self, feats: Tensor) -> Tensor:
        """Hidden state per step for a (steps, feat_dim) sequence."""
        steps, feat_dim = feats.data.shape
        states = self.cell.fold(ad.reshape(feats, (1, steps, feat_dim)))
        return ad.reshape(states, (steps, self.cell.hidden_dim))

    def parameters(self) -> dict:
        params = {f"taglstm.{k}": v for k, v in self.cell.parameters().items()}
        return {**params, **self._head_parameters("taglstm.")}

    @classmethod
    def from_state(cls, state: dict, model: TagModel) -> "TagLstm":
        """The scorer of a state() over the given tag model's outputs; an input
        width other than the model's output width raises ValueError."""
        cell = LstmCell.from_state(state, "taglstm.")
        if cell.input_dim != model.output_dim:
            raise ValueError(f"'taglstm.lstm.weights' takes {cell.input_dim}-value inputs, "
                             f"but the tag model gives {model.output_dim}")
        return cls(model.vocabulary, cell,
                   cls._read_heads(state, "taglstm.", model.vocabulary, cell.hidden_dim))


def train_tag_lstm(model: TagModel, entries: list[VideoManifestEntry], store: FeatureStore,
                   vocabulary: TagVocabulary, config: TagTrainConfig,
                   seed: int) -> tuple[TagLstm, dict]:
    """Fit the recurrent scorer on frozen projected features.

    The per-video loss is the multitask BCE applied to the mean of the
    per-step logits. Each minibatch runs as one zero-padded batch; the
    mean pools only a video's own steps, so padding adds exactly nothing.
    Returns the scorer and its nn.fit history.
    """
    if not entries:
        raise ValueError("train_tag_lstm: empty corpus")
    feat_dim = model.output_dim
    lstm = TagLstm.fresh(vocabulary, feat_dim, config.lstm_hidden,
                         derive_rng(seed, "taglstm.init"))
    with ad.no_grad():  # the inputs are the frozen projection of each video's shots
        inputs = {e.video_id: model.project(Tensor(store.sequence(e.video_id))).data
                  for e in entries}
    truths = {e.video_id: _truth_indices(e, vocabulary) for e in entries}

    def batch_loss(epoch: int, picks: np.ndarray) -> Tensor:
        batch = [entries[i] for i in picks]
        lengths = np.array([inputs[e.video_id].shape[0] for e in batch])
        padded = np.zeros((len(batch), lengths.max(), feat_dim), dtype=np.float32)
        for row, entry in enumerate(batch):
            padded[row, :lengths[row]] = inputs[entry.video_id]
        # one pooling matmul gives every video's mean, then again the
        # rows of the videos that have keyword labels
        pooling = pooling_matrix(lengths, padded.shape[1])
        kw_rows = [row for row, entry in enumerate(batch) if entry.keywords]
        states = ad.reshape(lstm.cell.fold(Tensor(padded)), (pooling.shape[1], config.lstm_hidden))
        pooled = ad.matmul(Tensor(np.concatenate([pooling, pooling[kw_rows]])), states)
        truth = [truths[e.video_id] for e in batch]
        genre_logits, kw_logits = lstm.head_logits(pooled, len(batch))
        return multitask_loss(genre_logits, [g for g, _ in truth], kw_logits,
                              [truth[row][1] for row in kw_rows], GENRE_WEIGHT)

    history = fit(lstm.parameters(), len(entries), config.lstm_epochs, config.batch_size,
                  LSTM_LEARNING_RATE, config.momentum,
                  lambda e: derive_rng(seed, "taglstm.epoch", e).permutation(len(entries)),
                  batch_loss, "train_tag_lstm")
    return lstm, history


def infer_score_average(model: TagModel, video_id: str, seq: np.ndarray) -> TagPrediction:
    """Average per-shot predictions over every shot of the video."""
    if seq.shape[0] < 1:
        raise ValueError("infer_score_average: video has no shots")
    genre, keyword = model.shot_scores(seq)
    return TagPrediction(video_id, genre.mean(axis=0), keyword.mean(axis=0))


@ad.no_grad()
def infer_feature_lstm(model: TagModel, lstm: TagLstm, video_id: str,
                       seq: np.ndarray) -> TagPrediction:
    """Average the per-step sigmoid tag scores of the recurrent scorer."""
    hidden = lstm.step_outputs(model.project(Tensor(seq, dtype=np.float32)))
    genre = ad.sigmoid_values(lstm.genre_logits(hidden).data)
    keyword = ad.sigmoid_values(lstm.keyword_logits(hidden).data)
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


def top_shots(series: list[tuple[int, float]], k: int) -> list[int]:
    """The ordinals of the k highest-scoring shots, ties to the lower ordinal."""
    if k < 1:
        raise ValueError(f"top_shots must be at least 1, got {k}")
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
