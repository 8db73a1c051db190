"""Multi-choice question answering over clip features and text embeddings.

Each choice is scored by a weight-shared MLP over the concatenation of
the clip feature, the question embedding, and that answer's embedding;
a softmax over the choices gives the answer distribution.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .binio import read_lines, read_tsv, write_lines
from .features import FeatureStore, ShotId, check_label_ids, label_rows, shot_labels
from .nn import RowMlp, fit
from .rng import derive_rng

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")
TRAIN_BATCH = 32  # items per SGD step of train_qa
EVAL_BATCH = 256  # items per scoring batch of evaluate_qa


def tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


class TableEmbeddingProvider:
    """Mean of per-token vectors from a lookup table; unknown tokens are zero."""

    def __init__(self, table: dict, dim: int):
        self.table = {k: np.asarray(v, dtype=np.float32) for k, v in table.items()}
        self.dim = dim
        for token, vec in self.table.items():
            if vec.shape != (self.dim,):
                raise ValueError(f"vector for {token!r} has shape {vec.shape}, expected ({self.dim},)")

    def embed(self, text: str) -> np.ndarray:
        tokens = tokenize(text)
        if not tokens:
            return np.zeros(self.dim, dtype=np.float32)
        acc = np.zeros(self.dim, dtype=np.float32)
        for token in tokens:
            vec = self.table.get(token)
            if vec is not None:
                acc += vec
        return acc / len(tokens)


class HashingEmbeddingProvider:
    """Feature hashing fallback: signed token buckets, L2-normalized."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim

    def _bucket(self, token: str) -> tuple[int, float]:
        digest = blake2b(token.encode("utf-8"), digest_size=9).digest()
        bucket = int.from_bytes(digest[:8], "little") % self.dim
        sign = 1.0 if digest[8] % 2 == 0 else -1.0
        return bucket, sign

    def embed(self, text: str) -> np.ndarray:
        acc = np.zeros(self.dim, dtype=np.float32)
        for token in tokenize(text):
            bucket, sign = self._bucket(token)
            acc[bucket] += sign
        norm = np.linalg.norm(acc)
        return acc / norm if norm > 0 else acc


def read_embedding_table(path) -> dict:
    """Token -> float32 vector. A malformed line, or a value that is not
    finite in float32, raises ValueError naming the file and line."""
    def parse(line: str) -> tuple[str, np.ndarray] | None:
        parts = line.split()
        if not parts:
            return None
        if len(parts) < 2:
            raise ValueError("token without values")
        with np.errstate(over="ignore"):  # a float32 overflow is rejected below
            values = np.array([float(v) for v in parts[1:]], dtype=np.float32)
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"non-finite value {parts[1 + int(np.argmin(finite))]!r}")
        return parts[0], values

    return dict(read_lines(path, parse))


@dataclass
class QaItem:
    qid: str
    question: str
    answers: list[str]
    clip_shots: list[ShotId]
    correct_index: int

    def __post_init__(self):
        if len(self.answers) < 2:
            raise ValueError(f"item {self.qid}: need at least 2 answers")
        if not 0 <= self.correct_index < len(self.answers):
            raise ValueError(f"item {self.qid}: correct_index out of range")


def write_qa_items(path, items: list[QaItem]) -> None:
    """One line per item. An item id holding a tab or line break, a text
    holding '|', a tab or a line break, or a video id that a shot label
    cannot carry raises ValueError naming it before the file is opened."""
    for item in items:
        if any(c in item.qid for c in "\t\r\n"):
            raise ValueError(f"{path}: item id {item.qid!r}: tab, CR and LF are not allowed")
        for text in [item.question, *item.answers]:
            if any(c in text for c in "|\t\r\n"):
                raise ValueError(f"{path}: item {item.qid!r}: text {text!r}: '|', tab, CR and "
                                 f"LF are not allowed in texts")
    check_label_ids(path, dict.fromkeys(video_id for item in items
                                        for video_id, _ in item.clip_shots))
    write_lines(path, (f"{item.qid}\t{item.question}\t{'|'.join(item.answers)}\t"
                       f"{','.join(shot_labels(item.clip_shots))}\t{item.correct_index}"
                       for item in items))


def read_qa_items(path, store: FeatureStore) -> list[QaItem]:
    """The items of a file written by write_qa_items. Clip labels resolve
    through the label -> row table of ``store``. A malformed line, a label of
    no stored shot, or a line whose answer count differs from the first
    line's raises ValueError naming the file and the line."""
    keys, clip_rows = store.keys(), label_rows(store)
    counts: list[int] = []

    def parse(p: list[str]) -> QaItem:
        item = QaItem(qid=p[0], question=p[1], answers=p[2].split("|"),
                      clip_shots=[keys[row] for row in clip_rows(p[3])], correct_index=int(p[4]))
        if not counts:
            counts.append(len(item.answers))
        elif len(item.answers) != counts[0]:
            raise ValueError(f"{len(item.answers)} answers, where the first item has {counts[0]}")
        return item

    return read_tsv(path, 5, parse)


def encode_clip(shot_ids: list[ShotId], store: FeatureStore) -> np.ndarray:
    """Mean of the clip's shot features."""
    if not shot_ids:
        raise ValueError("encode_clip: empty clip")
    return store.rows(shot_ids).mean(axis=0)


class QaModel:
    """Weight-shared scorer over [clip | question | answer] rows; from_state
    takes the row width from the scorer's weights."""

    def __init__(self, scorer: RowMlp):
        self.scorer = scorer

    @classmethod
    def fresh(cls, clip_dim: int, embed_dim: int, scorer_widths: tuple[int, ...],
              seed: int) -> "QaModel":
        return cls(RowMlp.fresh(clip_dim + 2 * embed_dim, scorer_widths,
                                derive_rng(seed, "qa.scorer")))

    def probabilities_batch(self, clips: np.ndarray, question_vecs: np.ndarray,
                            answer_vecs: np.ndarray) -> Tensor:
        """(batch, n) answer distributions from stacked per-item arrays."""
        batch, n, _ = answer_vecs.shape
        base = np.concatenate([clips, question_vecs], axis=1).astype(np.float32)
        scores = self.scorer.scores(
            Tensor(base), Tensor(answer_vecs.reshape(batch * n, -1).astype(np.float32)))
        return ad.softmax_rows(ad.reshape(scores, (batch, n)))

    def parameters(self) -> dict:
        return {f"qa.{k}": v for k, v in self.scorer.parameters().items()}

    def state(self) -> dict:
        return {k: v.data.copy() for k, v in self.parameters().items()}

    @classmethod
    def from_state(cls, state: dict) -> "QaModel":
        return cls(RowMlp.from_state(state, "qa.", None))


def _item_arrays(items: list[QaItem], provider, store: FeatureStore):
    n = len(items[0].answers)
    for item in items:
        if len(item.answers) != n:
            raise ValueError("items in one batch must share the answer count")
    clips = np.stack([encode_clip(i.clip_shots, store) for i in items])
    questions = np.stack([provider.embed(i.question) for i in items])
    answers = np.stack([np.stack([provider.embed(a) for a in i.answers]) for i in items])
    targets = np.array([i.correct_index for i in items], dtype=np.int64)
    return clips, questions, answers, targets


@dataclass
class QaTrainConfig:
    epochs: int
    momentum: float
    scorer_widths: tuple[int, ...]
    learning_rate: float = 0.05
    patience: int = 5


def train_qa(train_items: list[QaItem], provider, store: FeatureStore,
             config: QaTrainConfig, seed: int,
             val_items: list[QaItem] | None = None) -> tuple[QaModel, dict]:
    """SGD on the answer NLL with early stopping on validation accuracy.

    Returns the model (with validation items, that of the best epoch) and
    its nn.fit history.
    """
    if not train_items:
        raise ValueError("train_qa: empty training set")
    model = QaModel.fresh(store.dim, provider.dim, config.scorer_widths,
                          seed=derive_rng(seed, "qa.init").integers(2**32))
    clips, questions, answers, targets = _item_arrays(train_items, provider, store)

    def batch_loss(epoch: int, idx: np.ndarray) -> Tensor:
        return ad.nll_loss(model.probabilities_batch(clips[idx], questions[idx], answers[idx]),
                           targets[idx])

    validate = (None if val_items is None
                else lambda: evaluate_qa(model, val_items, provider, store))
    history = fit(model.parameters(), len(train_items), config.epochs, TRAIN_BATCH,
                  config.learning_rate, config.momentum,
                  lambda e: derive_rng(seed, "qa.epoch", e).permutation(len(train_items)),
                  batch_loss, "train_qa", validate, config.patience)
    return model, history


@ad.no_grad()
def evaluate_qa(model: QaModel, items: list[QaItem], provider, store: FeatureStore) -> float:
    """Share of items whose most probable answer is the correct one. An
    answer distribution that is not finite raises FloatingPointError naming
    the first such item of its batch."""
    if not items:
        raise ValueError("evaluate_qa: empty item set")
    correct = 0
    for start in range(0, len(items), EVAL_BATCH):
        batch = items[start:start + EVAL_BATCH]
        clips, questions, answers, targets = _item_arrays(batch, provider, store)
        probs = ad.finite_rows(model.probabilities_batch(clips, questions, answers).data,
                               [item.qid for item in batch], "answer distribution")
        correct += int((np.argmax(probs, axis=1) == targets).sum())
    return correct / len(items)
