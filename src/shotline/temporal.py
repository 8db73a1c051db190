"""Self-supervised next-shot prediction over cached shot features.

An LSTM consumes a window of consecutive shot features and summarizes
them into a context vector; a weight-shared scorer turns that context
plus each candidate shot into one score, softmaxed over the candidate
pool. Training maximizes the log-probability of the true successor, so
no annotation beyond the shot order itself is needed.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import SgdOptimizer, Tensor
from .binio import read_tsv
from .features import FeatureStore, ShotId
from .nn import (LstmCell, RowMlp, assign_parameters, lstm_dims, mlp_dims,
                 pooling_matrix, read_choice)
from .rng import derive_rng

IN_MOVIE = "in_movie"
CROSS_MOVIE = "cross_movie"

# Checkpoint code of each context pooling, stored as nextshot.context_pooling.
CONTEXT_POOLINGS = ("final", "mean")


@dataclass
class PredictionQuestion:
    qid: str
    movie_id: str
    setting: str
    context: list[ShotId]
    candidates: list[ShotId]
    correct_index: int

    def __post_init__(self):
        if self.setting not in (IN_MOVIE, CROSS_MOVIE):
            raise ValueError(f"unknown setting {self.setting!r}")
        if not 0 <= self.correct_index < len(self.candidates):
            raise ValueError(f"correct_index {self.correct_index} out of range")


def format_shot_id(shot: ShotId) -> str:
    return f"{shot[0]}#{shot[1]}"


def parse_shot_id(text: str) -> ShotId:
    video_id, _, ordinal = text.rpartition("#")
    return video_id, int(ordinal)


def write_questions(path, questions: list[PredictionQuestion]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for q in questions:
            ctx = ",".join(format_shot_id(s) for s in q.context)
            cands = ",".join(format_shot_id(s) for s in q.candidates)
            fh.write(f"{q.qid}\t{q.movie_id}\t{q.setting}\t{ctx}\t{cands}\t{q.correct_index}\n")


def read_questions(path) -> list[PredictionQuestion]:
    return read_tsv(path, 6, lambda p: PredictionQuestion(
        qid=p[0], movie_id=p[1], setting=p[2],
        context=[parse_shot_id(s) for s in p[3].split(",")],
        candidates=[parse_shot_id(s) for s in p[4].split(",")],
        correct_index=int(p[5])))


def write_results(path, rows: list[tuple[str, int, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid, chosen, prob in rows:
            fh.write(f"{qid}\t{chosen}\t{prob:.6f}\n")


# -- question generation ----------------------------------------------------


def _shot_total(store: FeatureStore, movie_id: str) -> int:
    """Shot count of a movie whose ordinals must be exactly 0..n-1."""
    total = store.shot_count(movie_id)
    for ordinal in range(total):
        if (movie_id, ordinal) not in store:
            raise ValueError(f"movie {movie_id!r}: shot ordinals are not 0..{total - 1}; "
                             f"first missing ordinal {ordinal}")
    return total


def generate_questions(store: FeatureStore, movie_ids: list[str], setting: str,
                       mctx: int = 8, n_candidates: int = 32, stride: int | None = None,
                       seed: int = 0, exclusion_radius: int = 0,
                       pool_movie_ids: list[str] | None = None
                       ) -> tuple[list[PredictionQuestion], int]:
    """Slide a context window over each movie and draw distractor shots.

    In-movie distractors come from the same movie outside the window (and
    outside exclusion_radius around the answer); cross-movie distractors
    come from the whole corpus (pool_movie_ids, defaulting to the movies
    being questioned). Movies without enough material are skipped and
    counted. Every movie read must have shot ordinals 0..n-1.

    A pool is a run of shots minus one contiguous excluded window (the
    context, the answer and the radius around it). Distractors are drawn
    as indices into the pool without the window, and an index at or past
    the window moves up by its width, so no pool is ever materialized.
    """
    if setting not in (IN_MOVIE, CROSS_MOVIE):
        raise ValueError(f"unknown setting {setting!r}")
    if mctx < 1 or n_candidates < 2:
        raise ValueError("need mctx >= 1 and n_candidates >= 2")
    stride = stride or mctx
    radius = max(exclusion_radius, 0)
    pool_ids = pool_movie_ids if pool_movie_ids is not None else movie_ids
    read_ids = [*movie_ids, *pool_ids] if setting == CROSS_MOVIE else movie_ids
    totals = {m: _shot_total(store, m) for m in dict.fromkeys(read_ids)}
    if setting == CROSS_MOVIE:
        if len(set(pool_ids)) != len(pool_ids):
            raise ValueError("the cross-movie pool lists a movie more than once")
        pool_shots = [(m, o) for m in pool_ids for o in range(totals[m])]
        pool_start = dict(zip(pool_ids, np.cumsum([0] + [totals[m] for m in pool_ids]).tolist()))
    questions: list[PredictionQuestion] = []
    skipped = 0
    for movie_id in movie_ids:
        total = totals[movie_id]
        if total <= mctx:
            skipped += 1
            continue
        if setting == IN_MOVIE:
            shots, base = [(movie_id, o) for o in range(total)], 0
        else:
            shots, base = pool_shots, pool_start.get(movie_id)  # None: movie not in pool
        rng = derive_rng(seed, f"questions.{setting}.{movie_id}")
        for start in range(0, total - mctx, stride):
            answer_ord = start + mctx
            lo = max(0, min(start, answer_ord - radius))
            width = min(total - 1, answer_ord + radius) - lo + 1 if base is not None else 0
            if len(shots) - width < n_candidates - 1:
                skipped += 1
                continue
            picks = rng.choice(len(shots) - width, size=n_candidates - 1, replace=False)
            if width:
                picks += (picks >= base + lo) * width
            candidates = [shots[i] for i in picks]
            position = int(rng.integers(n_candidates))
            candidates.insert(position, (movie_id, answer_ord))
            questions.append(PredictionQuestion(
                qid=f"{setting}-{movie_id}-{start:06d}", movie_id=movie_id, setting=setting,
                context=[(movie_id, o) for o in range(start, answer_ord)],
                candidates=candidates, correct_index=position,
            ))
    return questions, skipped


# -- model -------------------------------------------------------------------


class NextShotModel:
    """Context LSTM plus a weight-shared per-candidate scorer.

    input_scale standardizes incoming features to roughly unit per-
    dimension variance (for unit-norm feature rows that is sqrt(dim));
    without it the context encoding starts an order of magnitude smaller
    than the candidate block and SGD stalls on the initial plateau.
    """

    def __init__(self, feature_dim: int, hidden_dim: int = 256,
                 scorer_widths: tuple[int, ...] = (256, 64),
                 seed: int = 0, context_pooling: str = "final",
                 input_scale: float = 1.0):
        if context_pooling not in CONTEXT_POOLINGS:
            raise ValueError(f"unknown context_pooling {context_pooling!r}")
        self.feature_dim = feature_dim
        self.hidden_dim = hidden_dim
        self.context_pooling = context_pooling
        self.input_scale = float(input_scale)
        self.cell = LstmCell(feature_dim, hidden_dim, derive_rng(seed, "nextshot.lstm"))
        self.scorer = RowMlp(hidden_dim + feature_dim, scorer_widths,
                             derive_rng(seed, "nextshot.scorer"))

    def encode_context_batch(self, contexts: np.ndarray) -> Tensor:
        """Encode (batch, steps, feature_dim) contexts into (batch, hidden)."""
        batch, steps, _ = contexts.shape
        scaled = np.asarray(contexts, dtype=np.float32) * np.float32(self.input_scale)
        pooling = pooling_matrix(np.full(batch, steps), steps, self.context_pooling)
        return self.cell.fold(Tensor(scaled), pooling)

    def probabilities_batch(self, contexts: np.ndarray, candidates: np.ndarray) -> Tensor:
        """Candidate distributions for a batch: (batch, n) softmax rows.

        candidates is (batch, n, feature_dim); every question in the
        batch shares the same context length and candidate count.
        """
        batch, n, _ = candidates.shape
        u = self.encode_context_batch(contexts)
        scaled = (np.asarray(candidates, dtype=np.float32).reshape(-1, self.feature_dim)
                  * np.float32(self.input_scale))
        scores = self.scorer.scores(u, Tensor(scaled))
        return ad.softmax_rows(ad.reshape(scores, (batch, n)))

    def parameters(self) -> dict:
        params = {f"nextshot.{k}": v for k, v in self.cell.parameters().items()}
        params.update({f"nextshot.{k}": v for k, v in self.scorer.parameters().items()})
        return params

    def state(self) -> dict:
        """Weight copies plus nextshot.input_scale and nextshot.context_pooling
        (the index into CONTEXT_POOLINGS)."""
        state = {k: v.data.copy() for k, v in self.parameters().items()}
        state["nextshot.input_scale"] = np.float32(self.input_scale)
        state["nextshot.context_pooling"] = np.float32(
            CONTEXT_POOLINGS.index(self.context_pooling))
        return state

    @classmethod
    def from_state(cls, state: dict) -> "NextShotModel":
        """Rebuild a model from state(); older states lack the scalars and
        load with input_scale 1 and "final" pooling."""
        feature_dim, hidden_dim = lstm_dims(state, "nextshot.lstm.weights")
        _, widths = mlp_dims(state, "nextshot.")
        input_scale = float(np.asarray(state.get("nextshot.input_scale", 1.0)))
        if not np.isfinite(input_scale):
            raise ValueError(f"'nextshot.input_scale' is {input_scale}")
        model = cls(feature_dim, hidden_dim, widths,
                    context_pooling=read_choice(state, "nextshot.context_pooling",
                                                CONTEXT_POOLINGS),
                    input_scale=input_scale)
        assign_parameters(model.parameters(), state)
        return model


def _question_rows(questions: list[PredictionQuestion],
                   store: FeatureStore) -> tuple[np.ndarray, np.ndarray]:
    """Store rows of every question's context, (Q, mctx), and candidates, (Q, n)."""
    mctx = len(questions[0].context)
    n = len(questions[0].candidates)
    for q in questions:
        if len(q.context) != mctx or len(q.candidates) != n:
            raise ValueError("questions resolved together must share context and "
                             "candidate sizes")
    contexts = store.row_indices([s for q in questions for s in q.context])
    candidates = store.row_indices([s for q in questions for s in q.candidates])
    return contexts.reshape(len(questions), mctx), candidates.reshape(len(questions), n)


def _unit_rms_scale(store: FeatureStore) -> float:
    """Scale that brings the store's features to unit per-dimension rms.

    Each record's float64 sum of squares is added in record order.
    """
    matrix = store.matrix
    if matrix.size == 0:
        return 1.0
    total = float(np.cumsum(np.square(matrix, dtype=np.float64).sum(axis=1))[-1])
    if total == 0.0:
        return 1.0
    return float(1.0 / np.sqrt(total / matrix.size))


@dataclass
class TemporalTrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.3
    momentum: float = 0.9
    hidden_dim: int = 256
    scorer_widths: tuple[int, ...] = (256, 64)
    context_pooling: str = "final"


def train_next_shot(questions: list[PredictionQuestion], store: FeatureStore,
                    config: TemporalTrainConfig, seed: int,
                    val_questions: list[PredictionQuestion] | None = None
                    ) -> tuple[NextShotModel, dict]:
    """SGD on the negative log-probability of the correct candidate.

    With a validation set, the model from the best validation epoch is
    restored at the end. The history holds each epoch's mean loss, its
    seconds (validation included) and the training examples per second of
    its SGD pass, plus each validation accuracy.
    """
    if not questions:
        raise ValueError("train_next_shot: empty question set")
    model = NextShotModel(store.dim, config.hidden_dim, config.scorer_widths,
                          seed=derive_rng(seed, "nextshot.init").integers(2**32),
                          context_pooling=config.context_pooling,
                          input_scale=_unit_rms_scale(store))
    optimizer = SgdOptimizer(model.parameters(), config.learning_rate, config.momentum)
    context_rows, candidate_rows = _question_rows(questions, store)
    targets = np.array([q.correct_index for q in questions], dtype=np.int64)
    matrix = store.matrix
    history = {"loss": [], "epoch_s": [], "examples_per_s": [], "val_accuracy": []}
    best_val = -1.0
    best_state = None
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = derive_rng(seed, "nextshot.epoch", epoch).permutation(len(questions))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            probs = model.probabilities_batch(matrix[context_rows[batch]],
                                              matrix[candidate_rows[batch]])
            loss = ad.nll_loss(probs, targets[batch])
            value = ad.finite_loss(loss, f"train_next_shot: epoch {epoch}, batch start {start}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += value * len(batch)
        history["loss"].append(epoch_loss / len(questions))
        history["examples_per_s"].append(len(questions) / (time.perf_counter() - started))
        if val_questions:
            acc = evaluate_accuracy(model, val_questions, store)[0]
            history["val_accuracy"].append(acc)
            if acc > best_val:
                best_val = acc
                best_state = model.state()
        history["epoch_s"].append(time.perf_counter() - started)
    if best_state is not None:
        model = NextShotModel.from_state(best_state)
    return model, history


def baseline_average_cosine(question: PredictionQuestion, store: FeatureStore) -> int:
    """Pick the candidate closest (in cosine) to the mean context feature."""
    mean = store.rows(question.context).astype(np.float64).mean(axis=0)
    candidates = store.rows(question.candidates).astype(np.float64)
    mean_norm = np.linalg.norm(mean)
    cand_norms = np.linalg.norm(candidates, axis=1)
    sims = np.full(candidates.shape[0], -np.inf)
    valid = (cand_norms > 0) & (mean_norm > 0)
    sims[valid] = (candidates[valid] @ mean) / (cand_norms[valid] * mean_norm)
    if not np.isfinite(sims).any():
        return 0
    return int(np.argmax(sims))


@ad.no_grad()
def predict_probabilities(model: NextShotModel, questions: list[PredictionQuestion],
                          store: FeatureStore, batch_size: int = 256) -> list[np.ndarray]:
    """Candidate distribution of every question, in question order.

    Questions are batched by (context length, candidate count).
    """
    out: list[np.ndarray] = [None] * len(questions)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, q in enumerate(questions):
        by_shape.setdefault((len(q.context), len(q.candidates)), []).append(i)
    matrix = store.matrix
    for group in by_shape.values():
        context_rows, candidate_rows = _question_rows([questions[i] for i in group], store)
        for start in range(0, len(group), batch_size):
            part = slice(start, start + batch_size)
            probs = model.probabilities_batch(matrix[context_rows[part]],
                                              matrix[candidate_rows[part]]).data
            for i, p in zip(group[part], probs):
                out[i] = p
    return out


def accuracy_by_setting(questions: list[PredictionQuestion],
                        chosen: list[int]) -> tuple[float, dict]:
    """Fraction of chosen indices that are correct, plus a per-setting breakdown."""
    if not questions:
        raise ValueError("no questions to score")
    correct: dict[str, int] = {}
    seen: dict[str, int] = {}
    for q, c in zip(questions, chosen, strict=True):
        seen[q.setting] = seen.get(q.setting, 0) + 1
        correct[q.setting] = correct.get(q.setting, 0) + int(c == q.correct_index)
    breakdown = {s: correct[s] / seen[s] for s in seen}
    return sum(correct.values()) / len(questions), breakdown


def evaluate_accuracy(scorer, questions: list[PredictionQuestion], store: FeatureStore,
                      batch_size: int = 256) -> tuple[float, dict]:
    """Fraction answered correctly, plus a per-setting breakdown.

    ``scorer`` is either a NextShotModel or a callable mapping
    (question, store) to a chosen index.
    """
    if not questions:
        raise ValueError("evaluate_accuracy: empty question set")
    if isinstance(scorer, NextShotModel):
        chosen = [int(np.argmax(p))
                  for p in predict_probabilities(scorer, questions, store, batch_size)]
    else:
        chosen = [scorer(q, store) for q in questions]
    return accuracy_by_setting(questions, chosen)
