"""Self-supervised next-shot prediction over cached shot features.

An LSTM consumes a window of consecutive shot features and summarizes
them into a context vector; a weight-shared scorer turns that context
plus each candidate shot into one score, softmaxed over the candidate
pool. Training maximizes the log-probability of the true successor, so
no annotation beyond the shot order itself is needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import SgdOptimizer, Tensor
from .features import FeatureStore
from .nn import LstmCell, RowMlp, pooling_matrix
from .rng import derive_rng

IN_MOVIE = "in_movie"
CROSS_MOVIE = "cross_movie"

ShotId = tuple[str, int]

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
    questions = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 6:
                raise ValueError(f"{path}: line {line_no}: expected 6 fields, got {len(parts)}")
            questions.append(PredictionQuestion(
                qid=parts[0], movie_id=parts[1], setting=parts[2],
                context=[parse_shot_id(s) for s in parts[3].split(",")],
                candidates=[parse_shot_id(s) for s in parts[4].split(",")],
                correct_index=int(parts[5]),
            ))
    return questions


def write_results(path, rows: list[tuple[str, int, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid, chosen, prob in rows:
            fh.write(f"{qid}\t{chosen}\t{prob:.6f}\n")


# -- question generation ----------------------------------------------------


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
    counted.
    """
    if setting not in (IN_MOVIE, CROSS_MOVIE):
        raise ValueError(f"unknown setting {setting!r}")
    if mctx < 1 or n_candidates < 2:
        raise ValueError("need mctx >= 1 and n_candidates >= 2")
    stride = stride or mctx
    all_shots: list[ShotId] = []
    if setting == CROSS_MOVIE:
        for movie_id in (pool_movie_ids if pool_movie_ids is not None else movie_ids):
            all_shots.extend((movie_id, o) for o in range(store.shot_count(movie_id)))
    questions: list[PredictionQuestion] = []
    skipped = 0
    for movie_id in movie_ids:
        total = store.shot_count(movie_id)
        if total <= mctx:
            skipped += 1
            continue
        rng = derive_rng(seed, f"questions.{setting}.{movie_id}")
        for start in range(0, total - mctx, stride):
            answer_ord = start + mctx
            context = [(movie_id, o) for o in range(start, answer_ord)]
            answer = (movie_id, answer_ord)
            excluded = set(context) | {answer}
            if exclusion_radius > 0:
                for o in range(answer_ord - exclusion_radius, answer_ord + exclusion_radius + 1):
                    if 0 <= o < total:
                        excluded.add((movie_id, o))
            if setting == IN_MOVIE:
                pool = [(movie_id, o) for o in range(total) if (movie_id, o) not in excluded]
            else:
                pool = [s for s in all_shots if s not in excluded]
            if len(pool) < n_candidates - 1:
                skipped += 1
                continue
            picks = rng.choice(len(pool), size=n_candidates - 1, replace=False)
            candidates = [pool[i] for i in picks]
            position = int(rng.integers(n_candidates))
            candidates.insert(position, answer)
            questions.append(PredictionQuestion(
                qid=f"{setting}-{movie_id}-{start:06d}", movie_id=movie_id, setting=setting,
                context=context, candidates=candidates, correct_index=position,
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

    def _candidate_rows(self, u: Tensor, candidates: np.ndarray, n: int) -> Tensor:
        scaled = (np.asarray(candidates, dtype=np.float32).reshape(-1, self.feature_dim)
                  * np.float32(self.input_scale))
        return ad.concat_cols(ad.repeat_rows(u, n), Tensor(scaled))

    def probabilities_batch(self, contexts: np.ndarray, candidates: np.ndarray) -> Tensor:
        """Candidate distributions for a batch: (batch, n) softmax rows.

        candidates is (batch, n, feature_dim); every question in the
        batch shares the same context length and candidate count.
        """
        batch, n, _ = candidates.shape
        u = self.encode_context_batch(contexts)
        scores = self.scorer.scores(self._candidate_rows(u, candidates, n))
        return ad.softmax_rows(ad.reshape(scores, (batch, n)))

    def parameters(self) -> dict:
        params = {f"nextshot.{k}": v for k, v in self.cell.parameters().items()}
        params.update({f"nextshot.{k}": v for k, v in self.scorer.parameters().items()})
        return params

    def state(self) -> dict:
        blob = dict(self.parameters())
        blob["nextshot.input_scale"] = Tensor(np.float32(self.input_scale))
        blob["nextshot.context_pooling"] = Tensor(
            np.float32(CONTEXT_POOLINGS.index(self.context_pooling)))
        return blob

    def load_state(self, state: dict) -> None:
        for name, tensor in self.parameters().items():
            tensor.data[...] = state[name]
        if "nextshot.input_scale" in state:
            self.input_scale = float(np.asarray(state["nextshot.input_scale"]))
        # checkpoints written before the pooling was stored were all "final"
        code = float(np.asarray(state.get("nextshot.context_pooling", 0.0)))
        if code not in range(len(CONTEXT_POOLINGS)):
            raise ValueError(f"unknown nextshot.context_pooling code {code}")
        self.context_pooling = CONTEXT_POOLINGS[int(code)]


def encode_context(features: np.ndarray, model: NextShotModel) -> np.ndarray:
    """Context vector for one (steps, feature_dim) shot sequence."""
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("encode_context: need a non-empty (steps, feature_dim) sequence")
    u = model.encode_context_batch(features[None, :, :])
    return u.data[0]


def score_candidates(u: np.ndarray, candidates: np.ndarray, model: NextShotModel) -> np.ndarray:
    """Softmax distribution over candidate rows given a context vector."""
    u = np.asarray(u, dtype=np.float32)
    candidates = np.asarray(candidates, dtype=np.float32)
    if candidates.ndim != 2 or candidates.shape[0] < 1:
        raise ValueError("score_candidates: need at least one candidate row")
    if u.shape != (model.hidden_dim,) or candidates.shape[1] != model.feature_dim:
        raise ValueError(f"dimension mismatch: u {u.shape}, candidates {candidates.shape}")
    n = candidates.shape[0]
    scores = model.scorer.scores(model._candidate_rows(Tensor(u[None, :]), candidates, n))
    return ad.softmax_rows(ad.reshape(scores, (1, n))).data[0]


def _question_arrays(questions: list[PredictionQuestion],
                     store: FeatureStore) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mctx = len(questions[0].context)
    n = len(questions[0].candidates)
    for q in questions:
        if len(q.context) != mctx or len(q.candidates) != n:
            raise ValueError("questions in one batch must share context and candidate sizes")
    contexts = np.stack([store.rows(q.context) for q in questions])
    candidates = np.stack([store.rows(q.candidates) for q in questions])
    targets = np.array([q.correct_index for q in questions], dtype=np.int64)
    return contexts, candidates, targets


def answer(question: PredictionQuestion, store: FeatureStore, model: NextShotModel) -> int:
    """Index of the candidate with the highest score; ties pick the lowest."""
    probs = score_candidates(encode_context(store.rows(question.context), model),
                             store.rows(question.candidates), model)
    return int(np.argmax(probs))


def _unit_rms_scale(store: FeatureStore) -> float:
    """Scale that brings the store's features to unit per-dimension rms."""
    total = 0.0
    count = 0
    for _, values in store.items():
        total += float((values.astype(np.float64) ** 2).sum())
        count += values.size
    if count == 0 or total == 0.0:
        return 1.0
    return float(1.0 / np.sqrt(total / count))


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

    With a validation set, the parameters from the best validation epoch
    are restored at the end.
    """
    if not questions:
        raise ValueError("train_next_shot: empty question set")
    model = NextShotModel(store.dim, config.hidden_dim, config.scorer_widths,
                          seed=derive_rng(seed, "nextshot.init").integers(2**32),
                          context_pooling=config.context_pooling,
                          input_scale=_unit_rms_scale(store))
    optimizer = SgdOptimizer(model.parameters(), config.learning_rate, config.momentum)
    history = {"loss": [], "val_accuracy": []}
    best_val = -1.0
    best_state = None
    for epoch in range(config.epochs):
        order = derive_rng(seed, "nextshot.epoch", epoch).permutation(len(questions))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [questions[i] for i in order[start:start + config.batch_size]]
            contexts, candidates, targets = _question_arrays(batch, store)
            probs = model.probabilities_batch(contexts, candidates)
            loss = ad.nll_loss(probs, targets)
            value = ad.finite_loss(loss, f"train_next_shot: epoch {epoch}, batch start {start}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += value * len(batch)
        history["loss"].append(epoch_loss / len(questions))
        if val_questions:
            acc = evaluate_accuracy(model, val_questions, store)[0]
            history["val_accuracy"].append(acc)
            if acc > best_val:
                best_val = acc
                best_state = {k: v.data.copy() for k, v in model.parameters().items()}
    if best_state is not None:
        model.load_state(best_state)
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


def predict_probabilities(model: NextShotModel, questions: list[PredictionQuestion],
                          store: FeatureStore, batch_size: int = 256) -> list[np.ndarray]:
    """Candidate distribution of every question, in question order.

    Questions are batched by (context length, candidate count).
    """
    out: list[np.ndarray] = [None] * len(questions)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, q in enumerate(questions):
        by_shape.setdefault((len(q.context), len(q.candidates)), []).append(i)
    for group in by_shape.values():
        for start in range(0, len(group), batch_size):
            part = group[start:start + batch_size]
            contexts, candidates, _ = _question_arrays([questions[i] for i in part], store)
            probs = model.probabilities_batch(contexts, candidates).data
            for i, p in zip(part, probs):
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
