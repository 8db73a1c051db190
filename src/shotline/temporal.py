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
from .autodiff import Tensor
from .binio import read_tsv, write_lines
from .features import FeatureStore, check_label_ids, label_rows, shot_labels
from .nn import LstmCell, RowMlp, fit, read_weights
from .rng import derive_rng

IN_MOVIE = "in_movie"
CROSS_MOVIE = "cross_movie"
PREDICT_BATCH = 256  # context windows, then questions, per predict_probabilities batch


class QuestionSet:
    """Next-shot questions as row arrays into one FeatureStore.

    Question i is ``qids[i]`` about ``movie_ids[i]`` in ``settings[i]``. Its
    context shots, in order, are the store rows ``context[i]`` of the
    (Q, mctx) array and its candidates the rows ``candidates[i]`` of the
    (Q, n) array, and ``candidates[i, correct[i]]`` is its answer. A slice
    or an index array gives the set of those questions, and iterating yields
    one-question sets in order.
    """

    def __init__(self, store: FeatureStore | None, qids: list[str], movie_ids: list[str],
                 settings: list[str], context: np.ndarray, candidates: np.ndarray,
                 correct: np.ndarray):
        self.store = store
        self.qids = list(qids)
        self.movie_ids = list(movie_ids)
        self.settings = list(settings)
        self.context = np.asarray(context, dtype=np.int64)
        self.candidates = np.asarray(candidates, dtype=np.int64)
        self.correct = np.asarray(correct, dtype=np.int64)
        count = len(self.qids)
        if (self.context.ndim != 2 or self.candidates.ndim != 2
                or {len(self.movie_ids), len(self.settings), len(self.context),
                    len(self.candidates), len(self.correct)} != {count}):
            raise ValueError("a question set needs one qid, movie, setting, context row, "
                             "candidate row and answer per question")
        for setting in dict.fromkeys(self.settings):
            if setting not in (IN_MOVIE, CROSS_MOVIE):
                raise ValueError(f"unknown setting {setting!r}")
        bad = (self.correct < 0) | (self.correct >= self.candidates.shape[1])
        if bad.any():
            raise ValueError(f"correct_index {self.correct[np.argmax(bad)]} out of range")

    @classmethod
    def concat(cls, sets) -> "QuestionSet":
        """One set of QuestionSets, in order; all must index the same store.
        Nothing gives an empty set of no store."""
        sets = list(sets)
        if not sets:
            return cls(None, [], [], [], np.empty((0, 0)), np.empty((0, 0)), [])
        if any(s.store is not sets[0].store for s in sets):
            raise ValueError("questions joined together must index one feature store")
        return cls(sets[0].store, [q for s in sets for q in s.qids],
                   [m for s in sets for m in s.movie_ids],
                   [t for s in sets for t in s.settings],
                   np.concatenate([s.context for s in sets]),
                   np.concatenate([s.candidates for s in sets]),
                   np.concatenate([s.correct for s in sets]))

    def __len__(self) -> int:
        return len(self.qids)

    def __iter__(self):
        return (self[i:i + 1] for i in range(len(self.qids)))

    def __getitem__(self, index):
        picks = np.arange(len(self.qids))[index]
        return QuestionSet(self.store, [self.qids[i] for i in picks],
                           [self.movie_ids[i] for i in picks],
                           [self.settings[i] for i in picks], self.context[picks],
                           self.candidates[picks], self.correct[picks])


def write_questions(path, questions: QuestionSet) -> None:
    """One line per question; shots are written as ``video#ordinal`` labels.

    Each store row a question names is labelled once, and each line joins
    the labels of its rows. A plain sequence of sets is joined into one
    first. A video id that a label cannot carry raises ValueError naming it
    before anything is written.
    """
    if not isinstance(questions, QuestionSet):
        questions = QuestionSet.concat(questions)
    labels = np.empty(0 if questions.store is None else len(questions.store), dtype=object)
    used = np.zeros(len(labels), dtype=bool)
    used[questions.context] = True
    used[questions.candidates] = True
    rows = np.flatnonzero(used)
    keys = questions.store.keys() if rows.size else []
    named = [keys[r] for r in rows.tolist()]
    check_label_ids(path, dict.fromkeys([*questions.movie_ids, *(v for v, _ in named)]))
    labels[rows] = shot_labels(named)
    contexts = labels[questions.context].tolist()
    candidates = labels[questions.candidates].tolist()
    write_lines(path, (f"{qid}\t{movie}\t{setting}\t{','.join(ctx)}\t{','.join(cands)}\t{c}"
                       for qid, movie, setting, ctx, cands, c in zip(
                           questions.qids, questions.movie_ids, questions.settings, contexts,
                           candidates, questions.correct.tolist())))


def read_questions(path, store: FeatureStore) -> QuestionSet:
    """The questions of a file written by write_questions, as rows of ``store``.

    Labels resolve through one label -> row table of the store. A malformed
    line, a label of no stored shot, or a line whose context or candidate
    count differs from the first line's raises ValueError naming the file and
    the line.
    """
    shot_rows = label_rows(store)
    sizes: list[tuple[int, int]] = []

    def parse(p: list[str]):
        context, candidates, correct = shot_rows(p[3]), shot_rows(p[4]), int(p[5])
        if p[2] not in (IN_MOVIE, CROSS_MOVIE):
            raise ValueError(f"unknown setting {p[2]!r}")
        if not 0 <= correct < len(candidates):
            raise ValueError(f"correct_index {correct} out of range")
        if not sizes:
            sizes.append((len(context), len(candidates)))
        elif sizes[0] != (len(context), len(candidates)):
            raise ValueError(f"{len(context)} context and {len(candidates)} candidate shots, "
                             f"where the first question has {sizes[0][0]} and {sizes[0][1]}")
        return p[0], p[1], p[2], context, candidates, correct

    lines = read_tsv(path, 6, parse)
    mctx, n = sizes[0] if sizes else (0, 0)
    qids, movie_ids, settings, contexts, candidates, correct = zip(*lines) if lines else [()] * 6
    return QuestionSet(store, qids, movie_ids, settings,
                       np.array(contexts, dtype=np.int64).reshape(len(lines), mctx),
                       np.array(candidates, dtype=np.int64).reshape(len(lines), n), correct)


def write_results(path, rows: list[tuple[str, int, float]]) -> None:
    write_lines(path, (f"{qid}\t{chosen}\t{prob:.6f}" for qid, chosen, prob in rows))


# -- question generation ----------------------------------------------------


def _movie_rows(store: FeatureStore, keys: list, movie_id: str) -> np.ndarray:
    """Store rows of a movie's shots in ordinal order; its ordinals must be
    exactly 0..n-1. ``keys`` is store.keys()."""
    if not store.shot_count(movie_id):
        return np.empty(0, dtype=np.int64)
    rows = store.sequence_rows(movie_id)
    total = len(rows)
    # distinct ordinals in ascending order are 0..n-1 when the first is 0 and the last n-1
    if keys[rows[0]][1] != 0 or keys[rows[-1]][1] != total - 1:
        present = {keys[r][1] for r in rows.tolist()}
        missing = next(o for o in range(total) if o not in present)
        raise ValueError(f"movie {movie_id!r}: shot ordinals are not 0..{total - 1}; "
                         f"first missing ordinal {missing}")
    return rows


def generate_questions(store: FeatureStore, movie_ids: list[str], setting: str,
                       mctx: int, n_candidates: int, seed: int, stride: int | None = None,
                       exclusion_radius: int = 0,
                       pool_movie_ids: list[str] | None = None) -> tuple[QuestionSet, int]:
    """Slide a context window over each movie and draw distractor shots.

    In-movie distractors come from the same movie outside the window (and
    outside exclusion_radius around the answer); cross-movie distractors
    come from the whole corpus (pool_movie_ids, defaulting to the movies
    being questioned). Movies without enough material are skipped and
    counted. Every movie read must have shot ordinals 0..n-1. A stride of
    None or 0 means mctx; a negative stride or exclusion_radius raises.

    A pool is a run of store rows minus one contiguous excluded window (the
    context, the answer and the radius around it). Distractors are drawn as
    indices into the pool without the window, and an index at or past the
    window moves up by its width, so no pool is ever materialized. Each
    question takes one ``rng.choice`` and one ``rng.integers`` from its
    movie's stream; the windows, shifts, gathers and answer insertion are
    array work over all of a movie's questions at once.
    """
    if setting not in (IN_MOVIE, CROSS_MOVIE):
        raise ValueError(f"unknown setting {setting!r}")
    if mctx < 1 or n_candidates < 2:
        raise ValueError("need mctx >= 1 and n_candidates >= 2")
    for name, value in (("stride", stride or 0), ("exclusion_radius", exclusion_radius)):
        if value < 0:
            raise ValueError(f"generate_questions: {name} must not be negative, got {value}")
    stride = stride or mctx
    pool_ids = pool_movie_ids if pool_movie_ids is not None else movie_ids
    read_ids = [*movie_ids, *pool_ids] if setting == CROSS_MOVIE else movie_ids
    keys = store.keys()
    sequences = {m: _movie_rows(store, keys, m) for m in dict.fromkeys(read_ids)}
    if setting == CROSS_MOVIE:
        if len(set(pool_ids)) != len(pool_ids):
            raise ValueError("the cross-movie pool lists a movie more than once")
        pool = np.concatenate([np.empty(0, dtype=np.int64), *(sequences[m] for m in pool_ids)])
        pool_start = dict(zip(pool_ids, np.cumsum([0] + [len(sequences[m]) for m in pool_ids])
                              .tolist()))
    parts: list[QuestionSet] = []
    skipped = 0
    for movie_id in movie_ids:
        rows = sequences[movie_id]
        total = len(rows)
        if total <= mctx:
            skipped += 1
            continue
        if setting == IN_MOVIE:
            shots, base = rows, 0
        else:
            shots, base = pool, pool_start.get(movie_id)  # None: movie not in pool
        starts = np.arange(0, total - mctx, stride)
        answers = starts + mctx
        lo = np.maximum(0, np.minimum(starts, answers - exclusion_radius))
        width = (np.minimum(total - 1, answers + exclusion_radius) - lo + 1 if base is not None
                 else np.zeros_like(starts))
        kept = len(shots) - width >= n_candidates - 1
        skipped += len(starts) - int(kept.sum())
        starts, answers, lo, width = starts[kept], answers[kept], lo[kept], width[kept]
        if not len(starts):
            continue
        rng = derive_rng(seed, f"questions.{setting}.{movie_id}")
        picks = np.empty((len(starts), n_candidates - 1), dtype=np.int64)
        positions = np.empty(len(starts), dtype=np.int64)
        for i, size in enumerate((len(shots) - width).tolist()):
            picks[i] = rng.choice(size, size=n_candidates - 1, replace=False)
            positions[i] = rng.integers(n_candidates)
        picks += (picks >= (base or 0) + lo[:, None]) * width[:, None]
        # each row's distractors fill its candidate slots around the answer's
        candidates = np.empty((len(starts), n_candidates), dtype=np.int64)
        at_answer = np.arange(n_candidates) == positions[:, None]
        candidates[~at_answer] = shots[picks].ravel()
        candidates[at_answer] = rows[answers]
        prefix = f"{setting}-{movie_id}-"
        parts.append(QuestionSet(
            store, [f"{prefix}{start:06d}" for start in starts.tolist()],
            [movie_id] * len(starts), [setting] * len(starts),
            rows[starts[:, None] + np.arange(mctx)], candidates, positions))
    if not parts:
        return QuestionSet(store, [], [], [], np.empty((0, mctx)), np.empty((0, n_candidates)),
                           []), skipped
    return QuestionSet.concat(parts), skipped


# -- model -------------------------------------------------------------------


class NextShotModel:
    """Context LSTM plus a weight-shared per-candidate scorer.

    input_scale standardizes incoming features to roughly unit per-
    dimension variance (for unit-norm feature rows that is sqrt(dim));
    without it the context encoding starts an order of magnitude smaller
    than the candidate block and SGD stalls on the initial plateau.
    """

    def __init__(self, cell: LstmCell, scorer: RowMlp, input_scale: float):
        self.cell, self.scorer = cell, scorer
        self.feature_dim, self.hidden_dim = cell.input_dim, cell.hidden_dim
        self.input_scale = float(input_scale)

    @classmethod
    def fresh(cls, feature_dim: int, hidden_dim: int, scorer_widths: tuple[int, ...], seed: int,
              input_scale: float) -> "NextShotModel":
        return cls(LstmCell.fresh(feature_dim, hidden_dim, derive_rng(seed, "nextshot.lstm")),
                   RowMlp.fresh(hidden_dim + feature_dim, scorer_widths,
                                derive_rng(seed, "nextshot.scorer")), input_scale)

    def encode_context_batch(self, contexts: np.ndarray) -> Tensor:
        """Encode (batch, steps, feature_dim) contexts into their last step's
        hidden states, (batch, hidden)."""
        batch, steps, _ = contexts.shape
        scaled = np.asarray(contexts, dtype=np.float32) * np.float32(self.input_scale)
        states = ad.reshape(self.cell.fold(Tensor(scaled)), (batch, steps * self.hidden_dim))
        return ad.slice_cols(states, (steps - 1) * self.hidden_dim, steps * self.hidden_dim)

    def score_batch(self, encoded: Tensor, candidates: np.ndarray) -> Tensor:
        """Candidate distributions, (batch, n) softmax rows, of (batch, hidden)
        encoded contexts and their (batch, n, feature_dim) candidates."""
        batch, n, _ = candidates.shape
        scaled = (np.asarray(candidates, dtype=np.float32).reshape(-1, self.feature_dim)
                  * np.float32(self.input_scale))
        scores = self.scorer.scores(encoded, Tensor(scaled))
        return ad.softmax_rows(ad.reshape(scores, (batch, n)))

    def probabilities_batch(self, contexts: np.ndarray, candidates: np.ndarray) -> Tensor:
        """Candidate distributions for a batch: (batch, n) softmax rows.

        candidates is (batch, n, feature_dim); every question in the
        batch shares the same context length and candidate count.
        """
        return self.score_batch(self.encode_context_batch(contexts), candidates)

    def parameters(self) -> dict:
        params = {f"nextshot.{k}": v for k, v in self.cell.parameters().items()}
        params.update({f"nextshot.{k}": v for k, v in self.scorer.parameters().items()})
        return params

    def state(self) -> dict:
        """Weight copies plus nextshot.input_scale."""
        state = {k: v.data.copy() for k, v in self.parameters().items()}
        state["nextshot.input_scale"] = np.float32(self.input_scale)
        return state

    @classmethod
    def from_state(cls, state: dict) -> "NextShotModel":
        """The model of a state(); its scorer must take the context and a candidate."""
        cell = LstmCell.from_state(state, "nextshot.")
        scorer = RowMlp.from_state(state, "nextshot.", cell.hidden_dim + cell.input_dim)
        return cls(cell, scorer, read_weights(state, "nextshot.input_scale", ()))


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
    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float
    hidden_dim: int
    scorer_widths: tuple[int, ...]


def train_next_shot(questions: QuestionSet, config: TemporalTrainConfig, seed: int,
                    val_questions: QuestionSet | None = None) -> tuple[NextShotModel, dict]:
    """SGD on the negative log-probability of the correct candidate.

    With a validation set, the model of the best validation epoch is
    restored at the end; training never stops early. Returns the model and
    its nn.fit history.
    """
    if not len(questions):
        raise ValueError("train_next_shot: empty question set")
    store = questions.store
    model = NextShotModel.fresh(store.dim, config.hidden_dim, config.scorer_widths,
                                seed=derive_rng(seed, "nextshot.init").integers(2**32),
                                input_scale=_unit_rms_scale(store))
    matrix = store.matrix

    def batch_loss(epoch: int, batch: np.ndarray) -> Tensor:
        probs = model.probabilities_batch(matrix[questions.context[batch]],
                                          matrix[questions.candidates[batch]])
        return ad.nll_loss(probs, questions.correct[batch])

    validate = (None if val_questions is None
                else lambda: evaluate_accuracy(model, val_questions)[0])
    history = fit(model.parameters(), len(questions), config.epochs, config.batch_size,
                  config.learning_rate, config.momentum,
                  lambda e: derive_rng(seed, "nextshot.epoch", e).permutation(len(questions)),
                  batch_loss, "train_next_shot", validate)
    return model, history


def baseline_average_cosine(questions: QuestionSet) -> np.ndarray:
    """Each question's pick, (Q,): the candidate closest in cosine to the
    float64 mean of its context rows.

    A zero-norm candidate, or every candidate of a zero-norm mean, scores
    -inf, and a question with no finite score picks 0. The dot products and
    the mean's norm go through the same BLAS calls as one question's
    ``candidates @ mean`` and ``norm(mean)``, so a set gives the choices its
    questions give one at a time.
    """
    matrix = questions.store.matrix
    means = matrix[questions.context].astype(np.float64).mean(axis=1)
    candidates = matrix[questions.candidates].astype(np.float64)
    dots = (candidates @ means[:, :, None])[:, :, 0]
    mean_norms = np.sqrt((means[:, None, :] @ means[:, :, None])[:, 0, 0])
    cand_norms = np.linalg.norm(candidates, axis=2)
    sims = np.full(dots.shape, -np.inf)
    np.divide(dots, cand_norms * mean_norms[:, None], out=sims,
              where=(cand_norms > 0) & (mean_norms[:, None] > 0))
    return np.where(np.isfinite(sims).any(axis=1), sims.argmax(axis=1), 0)


@ad.no_grad()
def predict_probabilities(model: NextShotModel, questions: QuestionSet) -> np.ndarray:
    """Candidate distribution of every question, (Q, n), in question order.

    Each distinct context window is encoded once, in batches of
    PREDICT_BATCH windows; each batch of PREDICT_BATCH questions is then
    scored with its windows' encodings. A distribution that is not finite
    raises FloatingPointError naming the first such question.
    """
    if not len(questions):
        return np.empty(questions.candidates.shape, np.float32)
    matrix = questions.store.matrix
    windows, window_of = np.unique(questions.context, axis=0, return_inverse=True)
    window_of = window_of.reshape(-1)  # numpy 2.0.0 gives it the context's rank
    step = PREDICT_BATCH
    encoded = np.concatenate([model.encode_context_batch(matrix[windows[start:start + step]]).data
                              for start in range(0, len(windows), step)])
    parts = [model.score_batch(Tensor(encoded[window_of[start:start + step]]),
                               matrix[questions.candidates[start:start + step]]).data
             for start in range(0, len(questions), step)]
    return ad.finite_rows(np.concatenate(parts), questions.qids, "candidate distribution")


def accuracy_by_setting(questions: QuestionSet, chosen) -> tuple[float, dict]:
    """Fraction of chosen indices that are correct, plus a per-setting breakdown."""
    if not len(questions):
        raise ValueError("no questions to score")
    chosen = np.asarray(chosen)
    if chosen.shape != questions.correct.shape:
        raise ValueError(f"{chosen.size} choices for {len(questions)} questions")
    hits = chosen == questions.correct
    settings = np.array(questions.settings)
    breakdown = {}
    for setting in dict.fromkeys(questions.settings):
        asked = settings == setting
        breakdown[setting] = int(hits[asked].sum()) / int(asked.sum())
    return int(hits.sum()) / len(questions), breakdown


def evaluate_accuracy(model: NextShotModel, questions: QuestionSet) -> tuple[float, dict]:
    """Fraction the model answers correctly, plus a per-setting breakdown."""
    return accuracy_by_setting(questions, predict_probabilities(model, questions).argmax(axis=1))
