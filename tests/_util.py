"""Shared numerical check helpers and per-id reference implementations."""
import json
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from shotline import autodiff as ad
from shotline import temporal
from shotline.checkpoint import load_checkpoint, save_checkpoint
from shotline.cli import load_config
from shotline.rng import derive_rng
from shotline.tags import TagModel, TagPrediction

GRAD_H = 1e-3
GRAD_TOL = 1e-3


def default_config(build, **changes):
    """The config that the CLI's ``build`` (``cli._world_config``,
    ``_tag_config``, ``_temporal_config`` or ``_qa_config``) makes of the
    default settings, with ``changes`` in place of those fields."""
    return replace(build(load_config(None, [])), **changes)


def reload(model, *context):
    """The model rebuilt from its own checkpoint: its state() is saved, loaded
    back and passed to from_state with ``context`` (a TagModel's vocabulary,
    a TagLstm's tag model)."""
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(Path(tmp) / "model.stln", model.state())
        return type(model).from_state(load_checkpoint(Path(tmp) / "model.stln"), *context)


def forbid_random_draws(monkeypatch):
    """Make every new numpy random generator raise, so a load that draws fails."""
    def refuse(*args, **kwargs):
        raise AssertionError("a random generator was created")

    monkeypatch.setattr(np.random, "default_rng", refuse)


def rel_err(a, b) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, 1e-6)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float((np.abs(a - b) / denom).max())


def finite_difference_gradient(f, x: ad.Tensor, h: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar function of ``x``.

    Perturbs ``x.data`` in place one coordinate at a time; the function is
    re-evaluated at x + h e_i and x - h e_i.
    """
    def scalar(value) -> float:
        return float(value.data) if isinstance(value, ad.Tensor) else float(value)

    out = np.zeros(x.data.shape, dtype=np.float64)
    for idx in np.ndindex(*x.data.shape):
        orig = x.data[idx]
        x.data[idx] = orig + h
        f_plus = scalar(f(x))
        x.data[idx] = orig - h
        f_minus = scalar(f(x))
        x.data[idx] = orig
        out[idx] = (f_plus - f_minus) / (2.0 * h)
    return out


def check_gradients(build_loss, params, h=GRAD_H, tol=GRAD_TOL) -> float:
    """Compare tape gradients of build_loss() against central differences.

    build_loss must rebuild the graph from the current parameter values
    on every call. Returns the worst relative error seen.
    """
    for p in params:
        p.grad = None
    loss = build_loss()
    loss.backward()
    tape = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    worst = 0.0
    for p, got in zip(params, tape):
        fd = finite_difference_gradient(lambda _x: build_loss(), p, h)
        worst = max(worst, rel_err(got, fd))
    assert worst <= tol, f"gradient mismatch: rel err {worst:.3e} > {tol}"
    return worst


def _zero_filled_accumulate(self, piece):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += piece


def _retaining_backward(self):
    order, seen, stack = [], {id(self)}, [(self, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, False))
    self.grad = np.ones_like(self.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def use_reference_engine(monkeypatch):
    """Swap in the plain gradient bookkeeping the engine is checked against:
    every first gradient is added into a fresh zero buffer, and every
    intermediate gradient is kept after backward()."""
    monkeypatch.setattr(ad.Tensor, "_accumulate", _zero_filled_accumulate)
    monkeypatch.setattr(ad.Tensor, "backward", _retaining_backward)


def repeat_rows(x: ad.Tensor, times: int) -> ad.Tensor:
    """Each row of a matrix repeated ``times`` times in place order, as a
    tape op: the backward sums each row's copies."""
    rows, cols = x.data.shape

    def backward(g):
        x._accumulate(g.reshape(rows, times, cols).sum(axis=1))

    return ad.Tensor._result(np.repeat(x.data, times, axis=0), (x,), backward)


def multi_node_scores(mlp, context, candidates):
    """RowMlp.scores built from primitive ops, the form the fused pair_mlp
    node must reproduce bit for bit: (repeat_rows(context @ W[:c], n) +
    candidates @ W[c:]) + b, then tanh, matmul and bias per later layer."""
    w, b = mlp.layers[0]
    (q, c), (rows, d) = context.data.shape, candidates.data.shape
    per_context = repeat_rows(ad.matmul(context, ad.slice_rows(w, 0, c)), rows // q)
    per_candidate = ad.matmul(candidates, ad.slice_rows(w, c, c + d))
    out = ad.add(ad.add(per_context, per_candidate), b)
    for w, b in mlp.layers[1:]:
        out = ad.add(ad.matmul(ad.tanh(out), w), b)
    return out


def zero_state(cell, batch: int = 1) -> tuple[ad.Tensor, ad.Tensor]:
    """Zero (h, c) states of an LstmCell for ``batch`` rows, the start of a step loop."""
    zeros = np.zeros((batch, cell.hidden_dim), dtype=np.float32)
    return ad.Tensor(zeros.copy()), ad.Tensor(zeros.copy())


def final_step_rows(lengths, steps: int) -> np.ndarray:
    """(batch, batch * steps) one-hot rows: row b picks step lengths[b] - 1 of
    sequence b out of the flattened (batch * steps, hidden) states."""
    lengths = np.asarray(lengths, dtype=np.int64)
    rows = np.arange(lengths.size)
    out = np.zeros((lengths.size, lengths.size * steps), dtype=np.float32)
    out[rows, rows * steps + lengths - 1] = 1.0
    return out


def one_hot_context_batch(model, contexts: np.ndarray) -> ad.Tensor:
    """NextShotModel.encode_context_batch as a pooling matmul: every step's
    states times the constant one-hot rows of each window's last step, the
    form the last-step readout must reproduce bit for bit."""
    batch, steps, _ = contexts.shape
    scaled = np.asarray(contexts, dtype=np.float32) * np.float32(model.input_scale)
    flat = ad.reshape(model.cell.fold(ad.Tensor(scaled)), (batch * steps, model.hidden_dim))
    return ad.matmul(ad.Tensor(final_step_rows(np.full(batch, steps), steps)), flat)


def forward_video(model: TagModel, video_id: str, video_feature: np.ndarray) -> TagPrediction:
    """Both tag heads on a single pooled video feature."""
    feat = np.asarray(video_feature, dtype=np.float32)
    if feat.shape != (model.genre_w.data.shape[0],):
        raise ValueError(f"feature shape {feat.shape} does not match head "
                         f"({model.genre_w.data.shape[0]},)")
    genre = ad.sigmoid_values(feat @ model.genre_w.data + model.genre_b.data)
    keyword = ad.sigmoid_values(feat @ model.keyword_w.data + model.keyword_b.data)
    return TagPrediction(video_id, genre, keyword)


# -- next-shot questions, one shot id at a time ------------------------------------------


@dataclass
class OracleQuestion:
    """A next-shot question whose shots are (video_id, ordinal) ids."""
    qid: str
    movie_id: str
    setting: str
    context: list
    candidates: list
    correct_index: int


def pool_generator(store, movie_ids, setting, mctx, n_candidates, seed, stride=None,
                   exclusion_radius=0, pool_movie_ids=None):
    """Reference generator: copies every question's distractor pool into a list.

    Quadratic in corpus size, but plainly correct: the oracle that
    generate_questions must match byte for byte.
    """
    stride = stride or mctx
    all_shots = []
    if setting == temporal.CROSS_MOVIE:
        for movie_id in (pool_movie_ids if pool_movie_ids is not None else movie_ids):
            all_shots.extend((movie_id, o) for o in range(store.shot_count(movie_id)))
    questions = []
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
            if setting == temporal.IN_MOVIE:
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
            questions.append(OracleQuestion(
                qid=f"{setting}-{movie_id}-{start:06d}", movie_id=movie_id, setting=setting,
                context=context, candidates=candidates, correct_index=position))
    return questions, skipped


def write_oracle_questions(path, questions) -> None:
    """The question file format, written one shot id at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for q in questions:
            ctx = ",".join(f"{v}#{o}" for v, o in q.context)
            cands = ",".join(f"{v}#{o}" for v, o in q.candidates)
            fh.write(f"{q.qid}\t{q.movie_id}\t{q.setting}\t{ctx}\t{cands}\t{q.correct_index}\n")


def oracle_set(store, questions) -> temporal.QuestionSet:
    """The QuestionSet of OracleQuestions, each shot id resolved on its own."""
    mctx, n = (len(questions[0].context), len(questions[0].candidates)) if questions else (0, 0)
    return temporal.QuestionSet(
        store, [q.qid for q in questions], [q.movie_id for q in questions],
        [q.setting for q in questions],
        np.array([[store.row_indices([s])[0] for s in q.context] for q in questions],
                 dtype=np.int64).reshape(len(questions), mctx),
        np.array([[store.row_indices([s])[0] for s in q.candidates] for q in questions],
                 dtype=np.int64).reshape(len(questions), n),
        [q.correct_index for q in questions])


def shot_ids(questions: temporal.QuestionSet) -> list[OracleQuestion]:
    """Each question of a set with its rows turned back into shot ids."""
    keys = questions.store.keys() if len(questions) else []
    return [OracleQuestion(qid, movie_id, setting, [keys[r] for r in context],
                           [keys[r] for r in candidates], correct)
            for qid, movie_id, setting, context, candidates, correct in zip(
                questions.qids, questions.movie_ids, questions.settings,
                questions.context.tolist(), questions.candidates.tolist(),
                questions.correct.tolist())]


def per_question_baseline(questions: temporal.QuestionSet) -> list[int]:
    """Reference average-feature baseline, one question at a time: the
    candidate closest in cosine to the float64 mean of the context rows; a
    zero-norm candidate or mean scores -inf, and no finite score picks 0."""
    matrix = questions.store.matrix if len(questions) else None
    chosen = []
    for context, candidate_rows in zip(questions.context, questions.candidates):
        mean = matrix[context].astype(np.float64).mean(axis=0)
        candidates = matrix[candidate_rows].astype(np.float64)
        mean_norm = np.linalg.norm(mean)
        cand_norms = np.linalg.norm(candidates, axis=1)
        sims = np.full(candidates.shape[0], -np.inf)
        valid = (cand_norms > 0) & (mean_norm > 0)
        sims[valid] = (candidates[valid] @ mean) / (cand_norms[valid] * mean_norm)
        chosen.append(int(np.argmax(sims)) if np.isfinite(sims).any() else 0)
    return chosen


def assert_same_questions(a: temporal.QuestionSet, b: temporal.QuestionSet) -> None:
    """The two sets hold the same questions as rows of the same store."""
    assert a.store is b.store
    assert (a.qids, a.movie_ids, a.settings) == (b.qids, b.movie_ids, b.settings)
    for name in ("context", "candidates", "correct"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def stepwise_topic_chain(matrix: np.ndarray, length: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Reference Markov walk: one ``Generator.choice`` call per step, as
    ``corpus.sample_topic_chain`` was first written."""
    topics = matrix.shape[0]
    chain = np.empty(length, dtype=np.int64)
    state = int(rng.integers(topics))
    for i in range(length):
        chain[i] = state
        state = int(rng.choice(topics, p=matrix[state]))
    return chain


def read_ground_truth(path) -> dict:
    """Shot-level ground truth written by corpus.write_ground_truth: id -> row."""
    truth = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                row = json.loads(line)
                truth[row["id"]] = row
    return truth


def write_embedding_table(path, table: dict) -> None:
    """An embedding table file of token -> vector, 6 decimals per value."""
    with open(path, "w", encoding="utf-8") as fh:
        for token, vec in table.items():
            fh.write(token + " " + " ".join(f"{v:.6f}" for v in np.asarray(vec)) + "\n")


class _DiskFullAfter:
    """A binary file handle that takes ``budget`` bytes, then fails as a
    full disk would, in the middle of a write."""

    def __init__(self, fh, budget: int):
        self._fh, self._left = fh, budget

    def write(self, data) -> int:
        data = bytes(data)
        if len(data) > self._left:
            self._fh.write(data[:self._left])
            raise OSError(28, "No space left on device")
        self._left -= len(data)
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def fill_disk_after(monkeypatch, budget: int) -> None:
    """Make every file that shotline.binio opens for writing fail once
    ``budget`` bytes are written to it."""
    from shotline import binio

    def opener(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _DiskFullAfter(fh, budget) if "w" in mode else fh

    monkeypatch.setattr(binio, "open", opener, raising=False)
