import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotline import autodiff as ad
from shotline import temporal
from shotline.autodiff import Tensor
from shotline.checkpoint import save_checkpoint
from shotline.cli import _temporal_config
from shotline.features import FeatureStore
from shotline.nn import LstmCell
from shotline.temporal import (CROSS_MOVIE, IN_MOVIE, NextShotModel, QuestionSet,
                               TemporalTrainConfig, accuracy_by_setting,
                               baseline_average_cosine, evaluate_accuracy, generate_questions,
                               predict_probabilities, read_questions, train_next_shot,
                               write_questions, write_results)

from _util import (OracleQuestion, assert_same_questions, check_gradients, default_config,
                   forbid_random_draws, one_hot_context_batch, oracle_set, per_question_baseline,
                   pool_generator, reload, shot_ids, use_reference_engine, write_oracle_questions,
                   zero_state)


def filled_store(n_movies=3, shots=50, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    store = FeatureStore(dim)
    for m in range(n_movies):
        for o in range(shots):
            store.add(f"m{m}", o, rng.normal(0, 1, dim).astype(np.float32))
    return store


# -- lstm cell -----------------------------------------------------------------

def test_lstm_zero_weights_zero_state_gives_zero():
    cell = LstmCell.fresh(3, 4, np.random.default_rng(0))
    cell.weights.data[...] = 0.0
    cell.bias.data[...] = 0.0
    h, c = zero_state(cell)
    h2, c2 = cell.step(Tensor(np.ones((1, 3), dtype=np.float32)), h, c)
    assert np.array_equal(h2.data, np.zeros((1, 4), dtype=np.float32))


def test_lstm_saturated_gates_carry_state():
    cell = LstmCell.fresh(3, 4, np.random.default_rng(1))
    cell.weights.data[...] = 0.0
    cell.bias.data[...] = 0.0
    cell.bias.data[4:8] = 20.0    # forget gate wide open
    cell.bias.data[0:4] = -20.0   # input gate closed
    h = Tensor(np.zeros((1, 4), dtype=np.float32))
    c = Tensor(np.array([[0.3, -0.2, 0.5, 0.1]], dtype=np.float32))
    _, c2 = cell.step(Tensor(np.ones((1, 3), dtype=np.float32)), h, c)
    assert np.allclose(c2.data, c.data, atol=1e-6)


def test_lstm_forget_bias_initialized_to_one():
    cell = LstmCell.fresh(3, 4, np.random.default_rng(2))
    assert np.allclose(cell.bias.data[4:8], 1.0)
    assert np.allclose(cell.bias.data[:4], 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_lstm_step_gradients(seed):
    rng = np.random.default_rng(6000 + seed)
    cell = LstmCell.fresh(3, 4, rng)
    cell.weights = Tensor(rng.normal(0, 0.4, (7, 16)), requires_grad=True)
    cell.bias = Tensor(rng.normal(0, 0.2, 16), requires_grad=True)
    x = Tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
    h0 = Tensor(rng.normal(0, 0.5, (2, 4)))
    c0 = Tensor(rng.normal(0, 0.5, (2, 4)))
    w = Tensor(rng.normal(0, 1, (2, 4)))

    def loss():
        h, c = cell.step(x, h0, c0)
        return ad.sum_all(ad.hadamard(h, w))

    check_gradients(loss, [cell.weights, cell.bias, x])


# -- context encoding -------------------------------------------------------------
# A single (steps, feature_dim) context is encoded as a batch of one.

def test_encode_context_single_step_equals_one_lstm_step():
    model = NextShotModel.fresh(4, hidden_dim=5, scorer_widths=(8,), seed=3, input_scale=1.0)
    features = np.random.default_rng(0).normal(0, 1, (1, 4)).astype(np.float32)
    u = model.encode_context_batch(features[None]).data[0]
    h, c = zero_state(model.cell)
    h2, _ = model.cell.step(Tensor(features * np.float32(model.input_scale)), h, c)
    assert np.array_equal(u, h2.data[0])


def test_encode_context_order_sensitive():
    model = NextShotModel.fresh(4, hidden_dim=5, scorer_widths=(8,), seed=4, input_scale=1.0)
    rng = np.random.default_rng(1)
    features = rng.normal(0, 1, (6, 4)).astype(np.float32)
    forward = model.encode_context_batch(features[None]).data[0]
    backward = model.encode_context_batch(features[None, ::-1].copy()).data[0]
    assert not np.allclose(forward, backward, atol=1e-7)


def test_encode_context_matches_unrolled_oracle():
    model = NextShotModel.fresh(4, hidden_dim=5, scorer_widths=(8,), seed=5, input_scale=1.0)
    rng = np.random.default_rng(2)
    features = rng.normal(0, 1, (3, 4)).astype(np.float32)
    u = model.encode_context_batch(features[None]).data[0]
    h, c = zero_state(model.cell)
    for t in range(3):
        h, c = model.cell.step(Tensor(features[t:t + 1] * np.float32(model.input_scale)), h, c)
    # the fused op projects all steps in one matmul: equal up to float32 rounding
    assert np.allclose(u, h.data[0], rtol=0, atol=1e-6)


def test_encode_context_empty_rejected():
    model = NextShotModel.fresh(4, hidden_dim=5, scorer_widths=(8,), seed=6, input_scale=1.0)
    with pytest.raises(ValueError, match="lstm_sequence: empty input sequence"):
        model.encode_context_batch(np.zeros((1, 0, 4), dtype=np.float32))


def test_encode_context_is_gate_bounded():
    # h = output_gate * tanh(cell): every entry stays inside (-1, 1)
    model = NextShotModel.fresh(4, hidden_dim=5, scorer_widths=(8,), seed=13, input_scale=4.0)
    rng = np.random.default_rng(14)
    for _ in range(5):
        u = model.encode_context_batch(rng.normal(0, 3, (1, 10, 4)).astype(np.float32))
        assert np.abs(u.data).max() <= 1.0


def step_loop_contexts(model, contexts):
    """Per-step reference: every hidden state of a LstmCell.step loop."""
    scaled = contexts * np.float32(model.input_scale)
    h, c = zero_state(model.cell, contexts.shape[0])
    states = []
    for t in range(contexts.shape[1]):
        h, c = model.cell.step(Tensor(np.ascontiguousarray(scaled[:, t])), h, c)
        states.append(h)
    return states


def test_encode_context_batch_matches_step_loop():
    # the context is the last step's hidden state
    model = NextShotModel.fresh(6, hidden_dim=8, scorer_widths=(8,), seed=21, input_scale=1.7)
    rng = np.random.default_rng(22)
    contexts = rng.normal(0, 1, (5, 7, 6)).astype(np.float32)
    coef = Tensor(rng.normal(0, 1, (5, 8)).astype(np.float32))
    u = model.encode_context_batch(contexts)
    ad.sum_all(ad.hadamard(u, coef)).backward()
    fused = {"u": u.data, "weights": model.cell.weights.grad, "bias": model.cell.bias.grad}
    model.cell.weights.grad = model.cell.bias.grad = None
    ref = step_loop_contexts(model, contexts)[-1]
    ad.sum_all(ad.hadamard(ref, coef)).backward()
    reference = {"u": ref.data, "weights": model.cell.weights.grad,
                 "bias": model.cell.bias.grad}
    for name in fused:
        assert fused[name].dtype == np.float32
        assert np.abs(fused[name] - reference[name]).max() <= 1e-5, name


@pytest.mark.parametrize("dtype, batch, steps, feature_dim, hidden", [
    pytest.param(np.float32, 64, 8, 32, 256, id="train-shape"),
    pytest.param(np.float32, 256, 8, 32, 256, id="eval-shape"),
    pytest.param(np.float64, 5, 7, 6, 8, id="float64")])
def test_last_step_readout_is_bit_identical_to_one_hot_pooling(dtype, batch, steps,
                                                                feature_dim, hidden):
    model = NextShotModel.fresh(feature_dim, hidden_dim=hidden, scorer_widths=(8,), seed=23,
                                input_scale=1.3)
    cell = model.cell
    cell.weights = Tensor(cell.weights.data.astype(dtype), requires_grad=True)
    cell.bias = Tensor(cell.bias.data.astype(dtype), requires_grad=True)
    rng = np.random.default_rng(24)
    contexts = rng.normal(0, 1, (batch, steps, feature_dim)).astype(np.float32)
    coef = Tensor(rng.normal(0, 1, (batch, hidden)).astype(dtype))
    runs = []
    for encode in (model.encode_context_batch, lambda c: one_hot_context_batch(model, c)):
        cell.weights.grad = cell.bias.grad = None
        u = encode(contexts)
        ad.sum_all(ad.hadamard(u, coef)).backward()
        runs.append({"u": u.data, "weights": cell.weights.grad, "bias": cell.bias.grad})
    for name, got in runs[0].items():
        want = runs[1][name]
        assert got.dtype == want.dtype == dtype, name
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


# -- candidate scoring --------------------------------------------------------------
# One question's candidates are scored as a batch of one.

def test_score_candidates_singleton_is_one():
    model = NextShotModel.fresh(4, hidden_dim=5, scorer_widths=(8,), seed=7, input_scale=1.0)
    context = np.random.default_rng(2).normal(0, 1, (1, 3, 4)).astype(np.float32)
    probs = model.probabilities_batch(context, np.ones((1, 1, 4), dtype=np.float32))
    assert np.array_equal(probs.data, np.array([[1.0]], dtype=np.float32))


def test_score_candidates_duplicates_get_equal_probability():
    model = NextShotModel.fresh(4, hidden_dim=5, scorer_widths=(8,), seed=8, input_scale=1.0)
    rng = np.random.default_rng(3)
    context = rng.normal(0, 1, (1, 3, 4)).astype(np.float32)
    row = rng.normal(0, 1, 4).astype(np.float32)
    cands = np.stack([row, rng.normal(0, 1, 4).astype(np.float32), row])
    probs = model.probabilities_batch(context, cands[None]).data[0]
    assert probs[0] == probs[2]


def test_score_candidates_distribution_and_permutation_equivariance():
    model = NextShotModel.fresh(4, hidden_dim=5, scorer_widths=(8, 4), seed=9, input_scale=1.0)
    rng = np.random.default_rng(4)
    context = rng.normal(0, 1, (1, 3, 4)).astype(np.float32)
    cands = rng.normal(0, 1, (6, 4)).astype(np.float32)
    probs = model.probabilities_batch(context, cands[None]).data[0]
    assert abs(probs.sum() - 1.0) < 1e-6
    perm = rng.permutation(6)
    permuted = model.probabilities_batch(context, cands[perm][None]).data[0]
    assert np.allclose(permuted, probs[perm], atol=1e-7)


def test_answer_matches_argmax_and_tie_breaks_low():
    store = filled_store()
    model = NextShotModel.fresh(6, hidden_dim=5, scorer_widths=(8,), seed=10, input_scale=1.0)
    q = oracle_set(store, [OracleQuestion("q", "m0", IN_MOVIE,
                                          [("m0", i) for i in range(4)],
                                          [("m0", 9), ("m0", 20), ("m0", 4), ("m0", 30)], 2)])
    probs = model.probabilities_batch(store.matrix[q.context],
                                      store.matrix[q.candidates]).data[0]
    assert np.array_equal(predict_probabilities(model, q)[0], probs)
    chosen = int(np.argmax(probs))
    assert evaluate_accuracy(model, q)[0] == float(chosen == q.correct[0])
    assert np.argmax(np.array([0.3, 0.3, 0.2, 0.2], dtype=np.float32)) == 0


def test_scores_shift_invariant_at_argmax():
    # softmax over shifted scores permutes nothing: same argmax
    rng = np.random.default_rng(5)
    scores = rng.normal(0, 1, (1, 8)).astype(np.float32)
    p1 = ad.softmax_rows(Tensor(scores)).data
    p2 = ad.softmax_rows(Tensor(scores + 3.5)).data
    assert np.argmax(p1) == np.argmax(p2)
    assert np.allclose(p1, p2, atol=1e-6)


def test_end_to_end_gradient_tiny_instance():
    # feature dim 4, hidden 6, 3 candidates, context length 2
    rng = np.random.default_rng(11)
    cell = LstmCell.fresh(4, 6, rng)
    cell.weights = Tensor(rng.normal(0, 0.4, (10, 24)), requires_grad=True)
    cell.bias = Tensor(rng.normal(0, 0.2, 24), requires_grad=True)
    from shotline.nn import RowMlp
    mlp = RowMlp.fresh(10, (8, 4), rng)
    mlp_params = []
    for i, (w, b) in enumerate(mlp.layers):
        w64 = Tensor(rng.normal(0, 0.5, w.data.shape), requires_grad=True)
        b64 = Tensor(rng.normal(0, 0.2, b.data.shape), requires_grad=True)
        mlp.layers[i] = (w64, b64)
        mlp_params.extend([w64, b64])
    ctx = Tensor(rng.normal(0, 1, (1, 4)))
    ctx2 = Tensor(rng.normal(0, 1, (1, 4)))
    cands = Tensor(rng.normal(0, 1, (3, 4)))

    def loss():
        h, c = (Tensor(np.zeros((1, 6))), Tensor(np.zeros((1, 6))))
        h, c = cell.step(ctx, h, c)
        h, c = cell.step(ctx2, h, c)
        probs = ad.softmax_rows(ad.reshape(mlp.scores(h, cands), (1, 3)))
        return ad.nll_loss(probs, [1])

    check_gradients(loss, [cell.weights, cell.bias, *mlp_params])


@st.composite
def repeated_window_sets(draw):
    """A question set in which windows repeat: each question takes one of a
    few distinct context windows and its own candidates."""
    dim, mctx, n = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(2, 5))
    rows, windows = draw(st.integers(6, 30)), draw(st.integers(1, 12))
    count = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    store = FeatureStore(dim)
    for o in range(rows):
        store.add("m", o, rng.normal(0, 1, dim).astype(np.float32))
    distinct = rng.integers(rows, size=(windows, mctx))
    return QuestionSet(store, [f"q{i}" for i in range(count)], ["m"] * count,
                       [IN_MOVIE] * count, distinct[rng.integers(windows, size=count)],
                       rng.integers(rows, size=(count, n)), rng.integers(n, size=count))


@given(questions=repeated_window_sets(), batch_size=st.sampled_from([1, 2, 3, 5, 8, 64]),
       seed=st.integers(0, 99))
@settings(max_examples=120, deadline=None)
def test_predict_probabilities_equals_the_per_batch_path(questions, batch_size, seed):
    model = NextShotModel.fresh(questions.store.dim, hidden_dim=6, scorer_widths=(7, 4), seed=seed,
                                input_scale=1.3)
    matrix = questions.store.matrix
    want = np.concatenate([
        model.probabilities_batch(matrix[questions.context[start:start + batch_size]],
                                  matrix[questions.candidates[start:start + batch_size]]).data
        for start in range(0, len(questions), batch_size)])
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(temporal, "PREDICT_BATCH", batch_size)
        got = predict_probabilities(model, questions)
    windows = len(np.unique(questions.context, axis=0))
    # A one-row LSTM batch takes BLAS's matrix-vector path, which rounds
    # differently.
    if batch_size > 1 and len(questions) % batch_size != 1 and windows % batch_size != 1:
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, rtol=1e-5, atol=1e-6)
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


# -- question generation ---------------------------------------------------------------

def test_generate_questions_structure():
    store = filled_store(n_movies=2, shots=30)
    questions, skipped = generate_questions(store, ["m0", "m1"], IN_MOVIE,
                                            mctx=4, n_candidates=8, seed=0)
    assert skipped == 0
    assert len(questions)
    for q in shot_ids(questions):
        assert len(q.context) == 4
        assert len(q.candidates) == 8
        # the labeled answer really is the window's successor shot
        last = q.context[-1]
        assert q.candidates[q.correct_index] == (last[0], last[1] + 1)
        # no distractor equals the answer or a context shot
        distractors = [c for i, c in enumerate(q.candidates) if i != q.correct_index]
        assert len(set(distractors)) == 7
        assert not (set(distractors) & (set(q.context) | {q.candidates[q.correct_index]}))


def test_generate_questions_pigeonhole_skip():
    store = filled_store(n_movies=1, shots=5)
    # context 4 leaves zero candidates for in-movie distractors
    questions, skipped = generate_questions(store, ["m0"], IN_MOVIE,
                                            mctx=4, n_candidates=2, seed=0)
    assert len(questions) == 0 and questions.candidates.shape == (0, 2)
    assert skipped == 1


def test_generate_questions_too_short_movie_counted():
    store = filled_store(n_movies=1, shots=3)
    questions, skipped = generate_questions(store, ["m0"], IN_MOVIE, mctx=4,
                                            n_candidates=2, seed=0)
    assert len(questions) == 0 and skipped == 1


def test_generate_questions_cross_movie_pool():
    store = filled_store(n_movies=3, shots=20)
    questions, _ = generate_questions(store, ["m0", "m1", "m2"], CROSS_MOVIE,
                                      mctx=4, n_candidates=6, seed=1)
    # distractors really come from the whole corpus, not just the question's movie
    foreign = sum(any(c[0] != q.movie_id for c in q.candidates) for q in shot_ids(questions))
    assert foreign > len(questions) * 0.9


def test_generate_questions_deterministic_files(tmp_path):
    store = filled_store(n_movies=2, shots=30)
    a, _ = generate_questions(store, ["m0", "m1"], IN_MOVIE, mctx=4, n_candidates=8, seed=5)
    b, _ = generate_questions(store, ["m0", "m1"], IN_MOVIE, mctx=4, n_candidates=8, seed=5)
    write_questions(tmp_path / "a.tsv", a)
    write_questions(tmp_path / "b.tsv", b)
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    assert_same_questions(read_questions(tmp_path / "a.tsv", store), a)


@given(lengths=st.lists(st.integers(0, 40), min_size=1, max_size=5),
       setting=st.sampled_from([IN_MOVIE, CROSS_MOVIE]),
       mctx=st.integers(1, 6), n_candidates=st.integers(2, 12),
       stride=st.one_of(st.none(), st.integers(1, 8)),
       radius=st.integers(0, 14), seed=st.integers(0, 2**31 - 1),
       pool=st.sampled_from(["default", "all", "omit-first", "absent-movie"]))
@settings(max_examples=150, deadline=None)
def test_generate_questions_matches_pool_oracle(tmp_path_factory, lengths, setting, mctx,
                                                n_candidates, stride, radius, seed, pool):
    store = FeatureStore(2)
    for m, length in enumerate(lengths):
        for o in range(length):
            store.add(f"m{m}", o, np.full(2, o, dtype=np.float32))
    movies = [f"m{m}" for m in range(len(lengths))]
    questioned, pool_ids = {
        "default": (movies, None),
        "all": (movies[::-1], movies),
        "omit-first": (movies, movies[1:]),
        # a questioned movie with no shots in the store, and a pool without it
        "absent-movie": (["ghost", *movies], movies)}[pool]
    kwargs = dict(mctx=mctx, n_candidates=n_candidates, stride=stride, seed=seed,
                  exclusion_radius=radius, pool_movie_ids=pool_ids)
    got, got_skipped = generate_questions(store, questioned, setting, **kwargs)
    want, want_skipped = pool_generator(store, questioned, setting, **kwargs)
    out = tmp_path_factory.mktemp("questions")
    write_questions(out / "got.tsv", got)
    write_oracle_questions(out / "want.tsv", want)
    assert (out / "got.tsv").read_bytes() == (out / "want.tsv").read_bytes()
    assert got_skipped == want_skipped


@given(lengths=st.lists(st.integers(0, 30), min_size=1, max_size=4),
       mctx=st.integers(1, 5), n_candidates=st.integers(2, 10),
       stride=st.one_of(st.none(), st.integers(1, 6)), seed=st.integers(0, 2**31 - 1),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_question_file_round_trips_the_rows(tmp_path_factory, lengths, mctx, n_candidates,
                                            stride, seed, data):
    store = FeatureStore(2)
    records = [(f"m{m}", o) for m, length in enumerate(lengths) for o in range(length)]
    for video_id, o in data.draw(st.permutations(records)):  # rows in any record order
        store.add(video_id, o, np.full(2, o, dtype=np.float32))
    movies = [f"m{m}" for m in range(len(lengths))]
    questions = QuestionSet.concat(
        generate_questions(store, movies, setting, mctx=mctx, n_candidates=n_candidates,
                           stride=stride, seed=seed)[0] for setting in (IN_MOVIE, CROSS_MOVIE))
    path = tmp_path_factory.mktemp("questions") / "q.tsv"
    write_questions(path, questions)
    back = read_questions(path, store)
    if len(questions):
        assert_same_questions(back, questions)
        assert back.context.shape == (len(questions), mctx)
        assert back.candidates.shape == (len(questions), n_candidates)
    else:  # an empty file holds no sizes
        assert len(back) == 0 and path.read_bytes() == b""
    # the rows name the same shots as the per-id path
    want = shot_ids(questions)
    write_oracle_questions(path.with_suffix(".want"), want)
    assert path.read_bytes() == path.with_suffix(".want").read_bytes()


def test_a_list_of_question_rows_is_written_as_its_set(tmp_path):
    store = filled_store(n_movies=2, shots=20)
    questions, _ = generate_questions(store, ["m0", "m1"], CROSS_MOVIE, mctx=4, n_candidates=6,
                                      seed=0)
    write_questions(tmp_path / "set.tsv", questions)
    rows = list(questions)
    assert [len(row) for row in rows] == [1] * len(questions)
    write_questions(tmp_path / "rows.tsv", rows)
    assert (tmp_path / "rows.tsv").read_bytes() == (tmp_path / "set.tsv").read_bytes()
    assert_same_questions(QuestionSet.concat(rows), questions)
    other, _ = generate_questions(filled_store(n_movies=2, shots=20), ["m0"], IN_MOVIE,
                                  mctx=4, n_candidates=6, seed=0)
    with pytest.raises(ValueError, match="one feature store"):
        write_questions(tmp_path / "mixed.tsv", [rows[0], other[:1]])
    assert not (tmp_path / "mixed.tsv").exists()


def test_read_questions_names_a_shot_missing_from_the_store(tmp_path):
    store = filled_store(n_movies=1, shots=10)
    path = tmp_path / "q.tsv"
    path.write_text("q0\tm0\tin_movie\tm0#0,m0#1\tm0#2,m0#5\t0\n"
                    "\n"
                    "q1\tm0\tin_movie\tm0#1,m0#2\tm0#3,m0#10\t0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: "
                                         f"no feature for shot m0#10$"):
        read_questions(path, store)
    # a label is the exact text the writer gives: no other spelling of a shot resolves
    path.write_text("q0\tm0\tin_movie\tm0#0,m0#01\tm0#2,m0#5\t0\n")
    with pytest.raises(ValueError, match="line 1: no feature for shot m0#01$"):
        read_questions(path, store)


def test_read_questions_rejects_a_question_of_another_size(tmp_path):
    store = filled_store(n_movies=1, shots=10)
    path = tmp_path / "q.tsv"
    path.write_text("q0\tm0\tin_movie\tm0#0,m0#1\tm0#2,m0#5\t0\n"
                    "q1\tm0\tin_movie\tm0#1,m0#2\tm0#3,m0#4,m0#6\t0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: 2 context and 3 "
                                         f"candidate shots, where the first question has 2 "
                                         f"and 2$"):
        read_questions(path, store)
    path.write_text("q0\tm0\tin_movie\tm0#0,m0#1\tm0#2,m0#5\t2\n")
    with pytest.raises(ValueError, match="line 1: correct_index 2 out of range$"):
        read_questions(path, store)


@given(st.text(max_size=4), st.sampled_from([",", "\t", "\r", "\n"]), st.text(max_size=4),
       st.sampled_from([IN_MOVIE, CROSS_MOVIE]))
@settings(max_examples=60, deadline=None)
def test_question_writer_refuses_an_id_a_label_cannot_carry(tmp_path_factory, head, bad, tail,
                                                            setting):
    video_id = head + bad + tail
    store = FeatureStore(2)
    for movie in ("ok", video_id):
        for o in range(8):
            store.add(movie, o, np.zeros(2, dtype=np.float32))
    questions, _ = generate_questions(store, ["ok", video_id], setting, mctx=2, n_candidates=3,
                                      seed=0)
    path = tmp_path_factory.mktemp("questions") / "q.tsv"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: video id "
                                         f"{re.escape(repr(video_id))} holds a comma"):
        write_questions(path, questions)
    assert not path.exists()


@pytest.mark.parametrize("where", ["questioned", "pool"])
def test_generate_questions_rejects_an_ordinal_gap(where):
    store = filled_store(n_movies=2, shots=12)
    for o in [*range(10), *range(11, 21)]:
        store.add("gap", o, np.zeros(6, dtype=np.float32))
    questioned, pool = (["gap"], None) if where == "questioned" else (["m0"], ["m0", "m1", "gap"])
    setting = IN_MOVIE if where == "questioned" else CROSS_MOVIE
    with pytest.raises(ValueError, match="movie 'gap': .*first missing ordinal 10"):
        generate_questions(store, questioned, setting, mctx=4, n_candidates=4,
                           seed=0, pool_movie_ids=pool)


def test_generate_questions_rejects_a_repeated_pool_movie():
    store = filled_store(n_movies=2, shots=12)
    with pytest.raises(ValueError, match="more than once"):
        generate_questions(store, ["m0"], CROSS_MOVIE, mctx=4, n_candidates=4,
                           seed=0, pool_movie_ids=["m0", "m1", "m0"])


def test_exclusion_radius_blocks_neighbors():
    store = filled_store(n_movies=1, shots=40)
    questions, _ = generate_questions(store, ["m0"], IN_MOVIE, mctx=4,
                                      n_candidates=8, seed=2, exclusion_radius=3)
    for q in shot_ids(questions):
        answer_ord = q.candidates[q.correct_index][1]
        for i, (vid, o) in enumerate(q.candidates):
            if i != q.correct_index:
                assert abs(o - answer_ord) > 3


# -- training and evaluation ------------------------------------------------------------

def test_single_question_overfit():
    store = filled_store(n_movies=1, shots=40)
    questions, _ = generate_questions(store, ["m0"], IN_MOVIE, mctx=4,
                                      n_candidates=8, seed=3)
    config = TemporalTrainConfig(epochs=200, batch_size=1, learning_rate=0.1,
                                 momentum=0.9, hidden_dim=8, scorer_widths=(16, 8))
    model, history = train_next_shot(questions[:1], config, seed=0)
    acc, _ = evaluate_accuracy(model, questions[:1])
    assert acc == 1.0


def test_train_rejects_empty():
    store = filled_store()
    questions, _ = generate_questions(store, ["m0"], IN_MOVIE, mctx=4, n_candidates=4, seed=0)
    with pytest.raises(ValueError, match="empty"):
        train_next_shot(questions[:0], default_config(_temporal_config), seed=0)


def test_untrained_model_near_chance():
    store = filled_store(n_movies=4, shots=60, seed=9)
    questions, _ = generate_questions(store, [f"m{i}" for i in range(4)], IN_MOVIE,
                                      mctx=4, n_candidates=16, stride=1, seed=4)
    model = NextShotModel.fresh(6, hidden_dim=8, scorer_widths=(16, 8), seed=11, input_scale=1.0)
    acc, _ = evaluate_accuracy(model, questions)
    # 200 questions, chance 1/16
    assert abs(acc - 1 / 16) < 0.05


def test_oracle_and_adversary_scorers():
    store = filled_store(n_movies=2, shots=30)
    questions, _ = generate_questions(store, ["m0", "m1"], IN_MOVIE, mctx=4,
                                      n_candidates=8, seed=5)
    oracle_acc, by_setting = accuracy_by_setting(questions, questions.correct)
    assert oracle_acc == 1.0 and by_setting == {IN_MOVIE: 1.0}
    adversary_acc, _ = accuracy_by_setting(questions, (questions.correct + 1) % 8)
    assert adversary_acc == 0.0


def test_random_scorer_matches_binomial_chance():
    store = filled_store(n_movies=4, shots=80, seed=13)
    questions, _ = generate_questions(store, [f"m{i}" for i in range(4)], IN_MOVIE,
                                      mctx=4, n_candidates=32, stride=1, seed=6)
    rng = np.random.default_rng(0)
    acc, _ = accuracy_by_setting(questions, rng.integers(32, size=len(questions)))
    # ~300 questions at chance 1/32: 3 sigma is about 0.03
    assert abs(acc - 1 / 32) < 0.03


def test_training_is_deterministic(tmp_path):
    store = filled_store(n_movies=2, shots=40)
    questions, _ = generate_questions(store, ["m0", "m1"], IN_MOVIE, mctx=4,
                                      n_candidates=8, seed=7)
    config = default_config(_temporal_config, epochs=2, batch_size=8, learning_rate=0.1,
                            hidden_dim=8, scorer_widths=(16, 8))
    model_a, _ = train_next_shot(questions, config, seed=3)
    model_b, _ = train_next_shot(questions, config, seed=3)
    save_checkpoint(tmp_path / "a.stln", model_a.state())
    save_checkpoint(tmp_path / "b.stln", model_b.state())
    assert (tmp_path / "a.stln").read_bytes() == (tmp_path / "b.stln").read_bytes()


def test_gradient_buffer_ownership_leaves_the_checkpoint_bytes_unchanged(tmp_path,
                                                                         monkeypatch):
    store = filled_store(n_movies=2, shots=40)
    questions, _ = generate_questions(store, ["m0", "m1"], CROSS_MOVIE, mctx=4,
                                      n_candidates=8, seed=7)
    config = default_config(_temporal_config, epochs=3, batch_size=8, learning_rate=0.1,
                            hidden_dim=8, scorer_widths=(16, 8))
    model, _ = train_next_shot(questions, config, seed=3)
    save_checkpoint(tmp_path / "owned.stln", model.state())
    use_reference_engine(monkeypatch)
    model, _ = train_next_shot(questions, config, seed=3)
    save_checkpoint(tmp_path / "zero_filled.stln", model.state())
    assert (tmp_path / "owned.stln").read_bytes() == (tmp_path / "zero_filled.stln").read_bytes()


def test_training_history_times_every_epoch():
    store = filled_store(n_movies=2, shots=40)
    questions, _ = generate_questions(store, ["m0", "m1"], IN_MOVIE, mctx=4,
                                      n_candidates=8, seed=7)
    config = default_config(_temporal_config, epochs=3, batch_size=8, learning_rate=0.1,
                            hidden_dim=8, scorer_widths=(16, 8))
    _, history = train_next_shot(questions, config, seed=3, val_questions=questions)
    assert len(history["epoch_s"]) == len(history["examples_per_s"]) == 3
    for seconds, rate in zip(history["epoch_s"], history["examples_per_s"]):
        # the rate covers the SGD pass only; the epoch also runs validation
        assert seconds > 0 and rate * seconds > len(questions)


def test_train_next_shot_draws_each_epoch_order_from_temporal_derive_rng(monkeypatch):
    # the traced benchmark marks next-shot epochs by wrapping temporal.derive_rng
    # and watching for this purpose, so the order must be drawn through it
    store = filled_store(n_movies=2, shots=40)
    questions, _ = generate_questions(store, ["m0", "m1"], IN_MOVIE, mctx=4,
                                      n_candidates=8, seed=7)
    config = default_config(_temporal_config, epochs=3, batch_size=8, learning_rate=0.1,
                            hidden_dim=8, scorer_widths=(16, 8))
    real, calls = temporal.derive_rng, []

    def spy(root_seed, purpose, *rest):
        if purpose == "nextshot.epoch":
            calls.append((root_seed, *rest))
        return real(root_seed, purpose, *rest)

    monkeypatch.setattr(temporal, "derive_rng", spy)
    train_next_shot(questions, config, seed=3, val_questions=questions[:10])
    assert calls == [(3, 0), (3, 1), (3, 2)]


def test_model_state_round_trip(monkeypatch):
    model = NextShotModel.fresh(6, hidden_dim=8, scorer_widths=(16, 8), seed=12, input_scale=2.5)
    rng = np.random.default_rng(1)
    contexts = rng.normal(0, 1, (3, 4, 6)).astype(np.float32)
    candidates = rng.normal(0, 1, (3, 5, 6)).astype(np.float32)
    forbid_random_draws(monkeypatch)
    restored = reload(model)
    assert restored.input_scale == 2.5
    assert (restored.feature_dim, restored.hidden_dim) == (6, 8)
    assert [w.data.shape for w, _ in restored.scorer.layers] == [(14, 16), (16, 8), (8, 1)]
    assert np.array_equal(model.probabilities_batch(contexts, candidates).data,
                          restored.probabilities_batch(contexts, candidates).data)


def test_state_is_a_snapshot():
    model = NextShotModel.fresh(6, hidden_dim=8, scorer_widths=(16, 8), seed=12, input_scale=1.0)
    state = model.state()
    model.cell.weights.data += 1.0
    assert not np.array_equal(state["nextshot.lstm.weights"], model.cell.weights.data)


@pytest.mark.parametrize("scalar", ["nextshot.input_scale"])
def test_a_state_without_a_scalar_is_named(scalar):
    # weights and one scalar only: the model must not load with a stand-in
    model = NextShotModel.fresh(6, hidden_dim=8, scorer_widths=(16, 8), seed=12, input_scale=2.5)
    state = model.state()
    del state[scalar]
    with pytest.raises(KeyError, match=f"model state has no '{scalar}'"):
        NextShotModel.from_state(state)


def test_from_state_rejects_a_non_finite_input_scale():
    model = NextShotModel.fresh(6, hidden_dim=8, scorer_widths=(16, 8), seed=12, input_scale=1.0)
    state = model.state()
    state["nextshot.input_scale"] = np.float32(np.nan)
    with pytest.raises(ValueError, match=r"^'nextshot.input_scale' holds 1 non-finite "
                                         r"value\(s\), the first at index \(\)$"):
        NextShotModel.from_state(state)


def test_training_stops_on_non_finite_loss():
    store = FeatureStore(4)
    rng = np.random.default_rng(5)
    for o in range(20):
        values = rng.normal(0, 1, 4).astype(np.float32)
        if o == 6:
            values[1] = np.nan
        store.add("m0", o, values)
    questions, _ = generate_questions(store, ["m0"], IN_MOVIE, mctx=4, n_candidates=4,
                                      stride=1, seed=2)
    config = default_config(_temporal_config, epochs=1, batch_size=4, hidden_dim=4,
                            scorer_widths=(4,))
    with pytest.raises(FloatingPointError,
                       match=r"train_next_shot: epoch 0, batch start \d+: non-finite loss"):
        train_next_shot(questions, config, seed=0)


# -- baseline ---------------------------------------------------------------------------

def test_baseline_picks_identical_direction():
    store = FeatureStore(3)
    v = np.array([1.0, 0.0, 0.0], dtype=np.float32)
    for o in range(4):
        store.add("m", o, v)
    store.add("m", 4, v)
    store.add("m", 5, -v)
    q = oracle_set(store, [OracleQuestion("q", "m", IN_MOVIE, [("m", i) for i in range(4)],
                                          [("m", 4), ("m", 5)], 0)])
    assert baseline_average_cosine(q).tolist() == [0]


def test_baseline_scale_invariant():
    store = FeatureStore(3)
    rng = np.random.default_rng(2)
    ctx = rng.normal(0, 1, (3, 3)).astype(np.float32)
    cands = rng.normal(0, 1, (4, 3)).astype(np.float32)
    for o in range(3):
        store.add("m", o, ctx[o])
    for i in range(4):
        store.add("m", 3 + i, cands[i])
        store.add("x", i, cands[i] * np.float32(3.7))
    q = oracle_set(store, [
        OracleQuestion("q", "m", IN_MOVIE, [("m", o) for o in range(3)],
                       [("m", 3 + i) for i in range(4)], 0),
        OracleQuestion("q", "m", CROSS_MOVIE, [("m", o) for o in range(3)],
                       [("x", i) for i in range(4)], 0)])
    first, second = baseline_average_cosine(q)
    assert first == second


def test_baseline_matches_dot_norm_oracle():
    store = FeatureStore(5)
    rng = np.random.default_rng(3)
    for o in range(6):
        store.add("m", o, rng.normal(0, 1, 5).astype(np.float32))
    q = oracle_set(store, [OracleQuestion("q", "m", IN_MOVIE, [("m", 0), ("m", 1)],
                                          [("m", i) for i in (2, 3, 4, 5)], 0)])
    mean = store.rows([("m", 0), ("m", 1)]).astype(np.float64).mean(axis=0)
    sims = [float(np.dot(row, mean) / (np.linalg.norm(row) * np.linalg.norm(mean)))
            for row in store.rows([("m", i) for i in (2, 3, 4, 5)])]
    assert baseline_average_cosine(q).tolist() == [int(np.argmax(sims))]


def test_baseline_zero_norm_candidates():
    store = FeatureStore(2)
    store.add("m", 0, np.ones(2))
    store.add("m", 1, np.zeros(2))
    store.add("m", 2, np.zeros(2))
    q = oracle_set(store, [OracleQuestion("q", "m", IN_MOVIE, [("m", 0)],
                                          [("m", 1), ("m", 2)], 0)])
    assert baseline_average_cosine(q).tolist() == [0]


@st.composite
def tie_prone_sets(draw):
    """Question sets over a few coarse feature values, so that zero-norm
    candidate rows, zero-norm context means and exact ties are common."""
    dim, mctx, n = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(2, 9))
    rows, count = draw(st.integers(2, 12)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coarse = draw(st.booleans())
    values = (rng.choice([0.0, 0.0, 1.0, -1.0, 0.5, 2.0], size=(rows, dim)) if coarse
              else rng.normal(0, 1, (rows, dim)) * (rng.random((rows, 1)) < 0.8))
    store = FeatureStore(dim)
    for o in range(rows):
        store.add("m", o, values[o].astype(np.float32))
    return QuestionSet(store, [f"q{i}" for i in range(count)], ["m"] * count,
                       [IN_MOVIE] * count, rng.integers(rows, size=(count, mctx)),
                       rng.integers(rows, size=(count, n)), rng.integers(n, size=count))


@given(questions=tie_prone_sets())
@settings(max_examples=200, deadline=None)
def test_whole_set_baseline_matches_the_per_question_oracle(questions):
    chosen = baseline_average_cosine(questions)
    assert chosen.shape == (len(questions),)
    assert chosen.tolist() == per_question_baseline(questions)


def test_baseline_zero_norm_mean_picks_the_first_candidate():
    store = FeatureStore(2)
    store.add("m", 0, np.array([1.0, 2.0]))
    store.add("m", 1, np.array([-1.0, -2.0]))
    store.add("m", 2, np.array([3.0, 1.0]))
    q = oracle_set(store, [OracleQuestion("q", "m", IN_MOVIE, [("m", 0), ("m", 1)],
                                          [("m", 2), ("m", 0)], 1)])
    assert baseline_average_cosine(q).tolist() == [0]


def test_results_file_format(tmp_path):
    write_results(tmp_path / "r.tsv", [("q1", 3, 0.5), ("q2", 0, 0.125)])
    assert (tmp_path / "r.tsv").read_text() == "q1\t3\t0.500000\nq2\t0\t0.125000\n"
