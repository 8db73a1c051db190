import numpy as np
import pytest

from shotline import autodiff as ad
from shotline.autodiff import Tensor
from shotline.checkpoint import load_checkpoint, save_checkpoint
from shotline.features import FeatureStore
from shotline.nn import LstmCell
from shotline.temporal import (CROSS_MOVIE, IN_MOVIE, NextShotModel,
                               PredictionQuestion, TemporalTrainConfig, answer,
                               baseline_average_cosine, encode_context,
                               evaluate_accuracy, generate_questions,
                               read_questions, score_candidates, train_next_shot,
                               write_questions, write_results)

from _util import check_gradients


def filled_store(n_movies=3, shots=50, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    store = FeatureStore(dim)
    for m in range(n_movies):
        for o in range(shots):
            store.add(f"m{m}", o, rng.normal(0, 1, dim).astype(np.float32))
    return store


# -- lstm cell -----------------------------------------------------------------

def test_lstm_zero_weights_zero_state_gives_zero():
    cell = LstmCell(3, 4, np.random.default_rng(0))
    cell.weights.data[...] = 0.0
    cell.bias.data[...] = 0.0
    h, c = cell.initial_state(1)
    h2, c2 = cell.step(Tensor(np.ones((1, 3), dtype=np.float32)), h, c)
    assert np.array_equal(h2.data, np.zeros((1, 4), dtype=np.float32))


def test_lstm_saturated_gates_carry_state():
    cell = LstmCell(3, 4, np.random.default_rng(1))
    cell.weights.data[...] = 0.0
    cell.bias.data[...] = 0.0
    cell.bias.data[4:8] = 20.0    # forget gate wide open
    cell.bias.data[0:4] = -20.0   # input gate closed
    h = Tensor(np.zeros((1, 4), dtype=np.float32))
    c = Tensor(np.array([[0.3, -0.2, 0.5, 0.1]], dtype=np.float32))
    _, c2 = cell.step(Tensor(np.ones((1, 3), dtype=np.float32)), h, c)
    assert np.allclose(c2.data, c.data, atol=1e-6)


def test_lstm_forget_bias_initialized_to_one():
    cell = LstmCell(3, 4, np.random.default_rng(2))
    assert np.allclose(cell.bias.data[4:8], 1.0)
    assert np.allclose(cell.bias.data[:4], 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_lstm_step_gradients(seed):
    rng = np.random.default_rng(6000 + seed)
    cell = LstmCell(3, 4, rng)
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

def test_encode_context_single_step_equals_one_lstm_step():
    model = NextShotModel(4, hidden_dim=5, scorer_widths=(8,), seed=3)
    features = np.random.default_rng(0).normal(0, 1, (1, 4)).astype(np.float32)
    u = encode_context(features, model)
    h, c = model.cell.initial_state(1)
    h2, _ = model.cell.step(Tensor(features * np.float32(model.input_scale)), h, c)
    assert np.array_equal(u, h2.data[0])


def test_encode_context_order_sensitive():
    model = NextShotModel(4, hidden_dim=5, scorer_widths=(8,), seed=4)
    rng = np.random.default_rng(1)
    features = rng.normal(0, 1, (6, 4)).astype(np.float32)
    assert not np.allclose(encode_context(features, model),
                           encode_context(features[::-1].copy(), model), atol=1e-7)


def test_encode_context_matches_unrolled_oracle():
    model = NextShotModel(4, hidden_dim=5, scorer_widths=(8,), seed=5)
    rng = np.random.default_rng(2)
    features = rng.normal(0, 1, (3, 4)).astype(np.float32)
    u = encode_context(features, model)
    h, c = model.cell.initial_state(1)
    for t in range(3):
        h, c = model.cell.step(Tensor(features[t:t + 1] * np.float32(model.input_scale)), h, c)
    # the fused op projects all steps in one matmul: equal up to float32 rounding
    assert np.allclose(u, h.data[0], rtol=0, atol=1e-6)


def test_encode_context_empty_rejected():
    model = NextShotModel(4, hidden_dim=5, scorer_widths=(8,), seed=6)
    with pytest.raises(ValueError, match="non-empty"):
        encode_context(np.zeros((0, 4), dtype=np.float32), model)


def test_encode_context_is_gate_bounded():
    # h = output_gate * tanh(cell): every entry stays inside (-1, 1)
    model = NextShotModel(4, hidden_dim=5, scorer_widths=(8,), seed=13, input_scale=4.0)
    rng = np.random.default_rng(14)
    for _ in range(5):
        u = encode_context(rng.normal(0, 3, (10, 4)).astype(np.float32), model)
        assert np.abs(u).max() <= 1.0


def test_encode_context_mean_pooling_variant():
    final = NextShotModel(4, hidden_dim=5, scorer_widths=(8,), seed=6)
    mean = NextShotModel(4, hidden_dim=5, scorer_widths=(8,), seed=6,
                         context_pooling="mean")
    rng = np.random.default_rng(8)
    features = rng.normal(0, 1, (3, 4)).astype(np.float32)
    # mean pooling averages the per-step hidden states
    h, c = final.cell.initial_state(1)
    steps = []
    for t in range(3):
        h, c = final.cell.step(Tensor(features[t:t + 1] * np.float32(final.input_scale)), h, c)
        steps.append(h.data[0])
    assert np.allclose(encode_context(features, mean), np.stack(steps).mean(axis=0), atol=1e-6)
    assert np.allclose(encode_context(features, final), steps[-1], rtol=0, atol=1e-6)


def step_loop_contexts(model, contexts):
    """Per-step reference: every hidden state of a LstmCell.step loop."""
    scaled = contexts * np.float32(model.input_scale)
    h, c = model.cell.initial_state(contexts.shape[0])
    states = []
    for t in range(contexts.shape[1]):
        h, c = model.cell.step(Tensor(np.ascontiguousarray(scaled[:, t])), h, c)
        states.append(h)
    return states


@pytest.mark.parametrize("pooling", ["final", "mean"])
def test_encode_context_batch_matches_step_loop(pooling):
    model = NextShotModel(6, hidden_dim=8, scorer_widths=(8,), seed=21,
                          context_pooling=pooling, input_scale=1.7)
    rng = np.random.default_rng(22)
    contexts = rng.normal(0, 1, (5, 7, 6)).astype(np.float32)
    coef = Tensor(rng.normal(0, 1, (5, 8)).astype(np.float32))
    u = model.encode_context_batch(contexts)
    ad.sum_all(ad.hadamard(u, coef)).backward()
    fused = {"u": u.data, "weights": model.cell.weights.grad, "bias": model.cell.bias.grad}
    model.cell.weights.grad = model.cell.bias.grad = None
    states = step_loop_contexts(model, contexts)
    ref = states[-1]
    if pooling == "mean":
        for h in states[:-1]:
            ref = ad.add(ref, h)
        ref = ad.scale(ref, 1.0 / len(states))
    ad.sum_all(ad.hadamard(ref, coef)).backward()
    reference = {"u": ref.data, "weights": model.cell.weights.grad,
                 "bias": model.cell.bias.grad}
    for name in fused:
        assert fused[name].dtype == np.float32
        assert np.abs(fused[name] - reference[name]).max() <= 1e-5, name


# -- candidate scoring --------------------------------------------------------------

def test_score_candidates_singleton_is_one():
    model = NextShotModel(4, hidden_dim=5, scorer_widths=(8,), seed=7)
    probs = score_candidates(np.zeros(5, dtype=np.float32),
                             np.ones((1, 4), dtype=np.float32), model)
    assert np.array_equal(probs, np.array([1.0], dtype=np.float32))


def test_score_candidates_duplicates_get_equal_probability():
    model = NextShotModel(4, hidden_dim=5, scorer_widths=(8,), seed=8)
    rng = np.random.default_rng(3)
    u = rng.normal(0, 1, 5).astype(np.float32)
    row = rng.normal(0, 1, 4).astype(np.float32)
    cands = np.stack([row, rng.normal(0, 1, 4).astype(np.float32), row])
    probs = score_candidates(u, cands, model)
    assert probs[0] == probs[2]


def test_score_candidates_distribution_and_permutation_equivariance():
    model = NextShotModel(4, hidden_dim=5, scorer_widths=(8, 4), seed=9)
    rng = np.random.default_rng(4)
    u = rng.normal(0, 1, 5).astype(np.float32)
    cands = rng.normal(0, 1, (6, 4)).astype(np.float32)
    probs = score_candidates(u, cands, model)
    assert abs(probs.sum() - 1.0) < 1e-6
    perm = rng.permutation(6)
    assert np.allclose(score_candidates(u, cands[perm], model), probs[perm], atol=1e-7)


def test_answer_matches_argmax_and_tie_breaks_low():
    store = filled_store()
    model = NextShotModel(6, hidden_dim=5, scorer_widths=(8,), seed=10)
    q = PredictionQuestion("q", "m0", IN_MOVIE,
                           [("m0", i) for i in range(4)],
                           [("m0", 9), ("m0", 20), ("m0", 4), ("m0", 30)], 2)
    probs = score_candidates(encode_context(store.rows(q.context), model),
                             store.rows(q.candidates), model)
    assert answer(q, store, model) == int(np.argmax(probs))
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
    cell = LstmCell(4, 6, rng)
    cell.weights = Tensor(rng.normal(0, 0.4, (10, 24)), requires_grad=True)
    cell.bias = Tensor(rng.normal(0, 0.2, 24), requires_grad=True)
    from shotline.nn import RowMlp
    mlp = RowMlp(10, (8, 4), rng)
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
        rows = ad.concat_cols(ad.repeat_rows(h, 3), cands)
        probs = ad.softmax_rows(ad.reshape(mlp.scores(rows), (1, 3)))
        return ad.nll_loss(probs, [1])

    check_gradients(loss, [cell.weights, cell.bias, *mlp_params])


# -- question generation ---------------------------------------------------------------

def test_generate_questions_structure():
    store = filled_store(n_movies=2, shots=30)
    questions, skipped = generate_questions(store, ["m0", "m1"], IN_MOVIE,
                                            mctx=4, n_candidates=8, seed=0)
    assert skipped == 0
    assert questions
    for q in questions:
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
    assert questions == []
    assert skipped == 1


def test_generate_questions_too_short_movie_counted():
    store = filled_store(n_movies=1, shots=3)
    questions, skipped = generate_questions(store, ["m0"], IN_MOVIE, mctx=4,
                                            n_candidates=2, seed=0)
    assert questions == [] and skipped == 1


def test_generate_questions_cross_movie_pool():
    store = filled_store(n_movies=3, shots=20)
    questions, _ = generate_questions(store, ["m0", "m1", "m2"], CROSS_MOVIE,
                                      mctx=4, n_candidates=6, seed=1)
    # distractors really come from the whole corpus, not just the question's movie
    foreign = sum(any(c[0] != q.movie_id for c in q.candidates) for q in questions)
    assert foreign > len(questions) * 0.9


def test_generate_questions_deterministic_files(tmp_path):
    store = filled_store(n_movies=2, shots=30)
    a, _ = generate_questions(store, ["m0", "m1"], IN_MOVIE, mctx=4, n_candidates=8, seed=5)
    b, _ = generate_questions(store, ["m0", "m1"], IN_MOVIE, mctx=4, n_candidates=8, seed=5)
    write_questions(tmp_path / "a.tsv", a)
    write_questions(tmp_path / "b.tsv", b)
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    assert read_questions(tmp_path / "a.tsv") == a


def test_exclusion_radius_blocks_neighbors():
    store = filled_store(n_movies=1, shots=40)
    questions, _ = generate_questions(store, ["m0"], IN_MOVIE, mctx=4,
                                      n_candidates=8, seed=2, exclusion_radius=3)
    for q in questions:
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
    model, history = train_next_shot(questions[:1], store, config, seed=0)
    acc, _ = evaluate_accuracy(model, questions[:1], store)
    assert acc == 1.0


def test_train_rejects_empty():
    store = filled_store()
    with pytest.raises(ValueError, match="empty"):
        train_next_shot([], store, TemporalTrainConfig(), seed=0)


def test_untrained_model_near_chance():
    store = filled_store(n_movies=4, shots=60, seed=9)
    questions, _ = generate_questions(store, [f"m{i}" for i in range(4)], IN_MOVIE,
                                      mctx=4, n_candidates=16, stride=1, seed=4)
    model = NextShotModel(6, hidden_dim=8, scorer_widths=(16, 8), seed=11)
    acc, _ = evaluate_accuracy(model, questions, store)
    # 200 questions, chance 1/16
    assert abs(acc - 1 / 16) < 0.05


def test_oracle_and_adversary_scorers():
    store = filled_store(n_movies=2, shots=30)
    questions, _ = generate_questions(store, ["m0", "m1"], IN_MOVIE, mctx=4,
                                      n_candidates=8, seed=5)
    oracle_acc, by_setting = evaluate_accuracy(lambda q, s: q.correct_index, questions, store)
    assert oracle_acc == 1.0 and by_setting == {IN_MOVIE: 1.0}
    adversary_acc, _ = evaluate_accuracy(
        lambda q, s: (q.correct_index + 1) % len(q.candidates), questions, store)
    assert adversary_acc == 0.0


def test_random_scorer_matches_binomial_chance():
    store = filled_store(n_movies=4, shots=80, seed=13)
    questions, _ = generate_questions(store, [f"m{i}" for i in range(4)], IN_MOVIE,
                                      mctx=4, n_candidates=32, stride=1, seed=6)
    rng = np.random.default_rng(0)
    acc, _ = evaluate_accuracy(lambda q, s: int(rng.integers(32)), questions, store)
    # ~300 questions at chance 1/32: 3 sigma is about 0.03
    assert abs(acc - 1 / 32) < 0.03


def test_training_is_deterministic(tmp_path):
    store = filled_store(n_movies=2, shots=40)
    questions, _ = generate_questions(store, ["m0", "m1"], IN_MOVIE, mctx=4,
                                      n_candidates=8, seed=7)
    config = TemporalTrainConfig(epochs=2, batch_size=8, learning_rate=0.1,
                                 hidden_dim=8, scorer_widths=(16, 8))
    model_a, _ = train_next_shot(questions, store, config, seed=3)
    model_b, _ = train_next_shot(questions, store, config, seed=3)
    save_checkpoint(tmp_path / "a.stln", model_a.state())
    save_checkpoint(tmp_path / "b.stln", model_b.state())
    assert (tmp_path / "a.stln").read_bytes() == (tmp_path / "b.stln").read_bytes()


def test_model_state_round_trip(tmp_path):
    store = filled_store()
    model = NextShotModel(6, hidden_dim=8, scorer_widths=(16, 8), seed=12, input_scale=2.5)
    save_checkpoint(tmp_path / "m.stln", model.state())
    restored = NextShotModel(6, hidden_dim=8, scorer_widths=(16, 8), seed=99)
    restored.load_state(load_checkpoint(tmp_path / "m.stln"))
    assert restored.input_scale == 2.5
    q_feats = np.random.default_rng(1).normal(0, 1, (4, 6)).astype(np.float32)
    assert np.array_equal(encode_context(q_feats, model), encode_context(q_feats, restored))


def test_model_state_round_trip_keeps_context_pooling(tmp_path):
    model = NextShotModel(6, hidden_dim=8, scorer_widths=(16, 8), seed=12,
                          context_pooling="mean")
    save_checkpoint(tmp_path / "m.stln", model.state())
    restored = NextShotModel(6, hidden_dim=8, scorer_widths=(16, 8), seed=99)
    restored.load_state(load_checkpoint(tmp_path / "m.stln"))
    assert restored.context_pooling == "mean"
    q_feats = np.random.default_rng(1).normal(0, 1, (4, 6)).astype(np.float32)
    assert np.array_equal(encode_context(q_feats, model), encode_context(q_feats, restored))


def test_checkpoint_without_pooling_loads_as_final():
    model = NextShotModel(6, hidden_dim=8, scorer_widths=(16, 8), seed=12)
    state = {k: v.data for k, v in model.state().items() if k != "nextshot.context_pooling"}
    restored = NextShotModel(6, hidden_dim=8, scorer_widths=(16, 8), seed=99,
                             context_pooling="mean")
    restored.load_state(state)
    assert restored.context_pooling == "final"
    state["nextshot.context_pooling"] = np.float32(7)
    with pytest.raises(ValueError, match="context_pooling code"):
        restored.load_state(state)


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
    config = TemporalTrainConfig(epochs=1, batch_size=4, hidden_dim=4, scorer_widths=(4,))
    with pytest.raises(FloatingPointError,
                       match=r"train_next_shot: epoch 0, batch start \d+: non-finite loss"):
        train_next_shot(questions, store, config, seed=0)


# -- baseline ---------------------------------------------------------------------------

def test_baseline_picks_identical_direction():
    store = FeatureStore(3)
    v = np.array([1.0, 0.0, 0.0], dtype=np.float32)
    for o in range(4):
        store.add("m", o, v)
    store.add("m", 4, v)
    store.add("m", 5, -v)
    q = PredictionQuestion("q", "m", IN_MOVIE, [("m", i) for i in range(4)],
                           [("m", 4), ("m", 5)], 0)
    assert baseline_average_cosine(q, store) == 0


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
    q1 = PredictionQuestion("q", "m", IN_MOVIE, [("m", o) for o in range(3)],
                            [("m", 3 + i) for i in range(4)], 0)
    q2 = PredictionQuestion("q", "m", CROSS_MOVIE, [("m", o) for o in range(3)],
                            [("x", i) for i in range(4)], 0)
    assert baseline_average_cosine(q1, store) == baseline_average_cosine(q2, store)


def test_baseline_matches_dot_norm_oracle():
    store = FeatureStore(5)
    rng = np.random.default_rng(3)
    for o in range(6):
        store.add("m", o, rng.normal(0, 1, 5).astype(np.float32))
    q = PredictionQuestion("q", "m", IN_MOVIE, [("m", 0), ("m", 1)],
                           [("m", i) for i in (2, 3, 4, 5)], 0)
    mean = store.rows(q.context).astype(np.float64).mean(axis=0)
    sims = [float(np.dot(store.get("m", i), mean) /
                  (np.linalg.norm(store.get("m", i)) * np.linalg.norm(mean)))
            for i in (2, 3, 4, 5)]
    assert baseline_average_cosine(q, store) == int(np.argmax(sims))


def test_baseline_zero_norm_candidates():
    store = FeatureStore(2)
    store.add("m", 0, np.ones(2))
    store.add("m", 1, np.zeros(2))
    store.add("m", 2, np.zeros(2))
    q = PredictionQuestion("q", "m", IN_MOVIE, [("m", 0)], [("m", 1), ("m", 2)], 0)
    assert baseline_average_cosine(q, store) == 0


def test_results_file_format(tmp_path):
    write_results(tmp_path / "r.tsv", [("q1", 3, 0.5), ("q2", 0, 0.125)])
    assert (tmp_path / "r.tsv").read_text() == "q1\t3\t0.500000\nq2\t0\t0.125000\n"
