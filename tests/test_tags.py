import numpy as np
import pytest

from shotline import autodiff as ad
from shotline.autodiff import SgdOptimizer, Tensor
from shotline.cli import _tag_config, _world_config
from shotline.corpus import TagVocabulary, VideoManifestEntry, generate_world
from shotline.features import FeatureStore
from shotline.metrics import write_metrics
from shotline.tags import (GENRE_WEIGHT, LSTM_LEARNING_RATE, TagLstm, TagModel,
                           infer_feature_lstm, infer_score_average, multitask_loss, sample_shots,
                           shot_tag_response, top_shots, train_tag_lstm, train_tags,
                           write_predictions)
from shotline.checkpoint import save_checkpoint
from shotline.nn import pooling_matrix
from shotline.rng import derive_rng

from _util import (check_gradients, default_config, final_step_rows, forbid_random_draws,
                   forward_video, reload, zero_state)


VOCAB = TagVocabulary(["g0", "g1", "g2"], ["k0", "k1"])


def zero_model(input_dim=4):
    model = TagModel.fresh(VOCAB, input_dim, None, np.random.default_rng(0))
    for p in model.parameters().values():
        p.data[...] = 0.0
    return model


def small_store(n_videos=3, shots=6, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    store = FeatureStore(dim)
    for i in range(n_videos):
        for o in range(shots):
            store.add(f"v{i}", o, rng.normal(0, 1, dim).astype(np.float32))
    return store


# -- forward -----------------------------------------------------------------------

def test_forward_zero_head_gives_half_scores():
    pred = forward_video(zero_model(), "v", np.ones(4, dtype=np.float32))
    assert np.allclose(pred.genre_scores, 0.5)
    assert np.allclose(pred.keyword_scores, 0.5)


def test_forward_confident_logit():
    model = zero_model()
    model.genre_b.data[...] = np.array([20.0, 0.0, 0.0], dtype=np.float32)
    pred = forward_video(model, "v", np.zeros(4, dtype=np.float32))
    assert pred.genre_scores[0] > 0.999999


def test_forward_matches_affine_sigmoid_oracle():
    rng = np.random.default_rng(1)
    model = TagModel.fresh(VOCAB, 4, None, rng)
    feat = rng.normal(0, 1, 4).astype(np.float32)
    pred = forward_video(model, "v", feat)
    logits = feat @ model.genre_w.data + model.genre_b.data
    assert np.array_equal(pred.genre_scores, ad.sigmoid_values(logits))
    assert np.allclose(pred.genre_scores, 1.0 / (1.0 + np.exp(-logits)), atol=1e-7)


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError, match="match"):
        forward_video(zero_model(), "v", np.ones(5, dtype=np.float32))


# -- loss --------------------------------------------------------------------------

def test_multitask_loss_perfect_logits_near_zero():
    genre_logits = Tensor(np.array([[20.0, -20.0, -20.0]], dtype=np.float32))
    kw_logits = Tensor(np.array([[-20.0, 20.0]], dtype=np.float32))
    loss = multitask_loss(genre_logits, [{0}], kw_logits, [{1}], 0.5)
    assert loss.item() < 1e-6


def test_multitask_loss_all_zero_logits_single_positive():
    # every label contributes ln 2 regardless of the target at logit zero
    genre_logits = Tensor(np.zeros((1, 22), dtype=np.float32))
    loss = multitask_loss(genre_logits, [{3}], None, [], 1.0)
    assert abs(loss.item() - np.log(2)) < 1e-6


def test_multitask_loss_matches_scalar_recomputation():
    rng = np.random.default_rng(2)
    g = rng.normal(0, 2, (3, 3)).astype(np.float32)
    k = rng.normal(0, 2, (2, 2)).astype(np.float32)
    g_truth = [{0}, {1, 2}, set()]
    k_truth = [{0}, {1}]
    lam = 0.5
    loss = multitask_loss(Tensor(g), g_truth, Tensor(k), k_truth, lam)

    def bce(x, t):
        return float(np.mean(np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))))

    g_hot = np.zeros((3, 3)); k_hot = np.zeros((2, 2))
    for i, s in enumerate(g_truth):
        for j in s: g_hot[i, j] = 1
    for i, s in enumerate(k_truth):
        for j in s: k_hot[i, j] = 1
    expected = lam * bce(g, g_hot) + (1 - lam) * bce(k, k_hot) * 2 / 3
    assert abs(loss.item() - expected) < 1e-6


def test_multitask_loss_gradient_through_projection_and_head():
    rng = np.random.default_rng(3)
    proj = Tensor(rng.normal(0, 0.5, (6, 4)), requires_grad=True)
    head_w = Tensor(rng.normal(0, 0.5, (4, 3)), requires_grad=True)
    head_b = Tensor(np.zeros(3, dtype=np.float64), requires_grad=True)
    shots = [rng.normal(0, 1, (5, 6)) for _ in range(2)]
    pooled = Tensor(np.stack([s.mean(axis=0) for s in shots]))
    truth = [{0}, {2}]

    def loss():
        logits = ad.add(ad.matmul(ad.matmul(pooled, proj), head_w), head_b)
        return multitask_loss(logits, truth, None, [], 1.0)

    check_gradients(loss, [proj, head_w, head_b])


def test_multitask_loss_invalid_index():
    with pytest.raises(IndexError):
        multitask_loss(Tensor(np.zeros((1, 3), dtype=np.float32)), [{5}], None, [], 0.5)


# -- training ----------------------------------------------------------------------

def overfit_corpus(shots=10):
    store = FeatureStore(4)
    rng = np.random.default_rng(4)
    for o in range(shots):
        store.add("v0", o, rng.normal(0, 1, 4).astype(np.float32))
    entries = [VideoManifestEntry("v0", "trailer", "", ["g1"], ["k0"])]
    return entries, store


def test_train_tags_loss_decreases_monotonically_on_one_video():
    # video length equals the sample size, so every step sees the same shots
    entries, store = overfit_corpus(shots=4)
    config = default_config(_tag_config, epochs=10, batch_size=1, learning_rate=0.05, momentum=0.0,
                            shots_per_video=4)
    model, history = train_tags(entries, store, VOCAB, config, seed=0, proj_dim=None)
    losses = history["loss"]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_train_tags_rejects_empty_and_missing_genres():
    _, store = overfit_corpus()
    with pytest.raises(ValueError, match="empty"):
        train_tags([], store, VOCAB, default_config(_tag_config), seed=0, proj_dim=None)
    bad = [VideoManifestEntry("v0", "trailer", "", [], [])]
    with pytest.raises(ValueError, match="no genres"):
        train_tags(bad, store, VOCAB, default_config(_tag_config), seed=0, proj_dim=None)


def test_train_tags_deterministic_checkpoints(tmp_path):
    entries, store = overfit_corpus()
    config = default_config(_tag_config, epochs=3, batch_size=1, learning_rate=0.05)
    model_a, _ = train_tags(entries, store, VOCAB, config, seed=9, proj_dim=3)
    model_b, _ = train_tags(entries, store, VOCAB, config, seed=9, proj_dim=3)
    save_checkpoint(tmp_path / "a.stln", model_a.state())
    save_checkpoint(tmp_path / "b.stln", model_b.state())
    assert (tmp_path / "a.stln").read_bytes() == (tmp_path / "b.stln").read_bytes()


def test_model_state_round_trip(monkeypatch):
    rng = np.random.default_rng(5)
    for proj_dim in (3, None):
        model = TagModel.fresh(VOCAB, 4, proj_dim, rng)
        lstm = TagLstm.fresh(VOCAB, proj_dim or 4, 5, rng)
        with monkeypatch.context() as patched:
            forbid_random_draws(patched)
            restored = reload(model, VOCAB)
            restored_lstm = reload(lstm, restored)
        assert (restored.input_dim, restored.output_dim) == (4, proj_dim or 4)
        assert (restored.projection is None) == (proj_dim is None)
        assert restored_lstm.cell.hidden_dim == 5
        for old, new in ((model, restored), (lstm, restored_lstm)):
            assert list(old.parameters()) == list(new.parameters())
            for name, tensor in old.parameters().items():
                assert np.array_equal(tensor.data, new.parameters()[name].data)
        seq = rng.normal(0, 1, (6, 4)).astype(np.float32)
        for want, got in zip(model.shot_scores(seq), restored.shot_scores(seq)):
            assert np.array_equal(want, got)
        want = infer_feature_lstm(model, lstm, "v", seq)
        got = infer_feature_lstm(restored, restored_lstm, "v", seq)
        assert np.array_equal(want.genre_scores, got.genre_scores)
        assert np.array_equal(want.keyword_scores, got.keyword_scores)


def test_from_state_rejects_a_different_vocabulary():
    model = TagModel.fresh(VOCAB, 4, None, np.random.default_rng(5))
    other = TagVocabulary(["g0", "g1"], ["k0", "k1"])
    with pytest.raises(ValueError, match="head.genre.weights"):
        TagModel.from_state(model.state(), other)


# -- inference modes ------------------------------------------------------------------

def test_score_average_single_shot_equals_forward():
    rng = np.random.default_rng(6)
    model = TagModel.fresh(VOCAB, 4, None, rng)
    shot = rng.normal(0, 1, (1, 4)).astype(np.float32)
    pred = infer_score_average(model, "v", shot)
    direct = forward_video(model, "v", shot[0])
    assert np.allclose(pred.genre_scores, direct.genre_scores, atol=1e-7)


def test_score_average_two_shots_mean():
    rng = np.random.default_rng(7)
    model = TagModel.fresh(VOCAB, 4, None, rng)
    shots = rng.normal(0, 1, (2, 4)).astype(np.float32)
    pred = infer_score_average(model, "v", shots)
    s1 = forward_video(model, "v", shots[0]).genre_scores
    s2 = forward_video(model, "v", shots[1]).genre_scores
    assert np.allclose(pred.genre_scores, (s1 + s2) / 2, atol=1e-7)


def test_score_average_five_shot_loop_oracle_and_permutation_invariance():
    rng = np.random.default_rng(8)
    model = TagModel.fresh(VOCAB, 4, 3, rng)
    shots = rng.normal(0, 1, (5, 4)).astype(np.float32)
    pred = infer_score_average(model, "v", shots)
    loop = np.mean([forward_video(model, "v", (s[None] @ model.projection.data)[0]).genre_scores
                    for s in shots], axis=0)
    assert np.allclose(pred.genre_scores, loop, atol=1e-6)
    shuffled = infer_score_average(model, "v", shots[rng.permutation(5)])
    assert np.allclose(pred.genre_scores, shuffled.genre_scores, atol=1e-6)


@pytest.mark.parametrize("proj_dim", [3, None])
def test_a_sequence_scorer_of_another_input_width_is_named(proj_dim):
    rng = np.random.default_rng(8)
    model = TagModel.fresh(VOCAB, 4, proj_dim, rng)
    state = {**model.state(), **TagLstm.fresh(VOCAB, 5, 6, rng).state()}
    with pytest.raises(ValueError, match=f"^'taglstm.lstm.weights' takes 5-value inputs, "
                                         f"but the tag model gives {proj_dim or 4}$"):
        TagLstm.from_state(state, model)


def test_feature_lstm_single_step_equals_one_step():
    rng = np.random.default_rng(9)
    model = TagModel.fresh(VOCAB, 4, None, rng)
    lstm = TagLstm.fresh(VOCAB, 4, 6, rng)
    seq = rng.normal(0, 1, (1, 4)).astype(np.float32)
    pred = infer_feature_lstm(model, lstm, "v", seq)
    hidden = lstm.step_outputs(Tensor(seq)).data
    expected = 1.0 / (1.0 + np.exp(-(hidden @ lstm.genre_w.data + lstm.genre_b.data)))
    assert np.allclose(pred.genre_scores, expected[0], atol=1e-7)


def test_feature_lstm_constant_input_zero_recurrence():
    rng = np.random.default_rng(10)
    model = TagModel.fresh(VOCAB, 4, None, rng)
    lstm = TagLstm.fresh(VOCAB, 4, 6, rng)
    # zero recurrent block and a saturated-closed forget gate: every step
    # then computes the same gates and the same cell state, so per-step
    # outputs are equal and their mean equals any single step
    lstm.cell.weights.data[4:, :] = 0.0
    lstm.cell.bias.data[...] = 0.0
    lstm.cell.bias.data[6:12] = -20.0
    seq = np.tile(rng.normal(0, 1, 4).astype(np.float32), (4, 1))
    hidden = lstm.step_outputs(Tensor(seq)).data
    assert np.allclose(hidden, hidden[0], atol=1e-7)
    pred = infer_feature_lstm(model, lstm, "v", seq)
    one_step = infer_feature_lstm(model, lstm, "v", seq[:1])
    assert np.allclose(pred.genre_scores, one_step.genre_scores, atol=1e-6)


def test_feature_lstm_matches_step_oracle():
    rng = np.random.default_rng(11)
    model = TagModel.fresh(VOCAB, 4, None, rng)
    lstm = TagLstm.fresh(VOCAB, 4, 5, rng)
    seq = rng.normal(0, 1, (4, 4)).astype(np.float32)
    pred = infer_feature_lstm(model, lstm, "v", seq)
    h, c = zero_state(lstm.cell)
    rows = []
    for t in range(4):
        h, c = lstm.cell.step(Tensor(seq[t:t + 1]), h, c)
        rows.append(h.data[0])
    hidden = np.stack(rows)
    scores = 1.0 / (1.0 + np.exp(-(hidden @ lstm.genre_w.data + lstm.genre_b.data)))
    assert np.allclose(pred.genre_scores, scores.mean(axis=0), atol=1e-6)


def test_feature_lstm_order_sensitive():
    rng = np.random.default_rng(12)
    model = TagModel.fresh(VOCAB, 4, None, rng)
    entries = [VideoManifestEntry("v0", "trailer", "", ["g0"], [])]
    store = FeatureStore(4)
    for o in range(6):
        store.add("v0", o, rng.normal(0, 1, 4).astype(np.float32))
    lstm, _ = train_tag_lstm(model, entries, store, VOCAB,
                             default_config(_tag_config, lstm_epochs=2, lstm_hidden=5), seed=1)
    seq = store.sequence("v0")
    fwd = infer_feature_lstm(model, lstm, "v0", seq)
    rev = infer_feature_lstm(model, lstm, "v0", seq[::-1].copy())
    assert not np.allclose(fwd.genre_scores, rev.genre_scores, atol=1e-7)


def stacked(rows):
    """(n, k) tensor of n (1, k) tensors: the sum of unit column i times row i."""
    out = None
    for i, row in enumerate(rows):
        term = ad.matmul(Tensor(np.eye(len(rows), 1, -i, dtype=row.data.dtype)), row)
        out = term if out is None else ad.add(out, term)
    return out


def row_mean(rows):
    """(1, k) mean of a (n, k) tensor, as a matmul by a row of 1/n."""
    n = rows.data.shape[0]
    return ad.matmul(Tensor(np.full((1, n), 1.0 / n, dtype=rows.data.dtype)), rows)


def step_loop_states(cell, seq):
    """Per-step reference: (steps, hidden) states of a LstmCell.step loop."""
    h, c = zero_state(cell)
    states = []
    for t in range(seq.shape[0]):
        h, c = cell.step(Tensor(seq[t:t + 1]), h, c)
        states.append(h)
    return stacked(states)


def pooled_states(cell, padded, rows):
    """Every step's states of a padded batch pooled by constant (rows, batch
    * steps) weights, one matmul, as train_tag_lstm pools them."""
    states = ad.reshape(cell.fold(Tensor(padded)), (rows.shape[1], cell.hidden_dim))
    return ad.matmul(Tensor(rows), states)


def padded_batch(seqs):
    lengths = np.array([len(s) for s in seqs])
    out = np.zeros((len(seqs), lengths.max(), seqs[0].shape[1]), dtype=np.float32)
    for b, seq in enumerate(seqs):
        out[b, :len(seq)] = seq
    return out, lengths


def test_padded_batch_matches_per_video_step_loops():
    rng = np.random.default_rng(30)
    lstm = TagLstm.fresh(VOCAB, 4, 6, rng)
    seqs = [rng.normal(0, 1, (n, 4)).astype(np.float32) for n in (7, 3, 5, 1)]
    padded, lengths = padded_batch(seqs)
    coef = Tensor(rng.normal(0, 1, (4, 6)).astype(np.float32))
    states = lstm.cell.fold(Tensor(padded)).data
    pooled = pooled_states(lstm.cell, padded, pooling_matrix(lengths, 7))
    ad.sum_all(ad.hadamard(pooled, coef)).backward()
    fused_grads = [lstm.cell.weights.grad, lstm.cell.bias.grad]
    lstm.cell.weights.grad = lstm.cell.bias.grad = None
    reference = None
    for b, seq in enumerate(seqs):
        ref_states = step_loop_states(lstm.cell, seq)
        assert np.abs(states[b, :len(seq)] - ref_states.data).max() <= 1e-5
        assert np.abs(pooled.data[b] - ref_states.data.mean(axis=0)).max() <= 1e-5
        term = ad.sum_all(ad.hadamard(row_mean(ref_states), Tensor(coef.data[b:b + 1])))
        reference = term if reference is None else ad.add(reference, term)
    reference.backward()
    for got, want in zip(fused_grads, [lstm.cell.weights.grad, lstm.cell.bias.grad]):
        assert np.abs(got - want).max() <= 1e-5


@pytest.mark.parametrize("mode", ["final", "mean"])
def test_pooled_video_independent_of_batch_mates(mode):
    rng = np.random.default_rng(31)
    lstm = TagLstm.fresh(VOCAB, 4, 6, rng)
    video = rng.normal(0, 1, (4, 4)).astype(np.float32)
    others = [rng.normal(0, 1, (n, 4)).astype(np.float32) for n in (9, 2, 6)]
    pooled = []
    for seqs, row in (([video], 0), ([video, others[0]], 0), ([others[1], others[2], video], 2)):
        padded, lengths = padded_batch(seqs)
        rows = (final_step_rows(lengths, lengths.max()) if mode == "final"
                else pooling_matrix(lengths, lengths.max()))
        out = pooled_states(lstm.cell, padded, rows)
        pooled.append(out.data[row])
    assert np.allclose(pooled[1], pooled[0], rtol=0, atol=1e-6)
    assert np.allclose(pooled[2], pooled[0], rtol=0, atol=1e-6)


def ragged_tag_corpus(dim=4, nan_video=None):
    """Seven trailers of 1-9 shots; some carry keywords, v6 carries none."""
    rng = np.random.default_rng(32)
    store = FeatureStore(dim)
    entries = []
    for i, n in enumerate((5, 1, 9, 3, 7, 2, 4)):
        for o in range(n):
            values = rng.normal(0, 1, dim).astype(np.float32)
            if i == nan_video:
                values[0] = np.nan
            store.add(f"v{i}", o, values)
        keywords = [["k0"], [], ["k1", "k0"], ["k1"], [], ["k0"], []][i]
        entries.append(VideoManifestEntry(f"v{i}", "trailer", "", [f"g{i % 3}"], keywords))
    return entries, store


def per_video_tag_lstm(entries, store, config, seed):
    """The trainer train_tag_lstm batches, run video by video with LstmCell.step."""
    lstm = TagLstm.fresh(VOCAB, store.dim, config.lstm_hidden, derive_rng(seed, "taglstm.init"))
    optimizer = SgdOptimizer(lstm.parameters(), LSTM_LEARNING_RATE, config.momentum)
    for epoch in range(config.lstm_epochs):
        order = derive_rng(seed, "taglstm.epoch", epoch).permutation(len(entries))
        for start in range(0, len(order), config.batch_size):
            batch = [entries[i] for i in order[start:start + config.batch_size]]
            feats = [row_mean(step_loop_states(lstm.cell, store.sequence(e.video_id)))
                     for e in batch]
            kw = [(f, e) for f, e in zip(feats, batch) if e.keywords]
            genre_logits = ad.add(ad.matmul(stacked(feats), lstm.genre_w), lstm.genre_b)
            kw_logits = (ad.add(ad.matmul(stacked([f for f, _ in kw]), lstm.keyword_w),
                                lstm.keyword_b) if kw else None)
            loss = multitask_loss(
                genre_logits, [{VOCAB.genre_index[g] for g in e.genres} for e in batch],
                kw_logits, [{VOCAB.keyword_index[k] for k in e.keywords} for _, e in kw],
                GENRE_WEIGHT)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
    return lstm


def test_batched_tag_lstm_training_matches_per_video_trainer():
    entries, store = ragged_tag_corpus()
    config = default_config(_tag_config, batch_size=3, lstm_epochs=3, lstm_hidden=5)
    trained, history = train_tag_lstm(zero_model(), entries, store, VOCAB, config, seed=4)
    reference = per_video_tag_lstm(entries, store, config, seed=4)
    assert len(history["loss"]) == len(history["epoch_s"]) == len(history["examples_per_s"]) == 3
    assert min(history["loss"]) > 0 and min(history["epoch_s"]) > 0
    for seconds, rate in zip(history["epoch_s"], history["examples_per_s"]):
        assert rate * seconds == pytest.approx(len(entries))
    start = TagLstm.fresh(VOCAB, 4, 5, derive_rng(4, "taglstm.init"))
    for name, tensor in trained.parameters().items():
        want = reference.parameters()[name].data
        assert not np.array_equal(want, start.parameters()[name].data), name
        assert np.abs(tensor.data - want).max() <= 1e-5, name


def test_tag_training_stops_on_non_finite_loss():
    entries, store = ragged_tag_corpus(nan_video=1)
    config = default_config(_tag_config, epochs=1, batch_size=3, lstm_epochs=1, lstm_hidden=5)
    with pytest.raises(FloatingPointError, match=r"train_tags: epoch 0, batch start \d+"):
        train_tags(entries, store, VOCAB, config, seed=0, proj_dim=None)
    with pytest.raises(FloatingPointError, match=r"train_tag_lstm: epoch 0, batch start \d+"):
        train_tag_lstm(zero_model(), entries, store, VOCAB, config, seed=0)


def project_then_mean_logits(model, shots, kw_rows):
    """Oracle: each video's shots projected one by one, then averaged."""
    feats = [row_mean(model.project(Tensor(video))) for video in shots]
    genre = model.genre_logits(stacked(feats))
    keyword = model.keyword_logits(stacked([feats[r] for r in kw_rows])) if kw_rows else None
    return genre, keyword


@pytest.mark.parametrize("kw_rows", [[0, 2, 3], []])
def test_pool_then_project_matches_project_then_mean_in_float64(kw_rows):
    rng = np.random.default_rng(40)
    shots = 4
    model = TagModel.fresh(VOCAB, 5, 3, rng)
    for tensor in model.parameters().values():
        tensor.data = rng.normal(0, 0.5, tensor.data.shape)
    # video 1 has two shots, fewer than shots_per_video: its picks repeat
    lengths = (6, 2, 9, 4)
    videos = [rng.normal(0, 1, (n, 5)) for n in lengths]
    picks = [sample_shots(n, shots, derive_rng(3, f"tags.sample.v{i}", 0))
             for i, n in enumerate(lengths)]
    assert len(set(picks[1])) < shots
    sampled = np.stack([video[p] for video, p in zip(videos, picks)])
    genre_truth = [{0}, {1, 2}, {2}, {0}]
    kw_truth = [{1}, {0}, {0, 1}, {1}][:len(kw_rows)]
    results = []
    for logits in (lambda: model.batch_logits(sampled.mean(axis=1), kw_rows),
                   lambda: project_then_mean_logits(model, sampled, kw_rows)):
        for tensor in model.parameters().values():
            tensor.grad = None
        genre, keyword = logits()
        multitask_loss(genre, genre_truth, keyword, kw_truth, 0.5).backward()
        results.append([genre.data, None if keyword is None else keyword.data]
                       + [t.grad for t in model.parameters().values()])
    assert results[0][0].dtype == np.float64
    for got, want in zip(*results):
        if want is None:
            assert got is None
        else:
            assert np.abs(got - want).max() <= 1e-12


def one_hot_corpus(seed=0):
    """Trailers of 1-9 shots added out of ordinal order; row r of the matrix is
    the unit vector e_r, so a pooled row is the count of each row drawn."""
    rng = np.random.default_rng(seed)
    lengths = (5, 1, 9, 3, 7, 2)
    store = FeatureStore(sum(lengths))
    entries = []
    for i, n in enumerate(lengths):
        for o in rng.permutation(n):
            store.add(f"v{i}", int(o), np.eye(store.dim, dtype=np.float32)[len(store)])
        entries.append(VideoManifestEntry(f"v{i}", "trailer", "", [f"g{i % 3}"],
                                          ["k0"] if i % 2 else []))
    return entries, store


def test_train_tags_samples_the_shots_of_each_video_stream(monkeypatch):
    entries, store = one_hot_corpus()
    config = default_config(_tag_config, epochs=3, batch_size=4, shots_per_video=4)
    seen = []
    batch_logits = TagModel.batch_logits
    monkeypatch.setattr(TagModel, "batch_logits",
                        lambda self, pooled, kw_rows: seen.append(pooled.copy())
                        or batch_logits(self, pooled, kw_rows))
    train_tags(entries, store, VOCAB, config, seed=7, proj_dim=None)
    expected = []
    for epoch in range(config.epochs):
        order = derive_rng(7, "tags.epoch", epoch).permutation(len(entries))
        for start in range(0, len(order), config.batch_size):
            counts = []
            for i in order[start:start + config.batch_size]:
                video_id, n = entries[i].video_id, store.shot_count(entries[i].video_id)
                picks = sample_shots(n, 4, derive_rng(7, f"tags.sample.{video_id}", epoch))
                rows = store.row_indices([(video_id, p) for p in picks])
                counts.append(np.bincount(rows, minlength=store.dim))
            expected.append(np.stack(counts))
    assert len(seen) == len(expected) == 6
    for pooled, counts in zip(seen, expected):
        assert np.array_equal(pooled * 4, counts)


def per_video_train_tags(entries, store, config, seed, proj_dim):
    """The trainer train_tags batches: each video's sampled shots projected,
    then averaged, one video at a time."""
    model = TagModel.fresh(VOCAB, store.dim, proj_dim, derive_rng(seed, "tags.init"))
    optimizer = SgdOptimizer(model.parameters(), config.learning_rate, config.momentum)
    for epoch in range(config.epochs):
        order = derive_rng(seed, "tags.epoch", epoch).permutation(len(entries))
        for start in range(0, len(order), config.batch_size):
            batch = [entries[i] for i in order[start:start + config.batch_size]]
            shots = []
            for e in batch:
                seq = store.sequence(e.video_id)
                rng = derive_rng(seed, f"tags.sample.{e.video_id}", epoch)
                shots.append(seq[sample_shots(len(seq), config.shots_per_video, rng)])
            kw_rows = [row for row, e in enumerate(batch) if e.keywords]
            genre, keyword = project_then_mean_logits(model, shots, kw_rows)
            loss = multitask_loss(
                genre, [{VOCAB.genre_index[g] for g in e.genres} for e in batch], keyword,
                [{VOCAB.keyword_index[k] for k in batch[r].keywords} for r in kw_rows],
                GENRE_WEIGHT)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
    return model


@pytest.mark.parametrize("proj_dim", [3, None])
def test_train_tags_matches_per_video_trainer(proj_dim):
    entries, store = ragged_tag_corpus()
    config = default_config(_tag_config, epochs=4, batch_size=3, shots_per_video=4,
                            learning_rate=0.2)
    trained, history = train_tags(entries, store, VOCAB, config, seed=5, proj_dim=proj_dim)
    reference = per_video_train_tags(entries, store, config, 5, proj_dim)
    start = TagModel.fresh(VOCAB, 4, proj_dim, derive_rng(5, "tags.init"))
    for name, tensor in trained.parameters().items():
        want = reference.parameters()[name].data
        assert not np.array_equal(want, start.parameters()[name].data), name
        assert np.abs(tensor.data - want).max() <= 1e-5, name
    assert len(history["loss"]) == len(history["epoch_s"]) == len(history["examples_per_s"]) == 4
    assert min(history["epoch_s"]) > 0 and min(history["examples_per_s"]) > 0


# -- retrieval --------------------------------------------------------------------

def test_shot_tag_response_uniform_head_constant():
    model = zero_model()
    series = shot_tag_response(model, "v", np.random.default_rng(0).normal(0, 1, (7, 4)).astype(np.float32), "g1")
    assert len(series) == 7
    assert len({round(s, 7) for _, s in series}) == 1


def test_shot_tag_response_unknown_tag():
    with pytest.raises(KeyError, match="not in vocabulary"):
        shot_tag_response(zero_model(), "v", np.zeros((2, 4), dtype=np.float32), "noir")


def test_shot_tag_response_length_and_topk():
    rng = np.random.default_rng(13)
    model = TagModel.fresh(VOCAB, 4, None, rng)
    seq = rng.normal(0, 1, (9, 4)).astype(np.float32)
    series = shot_tag_response(model, "v", seq, "k1")
    assert [o for o, _ in series] == list(range(9))
    ranked = top_shots(series, 3)
    scores = [s for _, s in series]
    assert scores[ranked[0]] == max(scores)


def test_retrieval_on_synthetic_movie():
    cfg = default_config(_world_config, topics=4, feature_dim=16, n_movies=8, n_trailers=24,
                         movie_topic_count=2, movie_len=(60, 90),
                         noise_sigma=0.15, seed=21)
    world, videos, store, entries = generate_world(cfg)
    trailers = [e for e in entries if e.kind == "trailer"]
    config = default_config(_tag_config, epochs=30, batch_size=8, learning_rate=0.3)
    model, _ = train_tags(trailers, store, world.vocabulary, config, seed=21, proj_dim=None)
    movie = next(v for v in videos if v.kind == "movie")
    hits = []
    for genre in sorted(movie.genres):
        topic = world.vocabulary.genre_index[genre]
        series = shot_tag_response(model, movie.video_id, store.sequence(movie.video_id), genre)
        top5 = top_shots(series, 5)
        hits.append(np.mean([movie.topics[o] == topic for o in top5]))
    assert np.mean(hits) >= 0.8


# -- report files ---------------------------------------------------------------------

def test_prediction_and_metric_files(tmp_path):
    model = zero_model()
    pred = forward_video(model, "vid", np.zeros(4, dtype=np.float32))
    path = tmp_path / "pred.tsv"
    write_predictions(path, [pred], VOCAB)
    lines = path.read_text().splitlines()
    assert lines[0] == "vid\tgenre\tg0\t0.500000"
    assert len(lines) == 5
    write_metrics(tmp_path / "metrics.tsv", {"genres.recall_at_3": 0.5, "map": 0.25})
    assert (tmp_path / "metrics.tsv").read_text() == "genres.recall_at_3\t0.500000\nmap\t0.250000\n"
