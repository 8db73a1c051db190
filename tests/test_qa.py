import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shotline import autodiff as ad
from shotline import qa
from shotline.autodiff import Tensor
from shotline.cli import _qa_config
from shotline.features import FeatureStore
from shotline.nn import RowMlp
from shotline.qa import (HashingEmbeddingProvider, QaItem, QaModel, QaTrainConfig,
                         TableEmbeddingProvider, _item_arrays, encode_clip, evaluate_qa,
                         read_embedding_table, read_qa_items, tokenize, train_qa,
                         write_qa_items)

from _util import (check_gradients, default_config, forbid_random_draws, reload,
                   write_embedding_table)


def test_tokenize_lowercases_and_splits():
    assert tokenize("Who's there? Nobody-42!") == ["who", "s", "there", "nobody", "42"]
    assert tokenize("") == []
    assert tokenize("!!!") == []


def test_table_provider_empty_string_is_zero():
    provider = TableEmbeddingProvider({"a": np.ones(4)}, 4)
    assert np.array_equal(provider.embed(""), np.zeros(4, dtype=np.float32))


def test_table_provider_known_token_exact():
    vec = np.array([1.0, -2.0, 0.5], dtype=np.float32)
    provider = TableEmbeddingProvider({"wolf": vec}, 3)
    assert np.array_equal(provider.embed("Wolf"), vec)


def test_table_provider_mean_with_unknowns():
    u = np.array([2.0, 0.0], dtype=np.float32)
    v = np.array([0.0, 4.0], dtype=np.float32)
    provider = TableEmbeddingProvider({"a": u, "b": v}, 2)
    assert np.array_equal(provider.embed("a b"), (u + v) / 2)
    # unknown token contributes a zero vector but still counts in the mean
    assert np.array_equal(provider.embed("a b zzz"), (u + v) / 3)


def test_hashing_provider_deterministic_unit_norm():
    provider = HashingEmbeddingProvider(dim=32)
    e1 = provider.embed("some question text")
    e2 = provider.embed("some question text")
    assert np.array_equal(e1, e2)
    assert abs(np.linalg.norm(e1) - 1.0) < 1e-6
    assert np.array_equal(provider.embed(""), np.zeros(32, dtype=np.float32))


def test_embedding_table_round_trip(tmp_path):
    table = {"alpha": np.array([0.5, -1.25], dtype=np.float32),
             "beta": np.array([3.0, 0.0], dtype=np.float32)}
    path = tmp_path / "emb.txt"
    write_embedding_table(path, table)
    loaded = read_embedding_table(path)
    assert set(loaded) == {"alpha", "beta"}
    assert np.allclose(loaded["alpha"], table["alpha"])


@given(st.lists(st.lists(st.floats(-1e6, 1e6, width=32), min_size=1, max_size=4),
                min_size=1, max_size=6), st.data())
@settings(max_examples=60, deadline=None)
def test_embedding_table_reader_names_the_first_non_finite_value(tmp_path_factory, rows, data):
    path = tmp_path_factory.mktemp("emb") / "emb.txt"
    table = {f"t{i}": np.array(r, dtype=np.float32) for i, r in enumerate(rows)}
    write_embedding_table(path, table)
    # every finite table reads back as the values its text spells
    lines = path.read_text().splitlines()
    loaded = read_embedding_table(path)
    assert list(loaded) == list(table)
    for line, vec in zip(lines, loaded.values()):
        assert np.array_equal(vec, np.array(line.split()[1:], dtype=np.float64).astype(np.float32))
    poisoned = sorted(data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, unique=True)))
    first_token = None
    for n, line_no in enumerate(poisoned):
        parts = lines[line_no].split()
        column = data.draw(st.integers(1, len(parts) - 1))
        parts[column] = data.draw(st.sampled_from(["nan", "inf", "-inf", "-Infinity", "1e39"]))
        if n == 0:
            with np.errstate(over="ignore"):
                first_token = next(t for t in parts[1:]
                                   if not np.isfinite(np.float32(float(t))))
        lines[line_no] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {poisoned[0] + 1}: "
                                         f"non-finite value '{re.escape(first_token)}'$"):
        read_embedding_table(path)


def small_fixture(n=4, clip_dim=4, embed_dim=3, seed=0):
    rng = np.random.default_rng(seed)
    store = FeatureStore(clip_dim)
    table = {}
    items = []
    for i in range(n):
        for o in range(3):
            store.add(f"c{i}", o, rng.normal(0, 1, clip_dim).astype(np.float32))
        for a in range(3):
            table[f"ans{i}{a}"] = rng.normal(0, 1, embed_dim).astype(np.float32)
        table[f"q{i}"] = rng.normal(0, 1, embed_dim).astype(np.float32)
        items.append(QaItem(f"item{i}", f"q{i}", [f"ans{i}0", f"ans{i}1", f"ans{i}2"],
                            [(f"c{i}", 0), (f"c{i}", 1)], i % 3))
    return items, store, TableEmbeddingProvider(table, embed_dim)


def test_encode_clip_single_and_mean():
    _, store, _ = small_fixture()
    single = encode_clip([("c0", 1)], store)
    assert np.array_equal(single, store.rows([("c0", 1)])[0])
    pair = encode_clip([("c0", 0), ("c0", 1)], store)
    assert np.array_equal(pair, store.rows([("c0", 0), ("c0", 1)]).mean(axis=0))


def test_encode_clip_loop_oracle():
    rng = np.random.default_rng(5)
    store = FeatureStore(4)
    ids = []
    for o in range(6):
        store.add("c", o, rng.normal(0, 1, 4).astype(np.float32))
        ids.append(("c", o))
    assert np.array_equal(encode_clip(ids, store), store.sequence("c").mean(axis=0))


def test_encode_clip_missing_lookup():
    _, store, _ = small_fixture()
    with pytest.raises(KeyError):
        encode_clip([("nope", 0)], store)


# One item's answer distribution is the model's batch forward on a batch of one.

def test_qa_forward_identical_answers_uniform():
    items, store, provider = small_fixture()
    item = QaItem("t", "q0", ["ans00", "ans00", "ans00", "ans00"], [("c0", 0)], 0)
    model = QaModel.fresh(4, 3, (8, 4), seed=1)
    clips, questions, answers, _ = _item_arrays([item], provider, store)
    probs = model.probabilities_batch(clips, questions, answers).data
    assert np.allclose(probs, 0.25, atol=1e-6)


def test_qa_forward_distribution_and_permutation():
    items, store, provider = small_fixture()
    model = QaModel.fresh(4, 3, (8, 4), seed=2)
    flipped = QaItem("t", items[0].question, items[0].answers[::-1],
                     items[0].clip_shots, 0)
    clips, questions, answers, _ = _item_arrays([items[0], flipped], provider, store)
    probs = model.probabilities_batch(clips[:1], questions[:1], answers[:1]).data[0]
    assert abs(probs.sum() - 1.0) < 1e-6
    flipped_probs = model.probabilities_batch(clips[1:], questions[1:], answers[1:]).data[0]
    assert np.allclose(flipped_probs, probs[::-1], atol=1e-7)


def test_qa_end_to_end_gradient_tiny_instance():
    # clip dim 4, embedding dim 6, 3 answers
    rng = np.random.default_rng(7)
    mlp = RowMlp.fresh(4 + 2 * 6, (8, 4), rng)
    params = []
    for i, (w, b) in enumerate(mlp.layers):
        w64 = Tensor(rng.normal(0, 0.5, w.data.shape), requires_grad=True)
        b64 = Tensor(rng.normal(0, 0.2, b.data.shape), requires_grad=True)
        mlp.layers[i] = (w64, b64)
        params.extend([w64, b64])
    base = Tensor(rng.normal(0, 1, (1, 10)))
    answers = Tensor(rng.normal(0, 1, (3, 6)))

    def loss():
        probs = ad.softmax_rows(ad.reshape(mlp.scores(base, answers), (1, 3)))
        return ad.nll_loss(probs, [2])

    check_gradients(loss, params)


def test_single_item_overfit():
    items, store, provider = small_fixture()
    config = QaTrainConfig(epochs=200, learning_rate=0.1, momentum=0.9,
                           scorer_widths=(16, 8))
    model, history = train_qa(items[:1], provider, store, config, seed=0)
    assert evaluate_qa(model, items[:1], provider, store) == 1.0
    assert len(history["loss"]) <= 200


def test_untrained_accuracy_near_chance():
    rng = np.random.default_rng(9)
    store = FeatureStore(4)
    table = {}
    items = []
    n = 600
    for i in range(n):
        store.add(f"c{i}", 0, rng.normal(0, 1, 4).astype(np.float32))
        table[f"a{i}"] = rng.normal(0, 1, 3).astype(np.float32)
    for i in range(n):
        others = rng.choice(n - 1, size=4, replace=False)
        others = [o if o < i else o + 1 for o in others]
        answers = [f"a{o}" for o in others]
        pos = int(rng.integers(5))
        answers.insert(pos, f"a{i}")
        items.append(QaItem(f"i{i}", "", answers, [(f"c{i}", 0)], pos))
    provider = TableEmbeddingProvider(table, dim=3)
    model = QaModel.fresh(4, 3, (16, 8), seed=3)
    acc = evaluate_qa(model, items, provider, store)
    assert abs(acc - 0.2) < 0.06


def test_train_qa_rejects_empty():
    items, store, provider = small_fixture()
    with pytest.raises(ValueError, match="empty"):
        train_qa([], provider, store, default_config(_qa_config), seed=0)


def test_train_qa_early_stops_on_patience():
    items, store, provider = small_fixture(n=4)
    config = default_config(_qa_config, epochs=100, learning_rate=0.01, patience=3)
    model, history = train_qa(items[:2], provider, store, config, seed=1,
                              val_items=items[2:])
    assert len(history["loss"]) < 100


def test_qa_training_deterministic(monkeypatch):
    monkeypatch.setattr(qa, "TRAIN_BATCH", 2)
    items, store, provider = small_fixture(n=4)
    config = default_config(_qa_config, epochs=5, learning_rate=0.05)
    model_a, _ = train_qa(items, provider, store, config, seed=2)
    model_b, _ = train_qa(items, provider, store, config, seed=2)
    for name, p in model_a.parameters().items():
        assert np.array_equal(p.data, model_b.parameters()[name].data)


def test_qa_model_state_round_trip(monkeypatch):
    items, store, provider = small_fixture(n=4)
    model = QaModel.fresh(4, 3, (8, 5), seed=3)
    forbid_random_draws(monkeypatch)
    restored = reload(model)
    assert [w.data.shape for w, _ in restored.scorer.layers] == [(10, 8), (8, 5), (5, 1)]
    clips, questions, answers, _ = _item_arrays(items, provider, store)
    assert np.array_equal(model.probabilities_batch(clips, questions, answers).data,
                          restored.probabilities_batch(clips, questions, answers).data)


def test_train_qa_restores_best_validation_model(monkeypatch):
    monkeypatch.setattr(qa, "TRAIN_BATCH", 2)
    items, store, provider = small_fixture(n=6)
    config = default_config(_qa_config, epochs=6, learning_rate=0.05, patience=10)
    model, history = train_qa(items[:4], provider, store, config, seed=4, val_items=items[4:])
    assert evaluate_qa(model, items[4:], provider, store) == max(history["val_accuracy"])


def test_train_qa_stops_on_non_finite_loss():
    items, store, provider = small_fixture(n=4)
    provider.table["q1"][0] = np.nan
    with pytest.raises(FloatingPointError,
                       match=r"train_qa: epoch 0, batch start \d+: non-finite loss nan"):
        train_qa(items, provider, store, default_config(_qa_config, epochs=2), seed=0)


def test_qa_item_validation():
    with pytest.raises(ValueError, match="at least 2"):
        QaItem("q", "text", ["only"], [("c", 0)], 0)
    with pytest.raises(ValueError, match="out of range"):
        QaItem("q", "text", ["a", "b"], [("c", 0)], 2)


def test_qa_item_file_round_trip(tmp_path):
    items = [QaItem("q1", "what happens next", ["a fight", "a song", "a chase"],
                    [("mov", 3), ("mov", 4)], 1)]
    path = tmp_path / "items.tsv"
    write_qa_items(path, items)
    store = FeatureStore(2)
    store.add_rows("mov", range(6), np.zeros((6, 2)))
    assert read_qa_items(path, store) == items
    with pytest.raises(ValueError, match="not allowed"):
        write_qa_items(tmp_path / "bad.tsv",
                       [QaItem("q2", "a|b", ["x", "y"], [("m", 0)], 0)])


@given(st.text(max_size=4), st.sampled_from([",", "|", "\t", "\r", "\n"]), st.text(max_size=4),
       st.sampled_from(["video", "id", "question", "answer"]))
@example("q", "\t", "1", "id")
@example("who", "\n", "is", "question")
@example("a", "\r", "x", "answer")
@settings(max_examples=120, deadline=None)
def test_qa_writer_refuses_an_id_a_label_cannot_carry(tmp_path_factory, head, bad, tail, where):
    value = head + bad + tail
    path = tmp_path_factory.mktemp("qa") / "items.tsv"
    path.write_text("previous\n")
    fields = {"id": "q2", "question": "why", "answer": "b", where: value}
    clip = [("ok", 1)] + ([(value, 2)] if where == "video" else [])
    items = [QaItem("q1", "who", ["a", "b"], [("ok", 0)], 0),
             QaItem(fields["id"], fields["question"], ["a", fields["answer"]], clip, 1)]
    refused = {"video": ",\t\r\n", "id": "\t\r\n"}.get(where, "|\t\r\n")
    if not any(c in value for c in refused):
        store = FeatureStore(2)
        store.add_rows("ok", [0, 1], np.zeros((2, 2)))
        if where == "video":
            store.add(value, 2, np.zeros(2))
        write_qa_items(path, items)
        assert read_qa_items(path, store) == items
        return
    error = {"video": f"video id {re.escape(repr(value))} holds a comma",
             "id": f"item id {re.escape(repr(value))}: tab, CR and LF are not allowed"}.get(
        where, f"item 'q2': text {re.escape(repr(value))}: '\\|', tab, CR and LF are not allowed")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {error}"):
        write_qa_items(path, items)
    # a refused write leaves the file as it was
    assert path.read_text() == "previous\n"
