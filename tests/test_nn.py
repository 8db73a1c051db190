import re

import numpy as np
import pytest

from shotline import autodiff as ad
from shotline.autodiff import Tensor
from shotline.nn import LstmCell, RowMlp, fit

from _util import check_gradients, multi_node_scores


def float64_scorer(rng, input_dim, widths):
    """A RowMlp whose weights and biases are random float64 leaves."""
    mlp = RowMlp.fresh(input_dim, widths, rng)
    for i, (w, b) in enumerate(mlp.layers):
        mlp.layers[i] = (Tensor(rng.normal(0, 0.5, w.data.shape), requires_grad=True),
                         Tensor(rng.normal(0, 0.2, b.data.shape), requires_grad=True))
    return mlp


def concat_scores(mlp, context, candidates):
    """The unfactored scorer: every [context | candidate] row through every layer.
    A constant 0/1 matrix repeats the context rows, which is exact."""
    q = context.data.shape[0]
    repeat = np.repeat(np.eye(q, dtype=context.data.dtype), candidates.data.shape[0] // q, axis=0)
    out = ad.concat_cols(ad.matmul(Tensor(repeat), context), candidates)
    for i, (w, b) in enumerate(mlp.layers):
        out = ad.add(ad.matmul(out, w), b)
        if i != len(mlp.layers) - 1:
            out = ad.tanh(out)
    return out


@pytest.mark.parametrize("widths", [(8, 4), (5,), ()])
def test_factored_scores_gradients(widths):
    # covers the context, the candidates, both row slices of the first
    # weight and every bias
    rng = np.random.default_rng(len(widths))
    mlp = float64_scorer(rng, 3 + 4, widths)
    context = Tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
    candidates = Tensor(rng.normal(0, 1, (2 * 5, 4)), requires_grad=True)
    weights = rng.normal(0, 1, (10, 1))

    def loss():
        return ad.sum_all(ad.matmul(ad.reshape(mlp.scores(context, candidates), (1, 10)),
                                    Tensor(weights)))

    params = [context, candidates] + [p for layer in mlp.layers for p in layer]
    check_gradients(loss, params)


@pytest.mark.parametrize("widths", [(8, 4), (6,), ()])
def test_factored_scores_match_the_concat_form(widths):
    rng = np.random.default_rng(40 + len(widths))
    mlp = float64_scorer(rng, 5 + 3, widths)
    context = Tensor(rng.normal(0, 1, (4, 5)), requires_grad=True)
    candidates = Tensor(rng.normal(0, 1, (4 * 6, 3)), requires_grad=True)
    weights = Tensor(rng.normal(0, 1, (24, 1)))
    params = [context, candidates] + [p for layer in mlp.layers for p in layer]

    def run(score):
        for p in params:
            p.grad = None
        out = score(mlp, context, candidates)
        ad.sum_all(ad.hadamard(out, weights)).backward()
        return out.data.copy(), [p.grad.copy() for p in params]

    got, got_grads = run(RowMlp.scores)
    want, want_grads = run(concat_scores)
    assert got.shape == (24, 1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def _scores_and_grads(score, mlp, context, candidates, weights):
    params = [context, candidates] + [p for layer in mlp.layers for p in layer]
    for p in params:
        p.grad = None
    out = score(mlp, context, candidates)
    ad.matmul(ad.reshape(out, (1, -1)), weights).backward()
    return [out.data] + [p.grad for p in params]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("widths", [(64, 16), (7,), ()])
@pytest.mark.parametrize("candidate_grad", [False, True])
def test_pair_mlp_is_bit_identical_to_the_multi_node_form(dtype, widths, candidate_grad):
    # the next-shot shape in small: odd widths, several candidates per context
    rng = np.random.default_rng(len(widths) + 3 * candidate_grad)
    q, n, c, d = 6, 5, 19, 11
    mlp = RowMlp.fresh(c + d, widths, rng)
    for i, (w, b) in enumerate(mlp.layers):
        mlp.layers[i] = (Tensor(rng.normal(0, 0.4, w.data.shape).astype(dtype), requires_grad=True),
                         Tensor(rng.normal(0, 0.4, b.data.shape).astype(dtype), requires_grad=True))
    context = Tensor(rng.normal(0, 1, (q, c)).astype(dtype), requires_grad=True)
    candidates = Tensor(rng.normal(0, 1, (q * n, d)).astype(dtype), requires_grad=candidate_grad)
    weights = Tensor(rng.normal(0, 1, (q * n, 1)).astype(dtype))
    got = _scores_and_grads(RowMlp.scores, mlp, context, candidates, weights)
    want = _scores_and_grads(multi_node_scores, mlp, context, candidates, weights)
    assert (got[2] is None) == (not candidate_grad)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype == dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def test_pair_mlp_under_no_grad_builds_no_tape():
    rng = np.random.default_rng(5)
    mlp = RowMlp.fresh(5, (4,), rng)
    context = Tensor(rng.normal(0, 1, (2, 3)).astype(np.float32), requires_grad=True)
    candidates = Tensor(rng.normal(0, 1, (6, 2)).astype(np.float32))
    taped = mlp.scores(context, candidates)
    with ad.no_grad():
        out = mlp.scores(context, candidates)
    assert out._parents == () and out._backward is None and not out.requires_grad
    assert np.array_equal(out.data, taped.data)
    with pytest.raises(RuntimeError, match="recorded no operation"):
        out.backward()


def test_pair_mlp_second_backward_raises():
    rng = np.random.default_rng(6)
    mlp = RowMlp.fresh(5, (4, 3), rng)
    context = Tensor(rng.normal(0, 1, (2, 3)).astype(np.float32), requires_grad=True)
    loss = ad.sum_all(mlp.scores(context, Tensor(rng.normal(0, 1, (6, 2)).astype(np.float32))))
    loss.backward()
    first = context.grad.copy()
    with pytest.raises(RuntimeError, match="pair_mlp: backward\\(\\) through this node a second time"):
        loss.backward()
    assert np.array_equal(context.grad, first)


def test_scores_reject_inputs_that_do_not_fit():
    mlp = RowMlp.fresh(6, (4,), np.random.default_rng(0))
    context = Tensor(np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="5 candidate rows do not split evenly over 2"):
        mlp.scores(context, Tensor(np.zeros((5, 2), dtype=np.float32)))
    with pytest.raises(ValueError, match="context width 4 plus candidate width 3 is not "
                                         "the scorer's input width 6"):
        mlp.scores(context, Tensor(np.zeros((4, 3), dtype=np.float32)))
    with pytest.raises(ValueError, match="do not split evenly over 0"):
        mlp.scores(Tensor(np.zeros((0, 4), dtype=np.float32)),
                   Tensor(np.zeros((4, 2), dtype=np.float32)))
    with pytest.raises(ValueError, match="expects matrices"):
        mlp.scores(context, Tensor(np.zeros(12, dtype=np.float32)))


@pytest.mark.parametrize("widths", [(64, 0), (0,), (-2, 8)], ids=["64,0", "0", "-2,8"])
def test_scorer_rejects_a_hidden_width_below_one(widths):
    with pytest.raises(ValueError, match=rf"^scorer_widths must each be at least 1, "
                                         rf"got {re.escape(str(widths))}$"):
        RowMlp.fresh(6, widths, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_weight_is_named(bad):
    mlp = RowMlp.fresh(3, (2,), np.random.default_rng(0))
    state = {k: v.data.copy() for k, v in mlp.parameters().items()}
    state["mlp.1.weights"][1, 0] = bad
    with pytest.raises(ValueError, match=r"^'mlp.1.weights' holds 1 non-finite value\(s\), "
                                         r"the first at index \(1, 0\)$"):
        RowMlp.from_state(state, "", None)
    state["mlp.1.weights"][1, 0] = 0.5
    assert RowMlp.from_state(state, "", None).layers[1][0].data[1, 0] == np.float32(0.5)


@pytest.mark.parametrize("entry, shape, expected", [
    ("mlp.0.weights", (4, 2), "(3, any)"), ("mlp.0.bias", (3,), "(2)"),
    ("mlp.1.weights", (2, 2), "(2, 1)"), ("mlp.1.weights", (2, 1, 1), "(2, 1)")])
def test_a_scorer_layer_that_does_not_fit_is_named(entry, shape, expected):
    # each layer takes the previous layer's width, and the last gives one score
    state = RowMlp.fresh(3, (2,), np.random.default_rng(0)).parameters()
    state = {k: v.data for k, v in state.items()} | {entry: np.zeros(shape, np.float32)}
    with pytest.raises(ValueError, match=rf"^'{entry}' has shape {re.escape(str(shape))}, "
                                         rf"the model expects {re.escape(expected)}$"):
        RowMlp.from_state(state, "", 3)


def test_a_missing_scorer_layer_is_named():
    with pytest.raises(KeyError, match="model state has no 'qa.mlp.0.weights'"):
        RowMlp.from_state({"qa.mlp.1.weights": np.zeros((2, 1), np.float32)}, "qa.", None)


@pytest.mark.parametrize("shape", [(7, 6), (2, 8), (3, 0)])
def test_lstm_weights_of_no_lstm_are_named(shape):
    # (input + hidden, 4 * hidden) with both at least 1
    state = {"lstm.weights": np.zeros(shape, np.float32), "lstm.bias": np.zeros(8, np.float32)}
    with pytest.raises(ValueError, match=rf"^'lstm.weights' has shape "
                                         rf"{re.escape(str(shape))}"):
        LstmCell.from_state(state, "")


def test_an_lstm_bias_that_does_not_fit_the_weights_is_named():
    state = LstmCell.fresh(3, 2, np.random.default_rng(0)).parameters()
    state = {"lstm.weights": state["lstm.weights"].data, "lstm.bias": np.zeros(12, np.float32)}
    with pytest.raises(ValueError, match=r"^'lstm.bias' has shape \(12,\), "
                                         r"the model expects \(8\)$"):
        LstmCell.from_state(state, "")


# -- fit -------------------------------------------------------------------------

TARGETS = np.array([[1.0], [2.0], [4.0], [-1.0], [0.5]], dtype=np.float32)


def quadratic(w):
    """A float32 toy model: batch_loss of the mean squared distance from w to targets."""

    def batch_loss(epoch, batch):
        d = ad.add(Tensor(-TARGETS[batch]), w)                       # (b, 1)
        squares = ad.matmul(ad.reshape(d, (1, len(batch))), d)      # (1, 1)
        return ad.reshape(ad.scale(squares, 1.0 / len(batch)), ())

    return batch_loss


def fit_quadratic(w, **kwargs):
    args = {"count": len(TARGETS), "epochs": 3, "batch_size": 2, "learning_rate": 0.1,
            "momentum": 0.5, "order": lambda e: np.arange(len(TARGETS)),
            "batch_loss": quadratic(w), "where": "toy"}
    return fit({"w": w}, **{**args, **kwargs})


def test_fit_calls_order_once_per_epoch_and_walks_its_batches():
    w = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    orders, batches = [], []
    loss = quadratic(w)

    def order(epoch):
        orders.append(epoch)
        return np.roll(np.arange(len(TARGETS)), epoch)

    def batch_loss(epoch, batch):
        batches.append((epoch, batch.tolist()))
        return loss(epoch, batch)

    history = fit_quadratic(w, order=order, batch_loss=batch_loss)
    assert orders == [0, 1, 2]
    assert batches[:3] == [(0, [0, 1]), (0, [2, 3]), (0, [4])]
    assert batches[3:6] == [(1, [4, 0]), (1, [1, 2]), (1, [3])] and len(batches) == 9
    assert sorted(history) == ["epoch_s", "examples_per_s", "loss"]
    assert history["loss"][0] > history["loss"][-1] > 0
    for seconds, rate in zip(history["epoch_s"], history["examples_per_s"]):
        # without validation both come from one clock reading
        assert rate * seconds == pytest.approx(len(TARGETS))


def test_fit_stops_after_patience_and_restores_the_best_epoch_in_place():
    w = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    array = w.data
    scores = iter([0.2, 0.5, 0.4, 0.5, 0.3, 0.9])
    seen = []

    def validate():
        seen.append(w.data.copy())
        return next(scores)

    history = fit_quadratic(w, epochs=6, validate=validate, patience=3)
    # epoch 1 is the best; epochs 2-4 are not better (a tie is not), so 5 run
    assert history["val_accuracy"] == [0.2, 0.5, 0.4, 0.5, 0.3]
    assert len(history["loss"]) == len(history["epoch_s"]) == 5
    assert w.data is array and np.array_equal(w.data, seen[1])
    assert not np.array_equal(seen[1], seen[4])


def test_fit_restores_a_float64_parameter_bit_exactly():
    w = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
    scores = iter([0.2, 0.9, 0.4, 0.5])
    seen = []

    def validate():
        seen.append(w.data.copy())
        return next(scores)

    fit_quadratic(w, epochs=4, validate=validate, patience=2)
    assert w.data.dtype == np.float64
    assert seen[1][0] != np.float32(seen[1][0])  # a float32 round trip would change it
    assert w.data.tobytes() == seen[1].tobytes()


def test_fit_without_patience_runs_every_epoch():
    w = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    history = fit_quadratic(w, epochs=4, validate=lambda: 0.5)
    assert history["val_accuracy"] == [0.5] * 4


def test_fit_names_the_batch_of_a_non_finite_loss():
    w = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    loss = quadratic(w)
    moved = []

    def batch_loss(epoch, batch):
        moved.append(w.data.copy())
        return Tensor(np.float64(np.nan)) if (epoch, batch[0]) == (1, 2) else loss(epoch, batch)

    with pytest.raises(FloatingPointError, match=r"^toy: epoch 1, batch start 2: "
                                                 r"non-finite loss nan$"):
        fit_quadratic(w, batch_loss=batch_loss)
    # the bad batch took no step
    assert np.array_equal(w.data, moved[-1])


@pytest.mark.parametrize("key, value", [("epochs", 0), ("epochs", -1), ("batch_size", 0)])
def test_fit_rejects_a_count_below_one(key, value):
    w = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match=f"^toy: {key} must be at least 1, got {value}$"):
        fit_quadratic(w, **{key: value})
