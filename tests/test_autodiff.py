import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotline import autodiff as ad
from shotline.autodiff import SgdOptimizer, Tensor
from shotline.nn import pooling_matrix

from _util import (check_gradients, final_step_rows, finite_difference_gradient, rel_err,
                   use_reference_engine)


def t64(values, requires_grad=True):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


def rand64(rng, shape, scale=1.0):
    return Tensor(rng.normal(0, scale, shape), requires_grad=True)


# -- matmul ------------------------------------------------------------------

def test_matmul_identity():
    out = ad.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, np.array([[3.0], [4.0]], dtype=np.float32))


def test_matmul_hand_case():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, np.array([[11.0]], dtype=np.float32))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


@pytest.mark.parametrize("seed", range(10))
def test_matmul_gradients(seed):
    rng = np.random.default_rng(1000 + seed)
    a = rand64(rng, (3, 4))
    b = rand64(rng, (4, 2))
    w = rng.normal(0, 1, (3, 2))
    check_gradients(lambda: ad.sum_all(ad.hadamard(ad.matmul(a, b), Tensor(w))), [a, b])


# -- softmax ------------------------------------------------------------------

def test_softmax_uniform_row():
    out = ad.softmax_rows(Tensor(np.zeros((1, 4))))
    assert np.allclose(out.data, 0.25)


def test_softmax_analytic():
    out = ad.softmax_rows(Tensor([[0.0, math.log(3.0)]]))
    assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-6)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_softmax_rows_sum_to_one_and_shift_invariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 3, (4, 6)).astype(np.float32)
    y = ad.softmax_rows(Tensor(x)).data
    assert np.all(np.abs(y.sum(axis=1) - 1.0) < 1e-6)
    shifted = ad.softmax_rows(Tensor(x + rng.normal(0, 5, (4, 1)).astype(np.float32))).data
    assert np.max(np.abs(y - shifted)) < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_softmax_gradients(seed):
    rng = np.random.default_rng(2000 + seed)
    x = rand64(rng, (2, 5))
    w = rng.normal(0, 1, (2, 5))
    check_gradients(lambda: ad.sum_all(ad.hadamard(ad.softmax_rows(x), Tensor(w))), [x])


# -- nll ----------------------------------------------------------------------

def test_nll_perfect_prediction_is_zero():
    probs = Tensor([[0.0, 1.0, 0.0]])
    assert ad.nll_loss(probs, [1]).item() == 0.0


def test_nll_uniform_32_classes():
    probs = Tensor(np.full((1, 32), 1.0 / 32))
    assert abs(ad.nll_loss(probs, [0]).item() - math.log(32)) < 1e-5


def test_nll_target_out_of_range():
    with pytest.raises(IndexError):
        ad.nll_loss(Tensor(np.full((1, 4), 0.25)), [4])


@pytest.mark.parametrize("seed", range(10))
def test_softmax_nll_gradient_matches_analytic(seed):
    rng = np.random.default_rng(3000 + seed)
    logits = rand64(rng, (3, 5), scale=2.0)
    targets = rng.integers(0, 5, size=3)
    loss = ad.nll_loss(ad.softmax_rows(logits), targets)
    loss.backward()
    soft = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    soft /= soft.sum(axis=1, keepdims=True)
    hot = np.zeros_like(soft)
    hot[np.arange(3), targets] = 1.0
    assert rel_err(logits.grad, (soft - hot) / 3) < 1e-6
    check_gradients(lambda: ad.nll_loss(ad.softmax_rows(logits), targets), [logits])


# -- elementwise --------------------------------------------------------------

def test_tanh_sigmoid_at_zero():
    assert ad.tanh(Tensor([0.0])).data[0] == 0.0
    assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5


def test_concat_cols_blocks():
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    b = np.arange(10, dtype=np.float32).reshape(2, 5)
    out = ad.concat_cols(Tensor(a), Tensor(b))
    assert out.data.shape == (2, 8)
    assert np.array_equal(out.data[:, :3], a)
    assert np.array_equal(out.data[:, 3:], b)


def test_add_bias_broadcast():
    x = Tensor(np.ones((3, 2), dtype=np.float32))
    b = Tensor(np.array([1.0, -1.0], dtype=np.float32))
    assert np.array_equal(ad.add(x, b).data, np.array([[2.0, 0.0]] * 3, dtype=np.float32))


def test_add_shape_error():
    with pytest.raises(ValueError, match="shape mismatch"):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


@pytest.mark.parametrize("seed", range(10))
def test_elementwise_gradients(seed):
    rng = np.random.default_rng(4000 + seed)
    x = rand64(rng, (3, 4))
    y = rand64(rng, (3, 4))
    bias = rand64(rng, (4,))
    w1 = Tensor(rng.normal(0, 1, (3, 4)))
    w_wide = Tensor(rng.normal(0, 1, (3, 8)))
    w_rows = Tensor(rng.normal(0, 1, (2, 4)))
    w_cols = Tensor(rng.normal(0, 1, (3, 2)))
    cases = [
        (lambda: ad.sum_all(ad.hadamard(ad.tanh(x), w1)), [x]),
        (lambda: ad.sum_all(ad.hadamard(ad.sigmoid(x), w1)), [x]),
        (lambda: ad.sum_all(ad.hadamard(ad.add(x, y), w1)), [x, y]),
        (lambda: ad.sum_all(ad.hadamard(ad.add(x, bias), w1)), [x, bias]),
        (lambda: ad.sum_all(ad.hadamard(ad.hadamard(x, y), w1)), [x, y]),
        (lambda: ad.sum_all(ad.hadamard(ad.concat_cols(x, y), w_wide)), [x, y]),
        (lambda: ad.sum_all(ad.scale(x, 0.7)), [x]),
        (lambda: ad.sum_all(ad.reshape(x, (4, 3))), [x]),
        (lambda: ad.sum_all(ad.hadamard(ad.slice_rows(x, 1, 3), w_rows)), [x]),
        (lambda: ad.sum_all(ad.hadamard(ad.slice_cols(x, 1, 3), w_cols)), [x]),
    ]
    for build, params in cases:
        check_gradients(build, params)


def test_reuse_accumulates_gradients():
    x = t64([1.0, 2.0, 3.0])
    loss = ad.add(ad.sum_all(ad.hadamard(x, x)), ad.sum_all(x))
    loss.backward()
    assert np.allclose(x.grad, 2 * x.data + 1)


# -- bce ------------------------------------------------------------------------

def test_bce_logit_zero_target_one():
    loss = ad.bce_with_logits(Tensor([0.0]), np.array([1.0]))
    assert abs(loss.item() - math.log(2)) < 1e-6


def test_bce_confident_correct_is_tiny():
    loss = ad.bce_with_logits(Tensor([20.0]), np.array([1.0]))
    assert loss.item() < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_bce_gradient_is_sigmoid_minus_target(seed):
    rng = np.random.default_rng(5000 + seed)
    logits = rand64(rng, (6,), scale=2.0)
    targets = rng.integers(0, 2, size=6).astype(np.float64)
    loss = ad.bce_with_logits(logits, targets)
    loss.backward()
    expected = (1.0 / (1.0 + np.exp(-logits.data)) - targets) / 6
    assert rel_err(logits.grad, expected) < 1e-9
    check_gradients(lambda: ad.bce_with_logits(logits, targets), [logits])


# -- lstm sequence -----------------------------------------------------------------

def ragged_batch(rng, lengths, steps, dim):
    """(batch, steps, dim) float64 inputs, zero past each sequence's length."""
    x = rng.normal(0, 1, (len(lengths), steps, dim))
    for b, n in enumerate(lengths):
        x[b, n:] = 0.0
    return Tensor(x, requires_grad=True)


@pytest.mark.parametrize("mode", ["final", "mean"])
def test_lstm_sequence_gradients_on_ragged_padded_batch(mode):
    rng = np.random.default_rng(40 if mode == "final" else 41)
    lengths, steps, dim, hidden = [5, 3, 1], 5, 3, 4
    x = ragged_batch(rng, lengths, steps, dim)
    weights = rand64(rng, (dim + hidden, 4 * hidden), 0.5)
    bias = rand64(rng, (4 * hidden,), 0.3)
    rows = (final_step_rows(lengths, steps) if mode == "final"
            else pooling_matrix(lengths, steps))
    pooling = Tensor(rows.astype(np.float64))
    coef = Tensor(rng.normal(0, 1, (3, hidden)))

    def loss():
        states = ad.lstm_sequence(x, weights, bias)
        pooled = ad.matmul(pooling, ad.reshape(states, (3 * steps, hidden)))
        return ad.sum_all(ad.hadamard(pooled, coef))

    check_gradients(loss, [x, weights, bias], h=1e-5, tol=1e-6)
    for b, n in enumerate(lengths):
        assert not x.grad[b, n:].any()


def test_lstm_sequence_gradients_from_every_step():
    rng = np.random.default_rng(42)
    x = ragged_batch(rng, [4, 2], 4, 3)
    weights = rand64(rng, (3 + 2, 8), 0.5)
    bias = rand64(rng, (8,), 0.3)
    coef = Tensor(rng.normal(0, 1, (2, 4, 2)))
    check_gradients(lambda: ad.sum_all(ad.hadamard(ad.lstm_sequence(x, weights, bias), coef)),
                    [x, weights, bias], h=1e-5, tol=1e-6)


def test_lstm_sequence_padding_leaves_real_steps_unchanged():
    rng = np.random.default_rng(43)
    weights = Tensor(rng.normal(0, 0.5, (5, 8)).astype(np.float32))
    bias = Tensor(rng.normal(0, 0.3, 8).astype(np.float32))
    seq = rng.normal(0, 1, (1, 3, 3)).astype(np.float32)
    padded = np.concatenate([seq, rng.normal(0, 1, (1, 4, 3)).astype(np.float32)], axis=1)
    short = ad.lstm_sequence(Tensor(seq), weights, bias).data
    long = ad.lstm_sequence(Tensor(padded), weights, bias).data
    assert long.shape == (1, 7, 2)
    assert np.allclose(long[:, :3], short, rtol=0, atol=1e-6)


def per_step_lstm_backward(x, weights, bias, g):
    """Oracle: the BPTT loop that takes every activation derivative inside the
    step loop. Returns the states and the gradients of x, weights and bias."""
    batch, steps, in_dim = x.shape
    hidden = weights.shape[1] // 4
    h3 = 3 * hidden
    w_x, w_h = weights[:in_dim], weights[in_dim:]
    x_steps = x.transpose(1, 0, 2).reshape(steps * batch, in_dim)
    gates = (x_steps @ w_x + bias).reshape(steps, batch, 4 * hidden)
    cells = np.empty((steps, batch, hidden), dtype=gates.dtype)
    tanh_cells, states = np.empty_like(cells), np.empty_like(cells)
    for t in range(steps):
        z = gates[t]
        if t:
            z += states[t - 1] @ w_h
        z[:, :h3] = ad.sigmoid_values(z[:, :h3])
        np.tanh(z[:, h3:], out=z[:, h3:])
        np.multiply(z[:, :hidden], z[:, h3:], out=cells[t])
        if t:
            cells[t] += z[:, hidden:2 * hidden] * cells[t - 1]
        np.tanh(cells[t], out=tanh_cells[t])
        np.multiply(z[:, 2 * hidden:h3], tanh_cells[t], out=states[t])
    g = g.transpose(1, 0, 2)
    d_gates = np.empty_like(gates)
    dh = np.zeros((batch, hidden), dtype=gates.dtype)
    dc = np.zeros_like(dh)
    for t in range(steps - 1, -1, -1):
        z, dz, tanh_c = gates[t], d_gates[t], tanh_cells[t]
        dh += g[t]
        dc += dh * z[:, 2 * hidden:h3] * (1.0 - tanh_c * tanh_c)
        np.multiply(dc, z[:, h3:], out=dz[:, :hidden])
        if t:
            np.multiply(dc, cells[t - 1], out=dz[:, hidden:2 * hidden])
        else:
            dz[:, hidden:2 * hidden] = 0.0
        np.multiply(dh, tanh_c, out=dz[:, 2 * hidden:h3])
        dz[:, :h3] *= z[:, :h3] * (1.0 - z[:, :h3])
        np.multiply(dc * z[:, :hidden], 1.0 - z[:, h3:] * z[:, h3:], out=dz[:, h3:])
        if t:
            dh = dz @ w_h.T
            dc *= z[:, hidden:2 * hidden]
    d_flat = d_gates.reshape(steps * batch, 4 * hidden)
    dw = np.zeros_like(weights)
    dw[:in_dim] = x_steps.T @ d_flat
    if steps > 1:
        dw[in_dim:] = states[:-1].reshape(-1, hidden).T @ d_gates[1:].reshape(-1, 4 * hidden)
    dx = (d_flat @ w_x.T).reshape(steps, batch, in_dim).transpose(1, 0, 2)
    return states.transpose(1, 0, 2), dx, dw, d_flat.sum(axis=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch, steps, in_dim, hidden", [(16, 40, 8, 64), (4, 8, 6, 16),
                                                          (3, 1, 4, 5)])
def test_lstm_sequence_backward_is_bit_identical_to_the_per_step_loop(dtype, batch, steps,
                                                                       in_dim, hidden):
    rng = np.random.default_rng(44)
    x = Tensor(rng.normal(0, 1, (batch, steps, in_dim)).astype(dtype), requires_grad=True)
    x.data[0, steps // 2:] = 0.0  # a padded sequence
    weights = Tensor(rng.normal(0, 0.5, (in_dim + hidden, 4 * hidden)).astype(dtype),
                     requires_grad=True)
    bias = Tensor(rng.normal(0, 0.3, 4 * hidden).astype(dtype), requires_grad=True)
    g = rng.normal(0, 1, (batch, steps, hidden)).astype(dtype)
    g[0, steps // 2:] = 0.0
    states = ad.lstm_sequence(x, weights, bias)
    ad.sum_all(ad.hadamard(states, Tensor(g))).backward()
    want = per_step_lstm_backward(x.data, weights.data, bias.data, g)
    for got, expected in zip((states.data, x.grad, weights.grad, bias.grad), want):
        assert got.dtype == expected.dtype
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_lstm_sequence_validates_shapes():
    weights = Tensor(np.zeros((5, 8), dtype=np.float32))
    bias = Tensor(np.zeros(8, dtype=np.float32))
    with pytest.raises(ValueError, match="batch, steps"):
        ad.lstm_sequence(Tensor(np.zeros((3, 3), dtype=np.float32)), weights, bias)
    with pytest.raises(ValueError, match="do not fit"):
        ad.lstm_sequence(Tensor(np.zeros((1, 2, 4), dtype=np.float32)), weights, bias)
    with pytest.raises(ValueError, match="empty"):
        ad.lstm_sequence(Tensor(np.zeros((1, 0, 3), dtype=np.float32)), weights, bias)


def test_pooling_matrix_rows():
    mean = pooling_matrix([3, 1], 3)
    assert mean.shape == (2, 6)
    assert np.allclose(mean, [[1 / 3, 1 / 3, 1 / 3, 0, 0, 0], [0, 0, 0, 1, 0, 0]])
    for lengths in ([4], [0], []):
        with pytest.raises(ValueError, match="lengths"):
            pooling_matrix(lengths, 3)


# -- no_grad ---------------------------------------------------------------------

def test_no_grad_results_record_no_tape():
    rng = np.random.default_rng(40)
    w = rand64(rng, (3, 2))
    x = rand64(rng, (4, 3))
    with ad.no_grad():
        out = ad.sum_all(ad.tanh(ad.matmul(x, w)))
        seq = ad.lstm_sequence(rand64(rng, (2, 3, 2)), rand64(rng, (4, 8)), rand64(rng, (8,)))
    for result in (out, seq):
        assert result._backward is None and result._parents == ()
        assert not result.requires_grad
    # the values are the taped ones
    assert out.data == ad.sum_all(ad.tanh(ad.matmul(x, w))).data


def test_no_grad_leaves_leaf_tensors_untouched():
    w = t64([[1.0, 2.0]])
    with ad.no_grad():
        ad.matmul(t64([[3.0]], requires_grad=False), w)
        assert w.requires_grad and w.grad is None
    assert w.requires_grad and w.grad is None


def test_no_grad_nests_and_restores_the_outer_mode():
    w = t64([2.0])
    with ad.no_grad():
        with ad.no_grad():
            assert ad.scale(w, 3.0)._backward is None
        assert ad.scale(w, 3.0)._backward is None
    loss = ad.sum_all(ad.scale(w, 3.0))
    loss.backward()
    assert np.array_equal(w.grad, [3.0])


def test_no_grad_restores_the_mode_after_an_exception():
    w = t64([2.0])
    with pytest.raises(ValueError, match="add shape mismatch"):
        with ad.no_grad():
            ad.add(w, t64([1.0, 2.0]))
    assert ad.scale(w, 3.0)._backward is not None


def test_backward_without_a_recorded_operation_raises():
    w = t64([2.0])
    with ad.no_grad():
        loss = ad.sum_all(ad.scale(w, 3.0))
    with pytest.raises(RuntimeError, match="recorded no operation"):
        loss.backward()
    with pytest.raises(RuntimeError, match="recorded no operation"):
        ad.sum_all(t64([1.0], requires_grad=False)).backward()
    with pytest.raises(RuntimeError, match="recorded no operation"):
        w.backward()
    assert w.grad is None


# -- finite differences ----------------------------------------------------------

def test_fd_quadratic():
    x = t64([1.0, 2.0])
    fd = finite_difference_gradient(lambda t: ad.sum_all(ad.hadamard(t, t)), x)
    assert np.allclose(fd, [2.0, 4.0], atol=1e-5)


def test_fd_tanh_at_zero():
    x = t64([0.0, 0.0, 0.0])
    fd = finite_difference_gradient(lambda t: ad.sum_all(ad.tanh(t)), x)
    assert np.allclose(fd, 1.0, atol=1e-5)


def test_fd_matches_tape_on_composed_mlp():
    rng = np.random.default_rng(42)
    x = rand64(rng, (2, 3))
    w1 = rand64(rng, (3, 4))
    b1 = rand64(rng, (4,))
    w2 = rand64(rng, (4, 1))

    def loss():
        hidden = ad.tanh(ad.add(ad.matmul(x, w1), b1))
        return ad.sum_all(ad.matmul(hidden, w2))

    check_gradients(loss, [x, w1, b1, w2])


# -- optimizer ---------------------------------------------------------------------

def test_sgd_zero_momentum_exact_update():
    p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    p.grad = np.array([0.5, -0.25], dtype=np.float32)
    before = p.data.copy()
    opt = SgdOptimizer([p], learning_rate=0.1, momentum=0.0)
    opt.step()
    assert np.array_equal(p.data, before - np.float32(0.1) * np.array([0.5, -0.25], dtype=np.float32))


def test_sgd_descends_convex_quadratic():
    # f(p) = sum((p - c)^2), curvature 2: any lr < 1 descends
    c = Tensor(np.array([3.0, -1.0, 0.5], dtype=np.float32))
    p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    opt = SgdOptimizer([p], learning_rate=0.2, momentum=0.0)
    losses = []
    for _ in range(10):
        diff = ad.add(p, ad.scale(c, -1.0))
        loss = ad.sum_all(ad.hadamard(diff, diff))
        opt.zero_grad()
        loss.backward()
        opt.step()
        losses.append(loss.item())
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_sgd_validates_hyperparameters():
    p = Tensor(np.zeros(1), requires_grad=True)
    for learning_rate in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            SgdOptimizer([p], learning_rate=learning_rate, momentum=0.0)
    with pytest.raises(ValueError):
        SgdOptimizer([p], learning_rate=0.01, momentum=1.0)


# -- determinism ----------------------------------------------------------------

def test_backward_leaves_finite_grads_everywhere():
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(0, 1, (3, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(0, 1, (4, 2)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(0, 1, 2).astype(np.float32), requires_grad=True)
    probs = ad.softmax_rows(ad.add(ad.matmul(ad.tanh(x), w), b))
    loss = ad.nll_loss(probs, [0, 1, 0])
    loss.backward()
    for p in (x, w, b):
        assert p.grad is not None
        assert p.grad.shape == p.data.shape
        assert np.isfinite(p.grad).all()


def test_backward_is_bitwise_deterministic():
    rng = np.random.default_rng(11)
    x_np = rng.normal(0, 1, (4, 5)).astype(np.float32)
    w_np = rng.normal(0, 1, (5, 3)).astype(np.float32)

    def run():
        x = Tensor(x_np.copy(), requires_grad=True)
        w = Tensor(w_np.copy(), requires_grad=True)
        probs = ad.softmax_rows(ad.matmul(ad.tanh(x), w))
        loss = ad.nll_loss(probs, [0, 1, 2, 0])
        loss.backward()
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


# -- gradient buffers ---------------------------------------------------------------

@pytest.mark.parametrize("data, piece", [
    pytest.param(np.ones(4, dtype=np.float32),
                 np.array([-0.0, 0.0, -1.5, 2.0], dtype=np.float32), id="negative-zero"),
    pytest.param(np.ones((3, 4), dtype=np.float32),
                 np.broadcast_to(np.array([-0.0, 0.25, -3.0, 7.5], dtype=np.float32), (3, 4)),
                 id="broadcast"),
    pytest.param(np.ones((2, 3), dtype=np.float32),
                 np.array([[0.1, -0.0, 1e-46], [1 / 3, -1e38, 5e-324]], dtype=np.float64),
                 id="float64-into-float32"),
    pytest.param(np.ones((2, 2), dtype=np.float64),
                 np.array([[0.1, -0.0], [1e-45, -3.4e38]], dtype=np.float32),
                 id="float32-into-float64"),
])
def test_first_accumulate_equals_zeros_plus_piece(data, piece):
    expected = np.zeros_like(data)
    expected += piece
    t = Tensor(data)
    t._accumulate(piece)
    assert t.grad.dtype == data.dtype and t.grad.shape == data.shape
    assert t.grad.tobytes() == expected.tobytes()
    assert not np.shares_memory(t.grad, piece)
    t._accumulate(piece)
    expected += piece
    assert t.grad.tobytes() == expected.tobytes()


def _mlp_loss(rng):
    x = Tensor(rng.normal(0, 1, (5, 4)).astype(np.float32), requires_grad=True)
    w1 = Tensor(rng.normal(0, 1, (4, 6)).astype(np.float32), requires_grad=True)
    b1 = Tensor(rng.normal(0, 1, 6).astype(np.float32), requires_grad=True)
    w2 = Tensor(rng.normal(0, 1, (6, 3)).astype(np.float32), requires_grad=True)
    hidden = ad.tanh(ad.add(ad.matmul(x, w1), b1))
    # hidden feeds two branches, so its gradient is accumulated twice
    logits = ad.add(ad.matmul(hidden, w2), ad.matmul(ad.scale(hidden, 0.5), w2))
    loss = ad.nll_loss(ad.softmax_rows(logits), [0, 2, 1, 1, 0])
    return loss, [x, w1, b1, w2], [hidden, logits, loss]


def test_backward_frees_intermediate_gradients_and_keeps_leaf_ones(monkeypatch):
    loss, leaves, inner = _mlp_loss(np.random.default_rng(5))
    loss.backward()
    assert all(t.grad is None for t in inner)
    got = [p.grad.copy() for p in leaves]
    use_reference_engine(monkeypatch)
    loss, leaves, inner = _mlp_loss(np.random.default_rng(5))
    loss.backward()
    assert all(t.grad is not None for t in inner)
    for g, p in zip(got, leaves):
        assert g.tobytes() == p.grad.tobytes()
