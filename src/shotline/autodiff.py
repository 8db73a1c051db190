"""Reverse-mode automatic differentiation over dense numpy arrays.

Every trained model in this package runs in float32. The engine also
accepts float64 arrays so numerical oracles (finite differences) can be
run at higher precision in tests.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# False inside no_grad(): op results then record no parents or backward rule.
_grad_enabled = True


@contextmanager
def no_grad():
    """Run ops without building a tape, for inference.

    Results carry no parents and no backward rule, so nothing is held for
    a backward pass; leaf tensors keep their requires_grad. Nests, and the
    previous mode is restored on exit, also on an exception.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """Dense float array plus the links needed to replay the chain rule.

    A tensor produced by an operation remembers its inputs and a local
    backward rule; ``backward()`` replays those rules in reverse
    dependency order. Leaf tensors created with ``requires_grad=True``
    accumulate into ``grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None and isinstance(data, (np.ndarray, np.floating)) \
                and data.dtype in _FLOAT_DTYPES:
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @classmethod
    def _result(cls, data, parents, backward) -> "Tensor":
        out = cls(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, piece: np.ndarray) -> None:
        if self.grad is None:
            # one pass into a buffer the tensor owns, with the values of
            # zeros + piece: a -0 becomes +0 and the piece is cast to our dtype
            self.grad = np.add(piece, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += piece

    def backward(self) -> None:
        """Populate ``grad`` on every reachable leaf tensor with requires_grad.

        The gradient of each intermediate tensor is dropped as soon as its
        rule has run, so ``grad`` is None on every non-leaf afterwards
        (PyTorch's retain_graph=False). Raises if this tensor recorded no
        operation (a leaf, a result of constants, or one computed under
        no_grad): there is nothing to replay.
        """
        if self._backward is None:
            raise RuntimeError("backward() on a tensor that recorded no operation "
                               "(a leaf, constants only, or computed under no_grad)")
        order: list[Tensor] = []
        seen = {id(self)}
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
                node.grad = None

    # -- conveniences -------------------------------------------------

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


# -- core operations ----------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a 2-d ``a`` with a 2-d ``b``."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return Tensor._result(a.data @ b.data, (a, b), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Numerically stable row softmax of a 2-d tensor."""
    if x.data.ndim != 2:
        raise ValueError(f"softmax_rows expects a matrix, got shape {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        x._accumulate(y * (g - inner))

    return Tensor._result(y, (x,), backward)


def nll_loss(probs: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean negative log of ``probs[i, targets[i]]``, clamped at 1e-12."""
    if probs.data.ndim != 2:
        raise ValueError(f"nll_loss expects a matrix, got shape {probs.data.shape}")
    rows, cols = probs.data.shape
    idx = np.asarray(targets, dtype=np.int64)
    if idx.shape != (rows,):
        raise ValueError(f"nll_loss: {rows} rows but {idx.shape} targets")
    if idx.size and (idx.min() < 0 or idx.max() >= cols):
        raise IndexError(f"nll_loss: target out of range for {cols} classes")
    picked = probs.data[np.arange(rows), idx]
    clamped = np.maximum(picked, 1e-12)
    loss = np.asarray(-np.log(clamped).mean(), dtype=probs.data.dtype)

    def backward(g):
        d = np.zeros_like(probs.data)
        d[np.arange(rows), idx] = np.where(picked >= 1e-12, -1.0 / (clamped * rows), 0.0) * g
        probs._accumulate(d)

    return Tensor._result(loss, (probs,), backward)


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy from logits, numerically stable.

    ``targets`` is a constant 0/1 array of the same shape.
    """
    t = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=logits.data.dtype)
    if t.shape != logits.data.shape:
        raise ValueError(f"bce_with_logits shape mismatch: {logits.data.shape} vs {t.shape}")
    x = logits.data
    per_label = np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))
    loss = np.asarray(per_label.mean(), dtype=x.dtype)

    def backward(g):
        logits._accumulate((sigmoid_values(x) - t) / x.size * g)

    return Tensor._result(loss, (logits,), backward)


# -- elementwise and structural ops --------------------------------------


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic of a plain array (no tape).

    exp only sees -|x|: the result is 1 / (1 + exp(-x)) where x >= 0 and
    exp(x) / (1 + exp(x)) elsewhere, without masked indexing.
    """
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def backward(g):
        x._accumulate(g * (1.0 - y * y))

    return Tensor._result(y, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    y = sigmoid_values(x.data)

    def backward(g):
        x._accumulate(g * y * (1.0 - y))

    return Tensor._result(y, (x,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-d bias added to every row of a matrix."""
    bias = a.data.ndim == 2 and b.data.ndim == 1 and b.data.shape[0] == a.data.shape[1]
    if not bias and a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0) if bias else g)

    return Tensor._result(a.data + b.data, (a, b), backward)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"hadamard shape mismatch: {a.data.shape} vs {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return Tensor._result(a.data * b.data, (a, b), backward)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Join two matrices with equal row counts side by side."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"concat_cols shape mismatch: {a.data.shape} vs {b.data.shape}")
    split = a.data.shape[1]

    def backward(g):
        if a.requires_grad:
            a._accumulate(g[:, :split])
        if b.requires_grad:
            b._accumulate(g[:, split:])

    return Tensor._result(np.concatenate([a.data, b.data], axis=1), (a, b), backward)


def scale(x: Tensor, factor: float) -> Tensor:
    def backward(g):
        x._accumulate(g * factor)

    return Tensor._result(x.data * factor, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    def backward(g):
        x._accumulate(np.broadcast_to(g, x.data.shape))

    return Tensor._result(np.asarray(x.data.sum(), dtype=x.data.dtype), (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    def backward(g):
        x._accumulate(g.reshape(x.data.shape))

    return Tensor._result(x.data.reshape(shape), (x,), backward)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise ValueError(f"slice_rows expects a matrix, got shape {x.data.shape}")

    def backward(g):
        d = np.zeros_like(x.data)
        d[start:stop] = g
        x._accumulate(d)

    return Tensor._result(x.data[start:stop].copy(), (x,), backward)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise ValueError(f"slice_cols expects a matrix, got shape {x.data.shape}")

    def backward(g):
        d = np.zeros_like(x.data)
        d[:, start:stop] = g
        x._accumulate(d)

    return Tensor._result(x.data[:, start:stop].copy(), (x,), backward)


# -- recurrent -----------------------------------------------------------


def lstm_sequence(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Every step's hidden state of an LSTM run over (batch, steps, input_dim).

    ``weights`` is the fused (input_dim + hidden, 4 * hidden) matrix (input
    rows first, then recurrent rows) and ``bias`` its (4 * hidden,) bias;
    the gate order is input, forget, output, candidate. Each sequence
    starts from a zero state. Returns (batch, steps, hidden).

    The input projection of all steps is one matmul outside the time
    loop, so each step costs one recurrent matmul plus the gate math. The
    backward pass runs backpropagation through time in numpy and ends with
    one matmul each for the input weights, the recurrent weights and x.
    Trailing padded steps whose upstream gradient is zero contribute
    exactly 0 to every gradient.
    """
    if x.data.ndim != 3:
        raise ValueError(f"lstm_sequence expects (batch, steps, input_dim), got {x.data.shape}")
    batch, steps, in_dim = x.data.shape
    hidden = weights.data.shape[1] // 4 if weights.data.ndim == 2 else 0
    if (hidden < 1 or weights.data.shape != (in_dim + hidden, 4 * hidden)
            or bias.data.shape != (4 * hidden,)):
        raise ValueError(f"lstm_sequence: weights {weights.data.shape} and bias "
                         f"{bias.data.shape} do not fit input dimension {in_dim}")
    if steps == 0:
        raise ValueError("lstm_sequence: empty input sequence")
    h3 = 3 * hidden
    w_x, w_h = weights.data[:in_dim], weights.data[in_dim:]
    x_steps = x.data.transpose(1, 0, 2).reshape(steps * batch, in_dim)  # step-major rows
    # gates[t] holds step t's activated gates; it starts as the input projection
    gates = (x_steps @ w_x + bias.data).reshape(steps, batch, 4 * hidden)
    cells = np.empty((steps, batch, hidden), dtype=gates.dtype)
    tanh_cells = np.empty_like(cells)
    states = np.empty_like(cells)
    for t in range(steps):
        z = gates[t]
        if t:
            z += states[t - 1] @ w_h
        z[:, :h3] = sigmoid_values(z[:, :h3])
        np.tanh(z[:, h3:], out=z[:, h3:])
        np.multiply(z[:, :hidden], z[:, h3:], out=cells[t])
        if t:
            cells[t] += z[:, hidden:2 * hidden] * cells[t - 1]
        np.tanh(cells[t], out=tanh_cells[t])
        np.multiply(z[:, 2 * hidden:h3], tanh_cells[t], out=states[t])

    def backward(g):
        g = g.transpose(1, 0, 2)
        # all steps' activation derivatives before the loop multiplies in the
        # upstream terms: s(1 - s) and 1 - cand^2 in d_gates, and 1 - tanh(c)^2
        d_gates = np.subtract(1.0, gates)
        d_gates[:, :, :h3] *= gates[:, :, :h3]
        np.multiply(gates[:, :, h3:], gates[:, :, h3:], out=d_gates[:, :, h3:])
        np.subtract(1.0, d_gates[:, :, h3:], out=d_gates[:, :, h3:])
        d_tanh_c = 1.0 - tanh_cells * tanh_cells
        dh = np.zeros((batch, hidden), dtype=gates.dtype)
        dc = np.zeros_like(dh)
        for t in range(steps - 1, -1, -1):
            z, dz = gates[t], d_gates[t]
            dh += g[t]
            dc += dh * z[:, 2 * hidden:h3] * d_tanh_c[t]
            dz[:, :hidden] *= dc * z[:, h3:]
            if t:
                dz[:, hidden:2 * hidden] *= dc * cells[t - 1]
            else:
                dz[:, hidden:2 * hidden] = 0.0
            dz[:, 2 * hidden:h3] *= dh * tanh_cells[t]
            dz[:, h3:] *= dc * z[:, :hidden]
            if t:
                dh = dz @ w_h.T
                dc *= z[:, hidden:2 * hidden]
        d_flat = d_gates.reshape(steps * batch, 4 * hidden)
        if weights.requires_grad:
            dw = np.zeros_like(weights.data)
            dw[:in_dim] = x_steps.T @ d_flat
            if steps > 1:
                dw[in_dim:] = (states[:-1].reshape(-1, hidden).T
                               @ d_gates[1:].reshape(-1, 4 * hidden))
            weights._accumulate(dw)
        if bias.requires_grad:
            bias._accumulate(d_flat.sum(axis=0))
        if x.requires_grad:
            x._accumulate((d_flat @ w_x.T).reshape(steps, batch, in_dim).transpose(1, 0, 2))

    out = np.ascontiguousarray(states.transpose(1, 0, 2))
    return Tensor._result(out, (x, weights, bias), backward)


# -- pair scorer ---------------------------------------------------------


def pair_mlp(context: Tensor, candidates: Tensor, layers) -> Tensor:
    """An MLP over [context | candidate] rows: (q, c) context rows, (q * n, d)
    candidate rows, n per context row in order. Returns (q * n, out_width).

    ``layers`` is a sequence of (weights, bias) tensors, the first weights
    with c + d rows. Hidden layers use tanh, the last is linear. The first
    layer is applied in factored form, each context row multiplied once:
    (repeat(context @ W[:c], n) + candidates @ W[c:]) + b, summed in that
    order. Every layer works in place in one buffer, and the backward is
    written by hand. It overwrites the saved tanh outputs to form 1 - y^2,
    so a second backward() through the node raises.
    """
    weights, bias = layers[0]
    if context.data.ndim != 2 or candidates.data.ndim != 2:
        raise ValueError(f"pair_mlp expects matrices, got {context.data.shape} "
                         f"and {candidates.data.shape}")
    (q, c), (rows, d) = context.data.shape, candidates.data.shape
    if c + d != weights.data.shape[0]:
        raise ValueError(f"context width {c} plus candidate width {d} is not the "
                         f"scorer's input width {weights.data.shape[0]}")
    if q == 0 or rows % q:
        raise ValueError(f"{rows} candidate rows do not split evenly over "
                         f"{q} context rows")
    n = rows // q
    w_ctx, w_cand = weights.data[:c], weights.data[c:]
    per_context = context.data @ w_ctx
    out = candidates.data @ w_cand
    grouped = out.reshape(q, n, -1)
    grouped += per_context[:, None]
    out += bias.data
    saved = []  # each hidden layer's tanh output, the input of the next layer
    for w, b in layers[1:]:
        np.tanh(out, out=out)
        saved.append(out)
        out = out @ w.data
        out += b.data

    def backward(g):
        nonlocal saved
        if saved is None:
            raise RuntimeError("pair_mlp: backward() through this node a second time; "
                               "the first overwrote its saved activations")
        for (w, b), y in zip(reversed(layers[1:]), reversed(saved)):
            if w.requires_grad:
                w._accumulate(y.T @ g)
            if b.requires_grad:
                b._accumulate(g.sum(axis=0))
            # a one-column layer's K=1 product is exact elementwise, and far
            # cheaper than the GEMM
            g = g * w.data.T if w.data.shape[1] == 1 else g @ w.data.T
            np.multiply(y, y, out=y)
            np.subtract(1.0, y, out=y)
            g *= y
        saved = None
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        g_context = g.reshape(q, n, -1).sum(axis=1)
        if weights.requires_grad:
            dw = np.empty_like(weights.data)
            np.matmul(context.data.T, g_context, out=dw[:c])
            np.matmul(candidates.data.T, g, out=dw[c:])
            weights._accumulate(dw)
        if context.requires_grad:
            context._accumulate(g_context @ w_ctx.T)
        if candidates.requires_grad:
            candidates._accumulate(g @ w_cand.T)

    parents = (context, candidates, *(p for layer in layers for p in layer))
    return Tensor._result(out, parents, backward)


# -- optimization --------------------------------------------------------


class SgdOptimizer:
    """SGD with momentum velocity buffers; momentum 0 is plain SGD."""

    def __init__(self, params, learning_rate: float, momentum: float):
        if not 0 < learning_rate < np.inf:  # NaN fails too
            raise ValueError(f"learning_rate must be finite and positive, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.params = list(params.values()) if isinstance(params, dict) else list(params)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data -= self.learning_rate * v

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def finite_rows(rows: np.ndarray, ids, what: str) -> np.ndarray:
    """``rows`` as given when every value is finite; otherwise FloatingPointError
    naming the id of the first row that is not, so a NaN distribution cannot
    reach an argmax or a results file."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise FloatingPointError(f"{ids[int(np.argmin(finite))]}: non-finite {what}")
    return rows
