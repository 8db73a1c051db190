"""Shared numerical check helpers."""
import numpy as np

from shotline import autodiff as ad

GRAD_H = 1e-3
GRAD_TOL = 1e-3


def rel_err(a, b) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, 1e-6)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float((np.abs(a - b) / denom).max())


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
        fd = ad.finite_difference_gradient(lambda _x: build_loss(), p, h)
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
