"""Small trainable building blocks shared by the sequence and QA models."""
from __future__ import annotations

import time

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def uniform_init(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Uniform weights in +-1/sqrt(shape[0]), the usual recurrent-net range."""
    bound = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class LstmCell:
    """Single-layer LSTM with fused gate weights.

    Gate order in the fused matrices is input, forget, output, candidate.
    The forget-gate bias starts at 1 so early training does not wash out
    the cell state.

    ``fold`` runs whole sequences through the fused ``lstm_sequence`` op;
    every model uses it, and a reader takes the last step or pools the
    steps itself. ``step`` builds one update from primitive ops and is
    kept only as the reference the op is tested against.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError("input_dim and hidden_dim must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weights = Tensor(uniform_init(rng, (input_dim + hidden_dim, 4 * hidden_dim)),
                              requires_grad=True)
        bias = np.zeros(4 * hidden_dim, dtype=np.float32)
        bias[hidden_dim:2 * hidden_dim] = 1.0
        self.bias = Tensor(bias, requires_grad=True)

    def step(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """One update: rows of x are batch items; h, c are matching states."""
        if x.data.ndim != 2 or x.data.shape[1] != self.input_dim:
            raise ValueError(f"expected input (batch, {self.input_dim}), got {x.data.shape}")
        if h.data.shape != (x.data.shape[0], self.hidden_dim):
            raise ValueError(f"state shape {h.data.shape} does not match input {x.data.shape}")
        hd = self.hidden_dim
        z = ad.add(ad.matmul(ad.concat_cols(x, h), self.weights), self.bias)
        gate_in = ad.sigmoid(ad.slice_cols(z, 0, hd))
        gate_forget = ad.sigmoid(ad.slice_cols(z, hd, 2 * hd))
        gate_out = ad.sigmoid(ad.slice_cols(z, 2 * hd, 3 * hd))
        candidate = ad.tanh(ad.slice_cols(z, 3 * hd, 4 * hd))
        c_next = ad.add(ad.hadamard(gate_forget, c), ad.hadamard(gate_in, candidate))
        h_next = ad.hadamard(gate_out, ad.tanh(c_next))
        return h_next, c_next

    def fold(self, inputs: Tensor) -> Tensor:
        """Every step's hidden state, (batch, steps, hidden), of (batch,
        steps, input_dim) inputs, each sequence from a zero state."""
        return ad.lstm_sequence(inputs, self.weights, self.bias)

    def parameters(self) -> dict:
        return {"lstm.weights": self.weights, "lstm.bias": self.bias}


def pooling_matrix(lengths, steps: int) -> np.ndarray:
    """(batch, batch * steps) weights that mean-pool each zero-padded sequence.

    Row b averages only the first lengths[b] steps of sequence b. Padded
    steps get weight 0, so they receive no gradient.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.max() > steps:
        raise ValueError(f"sequence lengths must lie in 1..{steps}")
    batch = lengths.size
    blocks = np.zeros((batch, batch, steps), dtype=np.float32)
    rows = np.arange(batch)
    real = np.arange(steps) < lengths[:, None]
    blocks[rows, rows] = real / lengths[:, None].astype(np.float32)
    return blocks.reshape(batch, batch * steps)


class RowMlp:
    """Weight-shared pair scorer: each [context | candidate] row maps to one scalar.

    Hidden layers use tanh; the final layer is linear. Applying the same
    weights to every row is what makes candidate scoring order-equivariant.
    """

    def __init__(self, input_dim: int, hidden_widths: tuple[int, ...],
                 rng: np.random.Generator):
        if min(hidden_widths, default=1) < 1:
            raise ValueError(f"scorer_widths must each be at least 1, got {tuple(hidden_widths)}")
        widths = [input_dim, *hidden_widths, 1]
        self.layers: list[tuple[Tensor, Tensor]] = []
        for i in range(len(widths) - 1):
            w = Tensor(uniform_init(rng, (widths[i], widths[i + 1])), requires_grad=True)
            b = Tensor(np.zeros(widths[i + 1], dtype=np.float32), requires_grad=True)
            self.layers.append((w, b))

    def scores(self, context: Tensor, candidates: Tensor) -> Tensor:
        """Score (q * n, d) candidate rows, n per context row in order, against
        their (q, c) context rows; c + d is input_dim. Returns (q * n, 1).

        The whole MLP is one ``pair_mlp`` node: its first layer is applied in
        factored form, so each context row is multiplied once rather than
        once per candidate.
        """
        return ad.pair_mlp(context, candidates, self.layers)

    def parameters(self) -> dict:
        params = {}
        for i, (w, b) in enumerate(self.layers):
            params[f"mlp.{i}.weights"] = w
            params[f"mlp.{i}.bias"] = b
        return params


# -- training ----------------------------------------------------------------


def fit(params: dict, count: int, epochs: int, batch_size: int, learning_rate: float,
        momentum: float, order, batch_loss, where: str, validate=None,
        patience: int | None = None) -> dict:
    """Minibatch SGD with momentum, the one epoch loop of every trainer.

    Each epoch walks ``order(epoch)``, a permutation of range(count), in
    batches; ``batch_loss(epoch, batch)`` builds a batch's scalar loss, and
    a non-finite one raises FloatingPointError naming ``where``, the epoch
    and the batch start. The history holds each epoch's mean ``loss``, its
    ``epoch_s`` and the ``examples_per_s`` of its SGD pass. With
    ``validate`` (the model's validation accuracy), each epoch's seconds
    include it and it is recorded as ``val_accuracy``; training stops after
    ``patience`` epochs in a row without a better one (None: never), and
    the parameters of the best epoch are restored in place.
    """
    for name, value in (("epochs", epochs), ("batch_size", batch_size)):
        if value < 1:
            raise ValueError(f"{where}: {name} must be at least 1, got {value}")
    optimizer = ad.SgdOptimizer(params, learning_rate, momentum)
    history = {"loss": [], "epoch_s": [], "examples_per_s": [],
               **({} if validate is None else {"val_accuracy": []})}
    best_val, best_state, stale = -1.0, None, 0
    for epoch in range(epochs):
        started = time.perf_counter()
        epoch_order = order(epoch)
        total = 0.0
        for start in range(0, count, batch_size):
            batch = epoch_order[start:start + batch_size]
            loss = batch_loss(epoch, batch)
            if not np.isfinite(value := loss.item()):
                raise FloatingPointError(f"{where}: epoch {epoch}, batch start {start}: "
                                         f"non-finite loss {value}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            total += value * len(batch)
        seconds = time.perf_counter() - started
        history["loss"].append(total / count)
        history["examples_per_s"].append(count / seconds)
        if validate is not None:
            history["val_accuracy"].append(accuracy := validate())
            if accuracy > best_val:
                best_val, stale = accuracy, 0
                best_state = {name: p.data.copy() for name, p in params.items()}
            else:
                stale += 1
            seconds = time.perf_counter() - started
        history["epoch_s"].append(seconds)
        if validate is not None and patience is not None and stale >= patience:
            break
    if best_state is not None:
        assign_parameters(params, best_state)
    return history


# -- model states ------------------------------------------------------------
#
# A model's state() is a name -> float32 array snapshot of its weights plus
# its other hyperparameters as 0-d entries; its from_state classmethod
# rebuilds the model from those shapes and scalars with the helpers below.


def state_entry(state: dict, name: str):
    """state[name]; a missing entry raises KeyError naming it."""
    if name not in state:
        raise KeyError(f"model state has no {name!r}")
    return state[name]


def assign_parameters(params: dict, state: dict) -> None:
    """Copy every named parameter's value out of a state dict, checking shapes.

    Each value is cast to its parameter's own dtype. A NaN or infinite
    value raises ValueError naming the entry, so a corrupt state cannot
    load and score silently.
    """
    for name, tensor in params.items():
        value = np.asarray(state_entry(state, name), dtype=tensor.data.dtype)
        if value.shape != tensor.data.shape:
            raise ValueError(f"{name!r} has shape {value.shape}, "
                             f"the model expects {tensor.data.shape}")
        bad = ~np.isfinite(value)
        if bad.any():
            first = tuple(int(i) for i in np.argwhere(bad)[0])
            raise ValueError(f"{name!r} holds {int(bad.sum())} non-finite value(s), "
                             f"the first at index {first}")
        tensor.data[...] = value


def read_choice(state: dict, key: str, choices: tuple[str, ...]) -> str:
    """Decode a setting stored as its index in choices. A missing entry
    raises KeyError and an unknown code ValueError."""
    code = float(np.asarray(state_entry(state, key)))
    if code not in range(len(choices)):
        raise ValueError(f"unknown {key} code {code}")
    return choices[int(code)]


def lstm_dims(state: dict, name: str) -> tuple[int, int]:
    """(input_dim, hidden_dim) of the fused LSTM weights stored under name."""
    rows, cols = state_entry(state, name).shape
    return rows - cols // 4, cols // 4


def mlp_dims(state: dict, prefix: str) -> tuple[int, tuple[int, ...]]:
    """Input width and hidden widths of the RowMlp stored under prefix."""
    shapes = [state_entry(state, f"{prefix}mlp.0.weights").shape]
    while f"{prefix}mlp.{len(shapes)}.weights" in state:
        shapes.append(state[f"{prefix}mlp.{len(shapes)}.weights"].shape)
    return shapes[0][0], tuple(cols for _, cols in shapes[:-1])
