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
    A fresh cell's forget-gate bias starts at 1 so early training does not
    wash out the cell state.

    ``fold`` runs whole sequences through the fused ``lstm_sequence`` op;
    every model uses it, and a reader takes the last step or pools the
    steps itself. ``step`` builds one update from primitive ops and is
    kept only as the reference the op is tested against.
    """

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.hidden_dim = bias.shape[0] // 4
        self.input_dim = weights.shape[0] - self.hidden_dim
        self.weights = Tensor(weights, requires_grad=True)
        self.bias = Tensor(bias, requires_grad=True)

    @classmethod
    def fresh(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> "LstmCell":
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError("input_dim and hidden_dim must be positive")
        bias = np.zeros(4 * hidden_dim, dtype=np.float32)
        bias[hidden_dim:2 * hidden_dim] = 1.0
        return cls(uniform_init(rng, (input_dim + hidden_dim, 4 * hidden_dim)), bias)

    @classmethod
    def from_state(cls, state: dict, prefix: str) -> "LstmCell":
        """The cell stored as prefix + lstm.weights and lstm.bias."""
        name = f"{prefix}lstm.weights"
        weights = read_weights(state, name, (None, None))
        hidden, rest = divmod(weights.shape[1], 4)
        if rest or weights.shape[0] <= hidden:
            raise ValueError(f"{name!r} has shape {weights.shape}, "
                             f"not (input + hidden, 4 * hidden)")
        return cls(weights, read_weights(state, f"{prefix}lstm.bias", (4 * hidden,)))

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

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]]):
        """A scorer of the given (weights, bias) layers, the last one 1 wide."""
        self.layers = [(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
                       for w, b in layers]

    @classmethod
    def fresh(cls, input_dim: int, hidden_widths: tuple[int, ...],
              rng: np.random.Generator) -> "RowMlp":
        if min(hidden_widths, default=1) < 1:
            raise ValueError(f"scorer_widths must each be at least 1, got {tuple(hidden_widths)}")
        widths = [input_dim, *hidden_widths, 1]
        return cls([(uniform_init(rng, (widths[i], widths[i + 1])),
                     np.zeros(widths[i + 1], dtype=np.float32)) for i in range(len(widths) - 1)])

    @classmethod
    def from_state(cls, state: dict, prefix: str, input_dim: int | None) -> "RowMlp":
        """The scorer stored as prefix + mlp.0.*, mlp.1.*, ... up to the first
        missing layer. Each layer takes the previous one's width (the first
        takes input_dim; None: any), and the last gives one score."""
        layers, rows = [], input_dim
        while not layers or f"{prefix}mlp.{len(layers)}.weights" in state:
            name = f"{prefix}mlp.{len(layers)}."
            last = f"{prefix}mlp.{len(layers) + 1}.weights" not in state
            weights = read_weights(state, name + "weights", (rows, 1 if last else None))
            rows = weights.shape[1]
            layers.append((weights, read_weights(state, name + "bias", (rows,))))
        return cls(layers)

    def scores(self, context: Tensor, candidates: Tensor) -> Tensor:
        """Score (q * n, d) candidate rows, n per context row in order, against
        their (q, c) context rows; c + d is input_dim. Returns (q * n, 1).

        The whole MLP is one ``pair_mlp`` node: its first layer is applied in
        factored form, so each context row is multiplied once rather than
        once per candidate.
        """
        return ad.pair_mlp(context, candidates, self.layers)

    def parameters(self) -> dict:
        return {f"mlp.{i}.{kind}": tensor for i, layer in enumerate(self.layers)
                for kind, tensor in zip(("weights", "bias"), layer)}


# -- training ----------------------------------------------------------------


def fit(params: dict, count: int, epochs: int, batch_size: int, learning_rate: float,
        momentum: float, order, batch_loss, where: str, validate=None,
        patience: int | None = None) -> dict:
    """Minibatch SGD with momentum, the one epoch loop of every trainer.

    Each epoch walks ``order(epoch)``, a permutation of range(count), in
    batches; ``batch_loss(epoch, batch)`` builds a batch's scalar loss, and a
    non-finite one raises FloatingPointError naming ``where``, the epoch and
    the batch start. A learning rate or momentum SgdOptimizer rejects raises
    ValueError naming ``where`` first. The history holds each epoch's mean
    ``loss``, its ``epoch_s`` and the ``examples_per_s`` of its SGD pass. With
    ``validate`` (the model's validation accuracy), each epoch's seconds
    include it and it is recorded as ``val_accuracy``; training stops after
    ``patience`` epochs in a row without a better one (None: never), and the
    parameters of the best epoch are restored in place.
    """
    for name, value in (("epochs", epochs), ("batch_size", batch_size)):
        if value < 1:
            raise ValueError(f"{where}: {name} must be at least 1, got {value}")
    try:
        optimizer = ad.SgdOptimizer(params, learning_rate, momentum)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
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
        for name, p in params.items():
            p.data[...] = best_state[name]
    return history


# -- model states ------------------------------------------------------------
#
# A model's state() is a name -> float32 snapshot of its weights; from_state
# builds each layer from its own entries without a random draw (only fresh() draws).


def read_weights(state: dict, name: str, shape: tuple) -> np.ndarray:
    """A float32 copy of state[name], which must have the given shape; a None
    dimension takes any size from 1 up. A missing entry raises KeyError, and
    another shape or a NaN or infinite value ValueError, each naming it."""
    if name not in state:
        raise KeyError(f"model state has no {name!r}")
    value = np.array(state[name], dtype=np.float32)
    if value.ndim != len(shape) or any(got < 1 if want is None else got != want
                                       for got, want in zip(value.shape, shape)):
        expected = ", ".join("any" if want is None else str(want) for want in shape)
        raise ValueError(f"{name!r} has shape {value.shape}, the model expects ({expected})")
    bad = ~np.isfinite(value)
    if bad.any():
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"{name!r} holds {int(bad.sum())} non-finite value(s), "
                         f"the first at index {first}")
    return value
