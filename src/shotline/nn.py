"""Small trainable building blocks shared by the sequence and QA models."""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def uniform_init(rng: np.random.Generator, shape: tuple, fan_in: int | None = None) -> np.ndarray:
    """Uniform weights in +-1/sqrt(fan_in), the usual recurrent-net range."""
    fan = fan_in if fan_in is not None else shape[0]
    bound = 1.0 / np.sqrt(fan)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class LstmCell:
    """Single-layer LSTM with fused gate weights.

    Gate order in the fused matrices is input, forget, output, candidate.
    The forget-gate bias starts at forget_bias so early training does not
    wash out the cell state.

    ``fold`` runs whole sequences through the fused ``lstm_sequence`` op;
    every model uses it. ``step`` builds one update from primitive ops and
    is kept only as the reference the op is tested against.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator,
                 forget_bias: float = 1.0):
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError("input_dim and hidden_dim must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weights = Tensor(uniform_init(rng, (input_dim + hidden_dim, 4 * hidden_dim)),
                              requires_grad=True)
        bias = np.zeros(4 * hidden_dim, dtype=np.float32)
        bias[hidden_dim:2 * hidden_dim] = forget_bias
        self.bias = Tensor(bias, requires_grad=True)

    def initial_state(self, batch: int = 1) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((batch, self.hidden_dim), dtype=np.float32)
        return Tensor(zeros.copy()), Tensor(zeros.copy())

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

    def fold(self, inputs: Tensor, pooling: np.ndarray | None = None) -> Tensor:
        """Run over (batch, steps, input_dim) inputs, each from a zero state.

        Returns every step's hidden state, (batch, steps, hidden), or with a
        constant (rows, batch * steps) pooling matrix (see pooling_matrix)
        the pooled (rows, hidden) states, as one matmul.
        """
        states = ad.lstm_sequence(inputs, self.weights, self.bias)
        if pooling is None:
            return states
        batch, steps, _ = states.data.shape
        flat = ad.reshape(states, (batch * steps, self.hidden_dim))
        return ad.matmul(Tensor(pooling), flat)

    def parameters(self) -> dict:
        return {"lstm.weights": self.weights, "lstm.bias": self.bias}

    def load_state(self, state: dict, prefix: str = "lstm.") -> None:
        self.weights.data[...] = state[prefix + "weights"]
        self.bias.data[...] = state[prefix + "bias"]


def pooling_matrix(lengths, steps: int, mode: str) -> np.ndarray:
    """(batch, batch * steps) weights that pool each zero-padded sequence.

    Row b reads only the first lengths[b] steps of sequence b: their last
    one ("final") or their mean ("mean"). Padded steps get weight 0, so
    they receive no gradient.
    """
    if mode not in ("final", "mean"):
        raise ValueError(f"unknown pooling {mode!r}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.max() > steps:
        raise ValueError(f"sequence lengths must lie in 1..{steps}")
    batch = lengths.size
    blocks = np.zeros((batch, batch, steps), dtype=np.float32)
    rows = np.arange(batch)
    if mode == "final":
        blocks[rows, rows, lengths - 1] = 1.0
    else:
        real = np.arange(steps) < lengths[:, None]
        blocks[rows, rows] = real / lengths[:, None].astype(np.float32)
    return blocks.reshape(batch, batch * steps)


class RowMlp:
    """Weight-shared per-row scorer: each input row maps to one scalar.

    Hidden layers use tanh; the final layer is linear. Applying the same
    weights to every row is what makes candidate scoring order-equivariant.
    """

    def __init__(self, input_dim: int, hidden_widths: tuple[int, ...],
                 rng: np.random.Generator):
        widths = [input_dim, *hidden_widths, 1]
        self.layers: list[tuple[Tensor, Tensor]] = []
        for i in range(len(widths) - 1):
            w = Tensor(uniform_init(rng, (widths[i], widths[i + 1])), requires_grad=True)
            b = Tensor(np.zeros(widths[i + 1], dtype=np.float32), requires_grad=True)
            self.layers.append((w, b))

    def scores(self, rows: Tensor) -> Tensor:
        """Map (r, input_dim) rows to (r, 1) scores."""
        out = rows
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            out = ad.add(ad.matmul(out, w), b)
            if i != last:
                out = ad.tanh(out)
        return out

    def parameters(self) -> dict:
        params = {}
        for i, (w, b) in enumerate(self.layers):
            params[f"mlp.{i}.weights"] = w
            params[f"mlp.{i}.bias"] = b
        return params

    def load_state(self, state: dict, prefix: str = "mlp.") -> None:
        for i, (w, b) in enumerate(self.layers):
            w.data[...] = state[f"{prefix}{i}.weights"]
            b.data[...] = state[f"{prefix}{i}.bias"]
