"""Dense MLP with hand-written backprop and an adaptive-moment optimizer.

Shared by the MLP detector and the contrastive encoders. Hidden layers use
ReLU; the final layer is linear (callers apply sigmoid or distance losses on
top). Inverted dropout can be applied to hidden activations during training.
All math is float64 so gradient checks and bit-exact round-trips hold.

Inference over sparse 0/1 inputs goes through :func:`infer` for a batch and
:func:`infer_row` for one row. A row's output depends on that row alone,
never on the rest of the batch, and both entries give it bit for bit. So a
caller may cut a batch into row chunks and run them on as many threads as
it likes (``encoders.batch_scores`` does): the bits do not depend on the
cut or on the CPU count. The scipy CSR product and the stacked BLAS calls
of the later layers release the GIL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

# Rows per block in the dense layers of infer(). BLAS sees this one shape for
# every batch, a one-row call included; larger blocks slow one-row calls.
INFER_BLOCK = 8


@dataclass
class Mlp:
    dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "Mlp":
        return Mlp(
            list(self.dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


def mlp_arrays(mlp: Mlp, prefix: str = "") -> dict[str, np.ndarray]:
    """Container arrays of a network: ``{prefix}w{i}`` and ``{prefix}b{i}`` per layer."""
    arrays = {}
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        arrays[f"{prefix}w{i}"] = w
        arrays[f"{prefix}b{i}"] = b
    return arrays


def mlp_from_arrays(dims, arrays: dict[str, np.ndarray], prefix: str = "") -> Mlp:
    """Inverse of :func:`mlp_arrays` for a network with layer widths *dims*."""
    dims = [int(d) for d in dims]
    weights, biases = ([arrays[f"{prefix}{k}{i}"] for i in range(len(dims) - 1)] for k in "wb")
    shapes = [((m, n), (n,)) for m, n in zip(dims, dims[1:])]
    if [(w.shape, b.shape) for w, b in zip(weights, biases)] != shapes:
        raise ValueError(f"{prefix}w*/b* array shapes do not match layer widths {dims}")
    return Mlp(dims, weights, biases)


def init_mlp(dims, rng: np.random.Generator) -> Mlp:
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"need at least input and output dims >= 1, got {dims!r}")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        # He scaling for the ReLU stack; the linear output layer reuses it,
        # which only changes the initial scale, not trainability.
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(list(dims), weights, biases)


def forward(
    mlp: Mlp,
    x: np.ndarray,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Return (output, cache). Dropout is applied only when a rate and rng are given."""
    if dropout_rate and rng is None:
        raise ValueError("dropout requires an rng")
    a = np.asarray(x, dtype=np.float64)
    cache = []
    last = len(mlp.weights) - 1
    for li, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ w + b
        if li == last:
            cache.append((a, z, None))
            a = z
        else:
            h = np.maximum(z, 0.0)
            mask = None
            if dropout_rate:
                keep = 1.0 - dropout_rate
                mask = (rng.random(h.shape) < keep) / keep
                h = h * mask
            cache.append((a, z, mask))
            a = h
    return a, cache


def infer(mlp: Mlp, x: sparse.spmatrix) -> np.ndarray:
    """Inference output for a sparse batch of 0/1 rows, batch-invariant.

    Layer 0 is the scipy CSR product, which adds each row's weight rows one
    by one in index order, starting from zero. The later layers run through
    :func:`_infer_tail`. A row's output is bit-identical whether it is
    scored alone, by :func:`infer_row`, or in any batch.
    """
    return _infer_tail(mlp, x.tocsr() @ mlp.weights[0])


def infer_row(mlp: Mlp, cols: np.ndarray) -> np.ndarray:
    """:func:`infer` of the one 0/1 row whose active columns are *cols*, increasing.

    Layer 0 adds the gathered weight rows one by one in index order,
    starting from zero, as the CSR product does. Returns a 1-row array.
    """
    w0 = mlp.weights[0]
    if w0.shape[1] == 1:
        # numpy reduces a lone column pairwise; a running sum keeps the order.
        h = np.cumsum(np.concatenate(([0.0], w0[cols, 0])))[-1:]
    else:
        # Each gathered row is added whole to the accumulator, in order.
        h = np.add.reduce(w0[cols], axis=0, initial=0.0)
    return _infer_tail(mlp, h[None, :])


def _infer_tail(mlp: Mlp, h: np.ndarray) -> np.ndarray:
    """Layer 0's bias and the later layers, in zero-padded INFER_BLOCK-row blocks.

    The full blocks are a view of *h*; only the last partial block is padded.
    Each layer is one stacked matmul, which numpy runs as one BLAS call per
    block, so every row sees the same block shape whatever the batch size.
    """
    h += mlp.biases[0]
    if len(mlp.weights) == 1:
        return h
    np.maximum(h, 0.0, out=h)
    rows, width = h.shape
    full = rows - rows % INFER_BLOCK
    out = np.empty((rows, mlp.dims[-1]))
    if full:
        blocks = h[:full].reshape(full // INFER_BLOCK, INFER_BLOCK, width)
        out[:full] = _stacked_layers(mlp, blocks).reshape(full, -1)
    if full < rows:
        last = np.zeros((1, INFER_BLOCK, width))
        last[0, : rows - full] = h[full:]
        out[full:] = _stacked_layers(mlp, last)[0, : rows - full]
    return out


def _stacked_layers(mlp: Mlp, a: np.ndarray) -> np.ndarray:
    """Layers 1 and up of *mlp* on a (blocks, INFER_BLOCK, width) stack of rows."""
    last = len(mlp.weights) - 1
    for li in range(1, last + 1):
        a = a @ mlp.weights[li]
        a += mlp.biases[li]
        if li < last:
            np.maximum(a, 0.0, out=a)
    return a


def backward(mlp: Mlp, cache, grad_out: np.ndarray):
    """Gradients of a scalar loss w.r.t. all weights and biases.

    *grad_out* is dLoss/dOutput for the batch passed to :func:`forward`.
    """
    grad_w = [None] * len(mlp.weights)
    grad_b = [None] * len(mlp.biases)
    delta = np.asarray(grad_out, dtype=np.float64)
    last = len(mlp.weights) - 1
    for li in range(last, -1, -1):
        a_prev, z, mask = cache[li]
        if li != last:
            if mask is not None:
                delta = delta * mask
            delta = delta * (z > 0.0)
        grad_w[li] = a_prev.T @ delta
        grad_b[li] = delta.sum(axis=0)
        if li > 0:
            delta = delta @ mlp.weights[li].T
    return grad_w, grad_b


def flat_params(mlps) -> list[np.ndarray]:
    """Parameter tensors of one or more networks as a flat list (shared refs)."""
    out = []
    for mlp in mlps:
        out.extend(mlp.weights)
        out.extend(mlp.biases)
    return out


class Adam:
    """Adaptive-moment estimation with bias correction, applied in place."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
