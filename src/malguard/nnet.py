"""Dense MLP with hand-written backprop and an adaptive-moment optimizer.

Shared by the MLP detector and the contrastive encoders. Hidden layers use
ReLU; the final layer is linear (callers apply sigmoid or distance losses on
top). Inverted dropout can be applied to hidden activations during training.
All math is float64 so gradient checks and bit-exact round-trips hold.

Inference over sparse 0/1 inputs goes through :func:`infer`, whose output
for a row depends on that row alone, never on the rest of the batch.
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
    by one in index order. The later layers run through :func:`forward` in
    zero-padded blocks of INFER_BLOCK rows. Either way a row's output is
    bit-identical whether it is scored alone or in any batch.
    """
    h = x.tocsr() @ mlp.weights[0]
    h += mlp.biases[0]
    if len(mlp.weights) == 1:
        return h
    np.maximum(h, 0.0, out=h)
    tail = Mlp(mlp.dims[1:], mlp.weights[1:], mlp.biases[1:])
    out = np.empty((len(h), mlp.dims[-1]))
    for lo in range(0, len(h), INFER_BLOCK):
        block = h[lo : lo + INFER_BLOCK]
        rows = len(block)
        if rows < INFER_BLOCK:
            block = np.vstack([block, np.zeros((INFER_BLOCK - rows, h.shape[1]))])
        out[lo : lo + rows] = forward(tail, block)[0][:rows]
    return out


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
