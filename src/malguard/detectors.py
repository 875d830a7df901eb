"""Trainable malware detectors over sparse binary feature vectors.

Two model families are provided: a linear classifier trained by stochastic
subgradient descent on the L2-regularized hinge loss (decision: score > 0 is
malicious), and an MLP with sigmoid output trained on the logistic loss
(decision: probability > 0.5). Both score batches as CSR matrices and single
vectors, are deterministic per seed, and round-trip exactly through their
checkpoint files.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from malguard import nnet, storage
from malguard.data import MALICIOUS, Dataset, FeatureVector


def _read_only(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Linear detector; its weights are a read-only copy of those it was given."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        object.__setattr__(self, "weights", _read_only(self.weights))

    @functools.cached_property
    def _digest(self) -> str:
        return storage.sha256_hex(
            b"linear" + self.weights.tobytes() + np.float64(self.bias).tobytes()
        )

    @property
    def decision_threshold(self) -> float:
        return 0.0

    def decision_scores(self, x: sparse.spmatrix) -> np.ndarray:
        return np.asarray(x @ self.weights).ravel() + self.bias

    def score_vector(self, vector: FeatureVector) -> float:
        # Summed in index order, as the CSR product in decision_scores does,
        # so the one-vector score equals the batch score bit for bit.
        picked = self.weights[vector.as_array()]
        return float((np.cumsum(picked)[-1] if picked.size else 0.0) + self.bias)

    def is_malicious(self, vector: FeatureVector) -> bool:
        return self.score_vector(vector) > self.decision_threshold


@dataclass(frozen=True, eq=False)
class MlpModel:
    """MLP detector; it holds a read-only copy of the network it was given."""

    net: nnet.Mlp

    def __post_init__(self):
        net = nnet.Mlp(
            tuple(self.net.dims),
            tuple(_read_only(w) for w in self.net.weights),
            tuple(_read_only(b) for b in self.net.biases),
        )
        object.__setattr__(self, "net", net)

    @functools.cached_property
    def _digest(self) -> str:
        parts = [b"mlp" + ",".join(map(str, self.net.dims)).encode()]
        for w, b in zip(self.net.weights, self.net.biases):
            parts.append(w.tobytes())
            parts.append(b.tobytes())
        return storage.sha256_hex(b"".join(parts))

    @property
    def decision_threshold(self) -> float:
        return 0.5

    def decision_scores(self, x: sparse.spmatrix) -> np.ndarray:
        return _sigmoid(nnet.infer(self.net, x))

    def score_vector(self, vector: FeatureVector) -> float:
        return float(_sigmoid(nnet.infer_row(self.net, vector.as_array()))[0])

    def is_malicious(self, vector: FeatureVector) -> bool:
        return self.score_vector(vector) > self.decision_threshold


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-logits.ravel()))


def _signed_labels(dataset: Dataset) -> np.ndarray:
    return np.asarray(
        [1.0 if s.label == MALICIOUS else -1.0 for s in dataset.samples]
    )


def _check_trainable(dataset: Dataset, epochs: int, batch_size: int) -> None:
    for name, value in (("epochs", epochs), ("batch_size", batch_size)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    labels = {s.label for s in dataset.samples}
    if len(labels) < 2:
        raise ValueError(f"training set contains a single class: {labels}")


def train_linear(
    dataset: Dataset,
    epochs: int = 60,
    lr: float = 0.5,
    l2: float = 1e-4,
    batch_size: int = 256,
    seed: int = 0,
) -> LinearModel:
    """Subgradient descent on mean hinge loss + l2*||w||^2, step size decaying 1/(1+epoch)."""
    _check_trainable(dataset, epochs, batch_size)
    x = dataset.matrix()
    y = _signed_labels(dataset)
    n, dim = x.shape
    w = np.zeros(dim)
    b = 0.0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for epoch in range(epochs):
        step = lr / (1.0 + epoch)
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            rows = order[lo : lo + batch_size]
            xb = x[rows]
            yb = y[rows]
            margins = yb * (np.asarray(xb @ w).ravel() + b)
            viol = margins < 1.0
            grad_w = 2.0 * l2 * w
            grad_b = 0.0
            if viol.any():
                grad_w -= np.asarray(xb[viol].T @ yb[viol]).ravel() / len(rows)
                grad_b -= yb[viol].sum() / len(rows)
            w -= step * grad_w
            b -= step * grad_b
    return LinearModel(w, float(b))


def train_mlp(
    dataset: Dataset,
    hidden: tuple[int, ...] = (200, 200),
    epochs: int = 30,
    lr: float = 1e-3,
    batch_size: int = 256,
    seed: int = 0,
) -> MlpModel:
    """Logistic loss, adaptive-moment updates; hidden=() degenerates to a logistic model."""
    _check_trainable(dataset, epochs, batch_size)
    x = dataset.matrix()
    y01 = (_signed_labels(dataset) > 0).astype(np.float64)
    n, dim = x.shape
    ss = np.random.SeedSequence(seed)
    init_ss, shuffle_ss = ss.spawn(2)
    net = nnet.init_mlp([dim, *hidden, 1], np.random.default_rng(init_ss))
    opt = nnet.Adam(nnet.flat_params([net]), lr=lr)
    rng = np.random.default_rng(shuffle_ss)
    for _ in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            rows = order[lo : lo + batch_size]
            xb = np.asarray(x[rows].todense(), dtype=np.float64)
            yb = y01[rows]
            logits, cache = nnet.forward(net, xb)
            prob = 1.0 / (1.0 + np.exp(-logits.ravel()))
            grad_out = ((prob - yb) / len(rows)).reshape(-1, 1)
            gw, gb = nnet.backward(net, cache, grad_out)
            opt.step(nnet.flat_params([net]), gw + gb)
    return MlpModel(net)


@dataclass(frozen=True)
class DetectionMetrics:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float
    auroc: float | None  # None when the dataset holds one class only


def auroc_from_scores(scores: np.ndarray, is_positive: np.ndarray) -> float:
    """Rank-statistic AUROC with average ranks for ties; nan if one class is absent."""
    pos = np.asarray(is_positive, dtype=bool)
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = _average_ranks(np.asarray(scores))
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of *a*, each tie group at its mean rank (``scipy.stats.rankdata``)."""
    order = np.argsort(a, kind="stable")
    s = a[order]
    new_group = np.concatenate(([True], s[1:] != s[:-1]))
    bounds = np.append(np.flatnonzero(new_group), len(s))
    group = np.cumsum(new_group) - 1
    ranks = np.empty(len(s))
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks


def evaluate(model, dataset: Dataset) -> DetectionMetrics:
    scores = model.decision_scores(dataset.matrix())
    truth = _signed_labels(dataset) > 0
    pred = scores > model.decision_threshold
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    tn = int(np.sum(~pred & ~truth))
    fn = int(np.sum(~pred & truth))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    auroc = auroc_from_scores(scores, truth)
    return DetectionMetrics(
        tp, fp, tn, fn, precision, recall, f1, None if np.isnan(auroc) else auroc
    )


_MODEL_FORMAT = "malguard-detector-v1"


def save_model(model, path) -> None:
    if isinstance(model, LinearModel):
        meta, arrays = {"kind": "linear", "bias": model.bias}, {"weights": model.weights}
    elif isinstance(model, MlpModel):
        meta, arrays = {"kind": "mlp", "dims": list(model.net.dims)}, nnet.mlp_arrays(model.net)
    else:
        raise TypeError(f"unsupported model type: {type(model)!r}")
    storage.save_container(path, _MODEL_FORMAT, meta, arrays)


def _decode_model(meta: dict, arrays: dict):
    if meta["kind"] == "linear":
        return LinearModel(arrays["weights"], float(meta["bias"]))
    if meta["kind"] == "mlp":
        return MlpModel(nnet.mlp_from_arrays(meta["dims"], arrays))
    raise ValueError(f"unknown detector kind {meta['kind']!r}")


def load_model(path):
    """Load a detector file as ``(model, None)``; callers unpack a pair."""
    return storage.load_container(path, _MODEL_FORMAT, _decode_model), None


def model_digest(model) -> str:
    """Content digest identifying a trained model's parameters.

    Hashed once per model object: a model's parameters cannot change.
    """
    if not isinstance(model, (LinearModel, MlpModel)):
        raise TypeError(f"unsupported model type: {type(model)!r}")
    return model._digest
