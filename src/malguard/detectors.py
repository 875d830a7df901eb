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
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse, stats

from malguard import nnet, storage
from malguard.data import MALICIOUS, Dataset, FeatureSpace, FeatureVector, vectors_matrix


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
    def input_dim(self) -> int:
        return int(self.weights.shape[0])

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
    def input_dim(self) -> int:
        return int(self.net.dims[0])

    @property
    def decision_threshold(self) -> float:
        return 0.5

    def decision_scores(self, x: sparse.spmatrix) -> np.ndarray:
        logits = nnet.infer(self.net, x)
        return 1.0 / (1.0 + np.exp(-logits.ravel()))

    def score_vector(self, vector: FeatureVector) -> float:
        return float(self.decision_scores(vectors_matrix([vector], self.input_dim))[0])

    def is_malicious(self, vector: FeatureVector) -> bool:
        return self.score_vector(vector) > self.decision_threshold


def _signed_labels(dataset: Dataset) -> np.ndarray:
    return np.asarray(
        [1.0 if s.label == MALICIOUS else -1.0 for s in dataset.samples]
    )


def _check_trainable(dataset: Dataset) -> None:
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
    _check_trainable(dataset)
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
    _check_trainable(dataset)
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
class FeatureSelection:
    """Mapping from a source space onto the top-ranked feature subset."""

    indices: tuple[int, ...]
    source_dim: int


def select_features(
    dataset: Dataset, k: int, seed: int = 0, epochs: int = 40, lr: float = 0.5
) -> tuple[FeatureSpace, FeatureSelection]:
    """Keep the k features with largest-magnitude linear weights (ties: lower index)."""
    dim = dataset.space.dim
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    model = train_linear(dataset, epochs=epochs, lr=lr, seed=seed)
    order = np.lexsort((np.arange(dim), -np.abs(model.weights)))
    keep = np.sort(order[:k])
    reduced = FeatureSpace(tuple(dataset.space.features[i] for i in keep))
    return reduced, FeatureSelection(tuple(int(i) for i in keep), dim)


def apply_selection(dataset: Dataset, selection: FeatureSelection, space: FeatureSpace) -> Dataset:
    if dataset.space.dim != selection.source_dim:
        raise ValueError(
            f"selection was built for dim {selection.source_dim}, dataset has {dataset.space.dim}"
        )
    pos = {src: j for j, src in enumerate(selection.indices)}
    samples = []
    for s in dataset.samples:
        kept = [pos[i] for i in s.vector.indices if i in pos]
        samples.append(replace(s, vector=FeatureVector.make(kept, space.dim)))
    return Dataset(space, tuple(samples))


@dataclass(frozen=True)
class DetectionMetrics:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float
    auroc: float


def auroc_from_scores(scores: np.ndarray, is_positive: np.ndarray) -> float:
    """Rank-statistic AUROC with average ranks for ties; nan if one class is absent."""
    pos = np.asarray(is_positive, dtype=bool)
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = stats.rankdata(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


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
    return DetectionMetrics(
        tp, fp, tn, fn, precision, recall, f1, auroc_from_scores(scores, truth)
    )


_MODEL_FORMAT = "malguard-detector-v1"


def save_model(model, path, selection: FeatureSelection | None = None) -> None:
    meta: dict = {"format": _MODEL_FORMAT}
    arrays: dict[str, np.ndarray] = {}
    if selection is not None:
        meta["selection_source_dim"] = selection.source_dim
        arrays["selection"] = np.asarray(selection.indices, dtype=np.int64)
    if isinstance(model, LinearModel):
        meta["kind"] = "linear"
        meta["bias"] = model.bias
        arrays["weights"] = model.weights
    elif isinstance(model, MlpModel):
        meta["kind"] = "mlp"
        meta["dims"] = list(model.net.dims)
        for i, (w, b) in enumerate(zip(model.net.weights, model.net.biases)):
            arrays[f"w{i}"] = w
            arrays[f"b{i}"] = b
    else:
        raise TypeError(f"unsupported model type: {type(model)!r}")
    storage.save_container(path, meta, arrays)


def load_model(path):
    meta, arrays = storage.load_container(path)
    storage.expect_format(meta, _MODEL_FORMAT, path)
    selection = None
    if "selection" in arrays:
        selection = FeatureSelection(
            tuple(int(i) for i in arrays["selection"]), int(meta["selection_source_dim"])
        )
    if meta["kind"] == "linear":
        return LinearModel(arrays["weights"], float(meta["bias"])), selection
    dims = [int(d) for d in meta["dims"]]
    weights = [arrays[f"w{i}"] for i in range(len(dims) - 1)]
    biases = [arrays[f"b{i}"] for i in range(len(dims) - 1)]
    return MlpModel(nnet.Mlp(dims, weights, biases)), selection


def model_digest(model) -> str:
    """Content digest identifying a trained model's parameters.

    Hashed once per model object: a model's parameters cannot change.
    """
    if not isinstance(model, (LinearModel, MlpModel)):
        raise TypeError(f"unsupported model type: {type(model)!r}")
    return model._digest
