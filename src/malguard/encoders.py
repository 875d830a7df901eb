"""Contrastive encoder pair scoring perturbable/imperturbable incompatibility.

Two MLP encoders embed the perturbable (PS) and imperturbable (IPS)
restrictions of a feature vector into a shared space; the incompatibility
score is the Euclidean distance between the two embeddings. Training pulls
that distance toward zero for benign samples, pushes malicious samples above
benign by a margin, and pushes pseudo-adversarial samples above their
malicious sources by the same margin:

    loss = l1 * mean score(benign)
         + l2 * mean hinge(score(benign), score(malicious partner))
         + l3 * mean hinge(score(malicious source), score(pseudo partner))

with hinge(low, high) = max(low - high + margin, 0). Partners are resampled
uniformly every epoch from a seed-deterministic stream, and one checkpoint
is kept per epoch so threshold calibration can pick the best one later.

Hidden widths follow a geometric schedule: starting from embed_dim * width,
widths grow by the width factor until the cap is reached, and are used
widest-first. Dropout applies to hidden activations during training only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import sparse

from malguard import nnet, storage
from malguard.data import BENIGN, MALICIOUS, Dataset, FeatureVector, vectors_matrix
from malguard.pseudo import PseudoAdvSample
from malguard.quantify import SpacePartition


def hidden_dims(embed_dim: int, width_factor: int, max_hidden: int) -> list[int]:
    """Geometric hidden-width schedule, ordered input side to output side."""
    if embed_dim < 1:
        raise ValueError(f"embed_dim must be >= 1, got {embed_dim}")
    if width_factor < 2:
        raise ValueError(f"width_factor must be >= 2, got {width_factor}")
    if max_hidden < 1:
        raise ValueError(f"max_hidden must be >= 1, got {max_hidden}")
    dims = []
    width = embed_dim * width_factor
    while True:
        dims.append(width)
        width *= width_factor
        if width >= max_hidden:
            break
    return dims[::-1]


@dataclass
class EncoderPair:
    """PS and IPS encoders sharing one embedding dimension."""

    eps: nnet.Mlp
    eips: nnet.Mlp
    embed_dim: int
    dropout_rate: float

    def copy(self) -> "EncoderPair":
        return EncoderPair(self.eps.copy(), self.eips.copy(), self.embed_dim, self.dropout_rate)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    lr: float = 1e-3
    margin: float = 1.0
    lambdas: tuple[float, float, float] = (1.0, 1.0, 1.0)
    batch_size: int = 256
    embed_dim: int = 32
    width_factor: int = 4
    max_hidden: int = 2048
    dropout: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if len(self.lambdas) != 3:
            raise ValueError("lambdas must have exactly three entries")


def init_pair(partition: SpacePartition, cfg: TrainConfig, seed_seq) -> EncoderPair:
    hid = hidden_dims(cfg.embed_dim, cfg.width_factor, cfg.max_hidden)
    ss_ps, ss_ips = seed_seq.spawn(2)
    eps = nnet.init_mlp([len(partition.ps), *hid, cfg.embed_dim], np.random.default_rng(ss_ps))
    eips = nnet.init_mlp([len(partition.ips), *hid, cfg.embed_dim], np.random.default_rng(ss_ips))
    return EncoderPair(eps, eips, cfg.embed_dim, cfg.dropout)


# ---------------------------------------------------------------- scoring

def _restrict(x: sparse.spmatrix, cols: np.ndarray) -> np.ndarray:
    return np.asarray(x[:, cols].todense(), dtype=np.float64)


def batch_scores(pair: EncoderPair, partition: SpacePartition, x: sparse.spmatrix) -> np.ndarray:
    """Incompatibility scores for a CSR batch of 0/1 rows; inference mode, no dropout.

    The one score implementation. Each row's score is bit-identical however
    the batch around it is composed (see :func:`nnet.infer`), and the
    distance is a row-wise reduction for the same reason.
    """
    if x.shape[1] != partition.dim:
        raise ValueError(f"matrix dim {x.shape[1]} != partition dim {partition.dim}")
    ps_part, ips_part = partition.split(x)
    u = nnet.infer(pair.eps, ps_part)
    v = nnet.infer(pair.eips, ips_part)
    d = u - v
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def incompatibility_score(
    pair: EncoderPair, partition: SpacePartition, vector: FeatureVector
) -> float:
    """Euclidean distance between the PS and IPS embeddings of one vector."""
    return float(batch_scores(pair, partition, vectors_matrix([vector], partition.dim))[0])


# ---------------------------------------------------------------- losses

def loss_benign(scores) -> float:
    """Mean incompatibility score over a benign batch."""
    arr = np.asarray(scores, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("empty benign score batch")
    return float(arr.mean())

def total_loss(l1: float, l2: float, l3: float, lambdas=(1.0, 1.0, 1.0)) -> float:
    return float(lambdas[0] * l1 + lambdas[1] * l2 + lambdas[2] * l3)


def _rank_hinges(d_low: np.ndarray, d_high: np.ndarray, margin: float):
    """Vectorized hinge values and active mask (strict: zero gradient at the kink)."""
    gap = d_low - d_high + margin
    active = gap > 0.0
    return np.where(active, gap, 0.0), active


@dataclass
class LossBatch:
    """One training batch: stacked inputs for both encoders plus group sizes.

    Row layout is [benign | malicious partner | pseudo | pseudo's source],
    with n_benign rows in each of the first two groups and n_pm rows in each
    of the last two.
    """

    ps_inputs: np.ndarray
    ips_inputs: np.ndarray
    n_benign: int
    n_pm: int


def batch_loss(
    pair: EncoderPair,
    batch: LossBatch,
    margin: float,
    lambdas=(1.0, 1.0, 1.0),
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    want_grads: bool = True,
):
    """Total contrastive loss on a batch and, optionally, parameter gradients.

    Returns (loss, (l1, l2, l3), grads) where grads follows
    nnet.flat_params([eps, eips]) order, or None when not requested.
    """
    nb, npm = batch.n_benign, batch.n_pm
    if nb < 1:
        raise ValueError("a loss batch needs at least one benign sample")
    u, cache_u = nnet.forward(pair.eps, batch.ps_inputs, dropout_rate, rng)
    v, cache_v = nnet.forward(pair.eips, batch.ips_inputs, dropout_rate, rng)
    diff = u - v
    dist = np.linalg.norm(diff, axis=1)

    sb = slice(0, nb)
    sm2 = slice(nb, 2 * nb)
    sp = slice(2 * nb, 2 * nb + npm)
    sm3 = slice(2 * nb + npm, 2 * nb + 2 * npm)

    l1 = loss_benign(dist[sb])
    h2, active2 = _rank_hinges(dist[sb], dist[sm2], margin)
    l2 = float(h2.mean())
    if npm:
        h3, active3 = _rank_hinges(dist[sm3], dist[sp], margin)
        l3 = float(h3.mean())
    else:
        l3 = 0.0
    loss = total_loss(l1, l2, l3, lambdas)
    if not want_grads:
        return loss, (l1, l2, l3), None

    coef = np.zeros(len(dist))
    coef[sb] = lambdas[0] / nb + lambdas[1] * active2 / nb
    coef[sm2] = -lambdas[1] * active2 / nb
    if npm:
        coef[sm3] = lambdas[2] * active3 / npm
        coef[sp] = -lambdas[2] * active3 / npm
    # d(dist)/d(u) = (u - v) / dist; zero subgradient where dist == 0
    safe = dist > 0.0
    gu = np.zeros_like(diff)
    gu[safe] = (coef[safe] / dist[safe])[:, None] * diff[safe]
    gw_ps, gb_ps = nnet.backward(pair.eps, cache_u, gu)
    gw_ips, gb_ips = nnet.backward(pair.eips, cache_v, -gu)
    return loss, (l1, l2, l3), gw_ps + gb_ps + gw_ips + gb_ips


# ---------------------------------------------------------------- training

def build_batch(
    dataset: Dataset,
    pseudo: list[PseudoAdvSample],
    partition: SpacePartition,
    n_benign: int,
    n_pm: int,
    seed: int = 0,
) -> LossBatch:
    """Assemble one explicit, seed-deterministic batch (used by tests and checks)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = dataset.matrix()
    ps, ips = partition.ps_array(), partition.ips_array()
    benign_pos = dataset.label_positions(BENIGN)
    mal_pos = dataset.label_positions(MALICIOUS)
    by_source: dict[str, list[int]] = {}
    for i, p in enumerate(pseudo):
        by_source.setdefault(p.source_id, []).append(i)
    mal_by_id = {dataset.samples[i].id: i for i in mal_pos}
    sources = [sid for sid in by_source if sid in mal_by_id]
    if not benign_pos.size or not mal_pos.size or not sources:
        raise ValueError("batch needs benign, malicious, and matched pseudo samples")
    bi = rng.choice(benign_pos, size=min(n_benign, len(benign_pos)), replace=False)
    mi = mal_pos[rng.integers(0, len(mal_pos), size=len(bi))]
    picked = rng.choice(len(sources), size=min(n_pm, len(sources)), replace=False)
    pm_sources = [sources[i] for i in picked]
    pm_idx = [by_source[s][rng.integers(len(by_source[s]))] for s in pm_sources]
    pm_mal = [mal_by_id[s] for s in pm_sources]
    px = vectors_matrix([pseudo[i].vector for i in pm_idx], partition.dim)
    ps_inputs = np.vstack(
        [_restrict(x[bi], ps), _restrict(x[mi], ps), _restrict(px, ps), _restrict(x[pm_mal], ps)]
    )
    ips_inputs = np.vstack(
        [_restrict(x[bi], ips), _restrict(x[mi], ips), _restrict(px, ips), _restrict(x[pm_mal], ips)]
    )
    return LossBatch(ps_inputs, ips_inputs, len(bi), len(pm_idx))


class CheckpointSeries:
    """Per-epoch encoder snapshots from one training run."""

    def __init__(self, pairs, partition_digest: str, config: dict, epoch_losses):
        self.pairs = list(pairs)
        self.partition_digest = partition_digest
        self.config = dict(config)
        self.epoch_losses = [float(x) for x in epoch_losses]

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, epoch: int) -> EncoderPair:
        return self.pairs[epoch]

    def save(self, path) -> None:
        if not self.pairs:
            raise ValueError("cannot save an empty checkpoint series")
        first = self.pairs[0]
        meta = {
            "format": _SERIES_FORMAT,
            "epochs": len(self.pairs),
            "embed_dim": first.embed_dim,
            "dropout_rate": first.dropout_rate,
            "eps_dims": list(first.eps.dims),
            "eips_dims": list(first.eips.dims),
            "partition_digest": self.partition_digest,
            "config": self.config,
            "epoch_losses": self.epoch_losses,
        }
        arrays = {}
        for e, pair in enumerate(self.pairs):
            for name, net in (("eps", pair.eps), ("eips", pair.eips)):
                for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                    arrays[f"e{e:04d}_{name}_w{i}"] = w
                    arrays[f"e{e:04d}_{name}_b{i}"] = b
        storage.save_container(path, meta, arrays)

    @classmethod
    def load(cls, path) -> "CheckpointSeries":
        meta, arrays = storage.load_container(path)
        storage.expect_format(meta, _SERIES_FORMAT, path)
        pairs = []
        for e in range(int(meta["epochs"])):
            nets = {}
            for name, dims in (("eps", meta["eps_dims"]), ("eips", meta["eips_dims"])):
                dims = [int(d) for d in dims]
                ws = [arrays[f"e{e:04d}_{name}_w{i}"] for i in range(len(dims) - 1)]
                bs = [arrays[f"e{e:04d}_{name}_b{i}"] for i in range(len(dims) - 1)]
                nets[name] = nnet.Mlp(dims, ws, bs)
            pairs.append(
                EncoderPair(
                    nets["eps"], nets["eips"], int(meta["embed_dim"]), float(meta["dropout_rate"])
                )
            )
        return cls(pairs, meta["partition_digest"], meta["config"], meta["epoch_losses"])


_SERIES_FORMAT = "malguard-encoder-series-v1"


def pair_digest(pair: EncoderPair) -> str:
    parts = [",".join(map(str, pair.eps.dims)).encode(), b"|"]
    for net in (pair.eps, pair.eips):
        for w, b in zip(net.weights, net.biases):
            parts.append(w.tobytes())
            parts.append(b.tobytes())
    return storage.sha256_hex(b"".join(parts))


def train(
    train_set: Dataset,
    pseudo: list[PseudoAdvSample],
    partition: SpacePartition,
    cfg: TrainConfig,
) -> CheckpointSeries:
    """Train the encoder pair, snapshotting both encoders after every epoch."""
    if train_set.space.dim != partition.dim:
        raise ValueError(
            f"dataset dim {train_set.space.dim} != partition dim {partition.dim}"
        )
    benign_pos = train_set.label_positions(BENIGN)
    mal_pos = train_set.label_positions(MALICIOUS)
    if not len(benign_pos) or not len(mal_pos):
        raise ValueError("training requires both benign and malicious samples")
    if not pseudo:
        raise ValueError("no pseudo-adversarial samples; generate them before training")
    mal_by_id = {train_set.samples[int(i)].id: int(i) for i in mal_pos}
    by_source: dict[str, list[int]] = {}
    for i, p in enumerate(pseudo):
        if p.source_id in mal_by_id:
            by_source.setdefault(p.source_id, []).append(i)
    if not by_source:
        raise ValueError("no pseudo-adversarial sample matches a malicious training sample")
    sources = sorted(by_source)
    source_rows = np.asarray([mal_by_id[s] for s in sources], dtype=np.int64)

    x = train_set.matrix()
    px = vectors_matrix([p.vector for p in pseudo], partition.dim)
    ps, ips = partition.ps_array(), partition.ips_array()

    root = np.random.SeedSequence(cfg.seed)
    init_ss, *epoch_ss = root.spawn(cfg.epochs + 1)
    pair = init_pair(partition, cfg, init_ss)
    opt = nnet.Adam(nnet.flat_params([pair.eps, pair.eips]), lr=cfg.lr)

    nb_total = len(benign_pos)
    n_batches = math.ceil(nb_total / cfg.batch_size)
    checkpoints = []
    epoch_losses = []
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(epoch_ss[epoch])
        partners = mal_pos[rng.integers(0, len(mal_pos), size=nb_total)]
        pm_pseudo = np.asarray(
            [by_source[s][rng.integers(len(by_source[s]))] for s in sources], dtype=np.int64
        )
        order = rng.permutation(nb_total)
        pm_chunks = np.array_split(rng.permutation(len(sources)), n_batches)
        losses = []
        for bi in range(n_batches):
            rows_b = benign_pos[order[bi * cfg.batch_size : (bi + 1) * cfg.batch_size]]
            rows_m2 = partners[order[bi * cfg.batch_size : (bi + 1) * cfg.batch_size]]
            pm = pm_chunks[bi]
            rows_p = pm_pseudo[pm]
            rows_m3 = source_rows[pm]
            ps_inputs = np.vstack(
                [
                    _restrict(x[rows_b], ps),
                    _restrict(x[rows_m2], ps),
                    _restrict(px[rows_p], ps),
                    _restrict(x[rows_m3], ps),
                ]
            )
            ips_inputs = np.vstack(
                [
                    _restrict(x[rows_b], ips),
                    _restrict(x[rows_m2], ips),
                    _restrict(px[rows_p], ips),
                    _restrict(x[rows_m3], ips),
                ]
            )
            batch = LossBatch(ps_inputs, ips_inputs, len(rows_b), len(pm))
            loss, _, grads = batch_loss(
                pair, batch, cfg.margin, cfg.lambdas, cfg.dropout, rng
            )
            opt.step(nnet.flat_params([pair.eps, pair.eips]), grads)
            losses.append(loss)
        checkpoints.append(pair.copy())
        epoch_losses.append(float(np.mean(losses)))
    return CheckpointSeries(checkpoints, partition.digest(), asdict(cfg), epoch_losses)
