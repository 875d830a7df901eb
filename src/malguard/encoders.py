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

with hinge(low, high) = max(low - high + margin, 0). :func:`epoch_batches`
is the one sampler of these batches: it resamples the partners uniformly
every epoch from a seed-deterministic stream, and :func:`train` keeps one
checkpoint per epoch so threshold calibration can pick the best one later.

Scoring has one kernel with two entries: :func:`batch_scores` for a CSR
batch and :func:`incompatibility_score` for one vector. A row's score
depends on that row alone, so :func:`batch_scores` cuts a large batch into
row chunks and scores them on every usable CPU; the scores are the same
bits on one CPU or many.

Hidden widths follow a geometric schedule: starting from embed_dim * width,
widths grow by the width factor until the cap is reached, and are used
widest-first. Dropout applies to hidden activations during training only.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import queue
from collections.abc import Iterator
from concurrent import futures
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
        # JSON configs give 0 for 0.0 and lists for tuples; keep one form of each.
        object.__setattr__(self, "dropout", float(self.dropout))
        object.__setattr__(self, "lambdas", tuple(self.lambdas))
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
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


def pair_fields(pair: EncoderPair, prefix: str = "") -> tuple[dict, dict[str, np.ndarray]]:
    """Container meta fields and ``{prefix}eps_*``/``{prefix}eips_*`` arrays of a pair."""
    meta = {
        "embed_dim": pair.embed_dim,
        "dropout_rate": pair.dropout_rate,
        "eps_dims": list(pair.eps.dims),
        "eips_dims": list(pair.eips.dims),
    }
    arrays = nnet.mlp_arrays(pair.eps, f"{prefix}eps_")
    return meta, arrays | nnet.mlp_arrays(pair.eips, f"{prefix}eips_")


def pair_from_fields(meta: dict, arrays: dict[str, np.ndarray], prefix: str = "") -> EncoderPair:
    """Inverse of :func:`pair_fields`."""
    return EncoderPair(
        nnet.mlp_from_arrays(meta["eps_dims"], arrays, f"{prefix}eps_"),
        nnet.mlp_from_arrays(meta["eips_dims"], arrays, f"{prefix}eips_"),
        int(meta["embed_dim"]),
        float(meta["dropout_rate"]),
    )


# ---------------------------------------------------------------- scoring

def batch_scores(pair: EncoderPair, partition: SpacePartition, x: sparse.spmatrix) -> np.ndarray:
    """Incompatibility scores for a CSR batch of 0/1 rows; inference mode, no dropout.

    The batch entry of the score kernel. Each row's score is bit-identical
    however the batch around it is composed, and equal to
    :func:`incompatibility_score` of that row (see :func:`nnet.infer`). So a
    batch of :data:`_CHUNK_ROWS` rows or more is cut into contiguous row
    chunks, scored on every usable CPU and put back in row order, with the
    same bits as one serial pass.
    """
    if x.shape[1] != partition.dim:
        raise ValueError(f"matrix dim {x.shape[1]} != partition dim {partition.dim}")
    x = x.tocsr()
    bounds = _chunk_bounds(x.shape[0])
    if len(bounds) <= 2:
        return _chunk_scores(pair, partition, x)
    chunks = [x[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return np.concatenate(_run_chunks(functools.partial(_chunk_scores, pair, partition), chunks))


def _chunk_scores(pair: EncoderPair, partition: SpacePartition, x) -> np.ndarray:
    ps_part, ips_part = partition.split(x)
    return _distances(nnet.infer(pair.eps, ps_part), nnet.infer(pair.eips, ips_part))


# Worker threads of batch_scores: scipy's CSR product and the BLAS calls of
# nnet.infer release the GIL, so chunks of one batch run on separate CPUs.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# Most rows in one chunk. Below it a batch stays serial, where a split
# costs more CPU than it saves in wall time.
_CHUNK_ROWS = 256


def _chunk_bounds(rows: int) -> list[int]:
    """Row bounds of a batch's chunks: whole INFER_BLOCKs, spread evenly over
    a multiple of _WORKERS chunks of at most _CHUNK_ROWS rows."""
    if _WORKERS < 2 or rows < _CHUNK_ROWS:
        return [0, rows]
    blocks = -(-rows // nnet.INFER_BLOCK)
    chunks = -(-rows // _CHUNK_ROWS)
    chunks = min(chunks + -chunks % _WORKERS, blocks)
    return [i * blocks // chunks * nnet.INFER_BLOCK for i in range(chunks)] + [rows]


@functools.cache
def _pool(helpers: int) -> futures.ThreadPoolExecutor:
    return futures.ThreadPoolExecutor(helpers, thread_name_prefix="malguard-scores")


def _run_chunks(score, chunks: list) -> list[np.ndarray]:
    """``[score(c) for c in chunks]``; the caller and _WORKERS - 1 helpers take chunks in turn."""
    results = [None] * len(chunks)
    todo = queue.SimpleQueue()
    for i in range(len(chunks)):
        todo.put(i)

    def drain():
        with contextlib.suppress(queue.Empty):
            while True:
                i = todo.get_nowait()
                results[i] = score(chunks[i])

    helpers = [_pool(_WORKERS - 1).submit(drain) for _ in range(_WORKERS - 1)]
    try:
        drain()
    finally:
        # Helpers that have not started are cancelled, the others awaited, so
        # no chunk is still running when this returns or raises.
        started = [h for h in helpers if not h.cancel()]
        futures.wait(started)
    for h in started:
        h.result()
    return results


def incompatibility_score(
    pair: EncoderPair, partition: SpacePartition, vector: FeatureVector
) -> float:
    """Euclidean distance between the PS and IPS embeddings of one vector.

    The one-row entry of the score kernel: no sparse matrix is built.
    """
    ps_cols, ips_cols = partition.split_row(vector.as_array())
    u = nnet.infer_row(pair.eps, ps_cols)
    v = nnet.infer_row(pair.eips, ips_cols)
    return float(_distances(u, v)[0])


def _distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distances, a reduction within each row."""
    d = u - v
    return np.sqrt(np.einsum("ij,ij->i", d, d))


# ---------------------------------------------------------------- losses

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

    l1 = float(dist[sb].mean())
    h2, active2 = _rank_hinges(dist[sb], dist[sm2], margin)
    l2 = float(h2.mean())
    if npm:
        h3, active3 = _rank_hinges(dist[sm3], dist[sp], margin)
        l3 = float(h3.mean())
    else:
        l3 = 0.0
    loss = float(lambdas[0] * l1 + lambdas[1] * l2 + lambdas[2] * l3)
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

def epoch_batches(
    train_set: Dataset,
    pseudo: list[PseudoAdvSample],
    partition: SpacePartition,
    batch_size: int,
    rng: np.random.Generator,
) -> Iterator[LossBatch]:
    """The training batches of one epoch, the one sampler of the contrastive loss.

    Every benign row appears once, in a random order, beside a malicious
    partner drawn uniformly with replacement. Every malicious row with a
    pseudo-adversarial variant appears once as a source, beside one of its
    variants drawn uniformly, and the sources are spread over the batches as
    evenly as possible. Every draw is taken from *rng* before the first batch
    is yielded, so the caller may draw from *rng* between batches.
    """
    if train_set.space.dim != partition.dim:
        raise ValueError(
            f"dataset dim {train_set.space.dim} != partition dim {partition.dim}"
        )
    benign_pos = train_set.label_positions(BENIGN)
    mal_pos = train_set.label_positions(MALICIOUS)
    if not len(benign_pos) or not len(mal_pos):
        raise ValueError("training requires both benign and malicious samples")
    mal_by_id = {train_set.samples[int(i)].id: int(i) for i in mal_pos}
    by_source: dict[str, list[int]] = {}
    for i, p in enumerate(pseudo):
        if p.source_id in mal_by_id:
            by_source.setdefault(p.source_id, []).append(i)
    if not by_source:
        raise ValueError("no pseudo-adversarial sample matches a malicious training sample")
    sources = sorted(by_source)
    source_rows = np.asarray([mal_by_id[s] for s in sources], dtype=np.int64)

    nb_total = len(benign_pos)
    partners = mal_pos[rng.integers(0, len(mal_pos), size=nb_total)]
    pm_pseudo = np.asarray(
        [by_source[s][rng.integers(len(by_source[s]))] for s in sources], dtype=np.int64
    )
    order = rng.permutation(nb_total)
    pm_chunks = np.array_split(rng.permutation(len(sources)), math.ceil(nb_total / batch_size))

    x = train_set.matrix()
    px = vectors_matrix([p.vector for p in pseudo], partition.dim)
    columns = (partition.ps_array(), partition.ips_array())
    for bi, pm in enumerate(pm_chunks):
        rows = order[bi * batch_size : (bi + 1) * batch_size]
        groups = (x[benign_pos[rows]], x[partners[rows]], px[pm_pseudo[pm]], x[source_rows[pm]])
        ps_inputs, ips_inputs = (
            np.vstack([np.asarray(g[:, cols].todense(), dtype=np.float64) for g in groups])
            for cols in columns
        )
        yield LossBatch(ps_inputs, ips_inputs, len(rows), len(pm))


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
        fields = [pair_fields(pair, f"e{e:04d}_") for e, pair in enumerate(self.pairs)]
        meta = {
            **fields[0][0],
            "epochs": len(self.pairs),
            "partition_digest": self.partition_digest,
            "config": self.config,
            "epoch_losses": self.epoch_losses,
        }
        arrays = {name: a for _, pair_arrays in fields for name, a in pair_arrays.items()}
        storage.save_container(path, _SERIES_FORMAT, meta, arrays)

    @classmethod
    def load(cls, path) -> "CheckpointSeries":
        return storage.load_container(path, _SERIES_FORMAT, lambda meta, arrays: cls(
            [pair_from_fields(meta, arrays, f"e{e:04d}_") for e in range(int(meta["epochs"]))],
            meta["partition_digest"], meta["config"], meta["epoch_losses"]))


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
    root = np.random.SeedSequence(cfg.seed)
    init_ss, *epoch_ss = root.spawn(cfg.epochs + 1)
    pair = init_pair(partition, cfg, init_ss)
    opt = nnet.Adam(nnet.flat_params([pair.eps, pair.eips]), lr=cfg.lr)

    checkpoints = []
    epoch_losses = []
    for ss in epoch_ss:
        rng = np.random.default_rng(ss)
        losses = []
        for batch in epoch_batches(train_set, pseudo, partition, cfg.batch_size, rng):
            loss, _, grads = batch_loss(pair, batch, cfg.margin, cfg.lambdas, cfg.dropout, rng)
            opt.step(nnet.flat_params([pair.eps, pair.eips]), grads)
            losses.append(loss)
        checkpoints.append(pair.copy())
        epoch_losses.append(float(np.mean(losses)))
    return CheckpointSeries(checkpoints, partition.digest(), asdict(cfg), epoch_losses)
