"""Contrastive encoder pair: widths, losses, gradients, checkpoints."""
import numpy as np
import pytest

from malguard.data import (
    BENIGN, MALICIOUS, Dataset, FeatureSpace, FeatureVector, Sample, vectors_matrix,
)
from malguard.detectors import LinearModel
from malguard import encoders, nnet, pseudo
from malguard.encoders import CheckpointSeries, TrainConfig
from malguard.quantify import SpacePartition


def test_hidden_dims_frozen_traces():
    # widths grow geometrically from embed*width until hitting the cap,
    # then get listed wide-to-narrow toward the embedding
    assert encoders.hidden_dims(32, 4, 2048) == [512, 128]
    assert encoders.hidden_dims(32, 2, 100) == [64]
    assert encoders.hidden_dims(10, 2, 20) == [20]


def test_hidden_dims_validation():
    with pytest.raises(ValueError):
        encoders.hidden_dims(0, 4, 2048)
    with pytest.raises(ValueError):
        encoders.hidden_dims(32, 1, 2048)
    with pytest.raises(ValueError):
        encoders.hidden_dims(32, 4, 0)


def test_loss_benign_is_mean_distance():
    assert encoders.loss_benign(np.array([0.0, 0.0])) == 0.0
    assert encoders.loss_benign(np.array([1.0, 3.0])) == 2.0


def test_rank_hinges_at_the_margin():
    hinge, active = encoders._rank_hinges(
        np.array([0.5, 2.0, 1.0]), np.array([2.0, 1.0, 2.0]), 1.0
    )
    # satisfied by more than the margin: zero; violated ordering pays
    # distance plus margin; exactly at the margin still costs zero and
    # carries no gradient
    assert hinge.tolist() == [0.0, 2.0, 0.0]
    assert active.tolist() == [False, True, False]


def test_total_loss_weighted_sum():
    assert encoders.total_loss(1.0, 2.0, 3.0) == 6.0
    assert encoders.total_loss(1.0, 2.0, 3.0, lambdas=(2.0, 0.5, 1.0)) == 6.0


def rigged_pair(part, b_ps, b_ips):
    """Zero all weights so each encoder outputs its final-layer bias."""
    cfg = TrainConfig(embed_dim=2, width_factor=2, max_hidden=4)
    pair = encoders.init_pair(part, cfg, np.random.SeedSequence(0))
    for mlp, bias in ((pair.eps, b_ps), (pair.eips, b_ips)):
        for w in mlp.weights:
            w[:] = 0.0
        for b in mlp.biases:
            b[:] = 0.0
        mlp.biases[-1][:] = bias
    return pair


def test_incompatibility_is_embedding_distance():
    part = SpacePartition.from_ps([0, 1], 5)
    pair = rigged_pair(part, np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    v = FeatureVector.make([0, 3], 5)
    assert encoders.incompatibility_score(pair, part, v) == pytest.approx(5.0)


def test_batch_scores_match_single_scores():
    part = SpacePartition.from_ps([0, 2, 4], 9)
    cfg = TrainConfig(embed_dim=4, width_factor=2, max_hidden=16)
    pair = encoders.init_pair(part, cfg, np.random.SeedSequence(7))
    rng = np.random.default_rng(1)
    space = FeatureSpace(tuple(f"f{i}" for i in range(9)))
    samples = tuple(
        Sample(f"s{i}", FeatureVector.make(rng.choice(9, size=3, replace=False), 9), BENIGN, i)
        for i in range(12)
    )
    ds = Dataset(space, samples)
    scores = encoders.batch_scores(pair, part, ds.matrix())
    for s, want in zip(ds.samples, scores):
        assert encoders.incompatibility_score(pair, part, s.vector) == want


def test_scores_are_batch_invariant():
    # Widths of the default config, where BLAS blocking would show any
    # dependence of a row's score on the rows around it.
    dim = 400
    part = SpacePartition.from_ps(range(0, dim, 7), dim)
    pair = encoders.init_pair(part, TrainConfig(), np.random.SeedSequence(4))
    rng = np.random.default_rng(2)
    vectors = [
        FeatureVector.make(rng.choice(dim, size=rng.integers(0, 60), replace=False), dim)
        for _ in range(61)
    ]
    x = vectors_matrix(vectors, dim)
    full = encoders.batch_scores(pair, part, x)
    perm = rng.permutation(len(vectors))
    assert np.array_equal(encoders.batch_scores(pair, part, x[perm]), full[perm])
    for size in (1, 5, 8, 9, 23):
        rows = np.sort(rng.choice(len(vectors), size=size, replace=False))
        assert np.array_equal(encoders.batch_scores(pair, part, x[rows]), full[rows])
    singles = [encoders.incompatibility_score(pair, part, v) for v in vectors]
    assert singles == full.tolist()


def test_init_pair_shapes_and_determinism():
    part = SpacePartition.from_ps(range(10), 30)
    cfg = TrainConfig()  # defaults: embed 32, width 4, cap 2048
    a = encoders.init_pair(part, cfg, np.random.SeedSequence(3))
    b = encoders.init_pair(part, cfg, np.random.SeedSequence(3))
    assert a.eps.dims == [10, 512, 128, 32]
    assert a.eips.dims == [20, 512, 128, 32]
    for wa, wb in zip(a.eps.weights, b.eps.weights):
        np.testing.assert_array_equal(wa, wb)


def tiny_setup(seed=0):
    """Small planted problem where benign halves agree and malicious differ."""
    rng = np.random.default_rng(seed)
    dim = 16
    part = SpacePartition.from_ps(range(8), dim)
    space = FeatureSpace(tuple(f"f{i}" for i in range(dim)))
    samples = []
    for i in range(60):
        mal = i % 3 == 0
        mode = rng.integers(0, 2)
        ps_mode = 1 - mode if mal else mode
        on = np.zeros(dim, dtype=bool)
        on[ps_mode * 4 : ps_mode * 4 + 4] = rng.random(4) < 0.8
        on[8 + mode * 4 : 12 + mode * 4] = rng.random(4) < 0.8
        samples.append(
            Sample(
                f"s{i:03d}",
                FeatureVector.make(np.flatnonzero(on), dim),
                MALICIOUS if mal else BENIGN,
                i,
            )
        )
    ds = Dataset(space, tuple(samples))
    w = np.zeros(dim)
    w[0:4] = -1.0
    w[4:8] = 1.0
    detector = LinearModel(w, -0.5)
    mal = [s for s in ds.by_label(MALICIOUS) if detector.is_malicious(s.vector)]
    pam = pseudo.generate(mal, detector, part, budget=50, seed=seed)
    return ds, part, pam


def test_batch_loss_gradients_match_finite_differences():
    ds, part, pam = tiny_setup()
    cfg = TrainConfig(embed_dim=4, width_factor=2, max_hidden=8)
    pair = encoders.init_pair(part, cfg, np.random.SeedSequence(1))
    batch = encoders.build_batch(ds, pam, part, n_benign=8, n_pm=4, seed=2)
    loss, _, grads = encoders.batch_loss(pair, batch, margin=1.0)
    params = nnet.flat_params([pair.eps, pair.eips])
    rng = np.random.default_rng(5)
    eps = 1e-6
    checked = 0
    for p, g in zip(params, grads):
        for _ in range(4):
            i = tuple(rng.integers(0, s) for s in p.shape)
            keep = p[i]
            p[i] = keep + eps
            up, _, _ = encoders.batch_loss(pair, batch, margin=1.0, want_grads=False)
            p[i] = keep - eps
            dn, _, _ = encoders.batch_loss(pair, batch, margin=1.0, want_grads=False)
            p[i] = keep
            numeric = (up - dn) / (2 * eps)
            assert g[i] == pytest.approx(numeric, rel=1e-4, abs=1e-8)
            checked += 1
    assert checked >= 30


def test_train_learns_planted_incompatibility():
    ds, part, pam = tiny_setup(seed=3)
    cfg = TrainConfig(
        epochs=30, embed_dim=4, width_factor=2, max_hidden=8, batch_size=32, dropout=0.0, seed=4
    )
    series = encoders.train(ds, pam, part, cfg)
    assert len(series) == 30
    assert len(series.epoch_losses) == 30
    pair = series[len(series) - 1]
    scores = encoders.batch_scores(pair, part, ds.matrix())
    is_mal = np.array([s.label == MALICIOUS for s in ds.samples])
    assert scores[is_mal].mean() > scores[~is_mal].mean()
    # later epochs should improve on the start
    assert series.epoch_losses[-1] < series.epoch_losses[0]


def test_train_is_deterministic():
    ds, part, pam = tiny_setup(seed=6)
    cfg = TrainConfig(epochs=3, embed_dim=4, width_factor=2, max_hidden=8, seed=9)
    a = encoders.train(ds, pam, part, cfg)
    b = encoders.train(ds, pam, part, cfg)
    for pa, pb in zip(a.pairs, b.pairs):
        for wa, wb in zip(pa.eps.weights, pb.eps.weights):
            np.testing.assert_array_equal(wa, wb)
    assert a.epoch_losses == b.epoch_losses


def test_series_round_trip_bytes(tmp_path):
    ds, part, pam = tiny_setup(seed=8)
    cfg = TrainConfig(epochs=2, embed_dim=4, width_factor=2, max_hidden=8, seed=1)
    series = encoders.train(ds, pam, part, cfg)
    p = tmp_path / "series.zip"
    series.save(p)
    first = p.read_bytes()
    back = CheckpointSeries.load(p)
    assert back.partition_digest == series.partition_digest
    assert back.epoch_losses == series.epoch_losses
    assert len(back) == len(series)
    for pa, pb in zip(series.pairs, back.pairs):
        for wa, wb in zip(pa.eps.weights, pb.eps.weights):
            np.testing.assert_array_equal(wa, wb)
    back.save(p)
    assert p.read_bytes() == first


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0)
    with pytest.raises(ValueError):
        TrainConfig(lambdas=(1.0, 1.0))
