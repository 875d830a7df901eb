"""Contrastive encoder pair: widths, losses, batches, gradients, checkpoints."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from malguard.data import (
    BENIGN, MALICIOUS, Dataset, FeatureSpace, FeatureVector, Sample, vectors_matrix,
)
from malguard.detectors import LinearModel, MlpModel
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


def test_rank_hinges_at_the_margin():
    hinge, active = encoders._rank_hinges(
        np.array([0.5, 2.0, 1.0]), np.array([2.0, 1.0, 2.0]), 1.0
    )
    # satisfied by more than the margin: zero; violated ordering pays
    # distance plus margin; exactly at the margin still costs zero and
    # carries no gradient
    assert hinge.tolist() == [0.0, 2.0, 0.0]
    assert active.tolist() == [False, True, False]


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


def test_batch_loss_is_the_weighted_sum_of_mean_terms():
    # eps maps PS feature 0 to the embedding (2 * x0, 0) and eips maps every
    # row to 0, so a row's distance is 2 * x0
    part = SpacePartition.from_ps([0, 1], 4)
    pair = rigged_pair(part, np.zeros(2), np.zeros(2))
    pair.eps.weights[0][0, 0] = 1.0
    pair.eps.weights[1][0, 0] = 2.0
    x0 = np.array([0.0, 1.0,  # benign: distances 0 and 2
                   1.0, 1.0,  # their malicious partners: 2 and 2
                   0.0,       # a pseudo row: 0
                   1.0])      # its source: 2
    ps = np.column_stack([x0, np.zeros(6)])
    lambdas = (2.0, 0.5, 1.0)
    # l1 = mean(0, 2); l2 = mean(hinge(0, 2), hinge(2, 2)); l3 = hinge(2, 0)
    for n_pm, want in ((1, (1.0, 0.5, 3.0)), (0, (1.0, 0.5, 0.0))):
        rows = 4 + 2 * n_pm
        batch = encoders.LossBatch(ps[:rows], np.zeros((rows, 2)), 2, n_pm)
        loss, parts, _ = encoders.batch_loss(pair, batch, 1.0, lambdas, want_grads=False)
        assert parts == want
        assert loss == 2.0 * want[0] + 0.5 * want[1] + 1.0 * want[2]


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
    # no feature, PS features only, IPS features only
    vectors += [FeatureVector.make(f, dim) for f in ([], part.ps[:40], part.ips[-40:])]
    x = vectors_matrix(vectors, dim)
    full = encoders.batch_scores(pair, part, x)
    perm = rng.permutation(len(vectors))
    assert np.array_equal(encoders.batch_scores(pair, part, x[perm]), full[perm])
    for size in (1, 5, 8, 9, 23, 0):
        rows = np.sort(rng.choice(len(vectors), size=size, replace=False))
        assert np.array_equal(encoders.batch_scores(pair, part, x[rows]), full[rows])
    singles = [encoders.incompatibility_score(pair, part, v) for v in vectors]
    assert singles == full.tolist()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunked_scores_equal_serial_scores(monkeypatch, workers):
    dim = 400
    part = SpacePartition.from_ps(range(0, dim, 7), dim)
    pair = encoders.init_pair(part, TrainConfig(), np.random.SeedSequence(4))
    rng = np.random.default_rng(3)
    vectors = [
        FeatureVector.make(rng.choice(dim, size=rng.integers(0, 60), replace=False), dim)
        for _ in range(513)
    ]
    x = vectors_matrix(vectors, dim)
    singles = [encoders.incompatibility_score(pair, part, v) for v in vectors]
    monkeypatch.setattr(encoders, "_WORKERS", 1)
    serial = encoders.batch_scores(pair, part, x)
    monkeypatch.setattr(encoders, "_WORKERS", workers)
    for size in (256, 2000, 5200, 20000):  # chunks at the real chunk size
        chunks = np.diff(encoders._chunk_bounds(size))
        assert len(chunks) % workers == 0 and chunks.max() <= (256 if workers > 1 else size)
        assert not (chunks[:-1] % nnet.INFER_BLOCK).any()
        assert chunks.max() - chunks.min() < 2 * nnet.INFER_BLOCK
    monkeypatch.setattr(encoders, "_CHUNK_ROWS", 8)
    for size in (0, 1, 7, 8, 9, 255, 256, 257, 513):
        bounds = encoders._chunk_bounds(size)
        assert not (np.array(bounds[:-1]) % nnet.INFER_BLOCK).any()
        assert (len(bounds) > 2) == (workers > 1 and size > nnet.INFER_BLOCK)
        chunked = encoders.batch_scores(pair, part, x[:size])
        assert np.array_equal(chunked, serial[:size]), size
        assert chunked.tolist() == singles[:size]
    # a pair built for another partition fails inside every chunk, as it does serially
    other = encoders.init_pair(SpacePartition.from_ps(range(0, dim, 5), dim),
                               TrainConfig(embed_dim=4, width_factor=2, max_hidden=8),
                               np.random.SeedSequence(1))
    errors = []
    for w, rows in ((1, 10**9), (workers, 8)):
        monkeypatch.setattr(encoders, "_WORKERS", w)
        monkeypatch.setattr(encoders, "_CHUNK_ROWS", rows)
        with pytest.raises(ValueError) as err:
            encoders.batch_scores(other, part, x[:257])
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_one_vector_scores_build_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-vector score went through the batch path")

    part = SpacePartition.from_ps([0, 2, 4], 9)
    cfg = TrainConfig(embed_dim=4, width_factor=2, max_hidden=16)
    pair = encoders.init_pair(part, cfg, np.random.SeedSequence(7))
    mlp = MlpModel(nnet.init_mlp([9, 8, 1], np.random.default_rng(0)))
    v = FeatureVector.make([0, 3, 4, 8], 9)
    want = (encoders.incompatibility_score(pair, part, v), mlp.score_vector(v))
    for owner, name in ((nnet, "infer"), (SpacePartition, "split"),
                        (sparse, "csr_matrix"), (sparse, "csr_array")):
        monkeypatch.setattr(owner, name, refuse)
    assert (encoders.incompatibility_score(pair, part, v), mlp.score_vector(v)) == want


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


def sampler_world(is_mal, variants):
    """A dataset whose rows all differ, and pseudo rows for its malicious rows.

    PS is features 0-2 and IPS features 3-9. Bits 3-8 spell a row's position
    and bit 9 marks it malicious. Variant j of a source sets PS bits to j + 1,
    so every pseudo row differs from every row and keeps its source's IPS
    half. A pseudo row of an id outside the dataset is never a source's.
    """
    dim = 10
    part = SpacePartition.from_ps([0, 1, 2], dim)
    space = FeatureSpace(tuple(f"f{i}" for i in range(dim)))

    def ips_bits(pos, mal):
        return [3 + b for b in range(6) if pos >> b & 1] + ([9] if mal else [])

    samples = tuple(
        Sample(f"s{i}", FeatureVector.make(ips_bits(i, mal), dim), MALICIOUS if mal else BENIGN, i)
        for i, mal in enumerate(is_mal)
    )
    sources = [s for s in samples if s.label == MALICIOUS] + [
        Sample("ghost", FeatureVector.make(ips_bits(63, True), dim), MALICIOUS, 63)]
    pam = [
        pseudo.PseudoAdvSample(
            s.id, FeatureVector.make([b for b in range(3) if (j + 1) >> b & 1]
                                     + list(s.vector.indices), dim), 1)
        for s, n in zip(sources, [*variants, 1]) for j in range(n)
    ]
    return Dataset(space, samples), part, pam


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_epoch_batches_cover_each_row_once_with_its_own_partners(data):
    n_benign = data.draw(st.integers(1, 20))
    variants = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    is_mal = data.draw(st.permutations([False] * n_benign + [True] * len(variants)))
    batch_size = data.draw(st.integers(1, n_benign + 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ds, part, pam = sampler_world(is_mal, variants)
    if not any(variants):
        with pytest.raises(ValueError, match="matches a malicious"):
            next(encoders.epoch_batches(ds, pam, part, batch_size, rng))
        return
    batches = list(encoders.epoch_batches(ds, pam, part, batch_size, rng))
    assert len(batches) == math.ceil(n_benign / batch_size)
    benign, partners, pseudo_rows, sources = [], [], [], []
    for b in batches:
        nb, npm = b.n_benign, b.n_pm
        assert b.ps_inputs.shape[0] == b.ips_inputs.shape[0] == 2 * nb + 2 * npm
        # each pseudo row's IPS half is its source's
        assert np.array_equal(b.ips_inputs[2 * nb : 2 * nb + npm], b.ips_inputs[2 * nb + npm :])
        full = np.zeros((len(b.ps_inputs), part.dim))
        full[:, part.ps_array()] = b.ps_inputs
        full[:, part.ips_array()] = b.ips_inputs
        rows = [tuple(np.flatnonzero(r).tolist()) for r in full]
        benign += rows[:nb]
        partners += rows[nb : 2 * nb]
        pseudo_rows += rows[2 * nb : 2 * nb + npm]
        sources += rows[2 * nb + npm :]
    assert sorted(benign) == sorted(s.vector.indices for s in ds.by_label(BENIGN))
    assert set(partners) <= {s.vector.indices for s in ds.by_label(MALICIOUS)}
    own = {s.vector.indices: {p.vector.indices for p in pam if p.source_id == s.id}
           for s in ds.by_label(MALICIOUS)}
    assert sorted(sources) == sorted(v for v, mine in own.items() if mine)
    assert all(p in own[s] for p, s in zip(pseudo_rows, sources))


def test_batch_loss_gradients_match_finite_differences():
    ds, part, pam = tiny_setup()
    cfg = TrainConfig(embed_dim=4, width_factor=2, max_hidden=8)
    pair = encoders.init_pair(part, cfg, np.random.SeedSequence(1))
    batch = next(encoders.epoch_batches(ds, pam, part, 8, np.random.default_rng(2)))
    assert (batch.n_benign, batch.n_pm) == (8, 3)
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


def test_series_round_trip_bytes_with_integer_dropout(tmp_path):
    # a JSON config gives a dropout of 0 as the integer 0
    ds, part, pam = tiny_setup(seed=8)
    cfg = TrainConfig(epochs=1, embed_dim=4, width_factor=2, max_hidden=8, dropout=0, seed=1)
    p = tmp_path / "series.zip"
    encoders.train(ds, pam, part, cfg).save(p)
    first = p.read_bytes()
    CheckpointSeries.load(p).save(p)
    assert p.read_bytes() == first


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    for size in (0, -1):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            TrainConfig(batch_size=size)
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0)
    with pytest.raises(ValueError):
        TrainConfig(lambdas=(1.0, 1.0))
