"""Detector training, metrics, model persistence."""
import numpy as np
import pytest

from malguard.data import (
    BENIGN, MALICIOUS, Dataset, FeatureSpace, FeatureVector, Sample, vectors_matrix,
)
from malguard import detectors, nnet


def planted_dataset(n=400, dim=30, sep_bits=4, noise=0.05, seed=0):
    """Benign and malicious rows differ on the first sep_bits features."""
    rng = np.random.default_rng(seed)
    space = FeatureSpace(tuple(f"f{i}" for i in range(dim)))
    samples = []
    for i in range(n):
        mal = i % 2 == 1
        on = rng.random(dim) < noise
        if mal:
            on[:sep_bits] |= rng.random(sep_bits) < 0.9
        samples.append(
            Sample(
                f"s{i:04d}",
                FeatureVector.make(np.flatnonzero(on), dim),
                MALICIOUS if mal else BENIGN,
                i,
            )
        )
    return Dataset(space, tuple(samples))


def xor_dataset(reps=120):
    space = FeatureSpace(("a", "b"))
    rows = [((), BENIGN), ((0,), MALICIOUS), ((1,), MALICIOUS), ((0, 1), BENIGN)]
    samples = []
    for r in range(reps):
        for j, (idx, label) in enumerate(rows):
            samples.append(Sample(f"s{r}_{j}", FeatureVector.make(idx, 2), label, r))
    return Dataset(space, tuple(samples))


def accuracy(model, ds):
    scores = model.decision_scores(ds.matrix())
    want = np.array([s.label == MALICIOUS for s in ds.samples])
    return float(((scores > model.decision_threshold) == want).mean())


def test_train_linear_separates_planted_data():
    ds = planted_dataset()
    model = detectors.train_linear(ds, seed=1)
    assert accuracy(model, ds) >= 0.95


def test_train_linear_deterministic():
    ds = planted_dataset(seed=3)
    a = detectors.train_linear(ds, seed=5)
    b = detectors.train_linear(ds, seed=5)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def test_score_vector_matches_matrix_path():
    ds = planted_dataset(n=60, seed=2)
    model = detectors.train_linear(ds, seed=0)
    scores = model.decision_scores(ds.matrix())
    for s, want in zip(ds.samples, scores):
        assert model.score_vector(s.vector) == pytest.approx(float(want))


def test_linear_score_vector_equals_batch_score_bitwise():
    # Random weights and vectors of up to 120 active features: a sum taken
    # in any other order than the CSR product's differs in the last bits.
    rng = np.random.default_rng(3)
    dim = 500
    model = detectors.LinearModel(rng.normal(size=dim), 0.25)
    vectors = [
        FeatureVector.make(rng.choice(dim, size=rng.integers(0, 120), replace=False), dim)
        for _ in range(200)
    ]
    batch = model.decision_scores(vectors_matrix(vectors, dim))
    assert [model.score_vector(v) for v in vectors] == batch.tolist()


def test_mlp_scores_are_batch_invariant():
    rng = np.random.default_rng(5)
    dim = 300
    model = detectors.MlpModel(nnet.init_mlp([dim, 200, 200, 1], rng))
    vectors = [
        FeatureVector.make(rng.choice(dim, size=rng.integers(0, 50), replace=False), dim)
        for _ in range(37)
    ]
    # no feature, the last feature alone, and every feature
    vectors += [FeatureVector.make(f, dim) for f in ([], [dim - 1], range(dim))]
    x = vectors_matrix(vectors, dim)
    full = model.decision_scores(x)
    perm = rng.permutation(len(vectors))
    assert np.array_equal(model.decision_scores(x[perm]), full[perm])
    rows = np.sort(rng.choice(len(vectors), size=11, replace=False))
    assert np.array_equal(model.decision_scores(x[rows]), full[rows])
    assert [model.score_vector(v) for v in vectors] == full.tolist()
    # An eight-unit hidden layer, whose tail is a product with one output column.
    model = detectors.MlpModel(nnet.init_mlp([dim, 8, 1], np.random.default_rng(6)))
    full = model.decision_scores(x)
    assert np.array_equal(model.decision_scores(x[perm]), full[perm])
    assert np.array_equal(model.decision_scores(x[rows]), full[rows])
    assert [model.score_vector(v) for v in vectors] == full.tolist()
    # A logistic model (no hidden layer) and a one-unit first hidden layer,
    # where numpy would sum a vector's weights pairwise from eight features
    # on. Layer-0 weights of widely spread magnitudes make a reordering
    # show; a negative output weight keeps the logit negative, where the
    # sigmoid does not round the difference away.
    for dims in ([dim, 1], [dim, 1, 1]):
        net = nnet.init_mlp(dims, rng)
        net.weights[0] = np.abs(net.weights[0]) * 10.0 ** rng.uniform(-6, 0.5, size=(dim, 1))
        net.weights[-1] = -4.0 * np.abs(net.weights[-1])
        model = detectors.MlpModel(net)
        full = model.decision_scores(x)
        assert np.array_equal(model.decision_scores(x[perm]), full[perm])
        assert [model.score_vector(v) for v in vectors] == full.tolist()


def test_train_rejects_single_class_data():
    space = FeatureSpace(("a",))
    samples = tuple(Sample(f"s{i}", FeatureVector.make([], 1), BENIGN, i) for i in range(4))
    with pytest.raises(ValueError):
        detectors.train_linear(Dataset(space, samples))


# XOR is not linearly separable, so passing this requires the hidden layer
# to actually work.
def test_train_mlp_fits_xor():
    ds = xor_dataset()
    model = detectors.train_mlp(ds, hidden=[8], epochs=200, seed=0)
    assert accuracy(model, ds) >= 0.95


def test_mlp_is_malicious_agrees_with_scores():
    ds = xor_dataset(reps=30)
    model = detectors.train_mlp(ds, hidden=[8], epochs=120, seed=1)
    scores = model.decision_scores(ds.matrix())
    for s, sc in zip(ds.samples, scores):
        assert model.is_malicious(s.vector) == (sc > model.decision_threshold)


def test_auroc_frozen_cases():
    y = np.array([False, False, True, True])
    assert detectors.auroc_from_scores(np.array([0.1, 0.2, 0.8, 0.9]), y) == 1.0
    assert detectors.auroc_from_scores(np.array([0.9, 0.8, 0.2, 0.1]), y) == 0.0
    # one discordant pair out of four: 0.75
    assert detectors.auroc_from_scores(np.array([0.1, 0.8, 0.2, 0.9]), y) == 0.75


def test_auroc_equals_the_scipy_rankdata_form():
    from scipy import stats

    def reference(scores, pos):
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        if n_pos == 0 or n_neg == 0:
            return float("nan")
        ranks = stats.rankdata(scores)
        return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))

    rng = np.random.default_rng(4)
    cases = [rng.normal(size=200), rng.integers(0, 6, size=200).astype(float),
             np.full(50, 0.25), np.array([0.0, -0.0, 1.0, 1.0]), np.array([3.5])]
    for scores in cases:
        assert np.array_equal(detectors._average_ranks(scores), stats.rankdata(scores))
        for _ in range(5):
            pos = rng.random(len(scores)) < 0.4
            got, want = detectors.auroc_from_scores(scores, pos), reference(scores, pos)
            assert got == want or (np.isnan(got) and np.isnan(want))


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(0)
    for _ in range(10):
        scores = rng.normal(size=50)
        y = rng.random(50) < 0.4
        if y.all() or not y.any():
            continue
        base = detectors.auroc_from_scores(scores, y)
        assert detectors.auroc_from_scores(3.0 * scores + 11.0, y) == pytest.approx(base)
        assert detectors.auroc_from_scores(np.tanh(scores), y) == pytest.approx(base)


def test_evaluate_counts_add_up():
    ds = planted_dataset(n=200, seed=8)
    model = detectors.train_linear(ds, seed=0)
    m = detectors.evaluate(model, ds)
    assert m.tp + m.fp + m.tn + m.fn == len(ds)
    assert 0.0 <= m.auroc <= 1.0
    mal = sum(1 for s in ds.samples if s.label == MALICIOUS)
    assert m.tp + m.fn == mal


def test_model_round_trip_bytes(tmp_path):
    ds = planted_dataset(n=100, seed=9)
    model = detectors.train_linear(ds, seed=2)
    p = tmp_path / "m.zip"
    detectors.save_model(model, p)
    first = p.read_bytes()
    back, sel = detectors.load_model(p)
    assert sel is None
    np.testing.assert_array_equal(back.weights, model.weights)
    assert back.bias == model.bias
    detectors.save_model(back, p)
    assert p.read_bytes() == first


def test_mlp_model_round_trip(tmp_path):
    ds = xor_dataset(reps=20)
    model = detectors.train_mlp(ds, hidden=[8], epochs=40, seed=3)
    p = tmp_path / "m.zip"
    detectors.save_model(model, p)
    first = p.read_bytes()
    back, second = detectors.load_model(p)
    assert second is None
    assert detectors.model_digest(back) == detectors.model_digest(model)
    np.testing.assert_array_equal(
        back.decision_scores(ds.matrix()), model.decision_scores(ds.matrix())
    )
    detectors.save_model(back, p)
    assert p.read_bytes() == first


def test_loaded_detector_is_read_only(tmp_path):
    import dataclasses

    linear = detectors.train_linear(planted_dataset(n=100, seed=9), seed=2)
    mlp = detectors.train_mlp(xor_dataset(reps=5), hidden=[4], epochs=2, seed=3)
    loaded = []
    for model in (linear, mlp):
        detectors.save_model(model, tmp_path / "m.zip")
        loaded.append(detectors.load_model(tmp_path / "m.zip")[0])
    linear, mlp = loaded
    for a in (linear.weights, *mlp.net.weights, *mlp.net.biases):
        with pytest.raises(ValueError):
            a[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        linear.bias = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        mlp.net = None
    with pytest.raises(TypeError):
        mlp.net.weights[0] = np.zeros((2, 4))


def test_model_digest_is_the_parameter_hash_and_is_kept():
    from malguard import storage

    w = np.array([0.5, -1.0, 2.0])
    model = detectors.LinearModel(w, 0.25)
    expected = storage.sha256_hex(b"linear" + w.tobytes() + np.float64(0.25).tobytes())
    assert detectors.model_digest(model) == expected
    w[0] = 9.0  # the model holds its own copy of the weights
    assert detectors.model_digest(model) == expected
    assert detectors.model_digest(detectors.LinearModel(w, 0.25)) != expected
    with pytest.raises(TypeError):
        detectors.model_digest(object())
