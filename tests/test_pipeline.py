"""End-to-end defense assembly, detection semantics, bundle persistence."""
import numpy as np
import pytest

from malguard.data import BENIGN, MALICIOUS, Dataset, FeatureSpace, FeatureVector, Sample
from malguard.detectors import LinearModel, train_linear
from malguard import detectors, encoders, pipeline
from malguard.pipeline import BuildError, DefenseConfig
from malguard.problem_space import AppModel, Perturbation
from malguard.quantify import SpacePartition


def planted_world(seed=0, n=240):
    """Tiny two-mode world: benign halves agree, malicious halves disagree.

    Perturbable bits 0..7 carry the mode in two blocks of four; bits 8..15
    mirror the same two modes imperturbably. Bit 6 and 7 double as the
    detector's malware giveaways.
    """
    rng = np.random.default_rng(seed)
    dim = 16
    space = FeatureSpace(tuple(f"f{i}" for i in range(dim)))
    samples = []
    for i in range(n):
        mal = i % 4 == 0
        mode = int(rng.integers(0, 2))
        ps_mode = 1 - mode if mal else mode
        on = np.zeros(dim, dtype=bool)
        block = slice(ps_mode * 3, ps_mode * 3 + 3)
        on[block] = rng.random(3) < 0.85
        if mal:
            on[6] = rng.random() < 0.9
            on[7] = rng.random() < 0.6
        ips = slice(8 + mode * 4, 12 + mode * 4)
        on[ips] = rng.random(4) < 0.85
        samples.append(
            Sample(
                f"s{i:03d}",
                FeatureVector.make(np.flatnonzero(on), dim),
                MALICIOUS if mal else BENIGN,
                i,
            )
        )
    ds = Dataset(space, tuple(samples))
    perts = [
        Perturbation("p0", "inject", frozenset({0, 1, 2})),
        Perturbation("p1", "inject", frozenset({3, 4, 5})),
        Perturbation("p2", "inject", frozenset({6, 7})),
    ]
    apps = [AppModel(FeatureVector.make([], dim), dim)]
    return ds, perts, apps


def small_config(seed=0):
    enc = encoders.TrainConfig(
        epochs=8, embed_dim=4, width_factor=2, max_hidden=8, batch_size=32, dropout=0.0
    )
    return DefenseConfig(pseudo_budget=60, control_rate=5.0, encoder=enc, seed=seed)


@pytest.fixture(scope="module")
def built():
    ds, perts, apps = planted_world()
    train, calib = ds.subset(range(0, 160)), ds.subset(range(160, 240))
    detector = train_linear(train, seed=1)
    bundle = pipeline.build(train, calib, detector, perts, apps, small_config())
    return ds, train, calib, detector, perts, apps, bundle


def test_build_produces_consistent_bundle(built):
    ds, train, calib, detector, perts, apps, bundle = built
    assert set(bundle.partition.ps) == {0, 1, 2, 3, 4, 5, 6, 7}
    assert bundle.threshold == bundle.calibration.threshold
    assert bundle.metadata["pseudo_generated"] >= 1
    assert len(bundle.metadata["epoch_losses"]) == 8
    assert bundle.detector_id == detectors.model_digest(detector)


def test_detect_never_downgrades_malicious(built):
    ds, train, calib, detector, perts, apps, bundle = built
    for s in ds.samples:
        label, audit = pipeline.detect(bundle, detector, s.vector)
        if detector.is_malicious(s.vector):
            assert label == MALICIOUS
            assert not audit.revisited
            assert audit.score is None
        else:
            assert audit.revisited
            assert audit.score is not None
            want = MALICIOUS if audit.score > bundle.threshold else BENIGN
            assert label == want
            # equality with the threshold stays benign: strict exceedance only
            if audit.score == bundle.threshold:
                assert label == BENIGN


def test_defended_run_matches_per_vector_path(built):
    ds, train, calib, detector, perts, apps, bundle = built
    records = pipeline.defended_run(bundle, detector, ds)
    assert len(records) == len(ds)
    for s, rec in zip(ds.samples, records):
        label, single = pipeline.detect(bundle, detector, s.vector)
        assert rec.final_label == label
        assert rec.revisited == single.revisited
        assert rec.score == single.score


def test_detect_rejects_foreign_detector(built, tmp_path):
    ds, train, calib, detector, perts, apps, bundle = built
    vector = ds.samples[0].vector
    pipeline.detect(bundle, detector, vector)  # the digest is now cached
    detectors.save_model(detector, tmp_path / "d.zip")
    reloaded, _ = detectors.load_model(tmp_path / "d.zip")
    pipeline.detect(bundle, reloaded, vector)
    nudged = reloaded.weights.copy()
    nudged[0] += 1e-12
    for other in (LinearModel(np.zeros(ds.space.dim), -1.0),
                  LinearModel(nudged, reloaded.bias)):
        with pytest.raises(ValueError):
            pipeline.detect(bundle, other, vector)
        with pytest.raises(ValueError):
            pipeline.defended_run(bundle, other, ds)


def test_bundle_round_trip_bytes(tmp_path, built):
    ds, train, calib, detector, perts, apps, bundle = built
    p = tmp_path / "bundle.zip"
    pipeline.save_bundle(bundle, p)
    first = p.read_bytes()
    back = pipeline.load_bundle(p)
    assert back.threshold == bundle.threshold
    assert back.partition == bundle.partition
    assert back.detector_id == bundle.detector_id
    assert back.calibration.best_epoch == bundle.calibration.best_epoch
    assert encoders.pair_digest(back.pair) == encoders.pair_digest(bundle.pair)
    pipeline.save_bundle(back, p)
    assert p.read_bytes() == first
    v = ds.samples[5].vector
    assert pipeline.detect(back, detector, v) == pipeline.detect(bundle, detector, v)


def test_build_errors_carry_stage_tags():
    ds, perts, apps = planted_world()
    train, calib = ds.subset(range(0, 160)), ds.subset(range(160, 240))
    detector = train_linear(train, seed=1)
    with pytest.raises(BuildError) as err:
        pipeline.build(train, calib, detector, [], apps, small_config())
    assert err.value.stage == "space-quant"
    assert "[stage:space-quant]" in str(err.value)

    # a detector nothing can evade starves pseudo-adversarial generation
    stubborn = LinearModel(np.zeros(ds.space.dim), 1.0)

    class AlwaysMal:
        decision_threshold = 0.0
        weights = np.zeros(ds.space.dim)
        bias = 1.0

        def decision_scores(self, x):
            return np.ones(x.shape[0])

        def is_malicious(self, vector):
            return True

    with pytest.raises(BuildError) as err:
        pipeline.build(train, calib, AlwaysMal(), perts, apps, small_config())
    assert err.value.stage in ("pseudo-adv", "calibrate")


def test_bundle_from_calibration_selects_best_epoch(built):
    ds, train, calib, detector, perts, apps, bundle = built
    res = bundle.calibration
    rebuilt = pipeline.bundle_from_calibration(
        _series_of(bundle), res, detector, bundle.partition, metadata={"note": "x"}
    )
    assert rebuilt.threshold == res.threshold
    assert rebuilt.metadata["note"] == "x"
    assert encoders.pair_digest(rebuilt.pair) == encoders.pair_digest(bundle.pair)


def _series_of(bundle):
    """Wrap the bundle's pair as a one-epoch series at its best epoch index."""
    n = bundle.calibration.best_epoch + 1
    pairs = [bundle.pair] * n
    return encoders.CheckpointSeries(pairs, bundle.partition.digest(), {}, [0.0] * n)


@pytest.mark.parametrize("control_rate", [10.0, 5.0, 1.0])
def test_batched_equals_per_vector_on_benchmark_splits(
    control_rate, splits, detector, bundle_at, greedy_traces
):
    """Full-size defense: detect and defended_run agree exactly on every row."""
    bundle = bundle_at(control_rate)
    _, calib, test = splits
    finals = Dataset(test.space, tuple(
        Sample(f"{t.sample_id}~greedy", t.final_vector, MALICIOUS, 0)
        for t in greedy_traces if t.success
    ))
    for dataset in (calib, test, finals):
        batch = pipeline.defended_run(bundle, detector, dataset)
        single = [pipeline.detect(bundle, detector, s.vector)[1] for s in dataset.samples]
        assert batch == single
