"""Threshold calibration over detector negatives and checkpoint selection."""
import warnings

import numpy as np
import pytest

from malguard.data import BENIGN, MALICIOUS, Dataset, FeatureSpace, FeatureVector, Sample
from malguard.detectors import LinearModel
from malguard import calibration, encoders
from malguard.calibration import CalibrationError, fnir, percentile_threshold, tnir
from malguard.encoders import CheckpointSeries, TrainConfig
from malguard.quantify import SpacePartition


def test_tnir_counts_strictly_above():
    assert tnir([1.0, 2.0, 3.0, 4.0], 3.5) == 0.25
    # equality never flags
    assert tnir([1.0, 2.0, 3.0, 4.0], 4.0) == 0.0
    with pytest.raises(CalibrationError):
        tnir([], 0.0)


def test_fnir_strict_and_empty_default():
    assert fnir([0.1, 5.0], 1.0) == 0.5
    assert fnir([1.0], 1.0) == 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert fnir([], 2.0) == 0.0
    assert any("no false negatives" in str(w.message) for w in caught)


# Nearest-rank on 1..100 at a 5 percent budget: rank ceil(0.95*100) = 95,
# so the threshold is 95 and exactly {96..100} sit strictly above it.
def test_percentile_threshold_frozen():
    scores = np.arange(1.0, 101.0)
    t = percentile_threshold(scores, 5.0)
    assert t == 95.0
    assert tnir(scores, t) == 0.05


def test_percentile_threshold_small_sets():
    assert percentile_threshold([7.0], 5.0) == 7.0
    assert percentile_threshold([1.0, 2.0], 50.0) == 1.0
    assert percentile_threshold([3.0] * 40, 5.0) == 3.0  # constant scores
    with pytest.raises(CalibrationError):
        percentile_threshold([], 5.0)
    with pytest.raises(ValueError):
        percentile_threshold([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile_threshold([1.0], 100.0)


def make_calib_setup():
    """Calibration set plus a detector that misses half the malicious rows.

    Detector rule: malicious iff bit 0 set. Malicious samples without bit 0
    are its false negatives.
    """
    dim = 6
    space = FeatureSpace(tuple(f"f{i}" for i in range(dim)))
    part = SpacePartition.from_ps([3, 4, 5], dim)
    samples = []
    rng = np.random.default_rng(0)
    for i in range(80):
        samples.append(
            Sample(
                f"b{i:03d}",
                FeatureVector.make(rng.choice([3, 4], size=1), dim),
                BENIGN,
                i,
            )
        )
    for i in range(40):
        caught = i % 2 == 0
        idx = [0, 5] if caught else [1, 5]
        samples.append(Sample(f"m{i:03d}", FeatureVector.make(idx, dim), MALICIOUS, i))
    ds = Dataset(space, tuple(samples))
    w = np.zeros(dim)
    w[0] = 1.0
    detector = LinearModel(w, -0.5)
    return ds, part, detector


def rigged_series(part, biases):
    """One rigged checkpoint per bias choice; scores depend on bit 5 only."""
    cfg = TrainConfig(embed_dim=2, width_factor=2, max_hidden=4)
    pairs = []
    for scale in biases:
        pair = encoders.init_pair(part, cfg, np.random.SeedSequence(1))
        for mlp in (pair.eps, pair.eips):
            for w in mlp.weights:
                w[:] = 0.0
            for b in mlp.biases:
                b[:] = 0.0
        # eips reacts to bit 1 (imperturbable, set on the detector's misses)
        pair.eips.weights[0][:] = 0.0
        idx1 = list(part.ips).index(1)
        pair.eips.weights[0][idx1, :] = 1.0
        pair.eips.weights[-1][:] = np.eye(*pair.eips.weights[-1].shape) * scale
        pairs.append(pair)
    return CheckpointSeries(pairs, part.digest(), {"epochs": len(pairs)}, [0.0] * len(pairs))


def test_detector_negative_scores_partition():
    ds, part, detector = make_calib_setup()
    tn_rows, fn_rows = calibration.detector_negative_scores(ds, detector)
    assert len(tn_rows) == 80
    assert len(fn_rows) == 20
    for i in fn_rows:
        assert ds.samples[i].label == MALICIOUS
        assert not detector.is_malicious(ds.samples[i].vector)


def test_calibrate_picks_separating_epoch():
    ds, part, detector = make_calib_setup()
    # epoch 0 scores everything 0; epoch 1 separates FN (bit 5) from TN
    series = rigged_series(part, [0.0, 2.0])
    res = calibration.calibrate(ds, detector, series, part, control_rate=5.0)
    assert res.best_epoch == 1
    assert res.fnir_at_threshold == 1.0
    assert res.tnir_at_threshold <= 0.05
    assert len(res.table) == 2
    assert res.control_rate == 5.0


def test_calibrate_tie_prefers_first_epoch():
    ds, part, detector = make_calib_setup()
    series = rigged_series(part, [2.0, 2.0, 2.0])
    res = calibration.calibrate(ds, detector, series, part, control_rate=5.0)
    assert res.best_epoch == 0


def test_calibrate_rejects_partition_mismatch():
    ds, part, detector = make_calib_setup()
    series = rigged_series(part, [1.0])
    other = SpacePartition.from_ps([0, 1], part.dim)
    with pytest.raises(ValueError):
        calibration.calibrate(ds, detector, series, other, 5.0)


def test_calibrate_requires_true_negatives():
    ds, part, detector = make_calib_setup()
    series = rigged_series(part, [1.0])
    only_mal = ds.subset([i for i, s in enumerate(ds.samples) if s.label == MALICIOUS])
    with pytest.raises(CalibrationError):
        calibration.calibrate(only_mal, detector, series, part, 5.0)
