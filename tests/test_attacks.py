"""Query-budgeted evasion, trace replay, defense scoring of stored attacks."""
import warnings
from dataclasses import replace

import numpy as np
import pytest

from malguard.data import BENIGN, MALICIOUS, Dataset, FeatureSpace, FeatureVector, Sample
from malguard.detectors import LinearModel
from malguard import attacks, calibration, encoders, pipeline
from malguard.attacks import AttackConfig, AttackTrace
from malguard.problem_space import Perturbation
from malguard.quantify import SpacePartition


def pert(pid, adds, requires=()):
    return Perturbation(pid, "inject", frozenset(adds), frozenset(requires), frozenset())


def mal(sid, idx, dim=8):
    return Sample(sid, FeatureVector.make(idx, dim), MALICIOUS, 0)


def counting(oracle):
    calls = []

    def wrapped(v):
        calls.append(v)
        return oracle(v)

    return wrapped, calls


# Linear detector over 8 bits: bit 0 is the giveaway, bits 4..7 vote benign.
def toy_detector():
    w = np.array([3.0, 0.0, 0.0, 0.0, -1.0, -1.0, -1.0, -1.0])
    return LinearModel(w, -0.5)


def toy_partition():
    return SpacePartition.from_ps([4, 5, 6, 7], 8)


def toy_perts():
    return [pert(f"p{i}", {4 + i}) for i in range(4)]


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(query_budget=0)
    with pytest.raises(ValueError):
        AttackConfig(variant_count=0)
    with pytest.raises(ValueError):
        AttackConfig(target="detector")


def test_greedy_respects_budget_and_counts_queries():
    det = toy_detector()
    oracle, calls = counting(attacks.detector_oracle(det, with_scores=True))
    src = mal("m0", [0])  # score 2.5; needs three benign bits to fall below 0
    cfg = AttackConfig(query_budget=2, seed=0)
    trace = attacks.greedy_attack(src, oracle, toy_perts(), toy_partition(), cfg)
    assert not trace.success
    assert trace.queries_used == len(calls) == 2

    oracle, calls = counting(attacks.detector_oracle(det, with_scores=True))
    cfg = AttackConfig(query_budget=10, seed=0)
    trace = attacks.greedy_attack(src, oracle, toy_perts(), toy_partition(), cfg)
    assert trace.success
    assert trace.queries_used == len(calls) <= 10
    assert not det.is_malicious(trace.final_vector)
    # applied ids recorded in commit order and reproducible via replay
    replayed = attacks.replay(trace, src, toy_perts(), 8)
    assert replayed.as_set() == trace.final_vector.as_set()


def test_greedy_only_adds_perturbable_bits():
    det = toy_detector()
    src = mal("m1", [0, 2])
    cfg = AttackConfig(query_budget=10, seed=3)
    trace = attacks.greedy_attack(
        src, attacks.detector_oracle(det), toy_perts(), toy_partition(), cfg
    )
    added = trace.final_vector.as_set() - src.vector.as_set()
    assert added <= {4, 5, 6, 7}
    assert src.vector.as_set() <= trace.final_vector.as_set()


def test_greedy_rejects_out_of_space_grammar():
    det = toy_detector()
    bad = [pert("bad", {0, 4})]
    with pytest.raises(ValueError):
        attacks.greedy_attack(
            mal("m2", [0]), attacks.detector_oracle(det), bad, toy_partition(), AttackConfig()
        )


def test_greedy_deterministic_per_sample():
    det = toy_detector()
    cfg = AttackConfig(query_budget=6, seed=5)
    for sid in ("a", "b"):
        src = mal(sid, [0])
        t1 = attacks.greedy_attack(
            src, attacks.detector_oracle(det), toy_perts(), toy_partition(), cfg
        )
        t2 = attacks.greedy_attack(
            src, attacks.detector_oracle(det), toy_perts(), toy_partition(), cfg
        )
        assert t1 == t2


def test_label_only_feedback_commits_every_miss():
    # under label-only feedback every failed query still grows the vector
    det = toy_detector()
    oracle = attacks.detector_oracle(det, with_scores=False)
    src = mal("m3", [0])
    cfg = AttackConfig(query_budget=3, seed=1, target="detector-only")
    trace = attacks.greedy_attack(src, oracle, toy_perts(), toy_partition(), cfg)
    # three queries, three commits (or an early success on the third)
    assert trace.queries_used == 3
    assert trace.success or len(trace.applied) == 3


def test_score_feedback_skips_regressions():
    # bit 4 lowers the score, bit 5 raises it; gating the decoy behind bit 4
    # pins the probe order so the regression happens after a baseline exists
    w = np.array([3.0, 0.0, 0.0, 0.0, -1.0, 2.0, -1.0, -1.0])
    det = LinearModel(w, -0.5)
    perts = [pert("good", {4}), pert("decoy", {5}, requires={4})]
    src = mal("m4", [0])
    cfg = AttackConfig(query_budget=6, seed=0)
    trace = attacks.greedy_attack(
        src, attacks.detector_oracle(det, with_scores=True), perts, toy_partition(), cfg
    )
    # good commits (first probe), the decoy regresses and is never committed,
    # and with both perturbations exhausted the attack stops early
    assert trace.applied == ("good",)
    assert not trace.success
    assert trace.queries_used == 2


def test_ineligible_sample_short_circuits():
    det = toy_detector()
    gated = [pert("g", {4}, requires={1})]
    src = mal("m5", [0])  # lacks bit 1, so nothing applies
    suite = attacks.attack_suite(
        [src], attacks.detector_oracle(det), gated, toy_partition(), AttackConfig()
    )
    assert len(suite) == 1
    assert not suite[0].eligible
    assert suite[0].queries_used == 0
    assert not suite[0].success


def test_ndasr_frozen_values():
    assert attacks.ndasr(0.60, 0.03) == pytest.approx(0.95)
    assert attacks.ndasr(0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        attacks.ndasr(0.0, 0.0)


def test_traces_round_trip(tmp_path):
    det = toy_detector()
    sources = [mal(f"m{i}", [0]) for i in range(6)]
    cfg = AttackConfig(query_budget=8, seed=2)
    traces = attacks.attack_suite(
        sources, attacks.detector_oracle(det), toy_perts(), toy_partition(), cfg
    )
    p = tmp_path / "traces.jsonl"
    attacks.save_traces(traces, p)
    first = p.read_bytes()
    back = attacks.load_traces(p, dim=8)
    assert back == traces
    attacks.save_traces(back, p)
    assert p.read_bytes() == first


def tiny_bundle(det, part, scale=0.0):
    """Bundle whose scorer reacts to imperturbable bit 1 with weight scale."""
    cfg = encoders.TrainConfig(embed_dim=2, width_factor=2, max_hidden=4)
    pair = encoders.init_pair(part, cfg, np.random.SeedSequence(0))
    for mlp in (pair.eps, pair.eips):
        for w in mlp.weights:
            w[:] = 0.0
        for b in mlp.biases:
            b[:] = 0.0
    idx1 = list(part.ips).index(1)
    pair.eips.weights[0][idx1, :] = 1.0
    pair.eips.weights[-1][:] = np.eye(*pair.eips.weights[-1].shape) * scale
    from malguard import calibration as cal

    res = cal.CalibrationResult(
        threshold=1.0,
        best_epoch=0,
        tnir_at_threshold=0.0,
        fnir_at_threshold=0.0,
        control_rate=5.0,
        table=(cal.EpochCalibration(0, 1.0, 0.0),),
    )
    from malguard.detectors import model_digest

    return pipeline.DefenseBundle(pair, 1.0, part, model_digest(det), res, {})


def test_offline_defense_rates_rescore_stored_finals():
    det = toy_detector()
    part = toy_partition()
    # evaders that carry bit 1 score sqrt(2)*2 > 1 and die offline; others live
    t_live = AttackTrace("a", True, 3, FeatureVector.make([0, 4, 5, 6], 8), ("p0", "p1", "p2"), True)
    t_dead = AttackTrace("b", True, 3, FeatureVector.make([0, 1, 4, 5, 6], 8), ("p0", "p1", "p2"), True)
    t_fail = AttackTrace("c", False, 8, FeatureVector.make([0], 8), (), True)
    bundle = tiny_bundle(det, part, scale=2.0)
    before, after = attacks.offline_defense_rates([t_live, t_dead, t_fail], bundle)
    assert before == pytest.approx(2 / 3)
    assert after == pytest.approx(1 / 3)
    assert attacks.ndasr(before, after) == pytest.approx(0.5)


def test_offline_rates_ignore_ineligible_and_require_some():
    det = toy_detector()
    bundle = tiny_bundle(det, toy_partition())
    skip = AttackTrace("x", False, 0, FeatureVector.make([0], 8), (), False)
    win = AttackTrace("y", True, 1, FeatureVector.make([0, 4], 8), ("p0",), True)
    before, after = attacks.offline_defense_rates([skip, win], bundle)
    assert before == 1.0  # denominator excludes the ineligible trace
    with pytest.raises(ValueError):
        attacks.offline_defense_rates([skip], bundle)


def test_detector_rescore_rates():
    det = toy_detector()
    win = AttackTrace("y", True, 1, FeatureVector.make([0, 4, 5, 6], 8), ("p0", "p1", "p2"), True)
    lose = AttackTrace("z", False, 8, FeatureVector.make([0], 8), (), True)
    before, after = attacks.detector_rescore_rates([win, lose], det)
    assert before == 0.5
    assert after == 0.5  # same detector keeps missing the stored final
    sharper = LinearModel(np.array([3.0, 0, 0, 0, 0.1, 0.1, 0.1, 0.1]), -0.5)
    _, after2 = attacks.detector_rescore_rates([win, lose], sharper)
    assert after2 == 0.0


def test_adaptive_attack_2_totals_queries_and_picks_min_score():
    det = toy_detector()
    part = toy_partition()
    bundle = tiny_bundle(det, part, scale=0.0)  # scorer always 0 <= threshold
    src = mal("m7", [0])
    cfg = AttackConfig(query_budget=4, variant_count=3, seed=6)
    trace = attacks.adaptive_attack_2(src, det, bundle, toy_perts(), part, cfg)
    assert trace.queries_used <= 3 * 4
    singles = [
        attacks.greedy_attack(
            src,
            attacks.detector_oracle(det, with_scores=True),
            toy_perts(),
            part,
            AttackConfig(query_budget=4, seed=attacks.storage.stage_seed(6, f"variant-{v}")),
        )
        for v in range(3)
    ]
    assert trace.queries_used == sum(t.queries_used for t in singles)
    if any(t.success for t in singles):
        assert trace.success  # threshold 1.0, score 0 passes the defense


def test_adaptive_attack_2_fails_when_defense_catches_all():
    det = toy_detector()
    part = toy_partition()
    bundle = tiny_bundle(det, part, scale=9.0)
    src = mal("m8", [0, 1])  # bit 1 makes every evader score sqrt(2)*9 > 1
    cfg = AttackConfig(query_budget=6, variant_count=2, seed=7)
    trace = attacks.adaptive_attack_2(src, det, bundle, toy_perts(), part, cfg)
    assert not trace.success


def toy_evaluation_world():
    """Traces, series, calibration set, detector and partition of a toy run."""
    det = toy_detector()
    part = toy_partition()
    dim = 8
    space = FeatureSpace(tuple(f"f{i}" for i in range(dim)))
    rng = np.random.default_rng(4)
    samples = []
    for i in range(160):
        benign = i % 2 == 0
        idx = set()
        if not benign:
            idx.add(0)
        if rng.random() < 0.5:
            idx.add(int(rng.integers(4, 8)))
        if rng.random() < 0.3:
            idx.add(1)
        samples.append(
            Sample(f"s{i:03d}", FeatureVector.make(idx, dim), BENIGN if benign else MALICIOUS, i)
        )
    calib_ds = Dataset(space, tuple(samples))
    cfgs = encoders.TrainConfig(
        epochs=3, embed_dim=2, width_factor=2, max_hidden=4, batch_size=16, dropout=0.0, seed=2
    )
    mal_rows = [s for s in calib_ds.by_label(MALICIOUS) if det.is_malicious(s.vector)]
    from malguard import pseudo as ps_mod

    pam = ps_mod.generate(mal_rows, det, part, budget=50, seed=0)
    series = encoders.train(calib_ds, pam, part, cfgs)
    traces = attacks.attack_suite(
        mal_rows[:20], attacks.detector_oracle(det), toy_perts(), part, AttackConfig(seed=1)
    )
    return traces, series, calib_ds, det, part


def bundles_at(world, control_rates):
    """One defense bundle per budget, all calibrated from one score table."""
    traces, series, calib_ds, det, part = world
    table = calibration.score_table(calib_ds, det, series, part)
    return [
        pipeline.bundle_from_calibration(
            series, calibration.calibrate_table(table, k), det, part
        )
        for k in control_rates
    ]


@pytest.mark.filterwarnings("ignore:no false negatives")
def test_evaluate_defense_rows():
    world = toy_evaluation_world()
    report = attacks.evaluate_defense(world[0], bundles_at(world, (10.0, 5.0)))
    assert [row.control_rate for row in report.rows] == [10.0, 5.0]
    for row in report.rows:
        assert 0.0 <= row.tnir <= 1.0
        assert row.asr_after <= row.asr_before
        doc = report.to_dict()
        assert len(doc["rows"]) == 2


@pytest.mark.filterwarnings("ignore:no false negatives")
def test_evaluate_defense_equals_from_scratch_calibration():
    world = toy_evaluation_world()
    traces, series, calib_ds, det, part = world
    rates = (10.0, 5.0, 1.0)
    rows = attacks.evaluate_defense(traces, bundles_at(world, rates)).rows
    for k, row in zip(rates, rows):
        result = calibration.calibrate(calib_ds, det, series, part, k)
        bundle = pipeline.bundle_from_calibration(series, result, det, part)
        before, after = attacks.offline_defense_rates(traces, bundle)
        assert row == attacks.EvalRow(
            k, result.threshold, result.best_epoch, result.tnir_at_threshold,
            result.fnir_at_threshold, before, after, attacks.ndasr(before, after),
        )


def test_evaluate_defense_warns_once_without_false_negatives():
    world = toy_evaluation_world()
    traces, series, calib_ds, det, part = world
    assert calibration.detector_negative_scores(calib_ds, det)[1].size == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = attacks.evaluate_defense(traces, bundles_at(world, (10.0, 5.0)))
    assert [str(w.message) for w in caught] == [
        "no false negatives in calibration data; FNIR defined as 0"
    ]
    assert [row.fnir for row in report.rows] == [0.0, 0.0]


@pytest.mark.filterwarnings("ignore:no false negatives")
def test_evaluate_defense_all_failed_traces_have_undefined_ndasr():
    world = toy_evaluation_world()
    failed = [replace(t, success=False) for t in world[0]]
    report = attacks.evaluate_defense(failed, bundles_at(world, (10.0, 5.0)))
    assert [(r.asr_before, r.asr_after, r.ndasr) for r in report.rows] == [(0.0, 0.0, None)] * 2
    assert report.to_dict()["rows"][0]["ndasr"] is None
