"""Acceptance gates for the defense plug-in, run end to end at desk scale.

Each test checks one gate and reports a single PASS/FAIL line with the
measured numbers; the lines are echoed in a summary block at the end of the
run. The heavy fixtures (planted benchmark, detector, encoder checkpoints,
stored attack traces) live in conftest.py and are shared.
"""
import time

import numpy as np
import pytest

from malguard import attacks, calibration, data, detectors, encoders, nnet
from malguard import pipeline, problem_space, quantify, storage, synthetic


def test_criterion_01_loss_gradients_match_finite_differences(splits, pam, partition, announce):
    t0 = time.perf_counter()
    pair = encoders.init_pair(partition, encoders.TrainConfig(), np.random.SeedSequence(17))
    batch = next(encoders.epoch_batches(splits[0], pam, partition, 32, np.random.default_rng(19)))
    assert (batch.n_benign, batch.n_pm, batch.ps_inputs.shape[0]) == (32, 8, 80)

    _, _, grads = encoders.batch_loss(pair, batch, margin=1.0)
    params = nnet.flat_params([pair.eps, pair.eips])
    assert len(grads) == len(params)

    def central(p, j, eps):
        orig = p.flat[j]
        p.flat[j] = orig + eps
        hi, _, _ = encoders.batch_loss(pair, batch, margin=1.0, want_grads=False)
        p.flat[j] = orig - eps
        lo, _, _ = encoders.batch_loss(pair, batch, margin=1.0, want_grads=False)
        p.flat[j] = orig
        return (hi - lo) / (2 * eps)

    # The loss is piecewise smooth, so a random coordinate can land within
    # eps of a hinge or relu boundary where central differences are
    # meaningless. Two step sizes expose that: the estimates disagree at a
    # kink (and only there, since they probe the function, not our gradient
    # code), and such coordinates are redrawn. A wrong analytic gradient
    # stays self-consistent and still fails the comparison below.
    rng = np.random.default_rng(23)
    candidates = [(ai, j) for ai, p in enumerate(params)
                  for j in rng.integers(0, p.size, size=9)]
    worst = 0.0
    kept = 0
    skipped = 0
    arrays_hit = set()
    while candidates:
        ai, j = candidates.pop(0)
        p, g = params[ai], grads[ai]
        d_fine = central(p, j, 1e-6)
        d_coarse = central(p, j, 4e-6)
        if abs(d_fine - d_coarse) > 1e-5 * max(abs(d_fine), abs(d_coarse), 1e-6):
            skipped += 1
            ai2 = int(rng.integers(0, len(params)))
            candidates.append((ai2, int(rng.integers(0, params[ai2].size))))
            continue
        ana = g.flat[j]
        worst = max(worst, abs(d_coarse - ana) / max(abs(d_coarse), abs(ana), 1e-6))
        kept += 1
        arrays_hit.add(ai)
    elapsed = time.perf_counter() - t0

    ok = (kept >= 100 and skipped <= 20 and len(arrays_hit) == len(params)
          and worst <= 1e-4 and elapsed < 30)
    announce(1, "loss gradients match finite differences", ok,
             f"{kept} coordinates ({skipped} redrawn at kinks), "
             f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_quantification_recovers_planted_space_exactly(announce):
    t0 = time.perf_counter()
    cfg = synthetic.GeneratorConfig(
        dim=300, ps_size=60, n_benign=10, n_malicious=10,
        ips_mode_bits=20, malware_bits=40, n_perturbations=12, seed=0,
    )
    space = data.FeatureSpace(tuple(f"f{i}" for i in range(cfg.dim)))
    exact = 0
    gated_cases = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        layout = synthetic.plant_layout(cfg, rng)
        grammar = synthetic.plant_grammar(layout, cfg, rng)
        apps = problem_space.builtin_quantification_apps(cfg.dim, layout.main_activity)
        part = quantify.quantify(space, apps, grammar)
        if set(part.ps) == set(layout.partition.ps):
            exact += 1
        # the bare app alone cannot trigger the activity-gated perturbations,
        # so it must strictly under-recover
        part0 = quantify.quantify(space, apps[:1], grammar)
        if set(part0.ps) < set(layout.partition.ps):
            gated_cases += 1
    elapsed = time.perf_counter() - t0

    ok = exact == 50 and gated_cases == 50 and elapsed < 60
    announce(2, "quantification recovers the planted perturbable set", ok,
             f"{exact}/50 exact, {gated_cases}/50 need the activity app, {elapsed:.1f}s")
    assert ok


def test_criterion_03_pseudo_adversarial_vectors_are_valid(
        splits, detector, partition, pam, timings, announce):
    t0 = time.perf_counter()
    sources = {s.id: s for s in splits[0].by_label(data.MALICIOUS)}
    ips = set(partition.ips)
    ps = set(partition.ps)
    benign = 0
    ips_identical = 0
    for p in pam:
        if not detector.is_malicious(p.vector):
            benign += 1
        src = sources[p.source_id].vector.as_set()
        now = p.vector.as_set()
        if (src ^ now) <= ps and (src & ips) == (now & ips):
            ips_identical += 1
    elapsed = time.perf_counter() - t0 + timings["pseudo"]

    n = len(pam)
    ok = n >= 500 and benign == n and ips_identical == n and elapsed < 60
    announce(3, "pseudo-adversarial vectors evade and stay inside the perturbable space",
             ok, f"{n} generated, {benign} detector-benign, "
                 f"{ips_identical} imperturbable-identical, {elapsed:.1f}s")
    assert ok


def test_criterion_04_threshold_calibration_is_controlled_and_optimal(
        splits, detector, series, partition, bundle_at, timings, announce):
    t0 = time.perf_counter()
    _, calib, test = splits

    # held-out true negatives of the detector
    x_test = test.matrix()
    pred_mal = detector.decision_scores(x_test) > detector.decision_threshold
    tn_mask = np.array([s.label == data.BENIGN for s in test.samples]) & ~pred_mal
    x_tn_test = x_test[np.nonzero(tn_mask)[0]]
    n_tn = int(tn_mask.sum())

    # per-epoch score tables on the calibration split, computed once
    tn_rows, fn_rows = calibration.detector_negative_scores(calib, detector)
    x_cal = calib.matrix()
    tn_scores = [encoders.batch_scores(series[e], partition, x_cal[tn_rows])
                 for e in range(len(series))]
    fn_scores = [encoders.batch_scores(series[e], partition, x_cal[fn_rows])
                 for e in range(len(series))]

    details = []
    ok = n_tn >= 2000
    for k in (10.0, 5.0, 1.0):
        bundle = bundle_at(k)
        realized = calibration.tnir(
            encoders.batch_scores(bundle.pair, partition, x_tn_test), bundle.threshold)
        ok = ok and abs(realized - k / 100.0) <= 0.02
        details.append(f"K={k:g}: realized {realized:.4f}")

        # brute force over every epoch; the calibrator must match it exactly
        per_epoch = [
            calibration.fnir(fn_scores[e],
                             calibration.percentile_threshold(tn_scores[e], k))
            for e in range(len(series))
        ]
        best = max(per_epoch)
        res = bundle.calibration
        ok = ok and res.fnir_at_threshold == best
        ok = ok and res.best_epoch == per_epoch.index(best)
    elapsed = time.perf_counter() - t0 + timings["encoders"]
    ok = ok and elapsed < 300

    announce(4, "calibration hits the flag budget and picks the best epoch", ok,
             f"{n_tn} held-out negatives, {'; '.join(details)}, {elapsed:.1f}s")
    assert ok


def test_criterion_05_defense_beats_attack_and_adversarial_training(
        splits, detector, series, partition, greedy_traces, bundle_at, timings, announce):
    t0 = time.perf_counter()
    train, calib, test = splits
    eligible = [t for t in greedy_traces if t.eligible]
    asr_before, asr_after = attacks.offline_defense_rates(greedy_traces, bundle_at(5.0))
    nd5 = attacks.ndasr(asr_before, asr_after)

    # adversarial-training baseline, compared at a matched flag budget
    retrained, _ = attacks.adversarial_training_baseline(
        train, partition, detector, lambda ds, s: detectors.train_linear(ds, seed=s), seed=3)
    b0, a0 = attacks.detector_rescore_rates(greedy_traces, retrained)
    nd_base = attacks.ndasr(b0, a0)
    tn = [s.vector for s in test.samples
          if s.label == data.BENIGN and not detector.is_malicious(s.vector)]
    flip_rate = sum(1 for v in tn if retrained.is_malicious(v)) / len(tn)
    k_match = max(100.0 * flip_rate, 0.05)
    res = calibration.calibrate(calib, detector, series, partition, k_match)
    matched = pipeline.bundle_from_calibration(series, res, detector, partition)
    bm, am = attacks.offline_defense_rates(greedy_traces, matched)
    nd_matched = attacks.ndasr(bm, am)
    elapsed = time.perf_counter() - t0 + timings["greedy"]

    ok = (len(eligible) >= 200 and nd5 >= 0.80 and nd_matched > nd_base
          and elapsed < 900)
    announce(5, "defense blunts the greedy attack and beats adversarial training", ok,
             f"{len(eligible)} attacked, NDASR@K=5 {nd5:.3f}, matched K={k_match:.2f}: "
             f"{nd_matched:.3f} vs baseline {nd_base:.3f}, {elapsed:.0f}s")
    assert ok


def test_criterion_06_adaptive_attacks_stay_below_asr_bound(
        attack_targets, detector, partition, bench, bundle_at, announce):
    t0 = time.perf_counter()
    bundle = bundle_at(5.0)
    perts = list(bench.perturbations)
    cfg = attacks.AttackConfig(query_budget=10, variant_count=10, seed=21)
    sub = attack_targets[:100]
    hits1 = sum(attacks.adaptive_attack_1(s, bundle, detector, perts, partition, cfg).success
                for s in sub)
    hits2 = sum(attacks.adaptive_attack_2(s, bundle, detector, perts, partition, cfg).success
                for s in sub)
    asr1, asr2 = hits1 / len(sub), hits2 / len(sub)
    elapsed = time.perf_counter() - t0

    ok = len(sub) == 100 and asr1 <= 0.15 and asr2 <= 0.15 and elapsed < 900
    announce(6, "adaptive attackers stay under the success bound", ok,
             f"label-only ASR {asr1:.2f}, variant-picking ASR {asr2:.2f}, {elapsed:.0f}s")
    assert ok


def test_criterion_07_revisiting_never_touches_detector_malicious(
        splits, detector, bundle_at, announce):
    bad_flips = 0
    monotone = True
    total = 0
    for k in (10.0, 5.0, 1.0):
        bundle = bundle_at(k)
        for ds in splits:
            records = list(pipeline.defended_run(bundle, detector, ds))
            assert len(records) == len(ds)
            total += len(records)
            for r in records:
                if r.original_label == data.MALICIOUS and r.final_label == data.BENIGN:
                    bad_flips += 1
                if not r.revisited and r.final_label != r.original_label:
                    bad_flips += 1
            labels = [s.label for s in ds.samples]
            det_fn = sum(1 for lab, r in zip(labels, records)
                         if lab == data.MALICIOUS and r.original_label == data.BENIGN)
            dfd_fn = sum(1 for lab, r in zip(labels, records)
                         if lab == data.MALICIOUS and r.final_label == data.BENIGN)
            det_tn = sum(1 for lab, r in zip(labels, records)
                         if lab == data.BENIGN and r.original_label == data.BENIGN)
            dfd_tn = sum(1 for lab, r in zip(labels, records)
                         if lab == data.BENIGN and r.final_label == data.BENIGN)
            monotone = monotone and dfd_fn <= det_fn and dfd_tn <= det_tn

    ok = bad_flips == 0 and monotone
    announce(7, "revisiting only ever tightens detector-benign verdicts", ok,
             f"{total} audit records across 3 budgets x 3 splits, {bad_flips} bad flips")
    assert ok


def test_criterion_08_rebuild_and_round_trips_are_bit_identical(
        splits, partition, bundle_at, series, tmp_path, announce):
    # a small world keeps the double build cheap
    gen = synthetic.GeneratorConfig(
        dim=300, ps_size=60, n_benign=400, n_malicious=160,
        ips_mode_bits=20, malware_bits=40, n_perturbations=12, seed=42)
    bench = synthetic.generate(gen)
    train, calib, _ = data.split_random(bench.dataset, (0.5, 0.25, 0.25), 1)
    det = detectors.train_linear(train, seed=2)
    apps = problem_space.builtin_quantification_apps(gen.dim, bench.layout.main_activity)
    cfg = pipeline.DefenseConfig(
        pseudo_budget=60, pseudo_flip_limit=10, control_rate=5.0,
        encoder=encoders.TrainConfig(epochs=6, embed_dim=4, width_factor=2,
                                     max_hidden=8, batch_size=32),
        seed=13)
    first = pipeline.build(train, calib, det, list(bench.perturbations), apps, cfg)
    pipeline.save_bundle(first, tmp_path / "first.bundle")

    # rebuild from nothing but the archived config
    loaded = pipeline.load_bundle(tmp_path / "first.bundle")
    doc = dict(loaded.metadata["config"])
    enc_doc = dict(doc.pop("encoder"))
    enc_doc["lambdas"] = tuple(enc_doc["lambdas"])
    cfg_rt = pipeline.DefenseConfig(encoder=encoders.TrainConfig(**enc_doc), **doc)
    assert cfg_rt == cfg
    second = pipeline.build(train, calib, det, list(bench.perturbations), apps, cfg_rt)
    pipeline.save_bundle(second, tmp_path / "second.bundle")

    rebuilt_ok = (
        second.threshold == first.threshold
        and second.calibration == first.calibration
        and second.metadata["epoch_losses"] == first.metadata["epoch_losses"]
        and encoders.pair_digest(second.pair) == encoders.pair_digest(first.pair)
        and storage.file_sha256(tmp_path / "second.bundle")
        == storage.file_sha256(tmp_path / "first.bundle")
    )

    # save/load must not move a single bit of any score
    bundle = bundle_at(5.0)
    x = splits[2].matrix()[:200]
    before = encoders.batch_scores(bundle.pair, partition, x)
    pipeline.save_bundle(bundle, tmp_path / "big.bundle")
    back = pipeline.load_bundle(tmp_path / "big.bundle")
    series.save(tmp_path / "series.ckpt")
    series_back = encoders.CheckpointSeries.load(tmp_path / "series.ckpt")
    epoch = bundle.calibration.best_epoch
    round_trip_ok = (
        back.threshold == bundle.threshold
        and np.array_equal(before, encoders.batch_scores(back.pair, back.partition, x))
        and np.array_equal(
            encoders.batch_scores(series[epoch], partition, x),
            encoders.batch_scores(series_back[epoch], partition, x))
    )

    ok = rebuilt_ok and round_trip_ok
    announce(8, "rebuilds and round trips reproduce every score bit for bit", ok,
             f"rebuild identical: {rebuilt_ok}, round trips exact: {round_trip_ok}")
    assert ok


def test_criterion_09_stricter_budgets_never_help_the_attacker(
        greedy_traces, bundle_at, announce):
    nd = {}
    for k in (10.0, 5.0, 1.0):
        b, a = attacks.offline_defense_rates(greedy_traces, bundle_at(k))
        nd[k] = attacks.ndasr(b, a)

    # one point of slack for sampling noise
    ok = nd[10.0] >= nd[5.0] - 0.01 and nd[5.0] >= nd[1.0] - 0.01
    announce(9, "NDASR is monotone in the flag budget", ok,
             f"K=10: {nd[10.0]:.3f}, K=5: {nd[5.0]:.3f}, K=1: {nd[1.0]:.3f}")
    assert ok
