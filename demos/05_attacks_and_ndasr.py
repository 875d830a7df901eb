"""Attacking the detector, then measuring what the defense takes back.

A query-budgeted greedy attacker evades the bare detector easily. Re-scoring
its winning payloads with the calibrated defense shows how much of that
success survives, summarized as the normalized drop in attack success rate.
Two adaptive attackers that know about the defense come next, and an
adversarial-training baseline gets the same traces for comparison.

Everything here runs at toy scale to stay fast; the acceptance tests drive
the same machinery at full size, where the margins are much wider.
"""
from malguard import attacks, calibration, data, detectors, encoders, pipeline
from malguard import problem_space, pseudo, quantify, synthetic

cfg = synthetic.GeneratorConfig(
    dim=1200, ps_size=120, n_benign=2400, n_malicious=800,
    ips_mode_bits=60, malware_bits=120, n_perturbations=20, seed=11,
)
bench = synthetic.generate(cfg)
train, calib, test = data.split_random(bench.dataset, (0.5, 0.2, 0.3), 1)
det = detectors.train_linear(train, seed=2)
apps = problem_space.builtin_quantification_apps(cfg.dim, bench.layout.main_activity)
perts = list(bench.perturbations)
part = quantify.quantify(bench.dataset.space, apps, perts)
pam = pseudo.generate(train.by_label(data.MALICIOUS), det, part, budget=100,
                      flip_limit=20, seed=3)
series = encoders.train(train, pam, part,
                        encoders.TrainConfig(epochs=25, embed_dim=32, max_hidden=512, seed=5))

tps = [s for s in test.by_label(data.MALICIOUS) if det.is_malicious(s.vector)][:100]
acfg = attacks.AttackConfig(query_budget=10, seed=21)
traces = attacks.attack_suite(tps, attacks.detector_oracle(det), perts, part, acfg)
hits = sum(t.success for t in traces)
print(f"greedy attacker vs bare detector: {hits}/{len(traces)} evade "
      f"within {acfg.query_budget} queries")

# Score every checkpoint once; each TNIR budget is a selection over that table.
table = calibration.score_table(calib, det, series, part)
bundles = {k: pipeline.bundle_from_calibration(
               series, calibration.calibrate_table(table, k), det, part)
           for k in (10.0, 5.0, 1.0)}
report = attacks.evaluate_defense(traces, list(bundles.values()))
for row in report.rows:
    print(f"  K={row.control_rate:>4}: ASR {row.asr_before:.2f} -> {row.asr_after:.2f}, "
          f"NDASR {row.ndasr:.2f} (threshold {row.threshold:.3f}, epoch {row.best_epoch})")

bundle = bundles[5.0]
sub = tps[:50]
a1 = sum(attacks.adaptive_attack_1(s, bundle, det, perts, part, acfg).success for s in sub)
a2cfg = attacks.AttackConfig(query_budget=10, variant_count=10, seed=21)
a2 = sum(attacks.adaptive_attack_2(s, det, bundle, perts, part, a2cfg).success for s in sub)
print(f"adaptive (label-only pipeline oracle): {a1}/{len(sub)} evade")
print(f"adaptive (best of 10 detector variants): {a2}/{len(sub)} evade")

retrained, _ = attacks.adversarial_training_baseline(
    train, part, det, lambda ds, s: detectors.train_linear(ds, seed=s), seed=3)
b0, a0 = attacks.detector_rescore_rates(traces, retrained)
print(f"adversarial-training baseline on the same traces: "
      f"ASR {b0:.2f} -> {a0:.2f}, NDASR {attacks.ndasr(b0, a0):.2f}")
