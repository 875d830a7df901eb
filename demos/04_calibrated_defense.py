"""Training the incompatibility score and picking its threshold.

Two small encoders embed the reachable and the deep half of each sample
into a shared space. The contrastive loss pulls benign halves together and
pushes malicious, and especially manufactured-evasion, halves apart. The
threshold is then set on the detector's own true negatives so the defense
flags a fixed, budgeted fraction of clean traffic.
"""
import numpy as np

from malguard import calibration, data, detectors, encoders, pipeline
from malguard import problem_space, pseudo, quantify, synthetic

cfg = synthetic.GeneratorConfig(
    dim=1200, ps_size=120, n_benign=2400, n_malicious=800,
    ips_mode_bits=60, malware_bits=120, n_perturbations=20, seed=11,
)
bench = synthetic.generate(cfg)
train, calib, test = data.split_random(bench.dataset, (0.5, 0.2, 0.3), 1)
det = detectors.train_linear(train, seed=2)
apps = problem_space.builtin_quantification_apps(cfg.dim, bench.layout.main_activity)
part = quantify.quantify(bench.dataset.space, apps, list(bench.perturbations))
pam = pseudo.generate(train.by_label(data.MALICIOUS), det, part, budget=100,
                      flip_limit=20, seed=3)

tcfg = encoders.TrainConfig(epochs=25, embed_dim=32, max_hidden=512, seed=5)
series = encoders.train(train, pam, part, tcfg)
print(f"trained {len(series)} checkpoints, loss {series.epoch_losses[0]:.3f} "
      f"-> {series.epoch_losses[-1]:.3f}")

res = calibration.calibrate(calib, det, series, part, control_rate=5.0)
print(f"K=5: epoch {res.best_epoch}, threshold {res.threshold:.4f}, "
      f"catches {res.fnir_at_threshold:.0%} of the detector's misses "
      f"for {res.tnir_at_threshold:.1%} clean traffic flagged")

bundle = pipeline.bundle_from_calibration(series, res, det, part)
sc = encoders.batch_scores(bundle.pair, part, test.matrix())
is_mal = np.array([s.label == data.MALICIOUS for s in test.samples])
pam_test = pseudo.generate(test.by_label(data.MALICIOUS), det, part, budget=100,
                           flip_limit=20, seed=4)
pam_ds = data.Dataset(test.space, tuple(pseudo.to_dataset(pam_test, test.by_label(data.MALICIOUS))))
sc_pam = encoders.batch_scores(bundle.pair, part, pam_ds.matrix())
print(f"mean score on held-out: benign {sc[~is_mal].mean():.3f} "
      f"< malicious {sc[is_mal].mean():.3f} < evasions {sc_pam.mean():.3f}")

# the plug-in only ever revisits detector-benign verdicts
records = pipeline.defended_run(bundle, det, test)
det_fn = sum(1 for s, r in zip(test.samples, records)
             if s.label == data.MALICIOUS and r.original_label == data.BENIGN)
left = sum(1 for s, r in zip(test.samples, records)
           if s.label == data.MALICIOUS and r.final_label == data.BENIGN)
print(f"detector misses on held-out: {det_fn}, still missed with the plug-in: {left}")
