"""Run-directory workflow: every verb, manifest bookkeeping, reproducibility."""
import json
import shutil
from dataclasses import asdict, replace

import numpy as np
import pytest

from malguard import attacks, calibration, cli, data, detectors, encoders, pipeline
from malguard import quantify, storage


TINY = {
    "seed": 3,
    "k_list": [10.0, 5.0],
    "synth": {
        "dim": 300,
        "ps_size": 60,
        "n_benign": 500,
        "n_malicious": 160,
        "ips_mode_bits": 20,
        "malware_bits": 40,
        "n_perturbations": 12,
    },
    "detector": {"epochs": 30},
    "pseudo": {"budget": 60, "flip_limit": 10},
    "encoders": {
        "epochs": 4,
        "embed_dim": 4,
        "width_factor": 2,
        "max_hidden": 8,
        "batch_size": 32,
        "dropout": 0.0,
    },
    "attack": {"query_budget": 4, "variant_count": 2, "samples": 25},
}


def run_verbs(run_dir, config_path, verbs):
    for verb in verbs:
        argv = list(verb) + ["--run-dir", str(run_dir), "--config", str(config_path)]
        code = cli.main(argv)
        assert code == 0, f"{verb} exited {code}"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "exp.json"
    config.write_text(json.dumps(TINY))
    run = root / "run"
    run_verbs(
        run,
        config,
        [
            ["synth"],
            ["split"],
            ["train-detector"],
            ["quantify"],
            ["gen-pseudo"],
            ["train-encoders"],
            ["calibrate"],
            ["build-defense"],
            ["attack", "--mode", "greedy"],
            ["attack", "--mode", "adaptive1"],
            ["attack", "--mode", "adaptive2"],
            ["evaluate"],
            ["report"],
        ],
    )
    return run, config


def test_all_artifacts_present(run_dir):
    run, _ = run_dir
    expected = [
        cli.CONFIG_FILE,
        cli.SPACE_FILE,
        cli.DATASET_FILE,
        cli.PERTURBATIONS_FILE,
        cli.TRUE_PARTITION_FILE,
        cli.SYNTH_META_FILE,
        cli.TRAIN_FILE,
        cli.CALIB_FILE,
        cli.TEST_FILE,
        cli.DETECTOR_FILE,
        cli.DETECTOR_METRICS_FILE,
        cli.PARTITION_FILE,
        cli.PSEUDO_FILE,
        cli.ENCODERS_FILE,
        cli.CALIBRATION_FILE,
        cli.BUNDLE_FILE,
        "traces-greedy.jsonl",
        "traces-adaptive1.jsonl",
        "traces-adaptive2.jsonl",
        cli.EVALUATION_JSON,
        cli.EVALUATION_TXT,
        cli.REPORT_JSON,
        cli.REPORT_TXT,
        cli.MANIFEST_FILE,
    ]
    for name in expected:
        assert (run / name).exists(), name


def test_manifest_records_stage_digests(run_dir):
    run, _ = run_dir
    manifest = json.loads((run / cli.MANIFEST_FILE).read_text())
    assert manifest["format"] == "malguard-run-v1"
    stages = manifest["stages"]
    for stage in ("synth", "split", "train-detector", "quantify", "gen-pseudo",
                  "train-encoders", "calibrate", "build-defense",
                  "attack-greedy", "evaluate", "report"):
        assert stage in stages
    from malguard import storage

    for name, digest in stages["split"]["outputs"].items():
        assert digest == storage.file_sha256(run / name)
    # stages record their parameters, seed included
    assert "seed" in stages["train-detector"]["params"]


def test_quantified_partition_matches_ground_truth(run_dir):
    run, _ = run_dir
    from malguard import quantify

    measured = quantify.load_partition(run / cli.PARTITION_FILE)
    planted = quantify.load_partition(run / cli.TRUE_PARTITION_FILE)
    assert measured == planted


def test_synth_sidecar_contents(run_dir):
    run, _ = run_dir
    from malguard import quantify

    meta = json.loads((run / cli.SYNTH_META_FILE).read_text())
    planted = quantify.load_partition(run / cli.TRUE_PARTITION_FILE)
    assert meta["alpha"] == 0.9
    assert meta["ps_true"] == list(planted.ps)
    assert meta["mode_parameters"]["n_modes"] == 6
    assert meta["ts_range"] == [0, 1000000]


def test_defend_prints_verdict_lines(run_dir, capsys):
    run, config = run_dir
    code = cli.main(
        ["defend", "--run-dir", str(run), "--config", str(config),
         "--vectors", str(run / cli.TEST_FILE)]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out
    for line in out:
        sid, label, score, revisited = line.split()
        assert label in ("benign", "malicious")
        assert score.startswith("score=")
        assert revisited in ("revisited=yes", "revisited=no")
    # malicious verdicts skip the revisit, benign ones carry a score
    revisit_no = [l for l in out if l.endswith("revisited=no")]
    assert all(" malicious " in l and "score=- " in l for l in revisit_no)
    results = (run / cli.DEFEND_RESULTS_FILE).read_text().splitlines()
    assert results[0] == "#addfmt v1"
    assert len(results) - 1 == len(out)
    # the verb serves in batch; every row equals the per-vector path exactly
    space = data.load_feature_space(run / cli.SPACE_FILE)
    test = data.read_dataset(run / cli.TEST_FILE, space)
    detector, _ = detectors.load_model(run / cli.DETECTOR_FILE)
    bundle = pipeline.load_bundle(run / cli.BUNDLE_FILE)
    for s, line, printed in zip(test.samples, results[1:], out):
        label, audit = pipeline.detect(bundle, detector, s.vector)
        assert json.loads(line) == {"id": s.id, "label": label, "score": audit.score,
                                    "revisited": audit.revisited}
        score = "-" if audit.score is None else f"{audit.score:.6f}"
        assert printed == (f"{s.id} {label} score={score}"
                           f" revisited={'yes' if audit.revisited else 'no'}")


def test_evaluate_emits_rows_per_attack_and_k(run_dir):
    run, _ = run_dir
    ev = json.loads((run / cli.EVALUATION_JSON).read_text())
    assert ev["k_list"] == [10.0, 5.0]
    assert set(ev["attacks"]) == {"greedy", "adaptive1", "adaptive2"}
    for rows in ev["attacks"].values():
        assert [r["control_rate"] for r in rows] == [10.0, 5.0]
        for r in rows:
            assert 0.0 <= r["ndasr"] <= 1.0 or r["asr_before"] == 0.0
    txt = (run / cli.EVALUATION_TXT).read_text()
    assert "ndasr" in txt and "greedy" in txt


def test_evaluation_rows_equal_a_from_scratch_calibration_per_k(run_dir):
    run, _ = run_dir
    ev = json.loads((run / cli.EVALUATION_JSON).read_text())
    space = data.load_feature_space(run / cli.SPACE_FILE)
    calib = data.read_dataset(run / cli.CALIB_FILE, space)
    detector, _ = detectors.load_model(run / cli.DETECTOR_FILE)
    part = quantify.load_partition(run / cli.PARTITION_FILE)
    series = encoders.CheckpointSeries.load(run / cli.ENCODERS_FILE)
    for mode, rows in ev["attacks"].items():
        traces = attacks.load_traces(run / f"traces-{mode}.jsonl", space.dim)
        expected = []
        for k in ev["k_list"]:
            result = calibration.calibrate(calib, detector, series, part, k)
            bundle = pipeline.bundle_from_calibration(series, result, detector, part)
            before, after = attacks.offline_defense_rates(traces, bundle)
            expected.append(vars(attacks.EvalRow(
                k, result.threshold, result.best_epoch, result.tnir_at_threshold,
                result.fnir_at_threshold, before, after,
                attacks.ndasr(before, after) if before > 0.0 else None,
            )))
        assert rows == expected, mode


def test_evaluate_scores_each_checkpoint_once_per_verb(run_dir, tmp_path, monkeypatch):
    run, config = run_dir
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    space = data.load_feature_space(copy / cli.SPACE_FILE)
    calib = data.read_dataset(copy / cli.CALIB_FILE, space)
    detector, _ = detectors.load_model(copy / cli.DETECTOR_FILE)
    series = encoders.CheckpointSeries.load(copy / cli.ENCODERS_FILE)
    tn_rows, fn_rows = calibration.detector_negative_scores(calib, detector)
    assert tn_rows.size and fn_rows.size
    x = calib.matrix()
    negatives = {"tn": x[tn_rows].toarray(), "fn": x[fn_rows].toarray()}
    scored = []
    real = encoders.batch_scores

    def counting(pair, partition, batch):
        dense = batch.toarray()
        for name, rows in negatives.items():
            if np.array_equal(dense, rows):
                scored.append((encoders.pair_digest(pair), name))
        return real(pair, partition, batch)

    monkeypatch.setattr(encoders, "batch_scores", counting)
    expected = sorted((encoders.pair_digest(series[e]), name)
                      for e in range(len(series)) for name in negatives)
    for verb in ("evaluate", "report"):
        scored.clear()
        assert cli.main([verb, "--run-dir", str(copy), "--config", str(config)]) == 0
        assert sorted(scored) == expected, verb


def test_cli_defaults_match_library_defaults():
    enc = asdict(encoders.TrainConfig())
    del enc["seed"]
    enc["lambdas"] = list(enc["lambdas"])
    assert cli.DEFAULT_CONFIG["encoders"] == enc
    dcfg = pipeline.DefenseConfig()
    assert cli.DEFAULT_CONFIG["pseudo"] == {
        "budget": dcfg.pseudo_budget, "mode": dcfg.pseudo_mode,
        "flip_limit": dcfg.pseudo_flip_limit,
    }
    assert cli.DEFAULT_CONFIG["calibration"] == {
        "control_rate": dcfg.control_rate, "method": dcfg.percentile_method,
    }


def test_evaluate_all_failed_attack_reports_undefined_ndasr(run_dir, tmp_path, capsys):
    run, config = run_dir
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    space = data.load_feature_space(copy / cli.SPACE_FILE)
    name = "traces-adaptive1.jsonl"
    failed = [replace(t, success=False)
              for t in attacks.load_traces(copy / name, space.dim)]
    attacks.save_traces(failed, copy / name)
    manifest = json.loads((copy / cli.MANIFEST_FILE).read_text())
    manifest["stages"]["attack-adaptive1"]["outputs"][name] = storage.file_sha256(copy / name)
    (copy / cli.MANIFEST_FILE).write_text(json.dumps(manifest))
    for verb in ("evaluate", "report"):
        code = cli.main([verb, "--run-dir", str(copy), "--config", str(config)])
        assert code == 0, capsys.readouterr().err
    ev = json.loads((copy / cli.EVALUATION_JSON).read_text())
    assert all(r["asr_before"] == 0.0 and r["ndasr"] is None
               for r in ev["attacks"]["adaptive1"])
    assert all(r["ndasr"] is not None for r in ev["attacks"]["greedy"])
    table = (copy / cli.EVALUATION_TXT).read_text().split("attack: adaptive1\n")[1]
    rows = table.split("\n\n")[0].splitlines()[1:]
    assert rows and all(row.split()[-1] == "-" for row in rows)


def test_verb_hashes_each_file_once_and_still_checks_inputs(run_dir, tmp_path, monkeypatch,
                                                           capsys):
    run, config = run_dir
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    hashed = []
    real = storage.file_sha256
    monkeypatch.setattr(storage, "file_sha256", lambda path: hashed.append(path.name) or real(path))
    argv = ["calibrate", "--run-dir", str(copy), "--config", str(config)]
    assert cli.main(argv) == 0
    assert sorted(hashed) == sorted(set(hashed))
    assert cli.ENCODERS_FILE in hashed and cli.CALIBRATION_FILE in hashed
    recorded = json.loads((copy / cli.MANIFEST_FILE).read_text())["stages"]["calibrate"]
    for name, digest in {**recorded["inputs"], **recorded["outputs"]}.items():
        assert digest == real(copy / name)
    with open(copy / cli.PARTITION_FILE, "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert cli.main(argv) == 1
    assert "no longer matches the digest" in capsys.readouterr().err


def test_report_recomputes_bit_identical(run_dir, capsys):
    run, config = run_dir
    before = (run / cli.REPORT_JSON).read_bytes()
    code = cli.main(["report", "--run-dir", str(run), "--config", str(config)])
    assert code == 0
    assert (run / cli.REPORT_JSON).read_bytes() == before
    out = capsys.readouterr().out
    assert "detector:" in out
    assert "attack: greedy" in out


def test_report_detects_tampered_evaluation(run_dir, capsys):
    run, config = run_dir
    path = run / cli.EVALUATION_JSON
    original = path.read_text()
    doc = json.loads(original)
    doc["attacks"]["greedy"][0]["ndasr"] = 0.123456
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    try:
        code = cli.main(["report", "--run-dir", str(run), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error [report]" in err
    finally:
        path.write_text(original)


def test_stage_fails_cleanly_without_inputs(tmp_path, capsys):
    code = cli.main(["calibrate", "--run-dir", str(tmp_path / "empty")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error [calibrate]" in err
    assert "missing artifact" in err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"bogus": 1}))
    code = cli.main(["synth", "--run-dir", str(tmp_path / "r"),
                     "--config", str(config)])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_seed_override_changes_archived_config(tmp_path):
    run = tmp_path / "r"
    code = cli.main(["synth", "--run-dir", str(run), "--seed", "77"])
    assert code == 0
    cfg = json.loads((run / cli.CONFIG_FILE).read_text())
    assert cfg["seed"] == 77
