"""Run-directory workflow: every verb, manifest bookkeeping, reproducibility."""
import inspect
import json
import os
import shutil
import subprocess
import sys
import zipfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from malguard import attacks, calibration, cli, data, detectors, encoders, pipeline
from malguard import problem_space, pseudo, quantify, storage, synthetic


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


CHAIN = [
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
]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The TINY chain's run directory, config, and the names each stage passed to artifact()."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "exp.json"
    config.write_text(json.dumps(TINY))
    run = root / "run"
    reads = {}
    real = cli.artifact

    def noting(run_path, name):
        names.add(name)
        return real(run_path, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "artifact", noting)
        for verb in CHAIN:
            stage = f"attack-{verb[2]}" if verb[0] == "attack" else verb[0]
            names = reads[stage] = set()
            run_verbs(run, config, [verb])
    return run, config, reads


@pytest.fixture(scope="module")
def run_dir(chain):
    run, config, _ = chain
    return run, config


def test_all_artifacts_present(run_dir):
    run, _ = run_dir
    expected = [
        cli.CONFIG_FILE,
        cli.SPACE_FILE,
        cli.DATASET_FILE,
        cli.PERTURBATIONS_FILE,
        cli.TRUE_PARTITION_FILE,
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
    # every file in the run directory is a recorded stage output, so none goes unrecorded
    stages = json.loads((run / cli.MANIFEST_FILE).read_text())["stages"].values()
    recorded = {name for entry in stages for name in entry["outputs"]}
    assert {p.name for p in run.iterdir()} == recorded | {cli.CONFIG_FILE, cli.MANIFEST_FILE}


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


def test_manifest_inputs_are_the_files_each_verb_read(chain):
    run, _, reads = chain
    stages = json.loads((run / cli.MANIFEST_FILE).read_text())["stages"]
    assert set(reads) <= set(stages)
    for stage, names in reads.items():
        assert set(stages[stage]["inputs"]) == names, stage
    assert {cli.SPACE_FILE, cli.CALIB_FILE} <= set(stages["build-defense"]["inputs"])
    assert cli.TEST_FILE in stages["train-detector"]["inputs"]
    assert cli.ENCODERS_FILE in stages["report"]["inputs"]
    for stage, entry in stages.items():
        for name, digest in {**entry["inputs"], **entry["outputs"]}.items():
            assert digest == storage.file_sha256(run / name), (stage, name)


def test_pipeline_build_equals_the_cli_chain(run_dir):
    run, _ = run_dir
    cfg = json.loads((run / cli.CONFIG_FILE).read_text())
    space = data.load_feature_space(run / cli.SPACE_FILE)
    train, calib = (data.read_dataset(run / name, space)
                    for name in (cli.TRAIN_FILE, cli.CALIB_FILE))
    detector, _ = detectors.load_model(run / cli.DETECTOR_FILE)
    perts = problem_space.load_perturbations(run / cli.PERTURBATIONS_FILE)
    apps = problem_space.builtin_quantification_apps(space.dim, space.index_of("main_activity"))
    built = pipeline.build(train, calib, detector, perts, apps, cli.defense_config(cfg))
    stored = pipeline.load_bundle(run / cli.BUNDLE_FILE)
    assert encoders.pair_digest(built.pair) == encoders.pair_digest(stored.pair)
    assert built.calibration == stored.calibration
    assert built.threshold == stored.threshold
    series = encoders.CheckpointSeries.load(run / cli.ENCODERS_FILE)
    assert built.metadata["epoch_losses"] == series.epoch_losses


def test_gen_pseudo_fails_when_no_sample_is_accepted(run_dir, tmp_path, monkeypatch, capsys):
    run, config = run_dir
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    before = {name: (copy / name).read_bytes() for name in (cli.MANIFEST_FILE, cli.PSEUDO_FILE)}
    monkeypatch.setattr(pseudo, "generate", lambda *args, **kwargs: [])
    code = cli.main(["gen-pseudo", "--run-dir", str(copy), "--config", str(config)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error [gen-pseudo]" in err
    assert err.count("gen-pseudo") == 1
    # nothing is written or recorded for the failed stage
    assert {name: (copy / name).read_bytes() for name in before} == before


def test_record_files_load_and_save_to_the_same_bytes(run_dir, tmp_path):
    run, _ = run_dir
    space = data.load_feature_space(run / cli.SPACE_FILE)
    codecs = {
        name: (lambda p: data.read_dataset(p, space), data.save_dataset)
        for name in (cli.DATASET_FILE, cli.TRAIN_FILE, cli.CALIB_FILE, cli.TEST_FILE,
                     cli.PSEUDO_FILE)
    }
    codecs[cli.PERTURBATIONS_FILE] = (problem_space.load_perturbations,
                                      problem_space.save_perturbations)
    for name in (cli.PARTITION_FILE, cli.TRUE_PARTITION_FILE):
        codecs[name] = (quantify.load_partition, quantify.save_partition)
    for mode in ("greedy", "adaptive1", "adaptive2"):
        codecs[f"traces-{mode}.jsonl"] = (lambda p: attacks.load_traces(p, space.dim),
                                          attacks.save_traces)
    assert any(s.source_id for s in data.read_dataset(run / cli.PSEUDO_FILE, space).samples)
    for name, (load, save) in codecs.items():
        save(load(run / name), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (run / name).read_bytes(), name


def test_quantified_partition_matches_ground_truth(run_dir):
    run, _ = run_dir
    from malguard import quantify

    measured = quantify.load_partition(run / cli.PARTITION_FILE)
    planted = quantify.load_partition(run / cli.TRUE_PARTITION_FILE)
    assert measured == planted


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


def test_calibrate_and_defend_bytes_do_not_depend_on_the_worker_count(run_dir, tmp_path,
                                                                     monkeypatch):
    run, config = run_dir
    chunked = []
    real = encoders._run_chunks
    monkeypatch.setattr(encoders, "_run_chunks",
                        lambda score, chunks: chunked.append(len(chunks)) or real(score, chunks))
    outputs = []
    for workers, rows in ((1, encoders._CHUNK_ROWS), (3, 8)):
        monkeypatch.setattr(encoders, "_WORKERS", workers)
        monkeypatch.setattr(encoders, "_CHUNK_ROWS", rows)
        copy = tmp_path / f"run-{workers}"
        shutil.copytree(run, copy)
        common = ["--run-dir", str(copy), "--config", str(config)]
        assert cli.main(["calibrate", *common]) == 0
        assert cli.main(["defend", *common, "--vectors", str(copy / cli.TEST_FILE)]) == 0
        outputs.append([(copy / name).read_bytes()
                        for name in (cli.CALIBRATION_FILE, cli.DEFEND_RESULTS_FILE)])
        if workers == 1:
            assert not chunked
    assert chunked and min(chunked) > 1
    assert outputs[0] == outputs[1]


def test_train_encoders_rejects_a_batch_size_below_one(run_dir, tmp_path, capsys):
    run, _ = run_dir
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    series = (copy / cli.ENCODERS_FILE).read_bytes()
    for size in (0, -2):
        config = tmp_path / f"batch-{size}.json"
        config.write_text(json.dumps({**TINY, "encoders": {**TINY["encoders"],
                                                           "batch_size": size}}))
        code = cli.main(["train-encoders", "--run-dir", str(copy), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error [train-encoders]: batch_size must be >= 1, got {size}" in err
    assert (copy / cli.ENCODERS_FILE).read_bytes() == series


def test_train_detector_rejects_epochs_or_a_batch_size_below_one(run_dir, tmp_path, capsys):
    run, _ = run_dir
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    (copy / cli.DETECTOR_FILE).unlink()
    config = tmp_path / "bad.json"
    for kind in ("linear", "mlp"):
        for key, value in (("epochs", 0), ("batch_size", 0), ("batch_size", -1)):
            config.write_text(json.dumps({**TINY, "detector": {"kind": kind, key: value}}))
            code = cli.main(["train-detector", "--run-dir", str(copy), "--config", str(config)])
            assert code == 1
            err = capsys.readouterr().err
            assert f"error [train-detector]: {key} must be >= 1, got {value}" in err
            assert not (copy / cli.DETECTOR_FILE).exists()


def test_cli_defaults_match_library_defaults():
    def defaults(config):
        doc = asdict(config)
        del doc["seed"]
        return doc

    enc = defaults(encoders.TrainConfig())
    enc["lambdas"] = list(enc["lambdas"])
    assert cli.DEFAULT_CONFIG["encoders"] == enc
    synth = defaults(synthetic.GeneratorConfig())
    synth["ts_range"] = list(synth["ts_range"])
    assert cli.DEFAULT_CONFIG["synth"] == synth
    assert cli.DEFAULT_CONFIG["attack"] == defaults(attacks.AttackConfig()) | {"samples": 200}
    dcfg = pipeline.DefenseConfig()
    assert cli.DEFAULT_CONFIG["pseudo"] == {
        "budget": dcfg.pseudo_budget, "flip_limit": dcfg.pseudo_flip_limit,
    }
    assert cli.DEFAULT_CONFIG["calibration"] == {"control_rate": dcfg.control_rate}
    # epochs and lr are the chosen trainer's own defaults; the rest are shared
    linear, mlp = (inspect.signature(f).parameters
                   for f in (detectors.train_linear, detectors.train_mlp))
    assert cli.DEFAULT_CONFIG["detector"] == {
        "kind": "linear", "epochs": None, "lr": None, "l2": linear["l2"].default,
        "batch_size": linear["batch_size"].default, "hidden": list(mlp["hidden"].default),
    }
    assert mlp["batch_size"].default == linear["batch_size"].default
    # config.json is this dict dumped; a tuple in it would not survive the round trip
    assert json.loads(json.dumps(cli.DEFAULT_CONFIG)) == cli.DEFAULT_CONFIG


def test_mlp_detector_trains_at_its_own_defaults(run_dir, tmp_path):
    run, _ = run_dir
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    config = tmp_path / "mlp.json"
    mlp = {"kind": "mlp", "epochs": 2, "hidden": [8]}
    config.write_text(json.dumps({**TINY, "detector": mlp}))
    run_verbs(copy, config, [["train-detector"]])
    space = data.load_feature_space(copy / cli.SPACE_FILE)
    seed = storage.stage_seed(TINY["seed"], "train-detector")
    expected = detectors.train_mlp(data.read_dataset(copy / cli.TRAIN_FILE, space),
                                   hidden=(8,), epochs=2, seed=seed)
    stored, _ = detectors.load_model(copy / cli.DETECTOR_FILE)
    assert detectors.model_digest(stored) == detectors.model_digest(expected)
    stages = json.loads((copy / cli.MANIFEST_FILE).read_text())["stages"]
    params = stages["train-detector"]["params"]
    lr = inspect.signature(detectors.train_mlp).parameters["lr"].default
    assert (params["epochs"], params["lr"]) == (2, lr)


def test_config_section_that_is_not_an_object_is_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    for bad in ({"synth": 3}, {"encoders": [1]}, {"attack": None}):
        config.write_text(json.dumps(bad))
        code = cli.main(["synth", "--run-dir", str(tmp_path / "r"), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error [synth]" in err and repr(next(iter(bad))) in err


def test_config_value_of_the_wrong_type_is_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    for bad, key in (({"seed": "3"}, "'seed'"), ({"k_list": [5, "x"]}, "'k_list'"),
                     ({"synth": {"dim": 2.5}}, "'synth.dim'"),
                     ({"attack": {"query_budget": None}}, "'attack.query_budget'"),
                     ({"split": {"t1": True}}, "'split.t1'")):
        config.write_text(json.dumps(bad))
        code = cli.main(["synth", "--run-dir", str(tmp_path / "r"), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [synth]: config {config}: key {key} has the wrong type")
    # an int fits a float default and a number a null one
    config.write_text(json.dumps({"calibration": {"control_rate": 5}, "detector": {"lr": 1}}))
    assert cli.resolve_config(str(config), None)["detector"]["lr"] == 1


def test_train_detector_rejects_a_set_value_of_another_type(run_dir, tmp_path, capsys):
    # null passes the config check for any number; the trainer's default decides
    run, _ = run_dir
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    config = tmp_path / "bad.json"
    for detector, key, value in (({"epochs": 2.5}, "'detector.epochs'", "2.5"),
                                 ({"kind": "mlp", "epochs": 1.0}, "'detector.epochs'", "1.0")):
        config.write_text(json.dumps({**TINY, "detector": detector}))
        code = cli.main(["train-detector", "--run-dir", str(copy), "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err == (f"error [train-detector]: config {config}:"
                                           f" key {key} has the wrong type: {value}\n")


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, malguard.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


def test_attack_rejects_a_sample_limit_below_one(run_dir, tmp_path, capsys):
    run, config = run_dir
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    traces = (copy / "traces-greedy.jsonl").read_bytes()
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({**TINY, "attack": {**TINY["attack"], "samples": -1}}))
    for extra in (["--samples", "0", "--config", str(config)],
                  ["--samples", "-3", "--config", str(config)],
                  ["--config", str(negative)]):
        code = cli.main(["attack", "--mode", "greedy", "--run-dir", str(copy), *extra])
        assert code == 1, extra
        assert "error [attack]" in capsys.readouterr().err
    assert (copy / "traces-greedy.jsonl").read_bytes() == traces


def _container_scheme(path):
    """Sorted entry names and sorted meta keys of a container, read without malguard."""
    with zipfile.ZipFile(path) as zf:
        return sorted(zf.namelist()), sorted(json.loads(zf.read("meta.json")))


def test_container_schemes_are_pinned(tmp_path):
    # Readers outside malguard (the benchmark's checks among them) rely on these names.
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({**TINY, "encoders": {**TINY["encoders"], "epochs": 2}}))
    run = tmp_path / "run"
    run_verbs(run, config, [[verb] for verb in (
        "synth", "split", "train-detector", "quantify", "gen-pseudo", "train-encoders",
        "calibrate", "build-defense")])
    layers = ["b0.npy", "b1.npy", "w0.npy", "w1.npy"]  # one hidden layer at TINY's widths
    pair = [f"{net}_{entry}" for net in ("eips", "eps") for entry in layers]
    pair_meta = ["dropout_rate", "eips_dims", "embed_dim", "eps_dims"]
    assert _container_scheme(run / cli.ENCODERS_FILE) == (
        sorted([f"e000{e}_{entry}" for e in (0, 1) for entry in pair] + ["meta.json"]),
        sorted(pair_meta + ["config", "epoch_losses", "epochs", "format", "partition_digest"]),
    )
    assert _container_scheme(run / cli.BUNDLE_FILE) == (
        sorted(pair + ["meta.json", "ps.npy"]),
        sorted(pair_meta + ["calibration", "detector_id", "dim", "format", "metadata",
                            "partition_digest", "threshold"]),
    )
    calibration_json = json.loads((run / cli.CALIBRATION_FILE).read_text())
    assert sorted(calibration_json) == ["best_epoch", "control_rate", "fnir_at_threshold",
                                        "table", "threshold", "tnir_at_threshold"]
    assert [sorted(row) for row in calibration_json["table"]] == [["epoch", "fnir", "threshold"]] * 2
    with zipfile.ZipFile(run / cli.BUNDLE_FILE) as zf:
        assert json.loads(zf.read("meta.json"))["calibration"] == calibration_json
    assert _container_scheme(run / cli.DETECTOR_FILE) == (
        ["meta.json", "weights.npy"], ["bias", "format", "kind"])
    mlp = tmp_path / "mlp.json"
    mlp.write_text(json.dumps({**TINY, "detector": {"kind": "mlp", "epochs": 2, "hidden": [8]}}))
    run_verbs(run, mlp, [["train-detector"]])
    assert _container_scheme(run / cli.DETECTOR_FILE) == (
        sorted(layers + ["meta.json"]), ["dims", "format", "kind"])


def _rerecord(run, stage, name):
    """Record the current digest of *name* as *stage*'s output, as if the stage wrote it."""
    manifest = json.loads((run / cli.MANIFEST_FILE).read_text())
    manifest["stages"][stage]["outputs"][name] = storage.file_sha256(run / name)
    (run / cli.MANIFEST_FILE).write_text(json.dumps(manifest))


def _evaluate_with_adaptive1_traces(run, config, tmp_path, capsys, **change):
    """evaluate and report on a copy of *run* whose adaptive1 traces all get *change*;
    returns the stored evaluation and the text rows of the adaptive1 table."""
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    space = data.load_feature_space(copy / cli.SPACE_FILE)
    name = "traces-adaptive1.jsonl"
    changed = [replace(t, **change) for t in attacks.load_traces(copy / name, space.dim)]
    attacks.save_traces(changed, copy / name)
    _rerecord(copy, "attack-adaptive1", name)
    for verb in ("evaluate", "report"):
        code = cli.main([verb, "--run-dir", str(copy), "--config", str(config)])
        assert code == 0, capsys.readouterr().err
    ev = json.loads((copy / cli.EVALUATION_JSON).read_text())
    assert all(r["ndasr"] is not None for r in ev["attacks"]["greedy"])
    table = (copy / cli.EVALUATION_TXT).read_text().split("attack: adaptive1\n")[1]
    rows = table.split("\n\n")[0].splitlines()[1:]
    assert rows
    return ev, rows


def test_evaluate_all_failed_attack_reports_undefined_ndasr(run_dir, tmp_path, capsys):
    ev, rows = _evaluate_with_adaptive1_traces(*run_dir, tmp_path, capsys, success=False)
    assert all(r["asr_before"] == 0.0 and r["ndasr"] is None
               for r in ev["attacks"]["adaptive1"])
    assert all(row.split()[-1] == "-" for row in rows)


def test_evaluate_all_ineligible_attack_reports_undefined_rates(run_dir, tmp_path, capsys):
    ev, rows = _evaluate_with_adaptive1_traces(*run_dir, tmp_path, capsys, eligible=False)
    assert all((r["asr_before"], r["asr_after"], r["ndasr"]) == (None, None, None)
               for r in ev["attacks"]["adaptive1"])
    assert all(row.split()[-3:] == ["-", "-", "-"] for row in rows)


def test_detector_metrics_of_a_one_class_test_split_are_strict_json(run_dir, tmp_path,
                                                                    capsys):
    run, config = run_dir
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    space = data.load_feature_space(copy / cli.SPACE_FILE)
    test = data.read_dataset(copy / cli.TEST_FILE, space)
    data.save_dataset(data.Dataset(space, tuple(test.by_label(data.BENIGN))),
                      copy / cli.TEST_FILE)
    _rerecord(copy, "split", cli.TEST_FILE)
    for verb in ("train-detector", "report"):
        code = cli.main([verb, "--run-dir", str(copy), "--config", str(config)])
        assert code == 0, capsys.readouterr().err

    def reject(constant):
        raise ValueError(f"not RFC 8259 JSON: {constant}")

    metrics = json.loads((copy / cli.DETECTOR_METRICS_FILE).read_text(), parse_constant=reject)
    assert metrics["auroc"] is None and metrics["tp"] + metrics["fn"] == 0
    assert "detector: auroc - f1" in (copy / cli.REPORT_TXT).read_text()


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


def test_report_detects_tampered_evaluation(run_dir, tmp_path, capsys):
    run, config = run_dir
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    path = copy / cli.EVALUATION_JSON
    doc = json.loads(path.read_text())
    doc["attacks"]["greedy"][0]["ndasr"] = 0.123456
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    argv = ["report", "--run-dir", str(copy), "--config", str(config)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "error [report]" in err and "no longer matches the digest" in err
    # with the digest re-recorded, the recomputation still catches it
    manifest = json.loads((copy / cli.MANIFEST_FILE).read_text())
    manifest["stages"]["evaluate"]["outputs"][cli.EVALUATION_JSON] = storage.file_sha256(path)
    (copy / cli.MANIFEST_FILE).write_text(json.dumps(manifest))
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "error [report]" in err and "does not match recomputation" in err


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
