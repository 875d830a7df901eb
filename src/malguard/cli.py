"""Command-line surface binding the pipeline stages into reproducible runs.

Every verb reads and writes artifacts under one run directory. The directory
is self-describing: ``manifest.json`` records each stage's parameters and the
digests of everything it read or wrote, ``config.json`` archives the resolved
experiment config, and ``report`` recomputes every number from the stored
artifacts alone. Randomness flows from the single root seed in the config,
fanned out per stage name, so re-running a stage with the same inputs gives
byte-identical outputs.

Stage verbs fail with a nonzero exit and a diagnostic tagged by the verb
name; digests are checked whenever a stage consumes another stage's output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from malguard import attacks, calibration, data, detectors, encoders, pipeline
from malguard import problem_space, pseudo, quantify, storage, synthetic

SPACE_FILE = "space.txt"
DATASET_FILE = "dataset.jsonl"
PERTURBATIONS_FILE = "perturbations.jsonl"
TRUE_PARTITION_FILE = "partition-true.json"
SYNTH_META_FILE = "synth-meta.json"
TRAIN_FILE = "train.jsonl"
CALIB_FILE = "calib.jsonl"
TEST_FILE = "test.jsonl"
DETECTOR_FILE = "detector.zip"
DETECTOR_METRICS_FILE = "detector-metrics.json"
PARTITION_FILE = "partition.json"
PSEUDO_FILE = "pseudo.jsonl"
ENCODERS_FILE = "encoders.zip"
CALIBRATION_FILE = "calibration.json"
BUNDLE_FILE = "defense.zip"
DEFEND_RESULTS_FILE = "defend-results.jsonl"
EVALUATION_JSON = "evaluation.json"
EVALUATION_TXT = "evaluation.txt"
REPORT_JSON = "report.json"
REPORT_TXT = "report.txt"
MANIFEST_FILE = "manifest.json"
CONFIG_FILE = "config.json"

_MANIFEST_FORMAT = "malguard-run-v1"

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "k_list": [10.0, 5.0, 1.0],
    "synth": {
        "dim": 2000,
        "ps_size": 150,
        "n_benign": 8000,
        "n_malicious": 2000,
        "n_modes": 6,
        "alpha": 0.9,
        "evasion_bits": 24,
        "evasion_on_benign": 0.35,
        "evasion_on_malicious": 0.06,
        "ps_mode_on": 0.7,
        "ps_mode_off": 0.01,
        "ips_mode_bits": 100,
        "ips_mode_on": 0.5,
        "ips_mode_off": 0.03,
        "malware_bits": 250,
        "malware_on_benign": 0.10,
        "malware_lift": 0.006,
        "background_on": 0.04,
        "activity_on": 0.95,
        "n_perturbations": 40,
        "evasion_per_perturbation": 1,
        "ts_range": [0, 1_000_000],
    },
    "split": {"mode": "random", "ratios": [0.5, 0.2, 0.3], "t1": None, "t2": None},
    "detector": {"kind": "linear", "epochs": 60, "lr": 0.5, "l2": 1e-4,
                 "batch_size": 256, "hidden": [200, 200]},
    "pseudo": {"budget": 100, "mode": "add", "flip_limit": 20},
    "encoders": {"epochs": 50, "lr": 1e-3, "margin": 1.0, "lambdas": [1.0, 1.0, 1.0],
                 "batch_size": 256, "embed_dim": 32, "width_factor": 4,
                 "max_hidden": 2048, "dropout": 0.2},
    "calibration": {"control_rate": 5.0, "method": "nearest_rank"},
    "attack": {"query_budget": 10, "variant_count": 10, "target": "score-oracle",
               "samples": 200},
}


class StageError(RuntimeError):
    pass


def _merge_config(base: dict, override: dict, crumb: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        if key not in base:
            raise StageError(f"unknown config key {crumb + key!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge_config(base[key], value, crumb + key + ".")
        else:
            out[key] = value
    return out


def resolve_config(path: str | None, seed: int | None) -> dict:
    cfg = DEFAULT_CONFIG
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise StageError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise StageError(f"config {path} must be a JSON object")
        cfg = _merge_config(cfg, loaded)
    if seed is not None:
        cfg = dict(cfg, seed=seed)
    return cfg


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


class RunDir:
    """A run directory, with the digests of the files one verb has hashed.

    A verb only reads its inputs, so the digest taken when artifact()
    resolves an input is the one the verb's stage records.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._digests: dict[str, str] = {}

    def __truediv__(self, name: str) -> Path:
        return self.path / name

    def digest(self, name: str) -> str:
        if name not in self._digests:
            self._digests[name] = storage.file_sha256(self.path / name)
        return self._digests[name]


def _load_manifest(run: RunDir) -> dict:
    path = run / MANIFEST_FILE
    if not path.exists():
        return {"format": _MANIFEST_FORMAT, "stages": {}}
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise StageError(f"{path}: unknown manifest format {manifest.get('format')!r}")
    return manifest


def _record_stage(run: RunDir, stage: str, params: dict, inputs: list[str],
                  outputs: list[str]) -> None:
    manifest = _load_manifest(run)
    manifest["stages"][stage] = {
        "params": params,
        "inputs": {name: run.digest(name) for name in inputs},
        "outputs": {name: storage.file_sha256(run / name) for name in outputs},
    }
    _dump_json(manifest, run / MANIFEST_FILE)


def artifact(run: RunDir, name: str) -> Path:
    """Resolve a stage output, checking it still matches its recorded digest."""
    path = run / name
    if not path.exists():
        raise StageError(f"missing artifact {name!r}; run the stage that produces it")
    manifest = _load_manifest(run)
    for stage, entry in manifest["stages"].items():
        recorded = entry["outputs"].get(name)
        if recorded is not None and recorded != run.digest(name):
            raise StageError(
                f"artifact {name!r} no longer matches the digest recorded by"
                f" stage {stage!r}; re-run that stage"
            )
    return path


def _prepare_run(args) -> tuple[RunDir, dict]:
    run = RunDir(args.run_dir)
    run.path.mkdir(parents=True, exist_ok=True)
    cfg = resolve_config(args.config, args.seed)
    _dump_json(cfg, run / CONFIG_FILE)
    return run, cfg


def _load_space(run: RunDir) -> data.FeatureSpace:
    return data.load_feature_space(artifact(run, SPACE_FILE))


def _load_split(run: RunDir, name: str, space) -> data.Dataset:
    return data.read_dataset(artifact(run, name), space)


def _load_detector(run: RunDir):
    model, _ = detectors.load_model(artifact(run, DETECTOR_FILE))
    return model


def cmd_synth(args) -> int:
    run, cfg = _prepare_run(args)
    gen_cfg = synthetic.GeneratorConfig(
        **cfg["synth"], seed=storage.stage_seed(cfg["seed"], "synth")
    )
    bench = synthetic.generate(gen_cfg)
    data.save_feature_space(bench.dataset.space, run / SPACE_FILE)
    data.save_dataset(bench.dataset, run / DATASET_FILE)
    problem_space.save_perturbations(bench.perturbations, run / PERTURBATIONS_FILE)
    quantify.save_partition(bench.partition, run / TRUE_PARTITION_FILE)
    _dump_json(
        {
            "ps_true": [int(i) for i in bench.partition.ps],
            "alpha": gen_cfg.alpha,
            "main_activity": bench.layout.main_activity,
            "mode_parameters": {
                "n_modes": gen_cfg.n_modes,
                "ps_mode_on": gen_cfg.ps_mode_on,
                "ps_mode_off": gen_cfg.ps_mode_off,
                "ips_mode_bits": gen_cfg.ips_mode_bits,
                "ips_mode_on": gen_cfg.ips_mode_on,
                "ips_mode_off": gen_cfg.ips_mode_off,
                "evasion_on_benign": gen_cfg.evasion_on_benign,
                "evasion_on_malicious": gen_cfg.evasion_on_malicious,
            },
            "n_benign": gen_cfg.n_benign,
            "n_malicious": gen_cfg.n_malicious,
            "ts_range": list(gen_cfg.ts_range),
            "seed": gen_cfg.seed,
        },
        run / SYNTH_META_FILE,
    )
    _record_stage(
        run, "synth", cfg["synth"] | {"seed": gen_cfg.seed}, [],
        [SPACE_FILE, DATASET_FILE, PERTURBATIONS_FILE, TRUE_PARTITION_FILE,
         SYNTH_META_FILE],
    )
    print(f"synth: {len(bench.dataset)} samples, dim {gen_cfg.dim},"
          f" {len(bench.perturbations)} perturbations")
    return 0


def cmd_split(args) -> int:
    run, cfg = _prepare_run(args)
    space = _load_space(run)
    dataset = data.read_dataset(artifact(run, DATASET_FILE), space)
    scfg = cfg["split"]
    if scfg["mode"] == "random":
        seed = storage.stage_seed(cfg["seed"], "split")
        train, calib, test = data.split_random(dataset, tuple(scfg["ratios"]), seed)
        params = {"mode": "random", "ratios": scfg["ratios"], "seed": seed}
    elif scfg["mode"] == "time":
        if scfg["t1"] is None or scfg["t2"] is None:
            raise StageError("time split needs t1 and t2 in the config")
        train, calib, test = data.split_time_aware(dataset, scfg["t1"], scfg["t2"])
        params = {"mode": "time", "t1": scfg["t1"], "t2": scfg["t2"]}
    else:
        raise StageError(f"unknown split mode {scfg['mode']!r}")
    data.save_dataset(train, run / TRAIN_FILE)
    data.save_dataset(calib, run / CALIB_FILE)
    data.save_dataset(test, run / TEST_FILE)
    _record_stage(run, "split", params, [DATASET_FILE],
                  [TRAIN_FILE, CALIB_FILE, TEST_FILE])
    print(f"split: train {len(train)}, calib {len(calib)}, test {len(test)}")
    return 0


def cmd_train_detector(args) -> int:
    run, cfg = _prepare_run(args)
    space = _load_space(run)
    train = _load_split(run, TRAIN_FILE, space)
    dcfg = cfg["detector"]
    seed = storage.stage_seed(cfg["seed"], "train-detector")
    if dcfg["kind"] == "linear":
        model = detectors.train_linear(
            train, epochs=dcfg["epochs"], lr=dcfg["lr"], l2=dcfg["l2"],
            batch_size=dcfg["batch_size"], seed=seed,
        )
    elif dcfg["kind"] == "mlp":
        model = detectors.train_mlp(
            train, hidden=tuple(dcfg["hidden"]), epochs=dcfg["epochs"],
            lr=dcfg["lr"], batch_size=dcfg["batch_size"], seed=seed,
        )
    else:
        raise StageError(f"unknown detector kind {dcfg['kind']!r}")
    detectors.save_model(model, run / DETECTOR_FILE)
    outputs = [DETECTOR_FILE]
    test_path = run / TEST_FILE
    if test_path.exists():
        metrics = detectors.evaluate(model, _load_split(run, TEST_FILE, space))
        _dump_json(vars(metrics), run / DETECTOR_METRICS_FILE)
        outputs.append(DETECTOR_METRICS_FILE)
        print(f"train-detector: {dcfg['kind']} auroc {metrics.auroc:.4f}"
              f" f1 {metrics.f1:.4f} on test")
    else:
        print(f"train-detector: {dcfg['kind']} trained on {len(train)} samples")
    _record_stage(run, "train-detector", dcfg | {"seed": seed},
                  [TRAIN_FILE], outputs)
    return 0


def cmd_quantify(args) -> int:
    run, cfg = _prepare_run(args)
    space = _load_space(run)
    perts = problem_space.load_perturbations(artifact(run, PERTURBATIONS_FILE))
    try:
        act = space.index_of(args.main_activity_feature)
    except KeyError:
        raise StageError(
            f"feature {args.main_activity_feature!r} not in the vocabulary;"
            " pass --main-activity-feature"
        ) from None
    apps = problem_space.builtin_quantification_apps(space.dim, act)
    partition = quantify.quantify(space, apps, perts)
    quantify.save_partition(partition, run / PARTITION_FILE)
    _record_stage(run, "quantify", {"main_activity": act},
                  [PERTURBATIONS_FILE], [PARTITION_FILE])
    print(f"quantify: |ps| {len(partition.ps)}, |ips| {len(partition.ips)},"
          f" digest {partition.digest()[:12]}")
    return 0


def cmd_gen_pseudo(args) -> int:
    run, cfg = _prepare_run(args)
    space = _load_space(run)
    train = _load_split(run, TRAIN_FILE, space)
    detector = _load_detector(run)
    partition = quantify.load_partition(artifact(run, PARTITION_FILE))
    pcfg = cfg["pseudo"]
    seed = storage.stage_seed(cfg["seed"], "gen-pseudo")
    sources = train.by_label(data.MALICIOUS)
    generated = pseudo.generate(
        sources, detector, partition, budget=pcfg["budget"],
        flip_limit=pcfg["flip_limit"], seed=seed, mode=pcfg["mode"],
    )
    records = pseudo.to_dataset(generated, sources)
    data.save_dataset(data.Dataset(space, tuple(records)), run / PSEUDO_FILE)
    _record_stage(run, "gen-pseudo", pcfg | {"seed": seed},
                  [TRAIN_FILE, DETECTOR_FILE, PARTITION_FILE], [PSEUDO_FILE])
    print(f"gen-pseudo: {len(generated)}/{len(sources)} sources produced a"
          " detector-benign variant")
    return 0


def cmd_train_encoders(args) -> int:
    run, cfg = _prepare_run(args)
    space = _load_space(run)
    train = _load_split(run, TRAIN_FILE, space)
    partition = quantify.load_partition(artifact(run, PARTITION_FILE))
    pseudo_set = data.read_dataset(artifact(run, PSEUDO_FILE), space)
    ecfg_in = cfg["encoders"]
    tcfg = encoders.TrainConfig(
        epochs=ecfg_in["epochs"], lr=ecfg_in["lr"], margin=ecfg_in["margin"],
        lambdas=tuple(ecfg_in["lambdas"]), batch_size=ecfg_in["batch_size"],
        embed_dim=ecfg_in["embed_dim"], width_factor=ecfg_in["width_factor"],
        max_hidden=ecfg_in["max_hidden"], dropout=ecfg_in["dropout"],
        seed=storage.stage_seed(cfg["seed"], "train-encoders"),
    )
    series = encoders.train(train, pseudo.from_dataset(pseudo_set), partition, tcfg)
    series.save(run / ENCODERS_FILE)
    _record_stage(run, "train-encoders", ecfg_in | {"seed": tcfg.seed},
                  [TRAIN_FILE, PARTITION_FILE, PSEUDO_FILE], [ENCODERS_FILE])
    losses = ", ".join(f"{v:.4f}" for v in series.epoch_losses[-3:])
    print(f"train-encoders: {len(series)} checkpoints, last losses [{losses}]")
    return 0


def _calibrate(run: RunDir, cfg: dict, control_rate: float | None):
    space = _load_space(run)
    calib = _load_split(run, CALIB_FILE, space)
    detector = _load_detector(run)
    partition = quantify.load_partition(artifact(run, PARTITION_FILE))
    series = encoders.CheckpointSeries.load(artifact(run, ENCODERS_FILE))
    ccfg = cfg["calibration"]
    rate = ccfg["control_rate"] if control_rate is None else control_rate
    result = calibration.calibrate(calib, detector, series, partition, rate,
                                   ccfg["method"])
    return result, partition, detector, series


def _calibration_dict(result) -> dict:
    return {
        "threshold": result.threshold,
        "best_epoch": result.best_epoch,
        "tnir_at_threshold": result.tnir_at_threshold,
        "fnir_at_threshold": result.fnir_at_threshold,
        "control_rate": result.control_rate,
        "table": [vars(row) | {} for row in result.table],
    }


def cmd_calibrate(args) -> int:
    run, cfg = _prepare_run(args)
    result, _, _, _ = _calibrate(run, cfg, args.k)
    _dump_json(_calibration_dict(result), run / CALIBRATION_FILE)
    _record_stage(
        run, "calibrate",
        {"control_rate": result.control_rate, "method": cfg["calibration"]["method"]},
        [CALIB_FILE, DETECTOR_FILE, PARTITION_FILE, ENCODERS_FILE],
        [CALIBRATION_FILE],
    )
    print(f"calibrate: K={result.control_rate} epoch {result.best_epoch}"
          f" threshold {result.threshold:.6f} fnir {result.fnir_at_threshold:.4f}")
    return 0


def cmd_build_defense(args) -> int:
    run, cfg = _prepare_run(args)
    stored = json.loads(artifact(run, CALIBRATION_FILE).read_text(encoding="utf-8"))
    result, partition, detector, series = _calibrate(run, cfg, stored["control_rate"])
    if _calibration_dict(result) != stored:
        raise StageError(
            "stored calibration no longer matches a recomputation from the"
            " encoder series; re-run calibrate"
        )
    bundle = pipeline.bundle_from_calibration(
        series, result, detector, partition,
        metadata={"control_rate": result.control_rate},
    )
    pipeline.save_bundle(bundle, run / BUNDLE_FILE)
    _record_stage(
        run, "build-defense", {"control_rate": result.control_rate},
        [CALIBRATION_FILE, DETECTOR_FILE, PARTITION_FILE, ENCODERS_FILE],
        [BUNDLE_FILE],
    )
    print(f"build-defense: threshold {bundle.threshold:.6f},"
          f" detector {bundle.detector_id[:12]}")
    return 0


def _attack_candidates(test: data.Dataset, detector, limit: int | None):
    """Detector true positives, in dataset order."""
    picked = []
    for s in test.by_label(data.MALICIOUS):
        if detector.is_malicious(s.vector):
            picked.append(s)
        if limit is not None and len(picked) >= limit:
            break
    return picked


def _traces_file(mode: str) -> str:
    return f"traces-{mode}.jsonl"


def cmd_attack(args) -> int:
    run, cfg = _prepare_run(args)
    space = _load_space(run)
    test = _load_split(run, TEST_FILE, space)
    detector = _load_detector(run)
    partition = quantify.load_partition(artifact(run, PARTITION_FILE))
    perts = problem_space.load_perturbations(artifact(run, PERTURBATIONS_FILE))
    acfg_in = cfg["attack"]
    budget = args.budget if args.budget is not None else acfg_in["query_budget"]
    limit = args.samples if args.samples is not None else acfg_in["samples"]
    acfg = attacks.AttackConfig(
        query_budget=budget,
        variant_count=acfg_in["variant_count"],
        seed=storage.stage_seed(cfg["seed"], "attack"),
        target=acfg_in["target"],
    )
    samples = _attack_candidates(test, detector, limit)
    if not samples:
        raise StageError("no detector true positives to attack in the test split")
    inputs = [TEST_FILE, DETECTOR_FILE, PARTITION_FILE, PERTURBATIONS_FILE]
    if args.mode == "greedy":
        oracle = attacks.detector_oracle(
            detector, with_scores=acfg.target == "score-oracle"
        )
        traces = attacks.attack_suite(samples, oracle, perts, partition, acfg)
    else:
        bundle = pipeline.load_bundle(artifact(run, BUNDLE_FILE))
        inputs.append(BUNDLE_FILE)
        traces = []
        for s in samples:
            if not attacks.has_applicable(s.vector, perts):
                traces.append(attacks.AttackTrace(s.id, False, 0, s.vector, (),
                                                  eligible=False))
            elif args.mode == "adaptive1":
                traces.append(
                    attacks.adaptive_attack_1(s, bundle, detector, perts, partition, acfg)
                )
            else:
                traces.append(
                    attacks.adaptive_attack_2(s, detector, bundle, perts, partition, acfg)
                )
    out = _traces_file(args.mode)
    attacks.save_traces(traces, run / out)
    eligible = [t for t in traces if t.eligible]
    wins = sum(1 for t in eligible if t.success)
    asr = wins / len(eligible) if eligible else 0.0
    _record_stage(run, f"attack-{args.mode}",
                  {"mode": args.mode, "budget": budget, "samples": len(samples),
                   "seed": acfg.seed, "target": acfg.target,
                   "variant_count": acfg.variant_count},
                  inputs, [out])
    print(f"attack[{args.mode}]: {wins}/{len(eligible)} eligible succeeded"
          f" (asr {asr:.4f})")
    return 0


def cmd_defend(args) -> int:
    run, cfg = _prepare_run(args)
    space = _load_space(run)
    vectors = data.read_dataset(Path(args.vectors), space)
    detector = _load_detector(run)
    bundle = pipeline.load_bundle(artifact(run, BUNDLE_FILE))
    lines = []
    for s, audit in zip(vectors.samples, pipeline.defended_run(bundle, detector, vectors)):
        label = audit.final_label
        score = "-" if audit.score is None else f"{audit.score:.6f}"
        revisited = "yes" if audit.revisited else "no"
        print(f"{s.id} {label} score={score} revisited={revisited}")
        lines.append(json.dumps(
            {"id": s.id, "label": label,
             "score": audit.score, "revisited": audit.revisited},
            sort_keys=True, separators=(",", ":"),
        ))
    (run / DEFEND_RESULTS_FILE).write_text(
        data.FORMAT_HEADER + "\n" + "".join(line + "\n" for line in lines),
        encoding="utf-8",
    )
    _record_stage(run, "defend", {"vectors": str(args.vectors)},
                  [DETECTOR_FILE, BUNDLE_FILE], [DEFEND_RESULTS_FILE])
    return 0


def _evaluation(run: RunDir, cfg: dict, k_list) -> dict:
    """Evaluate every stored trace set at every budget from one score table."""
    space = _load_space(run)
    traces = {
        mode: attacks.load_traces(artifact(run, _traces_file(mode)), space.dim)
        for mode in ("greedy", "adaptive1", "adaptive2")
        if (run / _traces_file(mode)).exists()
    }
    if not traces:
        raise StageError("no attack traces found; run the attack stage first")
    calib = _load_split(run, CALIB_FILE, space)
    detector = _load_detector(run)
    partition = quantify.load_partition(artifact(run, PARTITION_FILE))
    series = encoders.CheckpointSeries.load(artifact(run, ENCODERS_FILE))
    table = calibration.score_table(calib, detector, series, partition)
    method = cfg["calibration"]["method"]
    bundles = [
        pipeline.bundle_from_calibration(
            series, calibration.calibrate_table(table, k, method), detector, partition
        )
        for k in k_list
    ]
    tables = {
        mode: attacks.evaluate_defense(mode_traces, bundles).to_dict()["rows"]
        for mode, mode_traces in traces.items()
    }
    return {"k_list": list(k_list), "attacks": tables}


_COLUMNS = ("K", "threshold", "best_epoch", "tnir", "fnir",
            "asr_before", "asr_after", "ndasr")


def _format_evaluation(ev: dict) -> str:
    lines = []
    for mode in sorted(ev["attacks"]):
        lines.append(f"attack: {mode}")
        header = f"{'K':>6}  {'thresh':>10}  {'epoch':>5}  {'tnir':>7}  " \
                 f"{'fnir':>7}  {'asr_pre':>8}  {'asr_post':>8}  {'ndasr':>7}"
        lines.append(header)
        for row in ev["attacks"][mode]:
            nd = "-" if row["ndasr"] is None else f"{row['ndasr']:.4f}"
            lines.append(
                f"{row['control_rate']:>6.1f}  {row['threshold']:>10.6f}  "
                f"{row['best_epoch']:>5d}  {row['tnir']:>7.4f}  {row['fnir']:>7.4f}  "
                f"{row['asr_before']:>8.4f}  {row['asr_after']:>8.4f}  "
                f"{nd:>7}"
            )
        lines.append("")
    return "\n".join(lines)


def cmd_evaluate(args) -> int:
    run, cfg = _prepare_run(args)
    k_list = tuple(args.k) if args.k else tuple(cfg["k_list"])
    ev = _evaluation(run, cfg, k_list)
    _dump_json(ev, run / EVALUATION_JSON)
    text = _format_evaluation(ev)
    (run / EVALUATION_TXT).write_text(text, encoding="utf-8")
    inputs = [CALIB_FILE, DETECTOR_FILE, PARTITION_FILE, ENCODERS_FILE]
    inputs += [name for name in (_traces_file(m) for m in ("greedy", "adaptive1",
                                                           "adaptive2"))
               if (run / name).exists()]
    _record_stage(run, "evaluate", {"k_list": list(k_list)}, inputs,
                  [EVALUATION_JSON, EVALUATION_TXT])
    print(text, end="")
    return 0


def cmd_report(args) -> int:
    run, cfg = _prepare_run(args)
    stored_path = run / EVALUATION_JSON
    if not stored_path.exists():
        raise StageError("no evaluation.json in the run directory; run evaluate first")
    stored = json.loads(stored_path.read_text(encoding="utf-8"))
    recomputed = _evaluation(run, cfg, tuple(stored["k_list"]))
    if recomputed != stored:
        raise StageError(
            "stored evaluation does not match recomputation from artifacts;"
            " an artifact changed after evaluate ran"
        )
    report = {"evaluation": recomputed}
    det_metrics = run / DETECTOR_METRICS_FILE
    if det_metrics.exists():
        report["detector"] = json.loads(det_metrics.read_text(encoding="utf-8"))
    calib_path = run / CALIBRATION_FILE
    if calib_path.exists():
        report["calibration"] = json.loads(calib_path.read_text(encoding="utf-8"))
    _dump_json(report, run / REPORT_JSON)
    lines = ["defense evaluation (recomputed from stored traces)", ""]
    if "detector" in report:
        d = report["detector"]
        lines.append(
            f"detector: auroc {d['auroc']:.4f} f1 {d['f1']:.4f}"
            f" tp {d['tp']} fp {d['fp']} tn {d['tn']} fn {d['fn']}"
        )
        lines.append("")
    lines.append(_format_evaluation(recomputed))
    text = "\n".join(lines)
    (run / REPORT_TXT).write_text(text, encoding="utf-8")
    _record_stage(run, "report", {}, [EVALUATION_JSON], [REPORT_JSON, REPORT_TXT])
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malguard",
        description="plug-in adversarial defense experiments over a run directory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--run-dir", required=True, help="run directory for artifacts")
        p.add_argument("--config", default=None, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override root seed")
        p.set_defaults(func=func)
        return p

    add("synth", cmd_synth, "generate the planted synthetic benchmark")
    add("split", cmd_split, "split the dataset into train/calib/test")
    add("train-detector", cmd_train_detector, "train the base detector")
    p = add("quantify", cmd_quantify, "derive the perturbable-space partition")
    p.add_argument("--main-activity-feature", default="main_activity",
                   help="vocabulary name of the main-activity bit")
    add("gen-pseudo", cmd_gen_pseudo, "generate pseudo-adversarial samples")
    add("train-encoders", cmd_train_encoders, "train the encoder pair checkpoints")
    p = add("calibrate", cmd_calibrate, "pick threshold and epoch at a TNIR budget")
    p.add_argument("--k", type=float, default=None, help="TNIR control rate override")
    add("build-defense", cmd_build_defense, "assemble the defense bundle")
    p = add("attack", cmd_attack, "run a query-budgeted evasion attack")
    p.add_argument("--mode", choices=("greedy", "adaptive1", "adaptive2"),
                   default="greedy")
    p.add_argument("--budget", type=int, default=None, help="query budget override")
    p.add_argument("--samples", type=int, default=None, help="max samples to attack")
    p = add("defend", cmd_defend, "classify vectors through the defended pipeline")
    p.add_argument("--vectors", required=True, help="dataset file of vectors to score")
    p = add("evaluate", cmd_evaluate, "NDASR/TNIR/FNIR per attack and control rate")
    p.add_argument("--k", type=float, action="append", default=None,
                   help="control rate; repeat for several (default: config k_list)")
    add("report", cmd_report, "recompute and verify all numbers from artifacts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StageError, pipeline.BuildError, data.FormatError,
            calibration.CalibrationError, ValueError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
