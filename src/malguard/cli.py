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
import inspect
import json
import sys
from dataclasses import asdict
from pathlib import Path

from malguard import attacks, calibration, data, detectors, encoders, pipeline
from malguard import problem_space, pseudo, quantify, storage, synthetic

SPACE_FILE = "space.txt"
DATASET_FILE = "dataset.jsonl"
PERTURBATIONS_FILE = "perturbations.jsonl"
TRUE_PARTITION_FILE = "partition-true.json"
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


def _json_defaults(config) -> dict:
    """A library config's default fields, seed left out, in JSON form (tuples as lists)."""
    return json.loads(json.dumps({k: v for k, v in asdict(config).items() if k != "seed"}))


_DEFENSE = pipeline.DefenseConfig()

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "k_list": [10.0, 5.0, 1.0],
    "synth": _json_defaults(synthetic.GeneratorConfig()),
    "split": {"mode": "random", "ratios": [0.5, 0.2, 0.3], "t1": None, "t2": None},
    # epochs and lr left null take the default of the chosen kind's trainer
    "detector": {"kind": "linear", "epochs": None, "lr": None, "l2": 1e-4,
                 "batch_size": 256, "hidden": [200, 200]},
    "pseudo": {"budget": _DEFENSE.pseudo_budget, "flip_limit": _DEFENSE.pseudo_flip_limit},
    "encoders": _json_defaults(_DEFENSE.encoder),
    "calibration": {"control_rate": _DEFENSE.control_rate},
    "attack": {**_json_defaults(attacks.AttackConfig()), "samples": 200},
}


def defense_config(cfg: dict) -> pipeline.DefenseConfig:
    """The library config of the build stages, from a resolved CLI config."""
    return pipeline.DefenseConfig(
        pseudo_budget=cfg["pseudo"]["budget"], pseudo_flip_limit=cfg["pseudo"]["flip_limit"],
        control_rate=cfg["calibration"]["control_rate"],
        encoder=encoders.TrainConfig(**cfg["encoders"]), seed=cfg["seed"],
    )


class StageError(RuntimeError):
    pass


def _merge_config(base: dict, override: dict, path, crumb: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        if key not in base:
            raise StageError(f"config {path}: unknown key {crumb + key!r}")
        if not _fits(value, base[key]):
            raise _wrong_type(path, crumb + key, value)
        out[key] = (_merge_config(base[key], value, path, crumb + key + ".")
                    if isinstance(value, dict) else value)
    return out


def _wrong_type(path, key: str, value) -> StageError:
    return StageError(f"config {path}: key {key!r} has the wrong type: {value!r}")


def _fits(value, default) -> bool:
    """Whether *value* has a config default's JSON type: an int fits a float and
    a number a null, and a list's items must fit the default's first item."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    kinds = {float: (int, float), type(None): (int, float, type(None))}
    return type(value) in kinds.get(type(default), (type(default),))


def resolve_config(path: str | None, seed: int | None) -> dict:
    cfg = DEFAULT_CONFIG
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
                raise StageError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise StageError(f"config {path} must be a JSON object")
        cfg = _merge_config(cfg, loaded, path)
    if seed is not None:
        cfg = dict(cfg, seed=seed)
    return cfg


def _dump_json(obj, path: Path) -> None:
    """Write *obj* as RFC 8259 JSON; a NaN or infinity raises instead of being written."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _num(value, spec: str) -> str:
    """*value* formatted by *spec*, or "-" for an undefined (None) value."""
    return "-" if value is None else format(value, spec)


class RunDir:
    """A run directory, with the files one verb has read and their digests.

    A verb reads its inputs through artifact(), which notes each name, and
    only reads them, so the digest taken when artifact() resolves an input
    is the one the verb's stage records.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.inputs: set[str] = set()
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
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise StageError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise StageError(f"{path}: manifest must be a JSON object")
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise StageError(f"{path}: unknown manifest format {manifest.get('format')!r}")
    stages = manifest.get("stages")
    if not isinstance(stages, dict) or not all(
            isinstance(e, dict) and isinstance(e.get("outputs"), dict) for e in stages.values()):
        raise StageError(f"{path}: manifest stages must be objects with an 'outputs' object")
    return manifest


def _record_stage(run: RunDir, stage: str, params: dict, outputs: list[str]) -> None:
    """Record *stage* with every input the verb resolved through artifact()."""
    manifest = _load_manifest(run)
    manifest["stages"][stage] = {
        "params": params,
        "inputs": {name: run.digest(name) for name in run.inputs},
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
    run.inputs.add(name)
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
    _record_stage(
        run, "synth", cfg["synth"] | {"seed": gen_cfg.seed},
        [SPACE_FILE, DATASET_FILE, PERTURBATIONS_FILE, TRUE_PARTITION_FILE],
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
    _record_stage(run, "split", params, [TRAIN_FILE, CALIB_FILE, TEST_FILE])
    print(f"split: train {len(train)}, calib {len(calib)}, test {len(test)}")
    return 0


def cmd_train_detector(args) -> int:
    run, cfg = _prepare_run(args)
    space = _load_space(run)
    train = _load_split(run, TRAIN_FILE, space)
    dcfg = cfg["detector"]
    seed = storage.stage_seed(cfg["seed"], "train-detector")
    if dcfg["kind"] not in ("linear", "mlp"):
        raise StageError(f"unknown detector kind {dcfg['kind']!r}")
    trainer = detectors.train_linear if dcfg["kind"] == "linear" else detectors.train_mlp
    defaults = inspect.signature(trainer).parameters
    used = {key: defaults[key].default if dcfg[key] is None else dcfg[key]
            for key in ("epochs", "lr")}
    for key, value in used.items():  # a set value has the type of the trainer's default
        if not _fits(value, defaults[key].default):
            raise _wrong_type(args.config, f"detector.{key}", value)
    extra = {"l2": dcfg["l2"]} if dcfg["kind"] == "linear" else {"hidden": tuple(dcfg["hidden"])}
    model = trainer(train, **used, **extra, batch_size=dcfg["batch_size"], seed=seed)
    detectors.save_model(model, run / DETECTOR_FILE)
    outputs = [DETECTOR_FILE]
    test_path = run / TEST_FILE
    if test_path.exists():
        metrics = detectors.evaluate(model, _load_split(run, TEST_FILE, space))
        _dump_json(vars(metrics), run / DETECTOR_METRICS_FILE)
        outputs.append(DETECTOR_METRICS_FILE)
        print(f"train-detector: {dcfg['kind']} auroc {_num(metrics.auroc, '.4f')}"
              f" f1 {metrics.f1:.4f} on test")
    else:
        print(f"train-detector: {dcfg['kind']} trained on {len(train)} samples")
    _record_stage(run, "train-detector", dcfg | used | {"seed": seed}, outputs)
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
    partition = pipeline.quantify_space(space, apps, perts)
    quantify.save_partition(partition, run / PARTITION_FILE)
    _record_stage(run, "quantify", {"main_activity": act}, [PARTITION_FILE])
    print(f"quantify: |ps| {len(partition.ps)}, |ips| {len(partition.ips)},"
          f" digest {partition.digest()[:12]}")
    return 0


def cmd_gen_pseudo(args) -> int:
    run, cfg = _prepare_run(args)
    dcfg = defense_config(cfg)
    space = _load_space(run)
    sources = _load_split(run, TRAIN_FILE, space).by_label(data.MALICIOUS)
    detector = _load_detector(run)
    partition = quantify.load_partition(artifact(run, PARTITION_FILE))
    generated = pipeline.gen_pseudo(sources, detector, partition, dcfg)
    records = pseudo.to_dataset(generated, sources)
    data.save_dataset(data.Dataset(space, tuple(records)), run / PSEUDO_FILE)
    _record_stage(run, "gen-pseudo",
                  cfg["pseudo"] | {"seed": dcfg.stage_seed("gen-pseudo")}, [PSEUDO_FILE])
    print(f"gen-pseudo: {len(generated)}/{len(sources)} sources produced a"
          " detector-benign variant")
    return 0


def cmd_train_encoders(args) -> int:
    run, cfg = _prepare_run(args)
    dcfg = defense_config(cfg)
    space = _load_space(run)
    train = _load_split(run, TRAIN_FILE, space)
    partition = quantify.load_partition(artifact(run, PARTITION_FILE))
    pam = pseudo.from_dataset(_load_split(run, PSEUDO_FILE, space))
    series = pipeline.train_encoders(train, pam, partition, dcfg)
    series.save(run / ENCODERS_FILE)
    _record_stage(run, "train-encoders",
                  cfg["encoders"] | {"seed": dcfg.stage_seed("train-encoders")},
                  [ENCODERS_FILE])
    losses = ", ".join(f"{v:.4f}" for v in series.epoch_losses[-3:])
    print(f"train-encoders: {len(series)} checkpoints, last losses [{losses}]")
    return 0


def _calibrate(run: RunDir, control_rate: float):
    space = _load_space(run)
    calib = _load_split(run, CALIB_FILE, space)
    detector = _load_detector(run)
    partition = quantify.load_partition(artifact(run, PARTITION_FILE))
    series = encoders.CheckpointSeries.load(artifact(run, ENCODERS_FILE))
    result = calibration.calibrate(calib, detector, series, partition, control_rate)
    return result, partition, detector, series


def cmd_calibrate(args) -> int:
    run, cfg = _prepare_run(args)
    rate = defense_config(cfg).control_rate if args.k is None else args.k
    result, _, _, _ = _calibrate(run, rate)
    _dump_json(result.to_dict(), run / CALIBRATION_FILE)
    _record_stage(run, "calibrate", {"control_rate": result.control_rate}, [CALIBRATION_FILE])
    print(f"calibrate: K={result.control_rate} epoch {result.best_epoch}"
          f" threshold {result.threshold:.6f} fnir {result.fnir_at_threshold:.4f}")
    return 0


def cmd_build_defense(args) -> int:
    run, _ = _prepare_run(args)
    stored = storage.load_json(artifact(run, CALIBRATION_FILE),
                               calibration.CalibrationResult.from_dict)
    result, partition, detector, series = _calibrate(run, stored.control_rate)
    if result != stored:
        raise StageError(
            "stored calibration no longer matches a recomputation from the"
            " encoder series; re-run calibrate"
        )
    bundle = pipeline.bundle_from_calibration(
        series, result, detector, partition,
        metadata={"control_rate": result.control_rate},
    )
    pipeline.save_bundle(bundle, run / BUNDLE_FILE)
    _record_stage(run, "build-defense", {"control_rate": result.control_rate}, [BUNDLE_FILE])
    print(f"build-defense: threshold {bundle.threshold:.6f},"
          f" detector {bundle.detector_id[:12]}")
    return 0


def _attack_candidates(test: data.Dataset, detector, limit: int | None):
    """Detector true positives, in dataset order, at most *limit* of them."""
    if limit is not None and limit < 1:
        raise StageError(f"the number of samples to attack must be >= 1, got {limit}")
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
    if args.mode == "greedy":
        oracle = attacks.detector_oracle(
            detector, with_scores=acfg.target == "score-oracle"
        )
        traces = attacks.attack_suite(samples, oracle, perts, partition, acfg)
    else:
        bundle = pipeline.load_bundle(artifact(run, BUNDLE_FILE))
        attack = (attacks.adaptive_attack_1 if args.mode == "adaptive1"
                  else attacks.adaptive_attack_2)
        traces = [attack(s, bundle, detector, perts, partition, acfg) for s in samples]
    out = _traces_file(args.mode)
    attacks.save_traces(traces, run / out)
    eligible = [t for t in traces if t.eligible]
    wins = sum(1 for t in eligible if t.success)
    asr = wins / len(eligible) if eligible else 0.0
    _record_stage(run, f"attack-{args.mode}",
                  {"mode": args.mode, "budget": budget, "samples": len(samples),
                   "seed": acfg.seed, "target": acfg.target,
                   "variant_count": acfg.variant_count},
                  [out])
    print(f"attack[{args.mode}]: {wins}/{len(eligible)} eligible succeeded"
          f" (asr {asr:.4f})")
    return 0


def cmd_defend(args) -> int:
    run, cfg = _prepare_run(args)
    space = _load_space(run)
    vectors = data.read_dataset(Path(args.vectors), space)
    detector = _load_detector(run)
    bundle = pipeline.load_bundle(artifact(run, BUNDLE_FILE))
    records = []
    for s, audit in zip(vectors.samples, pipeline.defended_run(bundle, detector, vectors)):
        label = audit.final_label
        score = "-" if audit.score is None else f"{audit.score:.6f}"
        revisited = "yes" if audit.revisited else "no"
        print(f"{s.id} {label} score={score} revisited={revisited}")
        records.append({"id": s.id, "label": label,
                        "score": audit.score, "revisited": audit.revisited})
    data.write_records(run / DEFEND_RESULTS_FILE, records)
    _record_stage(run, "defend", {"vectors": str(args.vectors)}, [DEFEND_RESULTS_FILE])
    return 0


def _evaluation(run: RunDir, k_list) -> dict:
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
    bundles = [
        pipeline.bundle_from_calibration(
            series, calibration.calibrate_table(table, k), detector, partition
        )
        for k in k_list
    ]
    tables = {
        mode: [asdict(row) for row in attacks.evaluate_defense(mode_traces, bundles)]
        for mode, mode_traces in traces.items()
    }
    return {"k_list": list(k_list), "attacks": tables}


def _format_evaluation(ev: dict) -> str:
    lines = []
    for mode in sorted(ev["attacks"]):
        lines.append(f"attack: {mode}")
        header = f"{'K':>6}  {'thresh':>10}  {'epoch':>5}  {'tnir':>7}  " \
                 f"{'fnir':>7}  {'asr_pre':>8}  {'asr_post':>8}  {'ndasr':>7}"
        lines.append(header)
        for row in ev["attacks"][mode]:
            lines.append(
                f"{row['control_rate']:>6.1f}  {row['threshold']:>10.6f}  "
                f"{row['best_epoch']:>5d}  {row['tnir']:>7.4f}  {row['fnir']:>7.4f}  "
                f"{_num(row['asr_before'], '.4f'):>8}  {_num(row['asr_after'], '.4f'):>8}  "
                f"{_num(row['ndasr'], '.4f'):>7}"
            )
        lines.append("")
    return "\n".join(lines)


def cmd_evaluate(args) -> int:
    run, cfg = _prepare_run(args)
    k_list = tuple(args.k) if args.k else tuple(cfg["k_list"])
    ev = _evaluation(run, k_list)
    _dump_json(ev, run / EVALUATION_JSON)
    text = _format_evaluation(ev)
    (run / EVALUATION_TXT).write_text(text, encoding="utf-8")
    _record_stage(run, "evaluate", {"k_list": list(k_list)}, [EVALUATION_JSON, EVALUATION_TXT])
    print(text, end="")
    return 0


def _evaluation_doc(doc) -> dict:
    """A stored evaluation with a k_list to recompute it at; report compares the rest."""
    if not isinstance(doc, dict) or not _fits(doc.get("k_list"), DEFAULT_CONFIG["k_list"]):
        raise ValueError("an evaluation is an object with a 'k_list' of numbers")
    for k in doc["k_list"]:
        calibration.check_control_rate(k)
    return doc


def cmd_report(args) -> int:
    run, _ = _prepare_run(args)
    stored = storage.load_json(artifact(run, EVALUATION_JSON), _evaluation_doc)
    recomputed = _evaluation(run, tuple(stored["k_list"]))
    if recomputed != stored:
        raise StageError(
            "stored evaluation does not match recomputation from artifacts;"
            " an artifact changed after evaluate ran"
        )
    report = {"evaluation": recomputed}
    for key, name, decode in (
            ("detector", DETECTOR_METRICS_FILE,
             lambda doc: vars(storage.from_fields(detectors.DetectionMetrics, doc))),
            ("calibration", CALIBRATION_FILE,
             lambda doc: calibration.CalibrationResult.from_dict(doc).to_dict())):
        if (run / name).exists():
            report[key] = storage.load_json(artifact(run, name), decode)
    _dump_json(report, run / REPORT_JSON)
    lines = ["defense evaluation (recomputed from stored traces)", ""]
    if "detector" in report:
        d = report["detector"]
        lines.append(
            f"detector: auroc {_num(d['auroc'], '.4f')} f1 {d['f1']:.4f}"
            f" tp {d['tp']} fp {d['fp']} tn {d['tn']} fn {d['fn']}"
        )
        lines.append("")
    lines.append(_format_evaluation(recomputed))
    text = "\n".join(lines)
    (run / REPORT_TXT).write_text(text, encoding="utf-8")
    _record_stage(run, "report", {}, [REPORT_JSON, REPORT_TXT])
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
    except (StageError, pipeline.BuildError, ValueError, OSError) as exc:
        # a stage's BuildError already names the verb; name it once
        detail = str(exc).removeprefix(f"[stage:{args.command}] ")
        print(f"error [{args.command}]: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
