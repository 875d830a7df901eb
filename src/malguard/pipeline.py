"""End-to-end defense assembly and the revisit-benign-only decision rule.

Building runs four stages: quantify the perturbable space, generate
pseudo-adversarial samples against the protected detector, train the
contrastive encoders, and calibrate a threshold on held-out data. The
resulting bundle embeds everything detection needs.

Detection never second-guesses a malicious verdict: a vector the detector
flags is returned as malicious untouched. Only detector-benign vectors are
revisited, and they are flagged when their incompatibility score strictly
exceeds the calibrated threshold. Influence is therefore one-way; the
defense can only move benign verdicts to malicious.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from malguard import calibration, detectors, encoders, pseudo, quantify, storage
from malguard.data import BENIGN, MALICIOUS, Dataset, FeatureVector
from malguard.quantify import SpacePartition


class BuildError(RuntimeError):
    """A build stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[stage:{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class DefenseConfig:
    pseudo_budget: int = 100
    pseudo_mode: str = "add"
    pseudo_flip_limit: int | None = 20
    control_rate: float = 5.0
    percentile_method: str = "nearest_rank"
    encoder: encoders.TrainConfig = field(default_factory=encoders.TrainConfig)
    seed: int = 0

    def stage_seed(self, stage: str) -> int:
        return storage.stage_seed(self.seed, stage)


@dataclass
class DefenseBundle:
    pair: encoders.EncoderPair
    threshold: float
    partition: SpacePartition
    detector_id: str
    calibration: calibration.CalibrationResult
    metadata: dict

    @property
    def partition_digest(self) -> str:
        return self.partition.digest()

    def flags(self, score):
        """The one-way rule: a revisited score flags when strictly above the threshold."""
        return score > self.threshold


@dataclass(frozen=True)
class AuditRecord:
    """What detection did to one vector, for one-way-influence audits."""

    original_label: str
    final_label: str
    revisited: bool
    score: float | None


def build(
    train: Dataset,
    calib: Dataset,
    detector,
    perturbations,
    quant_apps,
    cfg: DefenseConfig,
) -> DefenseBundle:
    """Assemble a defense bundle; every stage failure is tagged with its stage."""
    try:
        partition = quantify.quantify(train.space, quant_apps, perturbations)
    except Exception as exc:
        raise BuildError("space-quant", str(exc)) from exc
    if not partition.ps:
        raise BuildError(
            "space-quant",
            "quantification found no perturbable features; check the perturbation set",
        )

    mal_train = train.by_label(MALICIOUS)
    try:
        pam = pseudo.generate(
            mal_train,
            detector,
            partition,
            budget=cfg.pseudo_budget,
            flip_limit=cfg.pseudo_flip_limit,
            seed=cfg.stage_seed("pseudo-adv"),
            mode=cfg.pseudo_mode,
        )
    except Exception as exc:
        raise BuildError("pseudo-adv", str(exc)) from exc
    if not pam:
        raise BuildError(
            "pseudo-adv",
            "no pseudo-adversarial sample was generated within the attempt budget;"
            " raise the budget or verify the detector and partition",
        )

    enc_cfg = encoders.TrainConfig(
        **{**asdict(cfg.encoder), "seed": cfg.stage_seed("train-encoders")}
    )
    try:
        series = encoders.train(train, pam, partition, enc_cfg)
    except Exception as exc:
        raise BuildError("train-encoders", str(exc)) from exc

    try:
        result = calibration.calibrate(
            calib, detector, series, partition, cfg.control_rate, cfg.percentile_method
        )
    except Exception as exc:
        raise BuildError("calibrate", str(exc)) from exc

    metadata = {
        "config": _config_dict(cfg),
        "train_fingerprint": train.fingerprint(),
        "calib_fingerprint": calib.fingerprint(),
        "pseudo_generated": len(pam),
        "pseudo_sources": len(mal_train),
        "epoch_losses": series.epoch_losses,
        "calibration_table": [asdict(row) for row in result.table],
    }
    return bundle_from_calibration(series, result, detector, partition, metadata)


def _config_dict(cfg: DefenseConfig) -> dict:
    doc = asdict(cfg)
    doc["encoder"]["lambdas"] = list(doc["encoder"]["lambdas"])
    return doc


def _check_detector(bundle: DefenseBundle, detector) -> None:
    if detectors.model_digest(detector) != bundle.detector_id:
        raise ValueError("detector does not match the one this bundle was built against")


def detect(bundle: DefenseBundle, detector, vector: FeatureVector) -> tuple[str, AuditRecord]:
    """Classify one vector; only detector-benign vectors are revisited."""
    _check_detector(bundle, detector)
    if vector.indices and vector.indices[-1] >= bundle.partition.dim:
        raise ValueError(
            f"vector index {vector.indices[-1]} out of range for dim {bundle.partition.dim}"
        )
    if detector.is_malicious(vector):
        return MALICIOUS, AuditRecord(MALICIOUS, MALICIOUS, False, None)
    score = encoders.incompatibility_score(bundle.pair, bundle.partition, vector)
    final = MALICIOUS if bundle.flags(score) else BENIGN
    return final, AuditRecord(BENIGN, final, True, score)


def defended_run(bundle: DefenseBundle, detector, dataset: Dataset) -> list[AuditRecord]:
    """Run detection over a dataset, returning one audit record per sample.

    The batched form of :func:`detect`: every record, score included, is
    equal (``==``) to what :func:`detect` returns for that sample alone. Both
    paths take the detector score and the incompatibility score from the
    same batch-invariant kernels, and only detector-benign rows are scored.
    """
    _check_detector(bundle, detector)
    x = dataset.matrix()
    pred_mal = detector.decision_scores(x) > detector.decision_threshold
    scores = iter(encoders.batch_scores(bundle.pair, bundle.partition, x[~pred_mal]).tolist())
    records = []
    for malicious in pred_mal:
        if malicious:
            records.append(AuditRecord(MALICIOUS, MALICIOUS, False, None))
        else:
            s = next(scores)
            final = MALICIOUS if bundle.flags(s) else BENIGN
            records.append(AuditRecord(BENIGN, final, True, s))
    return records


_BUNDLE_FORMAT = "malguard-defense-bundle-v1"


def save_bundle(bundle: DefenseBundle, path) -> None:
    meta = {
        "format": _BUNDLE_FORMAT,
        "threshold": bundle.threshold,
        "detector_id": bundle.detector_id,
        "partition_digest": bundle.partition_digest,
        "dim": bundle.partition.dim,
        "embed_dim": bundle.pair.embed_dim,
        "dropout_rate": bundle.pair.dropout_rate,
        "eps_dims": list(bundle.pair.eps.dims),
        "eips_dims": list(bundle.pair.eips.dims),
        "calibration": {
            "threshold": bundle.calibration.threshold,
            "best_epoch": bundle.calibration.best_epoch,
            "tnir_at_threshold": bundle.calibration.tnir_at_threshold,
            "fnir_at_threshold": bundle.calibration.fnir_at_threshold,
            "control_rate": bundle.calibration.control_rate,
            "table": [asdict(row) for row in bundle.calibration.table],
        },
        "metadata": bundle.metadata,
    }
    arrays = {"ps": bundle.partition.ps_array()}
    for name, net in (("eps", bundle.pair.eps), ("eips", bundle.pair.eips)):
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            arrays[f"{name}_w{i}"] = w
            arrays[f"{name}_b{i}"] = b
    storage.save_container(path, meta, arrays)


def load_bundle(path) -> DefenseBundle:
    from malguard import nnet

    meta, arrays = storage.load_container(path)
    storage.expect_format(meta, _BUNDLE_FORMAT, path)
    partition = SpacePartition.from_ps(
        tuple(int(i) for i in arrays["ps"]), int(meta["dim"])
    )
    if partition.digest() != meta["partition_digest"]:
        raise ValueError(f"{path}: stored partition does not match its digest")
    nets = {}
    for name in ("eps", "eips"):
        dims = [int(d) for d in meta[f"{name}_dims"]]
        ws = [arrays[f"{name}_w{i}"] for i in range(len(dims) - 1)]
        bs = [arrays[f"{name}_b{i}"] for i in range(len(dims) - 1)]
        nets[name] = nnet.Mlp(dims, ws, bs)
    cal = meta["calibration"]
    result = calibration.CalibrationResult(
        threshold=float(cal["threshold"]),
        best_epoch=int(cal["best_epoch"]),
        tnir_at_threshold=float(cal["tnir_at_threshold"]),
        fnir_at_threshold=float(cal["fnir_at_threshold"]),
        control_rate=float(cal["control_rate"]),
        table=tuple(
            calibration.EpochCalibration(int(r["epoch"]), float(r["threshold"]), float(r["fnir"]))
            for r in cal["table"]
        ),
    )
    pair = encoders.EncoderPair(
        nets["eps"], nets["eips"], int(meta["embed_dim"]), float(meta["dropout_rate"])
    )
    return DefenseBundle(
        pair=pair,
        threshold=float(meta["threshold"]),
        partition=partition,
        detector_id=meta["detector_id"],
        calibration=result,
        metadata=meta["metadata"],
    )


def bundle_from_calibration(
    series: encoders.CheckpointSeries,
    result: calibration.CalibrationResult,
    detector,
    partition: SpacePartition,
    metadata: dict | None = None,
) -> DefenseBundle:
    """Assemble a bundle from an existing checkpoint series and calibration.

    The bundle shares the chosen checkpoint's encoder pair with the series
    instead of copying it, so bundles at several budgets cost no encoder
    memory of their own.
    """
    if partition.digest() != series.partition_digest:
        raise ValueError("partition does not match the one the encoders were trained on")
    return DefenseBundle(
        pair=series[result.best_epoch],
        threshold=result.threshold,
        partition=partition,
        detector_id=detectors.model_digest(detector),
        calibration=result,
        metadata=metadata or {},
    )
