"""End-to-end defense assembly and the revisit-benign-only decision rule.

Building runs four stages: quantify the perturbable space, generate
pseudo-adversarial samples against the protected detector, train the
contrastive encoders, and calibrate a threshold on held-out data. Each stage
is one function named after the CLI verb that runs it, and :func:`build`
is their composition. The resulting bundle embeds everything detection
needs.

Detection never second-guesses a malicious verdict: a vector the detector
flags is returned as malicious untouched. Only detector-benign vectors are
revisited, and they are flagged when their incompatibility score strictly
exceeds the calibrated threshold. Influence is therefore one-way; the
defense can only move benign verdicts to malicious.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

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
    pseudo_flip_limit: int | None = 20
    control_rate: float = 5.0
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


@contextmanager
def _stage(name: str):
    """Re-raise any failure inside as a :class:`BuildError` tagged *name*."""
    try:
        yield
    except Exception as exc:
        raise BuildError(name, str(exc)) from exc


def quantify_space(space, quant_apps, perturbations) -> SpacePartition:
    """Stage ``quantify``: the perturbable/imperturbable partition of *space*."""
    with _stage("quantify"):
        partition = quantify.quantify(space, quant_apps, perturbations)
    if not partition.ps:
        raise BuildError("quantify", "quantification found no perturbable features;"
                                     " check the perturbation set")
    return partition


def gen_pseudo(
    sources, detector, partition: SpacePartition, cfg: DefenseConfig
) -> list[pseudo.PseudoAdvSample]:
    """Stage ``gen-pseudo``: detector-benign variants of the malicious *sources*."""
    with _stage("gen-pseudo"):
        pam = pseudo.generate(
            sources, detector, partition, budget=cfg.pseudo_budget,
            flip_limit=cfg.pseudo_flip_limit, seed=cfg.stage_seed("gen-pseudo"),
        )
    if not pam:
        raise BuildError(
            "gen-pseudo",
            f"none of the {len(sources)} sources produced a pseudo-adversarial sample"
            " within the attempt budget; raise the budget or verify the detector"
            " and partition",
        )
    return pam


def train_encoders(
    train: Dataset, pam, partition: SpacePartition, cfg: DefenseConfig
) -> encoders.CheckpointSeries:
    """Stage ``train-encoders``: one encoder-pair checkpoint per epoch."""
    enc_cfg = replace(cfg.encoder, seed=cfg.stage_seed("train-encoders"))
    with _stage("train-encoders"):
        return encoders.train(train, pam, partition, enc_cfg)


def build(train: Dataset, calib: Dataset, detector, perturbations, quant_apps,
          cfg: DefenseConfig) -> DefenseBundle:
    """Assemble a defense bundle; every stage failure is tagged with its stage.

    The stages are the functions the CLI verbs of the same names call, so one
    config gives the same bundle either way.
    """
    partition = quantify_space(train.space, quant_apps, perturbations)
    sources = train.by_label(MALICIOUS)
    pam = gen_pseudo(sources, detector, partition, cfg)
    series = train_encoders(train, pam, partition, cfg)
    with _stage("calibrate"):
        result = calibration.calibrate(calib, detector, series, partition, cfg.control_rate)

    metadata = {
        "config": json.loads(json.dumps(asdict(cfg))),  # tuples as lists
        "train_fingerprint": train.fingerprint(),
        "calib_fingerprint": calib.fingerprint(),
        "pseudo_generated": len(pam),
        "pseudo_sources": len(sources),
        "epoch_losses": series.epoch_losses,
        "calibration_table": result.to_dict()["table"],
    }
    return bundle_from_calibration(series, result, detector, partition, metadata)


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
    pair_meta, arrays = encoders.pair_fields(bundle.pair)
    meta = {
        **pair_meta,
        "threshold": bundle.threshold,
        "detector_id": bundle.detector_id,
        "partition_digest": bundle.partition.digest(),
        "dim": bundle.partition.dim,
        "calibration": bundle.calibration.to_dict(),
        "metadata": bundle.metadata,
    }
    arrays["ps"] = bundle.partition.ps_array()
    storage.save_container(path, _BUNDLE_FORMAT, meta, arrays)


def _decode_bundle(meta: dict, arrays: dict) -> DefenseBundle:
    partition = SpacePartition.from_ps(tuple(int(i) for i in arrays["ps"]), int(meta["dim"]))
    if partition.digest() != meta["partition_digest"]:
        raise ValueError("stored partition does not match its digest")
    return DefenseBundle(
        pair=encoders.pair_from_fields(meta, arrays),
        threshold=float(meta["threshold"]),
        partition=partition,
        detector_id=meta["detector_id"],
        calibration=calibration.CalibrationResult.from_dict(meta["calibration"]),
        metadata=meta["metadata"],
    )


def load_bundle(path) -> DefenseBundle:
    return storage.load_container(path, _BUNDLE_FORMAT, _decode_bundle)


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
