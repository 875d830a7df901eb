"""Query-budgeted evasion attacks, attack traces, and defense-impact metrics.

The greedy attack walks the perturbation grammar one oracle query at a time:
it draws an untried applicable perturbation, queries the oracle on the
tentatively perturbed vector, stops on a benign verdict, and otherwise
commits the move (always under label-only feedback; only on a score
improvement when the oracle leaks scores). Every oracle call counts against
the query budget. Per-sample randomness is derived from (seed, sample id),
so traces are independent of scheduling and replay deterministically from
their perturbation-id lists.

Two adaptive variants target the defended pipeline: one queries the full
pipeline as its oracle, one generates several detector-only variants and
submits the one with the lowest incompatibility score.

NDASR is the relative drop in attack success rate once the defense re-scores
the attack results: (asr_before - asr_after) / asr_before.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from malguard import encoders, pipeline, pseudo, storage
from malguard.data import (
    MALICIOUS, Dataset, FeatureVector, FormatError, Sample, int_list, read_records,
    vectors_matrix, write_records,
)
from malguard.problem_space import Perturbation
from malguard.quantify import SpacePartition

ATTACK_TARGETS = ("detector-only", "score-oracle")


@dataclass(frozen=True)
class AttackConfig:
    query_budget: int = 10
    variant_count: int = 10
    seed: int = 0
    target: str = "score-oracle"

    def __post_init__(self):
        if self.query_budget < 1:
            raise ValueError(f"query budget must be >= 1, got {self.query_budget}")
        if self.variant_count < 1:
            raise ValueError(f"variant count must be >= 1, got {self.variant_count}")
        if self.target not in ATTACK_TARGETS:
            raise ValueError(f"target must be one of {ATTACK_TARGETS}, got {self.target!r}")


@dataclass(frozen=True)
class AttackTrace:
    sample_id: str
    success: bool
    queries_used: int
    final_vector: FeatureVector
    applied: tuple[str, ...]
    eligible: bool = True


def detector_oracle(detector, with_scores: bool = True):
    """Oracle over the bare detector: (is_malicious, score or None)."""

    def query(vector: FeatureVector):
        score = detector.score_vector(vector)
        return score > detector.decision_threshold, (score if with_scores else None)

    return query


def pipeline_oracle(bundle, detector):
    """Oracle over the defended pipeline; label-only feedback."""

    def query(vector: FeatureVector):
        label, _ = pipeline.detect(bundle, detector, vector)
        return label == MALICIOUS, None

    return query


def has_applicable(vector: FeatureVector, perturbations) -> bool:
    """Whether any perturbation both applies to the vector and changes it."""
    active = vector.as_set()
    return any(p.applicable(active) and not p.adds <= active for p in perturbations)


def greedy_attack(
    x_m: Sample,
    oracle,
    perturbations: list[Perturbation],
    partition: SpacePartition,
    cfg: AttackConfig,
) -> AttackTrace:
    """Evade the oracle by cumulative perturbation under a strict query budget.

    A sample that no perturbation both applies to and changes is ineligible:
    its trace is a failure with no query and no perturbation applied.
    """
    ps = set(partition.ps)
    for p in perturbations:
        if p.adds - ps:
            raise ValueError(
                f"perturbation {p.id!r} adds features outside the perturbable space"
            )
    dim = partition.dim
    rng = storage.id_rng(cfg.seed, x_m.id)
    current = set(x_m.vector.indices)
    applied: list[str] = []
    applied_set: set[str] = set()
    tried_here: set[str] = set()
    queries = 0
    best_score: float | None = None
    eligible = has_applicable(x_m.vector, perturbations)
    while queries < cfg.query_budget:
        frozen = frozenset(current)
        candidates = [
            p
            for p in perturbations
            if p.id not in applied_set
            and p.id not in tried_here
            and p.applicable(frozen)
            and not p.adds <= frozen
        ]
        if not candidates:
            break
        p = candidates[int(rng.integers(len(candidates)))]
        tentative = current | p.adds
        vector = FeatureVector.make(tentative, dim)
        malicious, score = oracle(vector)
        queries += 1
        if not malicious:
            applied.append(p.id)
            return AttackTrace(x_m.id, True, queries, vector, tuple(applied), eligible)
        if score is None or best_score is None or score < best_score:
            # Label-only feedback gives nothing to rank by, so commit and walk.
            current = tentative
            applied.append(p.id)
            applied_set.add(p.id)
            tried_here.clear()
            if score is not None:
                best_score = score
        else:
            tried_here.add(p.id)
    return AttackTrace(
        x_m.id, False, queries, FeatureVector.make(current, dim), tuple(applied), eligible
    )


def adaptive_attack_1(
    x_m: Sample,
    bundle,
    detector,
    perturbations: list[Perturbation],
    partition: SpacePartition,
    cfg: AttackConfig,
) -> AttackTrace:
    """Greedy attack using the defended pipeline itself as the oracle."""
    return greedy_attack(x_m, pipeline_oracle(bundle, detector), perturbations, partition, cfg)


def adaptive_attack_2(
    x_m: Sample,
    bundle,
    detector,
    perturbations: list[Perturbation],
    partition: SpacePartition,
    cfg: AttackConfig,
) -> AttackTrace:
    """Pick the detector-evading variant with the lowest incompatibility score.

    Each variant is an independent greedy run against the detector alone with
    its own query budget; the attack succeeds only when the best variant also
    slips under the defense threshold. queries_used totals all variants.
    """
    oracle = detector_oracle(detector, with_scores=cfg.target == "score-oracle")
    total_queries = 0
    evading: list[AttackTrace] = []
    for v in range(cfg.variant_count):
        vcfg = replace(cfg, seed=storage.stage_seed(cfg.seed, f"variant-{v}"))
        trace = greedy_attack(x_m, oracle, perturbations, partition, vcfg)
        total_queries += trace.queries_used
        if trace.success:
            evading.append(trace)
    eligible = has_applicable(x_m.vector, perturbations)
    if not evading:
        return AttackTrace(x_m.id, False, total_queries, x_m.vector, (), eligible)
    scores = _final_scores(evading, bundle)
    best_pos = int(np.argmin(scores))
    best = evading[best_pos]
    success = not bundle.flags(scores[best_pos])
    return AttackTrace(
        x_m.id, success, total_queries, best.final_vector, best.applied, eligible
    )


def ndasr(asr_before: float, asr_after: float) -> float:
    """Normalized drop in attack success rate caused by the defense."""
    if asr_before <= 0.0:
        raise ValueError("NDASR is undefined when the pre-defense success rate is 0")
    return (asr_before - asr_after) / asr_before


def attack_suite(
    samples: list[Sample],
    oracle,
    perturbations,
    partition,
    cfg: AttackConfig,
) -> list[AttackTrace]:
    """Greedy-attack every sample; ineligible samples get an empty failed trace."""
    return [greedy_attack(s, oracle, perturbations, partition, cfg) for s in samples]


def offline_defense_rates(traces: list[AttackTrace], bundle) -> tuple[float, float]:
    """(asr_before, asr_after) by re-scoring stored traces with the defense.

    Samples with no applicable perturbation are excluded from the
    denominator. A successful attack survives the defense only if its final
    vector's incompatibility score does not exceed the threshold.
    """
    eligible = [t for t in traces if t.eligible]
    if not eligible:
        raise ValueError("no eligible attack traces; every sample lacked a perturbation")
    succ = [t for t in eligible if t.success]
    asr_before = len(succ) / len(eligible)
    surviving = int(np.count_nonzero(~bundle.flags(_final_scores(succ, bundle))))
    return asr_before, surviving / len(eligible)


def _final_scores(traces: list[AttackTrace], bundle) -> np.ndarray:
    """Incompatibility scores of the traces' final vectors, in one batch."""
    x = vectors_matrix([t.final_vector for t in traces], bundle.partition.dim)
    return encoders.batch_scores(bundle.pair, bundle.partition, x)


def detector_rescore_rates(traces: list[AttackTrace], detector) -> tuple[float, float]:
    """(asr_before, asr_after) when a retrained detector re-labels the finals."""
    eligible = [t for t in traces if t.eligible]
    if not eligible:
        raise ValueError("no eligible attack traces; every sample lacked a perturbation")
    succ = [t for t in eligible if t.success]
    surviving = sum(1 for t in succ if not detector.is_malicious(t.final_vector))
    return len(succ) / len(eligible), surviving / len(eligible)


def adversarial_training_baseline(
    train: Dataset,
    partition: SpacePartition,
    detector,
    train_fn,
    seed: int,
    pseudo_budget: int = 100,
):
    """Retrain the detector with pseudo-adversarial samples added as malicious.

    *detector* is the model used to accept pseudo-adversarial samples;
    *train_fn(dataset, seed)* builds the retrained model.
    """
    mal = train.by_label(MALICIOUS)
    pam = pseudo.generate(mal, detector, partition, budget=pseudo_budget, seed=seed)
    extra = pseudo.to_dataset(pam, mal)
    augmented = Dataset(train.space, train.samples + tuple(extra))
    return train_fn(augmented, seed), augmented


@dataclass(frozen=True)
class EvalRow:
    control_rate: float
    threshold: float
    best_epoch: int
    tnir: float
    fnir: float
    asr_before: float | None  # None when no trace is eligible
    asr_after: float | None
    ndasr: float | None  # None as well when no attack succeeded before the defense


def evaluate_defense(traces: list[AttackTrace], bundles) -> tuple[EvalRow, ...]:
    """Re-score the stored traces with the defense calibrated at each budget.

    *bundles* holds one defense bundle per control rate, in row order; each
    row reports its bundle's calibration. With no eligible trace the rates
    are undefined, and the rows report them as None.
    """
    rows = []
    eligible = any(t.eligible for t in traces)
    for bundle in bundles:
        result = bundle.calibration
        asr_before, asr_after = (
            offline_defense_rates(traces, bundle) if eligible else (None, None))
        rows.append(
            EvalRow(
                control_rate=result.control_rate,
                threshold=result.threshold,
                best_epoch=result.best_epoch,
                tnir=result.tnir_at_threshold,
                fnir=result.fnir_at_threshold,
                asr_before=asr_before,
                asr_after=asr_after,
                ndasr=ndasr(asr_before, asr_after) if asr_before else None,
            )
        )
    return tuple(rows)


def save_traces(traces: list[AttackTrace], path) -> None:
    write_records(path, (
        {"sample_id": t.sample_id, "success": t.success, "queries_used": t.queries_used,
         "final": list(t.final_vector.indices), "applied": list(t.applied),
         "eligible": t.eligible}
        for t in traces
    ))


_TRACE_KEYS = ("sample_id", "success", "queries_used", "final", "applied", "eligible")


def load_traces(path, dim: int) -> list[AttackTrace]:
    traces = []
    for line_no, rec in read_records(path, "trace", _TRACE_KEYS):
        if type(rec["success"]) is not bool or type(rec["eligible"]) is not bool:
            raise FormatError(path, line_no, "success and eligible must be booleans")
        if type(rec["queries_used"]) is not int or rec["queries_used"] < 0:
            raise FormatError(path, line_no, "queries_used must be a non-negative integer")
        applied = rec["applied"]
        if not isinstance(applied, list) or not all(type(a) is str for a in applied):
            raise FormatError(path, line_no, "applied must be a list of strings")
        final = int_list(rec, "final", path, line_no)
        try:
            final = FeatureVector.make(final, dim)
        except ValueError as exc:
            raise FormatError(path, line_no, f"invalid trace record: {exc}") from exc
        traces.append(AttackTrace(rec["sample_id"], rec["success"], rec["queries_used"],
                                  final, tuple(applied), rec["eligible"]))
    return traces
