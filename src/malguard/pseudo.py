"""Pseudo-adversarial sample generation by random perturbable-space flips.

For each malicious source the generator makes up to ``budget`` attempts.
Each attempt draws a subset size k uniformly from {1..|ps|}, then a uniform
k-subset of PS indices, and switches those bits on in a copy of the source.
Generation is additive only, like the perturbation grammar the partition was
quantified from: no attempt clears a feature its source has. The first
attempt the detector classifies as benign is kept; sources whose budget runs
out are dropped and logged. Imperturbable coordinates are never
touched, so every output is identical to its source on IPS.

Each source draws from its own stream, ``storage.id_rng(seed, source id)``,
so results do not depend on iteration order and are stable under parallel
generation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from malguard import storage
from malguard.data import MALICIOUS, Dataset, FeatureVector, Sample
from malguard.quantify import SpacePartition

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PseudoAdvSample:
    source_id: str
    vector: FeatureVector
    attempts_used: int


def generate(
    malicious: list[Sample],
    model,
    partition: SpacePartition,
    budget: int = 100,
    flip_limit: int | None = None,
    seed: int = 0,
) -> list[PseudoAdvSample]:
    """Generate at most one detector-benign pseudo-adversarial sample per source."""
    if budget < 1:
        raise ValueError(f"attempt budget must be >= 1, got {budget}")
    if any(s.label != MALICIOUS for s in malicious):
        raise ValueError("pseudo-adversarial sources must all be labeled malicious")
    ps = partition.ps_array()
    if len(ps) == 0:
        raise ValueError("perturbable space is empty; nothing can be flipped")
    kmax = len(ps) if flip_limit is None else min(flip_limit, len(ps))
    if kmax < 1:
        raise ValueError(f"flip limit must be >= 1, got {flip_limit}")

    out: list[PseudoAdvSample] = []
    dropped = 0
    for source in malicious:
        rng = storage.id_rng(seed, source.id)
        base = set(source.vector.indices)
        hit = None
        for attempt in range(1, budget + 1):
            k = int(rng.integers(1, kmax + 1))
            flips = rng.choice(ps, size=k, replace=False)
            vector = FeatureVector.make(base | set(int(i) for i in flips), partition.dim)
            if not model.is_malicious(vector):
                hit = PseudoAdvSample(source.id, vector, attempt)
                break
        if hit is None:
            dropped += 1
            log.debug("budget exhausted for source %s after %d attempts", source.id, budget)
        else:
            out.append(hit)
    if dropped:
        log.info("pseudo-adversarial generation dropped %d/%d sources", dropped, len(malicious))
    return out


def to_dataset(pseudo: list[PseudoAdvSample], sources: list[Sample]) -> list[Sample]:
    """Materialize pseudo-adversarial samples as malicious-labeled records.

    Each record keeps its source's timestamp and carries the source id, which
    is how training later matches pseudo partners back to their sources.
    """
    by_id = {s.id: s for s in sources}
    samples = []
    for p in pseudo:
        src = by_id.get(p.source_id)
        if src is None:
            raise ValueError(f"pseudo sample references unknown source {p.source_id!r}")
        samples.append(
            Sample(
                id=f"{p.source_id}#p{p.attempts_used}",
                vector=p.vector,
                label=MALICIOUS,
                ts=src.ts,
                source_id=p.source_id,
            )
        )
    return samples


def from_dataset(dataset: Dataset) -> list[PseudoAdvSample]:
    """Read pseudo-adversarial samples back from a persisted dataset."""
    out = []
    for s in dataset.samples:
        if s.source_id is None:
            raise ValueError(f"sample {s.id!r} has no source_id; not a pseudo-adversarial record")
        out.append(PseudoAdvSample(s.source_id, s.vector, 0))
    return out
