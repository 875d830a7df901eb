"""Pseudo-adversarial generation against a frozen linear detector."""
import numpy as np
import pytest

from malguard.data import BENIGN, MALICIOUS, Dataset, FeatureSpace, FeatureVector, Sample
from malguard.detectors import LinearModel
from malguard import pseudo
from malguard.quantify import SpacePartition


def mal_sample(sid, idx, dim, ts=0):
    return Sample(sid, FeatureVector.make(idx, dim), MALICIOUS, ts)


# Hand-worked single-path case: w = [1, 1, -3], bias 0. The source {0, 1}
# scores 2 (malicious). The only perturbable bit is 2, so every attempt
# flips exactly that bit, and {0, 1, 2} scores -1 (benign). First try wins.
def test_single_reachable_flip():
    model = LinearModel(np.array([1.0, 1.0, -3.0]), 0.0)
    part = SpacePartition.from_ps([2], 3)
    src = mal_sample("m0", [0, 1], 3)
    out = pseudo.generate([src], model, part, budget=5, seed=0)
    assert len(out) == 1
    assert out[0].source_id == "m0"
    assert out[0].vector.as_set() == frozenset({0, 1, 2})
    assert out[0].attempts_used == 1


def test_unreachable_source_is_dropped():
    # all perturbable bits have positive weight, adding them never helps
    model = LinearModel(np.array([2.0, 1.0, 1.0]), 0.0)
    part = SpacePartition.from_ps([1, 2], 3)
    src = mal_sample("m0", [0], 3)
    assert pseudo.generate([src], model, part, budget=20, seed=0) == []


def planted(n=40, dim=30, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=dim)
    w[:10] = np.abs(w[:10]) + 0.5          # malicious bits
    w[10:20] = -np.abs(w[10:20]) - 0.5     # benign-leaning, perturbable
    model = LinearModel(w, 0.0)
    part = SpacePartition.from_ps(range(10, 20), dim)
    sources = []
    for i in range(n):
        idx = list(rng.choice(10, size=4, replace=False))
        sources.append(mal_sample(f"m{i:03d}", idx, dim, ts=i))
    sources = [s for s in sources if model.is_malicious(s.vector)]
    return model, part, sources


def test_generated_samples_fool_detector_and_keep_ips():
    model, part, sources = planted()
    out = pseudo.generate(sources, model, part, budget=100, seed=1)
    assert len(out) >= 0.9 * len(sources)
    by_id = {s.id: s for s in sources}
    ips = set(part.ips)
    for p in out:
        assert not model.is_malicious(p.vector)
        src = by_id[p.source_id]
        # additive mode: imperturbable bits identical, source bits kept
        assert p.vector.as_set() & ips == src.vector.as_set() & ips
        assert src.vector.as_set() <= p.vector.as_set()
        assert 1 <= p.attempts_used <= 100


def test_generate_is_deterministic_and_order_free():
    model, part, sources = planted(seed=2)
    a = pseudo.generate(sources, model, part, budget=50, seed=3)
    b = pseudo.generate(list(reversed(sources)), model, part, budget=50, seed=3)
    av = {p.source_id: p.vector.as_set() for p in a}
    bv = {p.source_id: p.vector.as_set() for p in b}
    assert av == bv


def test_flip_limit_caps_additions():
    model, part, sources = planted(seed=4)
    out = pseudo.generate(sources, model, part, budget=100, flip_limit=3, seed=0)
    by_id = {s.id: s for s in sources}
    assert out
    for p in out:
        added = p.vector.as_set() - by_id[p.source_id].vector.as_set()
        assert 1 <= len(added) <= 3


def test_generate_validates_inputs():
    model, part, sources = planted()
    with pytest.raises(ValueError):
        pseudo.generate(sources, model, part, budget=0)
    benign = Sample("b0", FeatureVector.make([], part.dim), BENIGN, 0)
    with pytest.raises(ValueError):
        pseudo.generate([benign], model, part)
    empty = SpacePartition.from_ps([], part.dim)
    with pytest.raises(ValueError):
        pseudo.generate(sources, model, empty)


def test_to_dataset_links_sources():
    model, part, sources = planted(seed=5)
    out = pseudo.generate(sources, model, part, budget=100, seed=0)
    rows = pseudo.to_dataset(out, sources)
    by_id = {s.id: s for s in sources}
    for p, row in zip(out, rows):
        assert row.id == f"{p.source_id}#p{p.attempts_used}"
        assert row.label == MALICIOUS
        assert row.source_id == p.source_id
        assert row.ts == by_id[p.source_id].ts
    with pytest.raises(ValueError):
        pseudo.to_dataset(out, sources[:1])


def test_from_dataset_round_trip():
    model, part, sources = planted(seed=6)
    out = pseudo.generate(sources, model, part, budget=100, seed=0)
    space = FeatureSpace(tuple(f"f{i}" for i in range(part.dim)))
    ds = Dataset(space, tuple(pseudo.to_dataset(out, sources)))
    back = pseudo.from_dataset(ds)
    assert {(p.source_id, p.vector.as_set()) for p in back} == {
        (p.source_id, p.vector.as_set()) for p in out
    }
