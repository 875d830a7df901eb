"""Space quantification: measuring which features perturbations can reach."""
import numpy as np
import pytest

from malguard.data import FeatureSpace, FeatureVector, vectors_matrix
from malguard.problem_space import AppModel, Perturbation
from malguard import quantify as q
from malguard.quantify import SpacePartition, quantify


def space(dim=8):
    return FeatureSpace(tuple(f"f{i}" for i in range(dim)))


def pert(pid, adds, requires=(), forbids=()):
    return Perturbation(pid, "inject", frozenset(adds), frozenset(requires), frozenset(forbids))


def empty_app(dim=8):
    return AppModel(FeatureVector.make([], dim), dim)


def test_partition_complement_invariant():
    part = SpacePartition.from_ps([2, 5], 8)
    assert part.ps == (2, 5)
    assert part.ips == (0, 1, 3, 4, 6, 7)
    assert sorted(part.ps + part.ips) == list(range(8))


def test_partition_rejects_overlap_and_range():
    with pytest.raises(ValueError):
        SpacePartition(ps=(1,), ips=(1, 2), dim=3)
    with pytest.raises(ValueError):
        SpacePartition.from_ps([9], 8)


def test_partition_digest_tracks_content():
    a = SpacePartition.from_ps([1, 2], 8)
    b = SpacePartition.from_ps([1, 2], 8)
    c = SpacePartition.from_ps([1, 3], 8)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_quantify_trivial_grammar():
    perts = [pert("a", {2}), pert("b", {5})]
    part = quantify(space(), [empty_app()], perts)
    assert set(part.ps) == {2, 5}


def test_quantify_no_perturbations_means_all_imperturbable():
    part = quantify(space(), [empty_app()], [])
    assert part.ps == ()
    assert len(part.ips) == 8


def test_quantify_requires_probe_app():
    with pytest.raises(ValueError):
        quantify(space(), [], [pert("a", {1})])


def test_quantify_skips_inapplicable_pairs():
    # reachable only from an app that already has feature 0
    gated = pert("g", {4}, requires={0})
    part = quantify(space(), [empty_app()], [gated])
    assert part.ps == ()
    rich = AppModel(FeatureVector.make([0], 8), 8)
    part = quantify(space(), [empty_app(), rich], [gated])
    assert set(part.ps) == {4}


def test_quantify_union_over_apps():
    perts = [pert("a", {2}), pert("g", {6}, requires={1})]
    apps = [empty_app(), AppModel(FeatureVector.make([1], 8), 8)]
    part = quantify(space(), apps, perts)
    assert set(part.ps) == {2, 6}


def test_quantify_delta_excludes_already_present_bits():
    # app already carries bit 3, so an add of {3, 4} only moves bit 4
    app = AppModel(FeatureVector.make([3], 8), 8)
    part = quantify(space(), [app], [pert("a", {3, 4})])
    assert set(part.ps) == {4}


def test_quantify_dim_mismatch():
    with pytest.raises(ValueError):
        quantify(space(8), [empty_app(dim=9)], [pert("a", {1})])


def test_partition_round_trip(tmp_path):
    part = SpacePartition.from_ps([0, 3, 7], 9)
    p = tmp_path / "part.json"
    q.save_partition(part, p)
    first = p.read_bytes()
    back = q.load_partition(p)
    assert back == part
    q.save_partition(back, p)
    assert p.read_bytes() == first


def test_partition_arrays_dtype():
    part = SpacePartition.from_ps([1], 4)
    assert part.ps_array().dtype == np.int64
    assert part.ips_array().dtype == np.int64


def test_split_equals_column_indexing():
    part = SpacePartition.from_ps([0, 3, 4, 9], 12)
    rng = np.random.default_rng(1)
    vectors = [FeatureVector.make(rng.choice(12, size=rng.integers(0, 8), replace=False), 12)
               for _ in range(9)]
    x = vectors_matrix(vectors, 12)
    for half, cols in zip(part.split(x), (part.ps_array(), part.ips_array())):
        want = x[:, cols]
        assert half.shape == want.shape
        assert np.array_equal(half.indptr, want.indptr)
        assert np.array_equal(half.indices, want.indices)
        assert np.array_equal(half.toarray(), want.toarray())
