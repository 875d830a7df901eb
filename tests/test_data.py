"""Feature space, sparse vectors, dataset container, splits, wire format."""
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from malguard import attacks, data, problem_space, quantify
from malguard.data import (
    BENIGN,
    MALICIOUS,
    Dataset,
    FeatureSpace,
    FeatureVector,
    FormatError,
    Sample,
    load_feature_space,
    read_dataset,
    save_dataset,
    save_feature_space,
    split_random,
    split_time_aware,
)


def make_space(dim):
    return FeatureSpace(tuple(f"f{i}" for i in range(dim)))


def make_dataset(n, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        idx = rng.choice(dim, size=rng.integers(0, dim), replace=False)
        label = MALICIOUS if rng.random() < 0.3 else BENIGN
        samples.append(Sample(f"s{i:04d}", FeatureVector.make(idx, dim), label, int(rng.integers(0, 1000))))
    return Dataset(make_space(dim), tuple(samples))


def test_feature_vector_sorts_and_dedups():
    v = FeatureVector.make([5, 1, 5, np.int64(3)], 8)
    assert v.indices == (1, 3, 5)
    assert v.as_set() == frozenset({1, 3, 5})
    assert v.as_array().dtype == np.int64


def test_feature_vector_rejects_out_of_range():
    with pytest.raises(ValueError):
        FeatureVector.make([8], 8)
    with pytest.raises(ValueError):
        FeatureVector.make([-1], 8)


def test_feature_space_index_of():
    space = make_space(4)
    assert space.dim == 4
    assert space.index_of("f2") == 2
    with pytest.raises(KeyError):
        space.index_of("nope")


def test_feature_space_rejects_duplicate_names():
    with pytest.raises(ValueError):
        FeatureSpace(("a", "a"))


def test_sample_rejects_unknown_label():
    with pytest.raises(ValueError):
        Sample("x", FeatureVector.make([], 4), "weird", 0)


def test_dataset_rejects_out_of_range_vector():
    space = make_space(4)
    bad = Sample("x", FeatureVector.make([5], 9), BENIGN, 0)
    with pytest.raises(ValueError):
        Dataset(space, (bad,))


def test_dataset_rejects_duplicate_ids():
    space = make_space(4)
    s = Sample("x", FeatureVector.make([], 4), BENIGN, 0)
    with pytest.raises(ValueError):
        Dataset(space, (s, s))


def test_dataset_matrix_matches_vectors():
    ds = make_dataset(50, dim=12, seed=3)
    m = ds.matrix().toarray()
    assert m.shape == (50, 12)
    for row, s in zip(m, ds.samples):
        assert set(np.flatnonzero(row)) == s.vector.as_set()


def test_by_label_and_positions_agree():
    ds = make_dataset(80, seed=5)
    for label in (BENIGN, MALICIOUS):
        pos = ds.label_positions(label)
        assert [ds.samples[i].id for i in pos] == [s.id for s in ds.by_label(label)]
    assert len(ds.by_label(BENIGN)) + len(ds.by_label(MALICIOUS)) == len(ds)


def test_subset_preserves_order_and_space():
    ds = make_dataset(20, seed=1)
    sub = ds.subset([4, 2, 9])
    assert [s.id for s in sub.samples] == ["s0004", "s0002", "s0009"]
    assert sub.space is ds.space


def test_fingerprint_is_stable_and_content_sensitive():
    a = make_dataset(30, seed=2)
    b = make_dataset(30, seed=2)
    assert a.fingerprint() == b.fingerprint()
    c = make_dataset(30, seed=7)
    assert a.fingerprint() != c.fingerprint()


def test_dataset_round_trip_bytes(tmp_path):
    ds = make_dataset(40, dim=10, seed=11)
    sp, dp = tmp_path / "space.txt", tmp_path / "data.jsonl"
    save_feature_space(ds.space, sp)
    save_dataset(ds, dp)
    first = dp.read_bytes()
    back = read_dataset(dp, load_feature_space(sp))
    assert back.fingerprint() == ds.fingerprint()
    assert [s.ts for s in back.samples] == [s.ts for s in ds.samples]
    save_dataset(back, dp)
    assert dp.read_bytes() == first


def test_space_round_trip(tmp_path):
    space = make_space(6)
    p = tmp_path / "space.txt"
    save_feature_space(space, p)
    assert load_feature_space(p).features == space.features


def test_load_rejects_missing_header(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "a"}\n')
    with pytest.raises(FormatError) as err:
        read_dataset(p, load_feature_space(p))
    assert "bad.jsonl" in str(err.value)


def test_readers_name_the_line_that_is_not_utf8(tmp_path):
    ds = make_dataset(3, dim=4, seed=0)
    sp, dp = tmp_path / "s.txt", tmp_path / "d.jsonl"
    save_feature_space(ds.space, sp)
    save_dataset(ds, dp)
    for path, load in ((sp, load_feature_space), (dp, lambda p: read_dataset(p, ds.space))):
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError) as err:
            load(path)
        assert err.value.line_no == 3


def test_load_reports_offending_line(tmp_path):
    ds = make_dataset(3, dim=4, seed=0)
    sp, dp = tmp_path / "s.txt", tmp_path / "d.jsonl"
    save_feature_space(ds.space, sp)
    save_dataset(ds, dp)
    lines = dp.read_text().splitlines()
    lines[2] = "not json"
    dp.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        read_dataset(dp, load_feature_space(sp))
    assert err.value.line_no == 3


# One valid record and the reader of each record file type, over a 4-feature space.
VALID_RECORDS = {
    "dataset": {"id": "a", "label": BENIGN, "ts": 0, "features": [1]},
    "perturbations": {"id": "p", "kind": "k", "adds": [1], "requires": [], "forbids": []},
    "traces": {"sample_id": "a", "success": False, "queries_used": 2, "final": [1],
               "applied": ["p"], "eligible": True},
    "partition": {"dim": 4, "ips": [0, 2, 3], "ps": [1]},
}
READERS = {
    "dataset": lambda path: read_dataset(path, make_space(4)),
    "perturbations": problem_space.load_perturbations,
    "traces": lambda path: attacks.load_traces(path, 4),
    "partition": quantify.load_partition,
}


# Each case: the line after one valid record (None: the file has no header).
MALFORMED = {
    "missing header": None,
    "blank line": lambda rec: "",
    "non-JSON line": lambda rec: "{not json",
    "non-object line": lambda rec: "[1, 2]",
    "unknown key": lambda rec: json.dumps({**rec, "bogus": 1}),
    "missing key": lambda rec: json.dumps(dict(list(rec.items())[1:])),
    # a list where a string belongs, under an id of its own; a key that a
    # kind of record does not have is an unknown key
    "list id": lambda rec: json.dumps(rec | {"id": ["x"]}),
    "list source_id": lambda rec: json.dumps(rec | {"id": "b", "source_id": ["x"]}),
    "list kind": lambda rec: json.dumps(rec | {"id": "b", "kind": ["k"]}),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("kind", READERS)
def test_record_readers_reject_malformed_lines(tmp_path, kind, case):
    rec, bad = VALID_RECORDS[kind], MALFORMED[case]
    if bad is None:
        lines, line_no = [json.dumps(rec)], 1
    else:
        lines, line_no = [data.FORMAT_HEADER, json.dumps(rec), bad(rec)], 3
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        READERS[kind](path)
    assert err.value.line_no == line_no


def test_record_format_is_named_only_in_data():
    sources = Path(data.__file__).parent.glob("*.py")
    naming = sorted(p.name for p in sources if "FORMAT_HEADER" in p.read_text(encoding="utf-8"))
    assert naming == ["data.py"]


# Split sizes from the rounding rule: cut1 = floor(n*r1 + 0.5) on the
# normalized ratios, cut2 likewise on r1+r2. Worked out by hand for both.
def test_split_random_frozen_sizes():
    ds = make_dataset(10, seed=0)
    parts = split_random(ds, (6, 3, 1), seed=0)
    assert tuple(len(p) for p in parts) == (6, 3, 1)


def test_split_random_large_sizes():
    n = 151637
    space = make_space(2)
    samples = tuple(Sample(f"s{i}", FeatureVector.make([], 2), BENIGN, i) for i in range(n))
    ds = Dataset(space, samples)
    parts = split_random(ds, (6, 3, 1), seed=4)
    assert tuple(len(p) for p in parts) == (90982, 45491, 15164)


def test_split_random_partitions_exactly():
    ds = make_dataset(101, seed=9)
    for seed in range(5):
        a, b, c = split_random(ds, (0.5, 0.2, 0.3), seed)
        ids = [s.id for p in (a, b, c) for s in p.samples]
        assert sorted(ids) == sorted(s.id for s in ds.samples)
        again = split_random(ds, (0.5, 0.2, 0.3), seed)
        assert [s.id for s in again[0].samples] == [s.id for s in a.samples]


def test_split_random_rejects_bad_ratios():
    ds = make_dataset(10)
    with pytest.raises(ValueError):
        split_random(ds, (1.0, 0.0, -1.0), 0)


def test_split_time_aware_boundaries():
    space = make_space(2)
    samples = tuple(Sample(f"s{i}", FeatureVector.make([], 2), BENIGN, ts) for i, ts in enumerate([0, 5, 10, 15, 20]))
    ds = Dataset(space, samples)
    train, calib, test = split_time_aware(ds, 10, 20)
    # train ts < 10, calibration 10 <= ts < 20, test ts >= 20
    assert [s.ts for s in train.samples] == [0, 5]
    assert [s.ts for s in calib.samples] == [10, 15]
    assert [s.ts for s in test.samples] == [20]


def test_split_time_aware_warns_on_empty_part():
    ds = make_dataset(5, seed=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        split_time_aware(ds, 0, 0)
    assert any("empty" in str(w.message) for w in caught)


def test_split_time_aware_rejects_reversed_bounds():
    ds = make_dataset(5)
    with pytest.raises(ValueError):
        split_time_aware(ds, 20, 10)
