"""Feature vocabulary, sparse binary vectors, labeled datasets, splits, file I/O.

Wire formats are line-delimited UTF-8 text. Every file starts with the
versioned header line ``#addfmt v1``:

* vocabulary file: one feature name per line; line order defines the index
  space;
* record files: one JSON object per line with sorted keys and no spaces.
  :func:`write_records` is their only writer and :func:`read_records`
  their only reader; a dataset file holds records with keys ``id``,
  ``label`` (``benign`` or ``malicious``), ``ts`` (integer epoch seconds) and
  ``features`` (list of active feature indices), plus an optional
  ``source_id`` for derived samples.

Loading validates every record and reports the offending line on failure.
Records are written in canonical form, so a load -> save round-trip of a
saved file is byte identical.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np
from scipy import sparse

from malguard import storage
from malguard.storage import FormatError

FORMAT_HEADER = "#addfmt v1"
BENIGN = "benign"
MALICIOUS = "malicious"
LABELS = (BENIGN, MALICIOUS)


def format_records(records) -> str:
    """The header line and one canonical JSON line per record."""
    lines = [FORMAT_HEADER]
    lines.extend(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)
    return "\n".join(lines) + "\n"


def write_records(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_records(records))


def read_records(path, what: str, keys, optional=()):
    """Yield ``(line_no, record)`` for each record of a *what* file.

    Checks that the file is UTF-8, the header, that no line is blank, that
    each line is a JSON object, and that each object has every key of
    *keys*, no key outside *keys* and *optional*.
    """
    required = frozenset(keys)
    allowed = required | frozenset(optional)
    for line_no, raw in enumerate(_body_lines(path), start=2):
        if not raw:
            raise FormatError(path, line_no, f"blank line in {what} file")
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FormatError(path, line_no, f"invalid JSON: {exc.msg}") from exc
        if not isinstance(rec, dict):
            raise FormatError(path, line_no, "record must be a JSON object")
        if rec.keys() != required:
            unknown = rec.keys() - allowed
            if unknown:
                raise FormatError(path, line_no, f"unknown record keys: {sorted(unknown)}")
            missing = required - rec.keys()
            if missing:
                raise FormatError(path, line_no, f"missing record keys: {sorted(missing)}")
        yield line_no, rec


def _body_lines(path) -> list[str]:
    """The lines after the header of a UTF-8 ``#addfmt v1`` file, without newlines."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(path, raw.count(b"\n", 0, exc.start) + 1, "invalid UTF-8") from exc
    if lines[0] != FORMAT_HEADER:
        raise FormatError(path, 1, f"missing header {FORMAT_HEADER!r}")
    if lines[-1] == "":
        lines.pop()
    return lines[1:]


def int_list(rec: dict, key: str, path, line_no: int) -> list[int]:
    """``rec[key]``, checked to be a list of JSON integers."""
    vals = rec[key]
    if not isinstance(vals, list) or not set(map(type, vals)) <= {int}:
        raise FormatError(path, line_no, f"{key} must be a list of integers")
    return vals


@dataclass(frozen=True)
class FeatureSpace:
    """Ordered feature vocabulary; position in ``features`` is the index."""

    features: tuple[str, ...]

    def __post_init__(self):
        if not self.features:
            raise ValueError("feature space must contain at least one feature")
        seen = set()
        for name in self.features:
            if not name or "\n" in name or name != name.strip():
                raise ValueError(f"invalid feature name: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate feature name: {name!r}")
            seen.add(name)

    @property
    def dim(self) -> int:
        return len(self.features)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.features)}

    def index_of(self, name: str) -> int:
        return self._index[name]


@dataclass(frozen=True)
class FeatureVector:
    """Sparse binary vector stored as a strictly increasing index tuple."""

    indices: tuple[int, ...]

    @classmethod
    def make(cls, indices, dim: int) -> "FeatureVector":
        idx = sorted(set(int(i) for i in indices))
        if idx and (idx[0] < 0 or idx[-1] >= dim):
            raise ValueError(f"feature index out of range [0, {dim}): {idx[0]}..{idx[-1]}")
        return cls(tuple(idx))

    def as_set(self) -> frozenset[int]:
        return frozenset(self.indices)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class Sample:
    id: str
    vector: FeatureVector
    label: str
    ts: int
    source_id: str | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"sample id must be a non-empty string, got {self.id!r}")
        if self.source_id is not None and not isinstance(self.source_id, str):
            raise ValueError(f"source_id must be a string, got {self.source_id!r}")
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}; expected one of {LABELS}")
        if isinstance(self.ts, bool) or not isinstance(self.ts, int):
            raise ValueError("ts must be an integer epoch-seconds value")


@dataclass
class Dataset:
    """Immutable collection of samples bound to one feature space."""

    space: FeatureSpace
    samples: tuple[Sample, ...]

    def __post_init__(self):
        self.samples = tuple(self.samples)
        seen: set[str] = set()
        dim = self.space.dim
        for s in self.samples:
            if s.id in seen:
                raise ValueError(f"duplicate sample id: {s.id!r}")
            seen.add(s.id)
            if s.vector.indices and s.vector.indices[-1] >= dim:
                raise ValueError(f"sample {s.id!r} has feature index >= dim {dim}")

    def __len__(self) -> int:
        return len(self.samples)

    def matrix(self) -> sparse.csr_matrix:
        """Samples as a CSR matrix of 0/1 values, cached after first build."""
        cached = getattr(self, "_matrix", None)
        if cached is None:
            cached = vectors_matrix([s.vector for s in self.samples], self.space.dim)
            self._matrix = cached
        return cached

    def label_positions(self, label: str) -> np.ndarray:
        return np.asarray(
            [i for i, s in enumerate(self.samples) if s.label == label], dtype=np.int64
        )

    def by_label(self, label: str) -> list[Sample]:
        return [s for s in self.samples if s.label == label]

    def subset(self, positions) -> "Dataset":
        return Dataset(self.space, tuple(self.samples[int(i)] for i in positions))

    def fingerprint(self) -> str:
        """Digest of the canonical serialization; identifies dataset content."""
        records = map(_record_dict, self.samples)
        return storage.sha256_hex(format_records(records).encode("utf-8"))


def vectors_matrix(vectors, dim: int) -> sparse.csr_matrix:
    """Feature vectors as the rows of a CSR matrix of 0/1 values."""
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(v) for v in vectors], dtype=np.int64)
    indices = np.fromiter(
        chain.from_iterable(v.indices for v in vectors), dtype=np.int64, count=int(indptr[-1])
    )
    return sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(len(vectors), dim)
    )


def save_feature_space(space: FeatureSpace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FORMAT_HEADER + "\n")
        for name in space.features:
            fh.write(name + "\n")


def load_feature_space(path) -> FeatureSpace:
    names = []
    for line_no, raw in enumerate(_body_lines(path), start=2):
        if not raw or raw != raw.strip():
            raise FormatError(path, line_no, f"invalid feature name: {raw!r}")
        names.append(raw)
    try:
        return FeatureSpace(tuple(names))
    except ValueError as exc:
        raise FormatError(path, 1, str(exc)) from exc


_RECORD_KEYS = ("id", "label", "ts", "features")


def _record_dict(sample: Sample) -> dict:
    rec = {
        "id": sample.id,
        "label": sample.label,
        "ts": sample.ts,
        "features": list(sample.vector.indices),
    }
    if sample.source_id is not None:
        rec["source_id"] = sample.source_id
    return rec


def save_dataset(dataset: Dataset, path) -> None:
    write_records(path, map(_record_dict, dataset.samples))


def read_dataset(path, space: FeatureSpace) -> Dataset:
    """Parse a dataset file against an already-loaded vocabulary."""
    dim = space.dim
    samples = []
    for line_no, rec in read_records(path, "dataset", _RECORD_KEYS, ("source_id",)):
        feats = int_list(rec, "features", path, line_no)
        idx = sorted(feats)  # one linear pass over the canonical, increasing form
        if len(set(idx)) != len(idx):
            raise FormatError(path, line_no, "duplicate feature indices in record")
        if idx and (idx[0] < 0 or idx[-1] >= dim):
            raise FormatError(path, line_no, f"feature index out of range [0, {dim})")
        try:
            samples.append(Sample(
                id=rec["id"],
                vector=FeatureVector(tuple(idx)),
                label=rec["label"],
                ts=rec["ts"],
                source_id=rec.get("source_id"),
            ))
        except (TypeError, ValueError) as exc:
            raise FormatError(path, line_no, str(exc)) from exc
    try:
        return Dataset(space, tuple(samples))
    except ValueError as exc:
        raise FormatError(path, 1, str(exc)) from exc


def split_time_aware(dataset: Dataset, t1: int, t2: int) -> tuple[Dataset, Dataset, Dataset]:
    """Split by timestamp: train ts < t1, calibration t1 <= ts < t2, test ts >= t2."""
    if not t1 <= t2:
        raise ValueError(f"need t1 <= t2, got {t1} > {t2}")
    train, calib, test = [], [], []
    for i, s in enumerate(dataset.samples):
        if s.ts < t1:
            train.append(i)
        elif s.ts < t2:
            calib.append(i)
        else:
            test.append(i)
    for name, part in (("train", train), ("calibration", calib), ("test", test)):
        if not part:
            warnings.warn(f"time-aware split produced an empty {name} partition")
    return dataset.subset(train), dataset.subset(calib), dataset.subset(test)


def split_random(
    dataset: Dataset, ratios: tuple[float, float, float], seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Seed-deterministic random split; partition sizes match the ratios to +/-1."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be three positive numbers, got {ratios!r}")
    total = float(sum(ratios))
    n = len(dataset)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(n)
    cut1 = int(np.floor(n * ratios[0] / total + 0.5))
    cut2 = int(np.floor(n * (ratios[0] + ratios[1]) / total + 0.5))
    cut2 = max(cut2, cut1)
    assignment = np.empty(n, dtype=np.int64)
    assignment[perm[:cut1]] = 0
    assignment[perm[cut1:cut2]] = 1
    assignment[perm[cut2:]] = 2
    parts = tuple(np.nonzero(assignment == k)[0] for k in range(3))
    return tuple(dataset.subset(p) for p in parts)  # type: ignore[return-value]
