"""Feature vocabulary, sparse binary vectors, labeled datasets, splits, file I/O.

Wire formats are line-delimited UTF-8 text. Every file starts with the
versioned header line ``#addfmt v1``:

* vocabulary file: one feature name per line; line order defines the index
  space;
* dataset file: one JSON record per line with keys ``id``, ``label``
  (``benign`` or ``malicious``), ``ts`` (integer epoch seconds) and
  ``features`` (list of active feature indices), plus an optional
  ``source_id`` for derived samples.

Loading validates every record against the vocabulary and reports the
offending line on failure. Saving writes records with canonical key order,
so a load -> save round-trip of a saved file is byte identical.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from malguard import storage

FORMAT_HEADER = "#addfmt v1"
BENIGN = "benign"
MALICIOUS = "malicious"
LABELS = (BENIGN, MALICIOUS)


class FormatError(ValueError):
    """Malformed vocabulary/dataset/perturbation file contents."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _check_header(line: str, path, line_no: int = 1) -> None:
    if line.rstrip("\n") != FORMAT_HEADER:
        raise FormatError(path, line_no, f"missing header {FORMAT_HEADER!r}")


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

    def union(self, extra, dim: int) -> "FeatureVector":
        return FeatureVector.make(set(self.indices) | set(extra), dim)

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
        if not self.id:
            raise ValueError("sample id must be non-empty")
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
        return storage.sha256_hex(_serialize_dataset(self).encode("utf-8"))


def vectors_matrix(vectors, dim: int) -> sparse.csr_matrix:
    """Feature vectors as the rows of a CSR matrix of 0/1 values."""
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(v) for v in vectors], dtype=np.int64)
    indices = np.fromiter(
        (i for v in vectors for i in v.indices), dtype=np.int64, count=int(indptr[-1])
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
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0] != FORMAT_HEADER:
        raise FormatError(path, 1, f"missing header {FORMAT_HEADER!r}")
    if lines and lines[-1] == "":
        lines.pop()
    names = []
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw or raw != raw.strip():
            raise FormatError(path, line_no, f"invalid feature name: {raw!r}")
        names.append(raw)
    try:
        return FeatureSpace(tuple(names))
    except ValueError as exc:
        raise FormatError(path, 1, str(exc)) from exc


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


def _serialize_dataset(dataset: Dataset) -> str:
    lines = [FORMAT_HEADER]
    for s in dataset.samples:
        lines.append(json.dumps(_record_dict(s), sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_serialize_dataset(dataset))


_RECORD_KEYS = {"id", "label", "ts", "features", "source_id"}


def _parse_record(raw: str, space: FeatureSpace, path, line_no: int) -> Sample:
    try:
        rec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(path, line_no, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(rec, dict):
        raise FormatError(path, line_no, "record must be a JSON object")
    unknown = set(rec) - _RECORD_KEYS
    if unknown:
        raise FormatError(path, line_no, f"unknown record keys: {sorted(unknown)}")
    for key in ("id", "label", "ts", "features"):
        if key not in rec:
            raise FormatError(path, line_no, f"missing record key {key!r}")
    feats = rec["features"]
    if not isinstance(feats, list) or any(
        isinstance(i, bool) or not isinstance(i, int) for i in feats
    ):
        raise FormatError(path, line_no, "features must be a list of integers")
    if len(set(feats)) != len(feats):
        raise FormatError(path, line_no, "duplicate feature indices in record")
    if any(i < 0 or i >= space.dim for i in feats):
        raise FormatError(path, line_no, f"feature index out of range [0, {space.dim})")
    try:
        return Sample(
            id=rec["id"],
            vector=FeatureVector.make(feats, space.dim),
            label=rec["label"],
            ts=rec["ts"],
            source_id=rec.get("source_id"),
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(path, line_no, str(exc)) from exc


def read_dataset(path, space: FeatureSpace) -> Dataset:
    """Parse a dataset file against an already-loaded vocabulary."""
    samples = []
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        _check_header(first, path)
        for line_no, raw in enumerate(fh, start=2):
            raw = raw.rstrip("\n")
            if not raw:
                raise FormatError(path, line_no, "blank line in dataset file")
            samples.append(_parse_record(raw, space, path, line_no))
    try:
        return Dataset(space, tuple(samples))
    except ValueError as exc:
        raise FormatError(path, 1, str(exc)) from exc


def load_dataset(path, space_path) -> Dataset:
    """Load a dataset file together with its vocabulary file."""
    return read_dataset(path, load_feature_space(space_path))


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
