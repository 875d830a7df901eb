"""Empirical quantification of the perturbable feature space.

Every (probe app, perturbation) pair where the perturbation applies
contributes the features the perturbation switches on that the probe app
did not already hold. The union of those deltas is the perturbable space
(PS); its complement is the imperturbable space (IPS). Inapplicable pairs
are skipped, which is exactly why more than one probe app can be
necessary: a perturbation requiring a feature absent from every probe would
otherwise never reveal its delta.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from malguard import problem_space, storage
from malguard.data import FeatureSpace, FormatError, int_list, read_records, write_records

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpacePartition:
    """Disjoint perturbable/imperturbable index sets covering [0, dim)."""

    ps: tuple[int, ...]
    ips: tuple[int, ...]
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"partition dim must be >= 1, got {self.dim}")
        ps = set(self.ps)
        ips = set(self.ips)
        if len(ps) != len(self.ps) or len(ips) != len(self.ips):
            raise ValueError("partition index lists contain duplicates")
        if ps & ips:
            raise ValueError(f"partition overlaps on {sorted(ps & ips)[:5]}...")
        if ps | ips != set(range(self.dim)):
            raise ValueError("partition does not cover the feature space exactly")
        if tuple(sorted(self.ps)) != self.ps or tuple(sorted(self.ips)) != self.ips:
            raise ValueError("partition index lists must be sorted")

    @classmethod
    def from_ps(cls, ps, dim: int) -> "SpacePartition":
        ps_set = set(int(i) for i in ps)
        ips = tuple(i for i in range(dim) if i not in ps_set)
        return cls(tuple(sorted(ps_set)), ips, dim)

    def ps_array(self) -> np.ndarray:
        return np.asarray(self.ps, dtype=np.int64)

    def ips_array(self) -> np.ndarray:
        return np.asarray(self.ips, dtype=np.int64)

    def split(self, x: sparse.spmatrix) -> tuple[sparse.csr_array, sparse.csr_array]:
        """The PS columns and the IPS columns of a CSR matrix, in that order.

        Each row keeps its entries in their order, so a row's part of either
        half does not depend on the other rows, and equals what
        :meth:`split_row` gives for that row alone. Same result as scipy
        column indexing, without its per-call overhead.
        """
        x = x.tocsr()
        in_ps, position = self._column_map
        side = in_ps[x.indices]
        halves = []
        for keep, width in ((side, len(self.ps)), (~side, len(self.ips))):
            ends = np.concatenate(([0], np.cumsum(keep)))
            halves.append(sparse.csr_array(
                (x.data[keep], position[x.indices[keep]], ends[x.indptr]),
                shape=(x.shape[0], width),
            ))
        return halves[0], halves[1]

    def split_row(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The PS columns and the IPS columns of one row's active features, in order."""
        in_ps, position = self._column_map
        side = in_ps[indices]
        return position[indices[side]], position[indices[~side]]

    @cached_property
    def _column_map(self) -> tuple[np.ndarray, np.ndarray]:
        """Per feature: whether it is perturbable, and its column in its half."""
        in_ps = np.zeros(self.dim, dtype=bool)
        in_ps[self.ps_array()] = True
        return in_ps, np.where(in_ps, np.cumsum(in_ps), np.cumsum(~in_ps)) - 1

    def digest(self) -> str:
        canonical = f"dim={self.dim};ps={','.join(map(str, self.ps))}"
        return storage.sha256_hex(canonical.encode("utf-8"))


def quantify(
    space: FeatureSpace,
    quant_apps: list[frozenset[int]],
    perturbations: list[problem_space.Perturbation],
) -> SpacePartition:
    """Measure PS as the union of observed feature deltas over all probe apps.

    Each probe app is its set of active feature indices. A perturbation only
    adds features, so its delta on a probe is ``adds`` minus the probe.
    """
    if not quant_apps:
        raise ValueError("at least one quantification app is required")
    dim = space.dim
    ps: set[int] = set()
    for probe in quant_apps:
        if any(not 0 <= i < dim for i in probe):
            raise ValueError(f"quantification app feature out of range [0, {dim})")
        for p in perturbations:
            if not p.applicable(probe):
                log.debug("skipping inapplicable pair (app %s, %s)", sorted(probe), p.id)
                continue
            if max(p.adds) >= dim:
                raise ValueError(f"perturbation {p.id!r} adds feature index >= dim {dim}")
            ps |= p.adds - probe
    return SpacePartition.from_ps(ps, dim)


def save_partition(partition: SpacePartition, path) -> None:
    write_records(path, [{"dim": partition.dim, "ips": list(partition.ips),
                          "ps": list(partition.ps)}])


def load_partition(path) -> SpacePartition:
    """The partition of a file holding exactly one record."""
    records = list(read_records(path, "partition", ("dim", "ips", "ps")))
    if len(records) != 1:
        # line 2 is the missing record, line 3 the first extra one
        raise FormatError(path, 3 if records else 2,
                          f"partition file must hold one record, found {len(records)}")
    line_no, rec = records[0]
    if type(rec["dim"]) is not int:
        raise FormatError(path, line_no, "dim must be an integer")
    ps, ips = (tuple(int_list(rec, key, path, line_no)) for key in ("ps", "ips"))
    try:
        return SpacePartition(ps, ips, rec["dim"])
    except ValueError as exc:
        raise FormatError(path, line_no, f"invalid partition document: {exc}") from exc
