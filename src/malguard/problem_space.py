"""Additive perturbations and the probe apps they are replayed against.

A perturbation names the feature indices it switches on (``adds``) plus an
applicability predicate: every index in ``requires`` must already be active
and every index in ``forbids`` must be absent. Applying a perturbation never
removes features, so an app's features after it are its features before
plus ``adds``. An app is therefore just its set of active feature indices.

Perturbation-set files are :mod:`malguard.data` record files with keys id,
kind, adds, requires, forbids.
"""

from __future__ import annotations

from dataclasses import dataclass

from malguard.data import FormatError, int_list, read_records, write_records


@dataclass(frozen=True)
class Perturbation:
    id: str
    kind: str
    adds: frozenset[int]
    requires: frozenset[int] = frozenset()
    forbids: frozenset[int] = frozenset()

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"perturbation id must be a non-empty string, got {self.id!r}")
        if not isinstance(self.kind, str):
            raise ValueError(f"perturbation {self.id!r} kind must be a string")
        if not self.adds:
            raise ValueError(f"perturbation {self.id!r} adds no features")
        if any(i < 0 for i in self.adds | self.requires | self.forbids):
            raise ValueError(f"perturbation {self.id!r} has a negative feature index")
        if self.requires & self.forbids:
            raise ValueError(f"perturbation {self.id!r} requires and forbids the same feature")

    def applicable(self, active: frozenset[int]) -> bool:
        return self.requires <= active and not (self.forbids & active)


def builtin_quantification_apps(dim: int, main_activity: int) -> list[frozenset[int]]:
    """The active feature sets of the two built-in probe apps of quantification.

    One is empty; the other holds only the designated main-activity feature,
    so activity-requiring perturbations become applicable to it. Neither
    probe's own feature can appear in a measured delta, because a delta
    leaves out the features the probe already holds.
    """
    if not 0 <= main_activity < dim:
        raise ValueError(f"main-activity index {main_activity} out of range [0, {dim})")
    return [frozenset(), frozenset({main_activity})]


def save_perturbations(perturbations, path) -> None:
    write_records(path, (
        {"id": p.id, "kind": p.kind, "adds": sorted(p.adds),
         "requires": sorted(p.requires), "forbids": sorted(p.forbids)}
        for p in perturbations
    ))


_PERT_KEYS = ("id", "kind", "adds", "requires", "forbids")


def load_perturbations(path) -> list[Perturbation]:
    perturbations = []
    seen: set[str] = set()
    for line_no, rec in read_records(path, "perturbation", _PERT_KEYS):
        adds, requires, forbids = (
            frozenset(int_list(rec, key, path, line_no)) for key in ("adds", "requires", "forbids")
        )
        try:
            pert = Perturbation(rec["id"], rec["kind"], adds, requires, forbids)
        except (TypeError, ValueError) as exc:
            raise FormatError(path, line_no, str(exc)) from exc
        if pert.id in seen:
            raise FormatError(path, line_no, f"duplicate perturbation id {pert.id!r}")
        seen.add(pert.id)
        perturbations.append(pert)
    return perturbations
