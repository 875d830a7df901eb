"""Additive perturbations and the app models they act on.

A perturbation names the feature indices it switches on (``adds``) plus an
applicability predicate: every index in ``requires`` must already be active
and every index in ``forbids`` must be absent. Applying a perturbation never
removes features, so feature growth is monotone and application of the same
perturbation is idempotent.

Perturbation-set files are line-delimited JSON under the ``#addfmt v1``
header with keys id, kind, adds, requires, forbids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from malguard.data import FORMAT_HEADER, FeatureVector, FormatError


class InapplicableError(ValueError):
    """Raised when a perturbation's applicability predicate is not met."""


@dataclass(frozen=True)
class Perturbation:
    id: str
    kind: str
    adds: frozenset[int]
    requires: frozenset[int] = frozenset()
    forbids: frozenset[int] = frozenset()

    def __post_init__(self):
        if not self.id:
            raise ValueError("perturbation id must be non-empty")
        if not self.adds:
            raise ValueError(f"perturbation {self.id!r} adds no features")
        if any(i < 0 for i in self.adds | self.requires | self.forbids):
            raise ValueError(f"perturbation {self.id!r} has a negative feature index")
        if self.requires & self.forbids:
            raise ValueError(f"perturbation {self.id!r} requires and forbids the same feature")

    def applicable(self, active: frozenset[int]) -> bool:
        return self.requires <= active and not (self.forbids & active)


@dataclass(frozen=True)
class AppModel:
    """An app as a base feature set plus the perturbations applied to it."""

    base: FeatureVector
    dim: int
    applied: tuple[Perturbation, ...] = ()

    @property
    def applied_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.applied)

    def effective(self) -> frozenset[int]:
        active = set(self.base.indices)
        for p in self.applied:
            active |= p.adds
        return frozenset(active)


def apply(app: AppModel, perturbation: Perturbation) -> AppModel:
    """Apply a perturbation, returning a new app model; idempotent per id."""
    active = app.effective()
    if any(p.id == perturbation.id for p in app.applied):
        return app
    if not perturbation.applicable(active):
        raise InapplicableError(
            f"perturbation {perturbation.id!r} is not applicable"
            f" (requires {sorted(perturbation.requires)}, forbids {sorted(perturbation.forbids)})"
        )
    if max(perturbation.adds, default=0) >= app.dim:
        raise ValueError(
            f"perturbation {perturbation.id!r} adds feature index >= dim {app.dim}"
        )
    return AppModel(app.base, app.dim, app.applied + (perturbation,))


def builtin_quantification_apps(dim: int, main_activity: int) -> list[AppModel]:
    """The two built-in probe apps used for space quantification.

    One has an empty feature set; one carries only the designated
    main-activity feature, so activity-requiring perturbations become
    applicable to it. Neither base feature can ever appear in a measured
    delta because deltas are computed against the probe's own baseline.
    """
    if not 0 <= main_activity < dim:
        raise ValueError(f"main-activity index {main_activity} out of range [0, {dim})")
    return [
        AppModel(FeatureVector.make((), dim), dim),
        AppModel(FeatureVector.make((main_activity,), dim), dim),
    ]


def save_perturbations(perturbations, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FORMAT_HEADER + "\n")
        for p in perturbations:
            rec = {
                "id": p.id,
                "kind": p.kind,
                "adds": sorted(p.adds),
                "requires": sorted(p.requires),
                "forbids": sorted(p.forbids),
            }
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


_PERT_KEYS = {"id", "kind", "adds", "requires", "forbids"}


def load_perturbations(path) -> list[Perturbation]:
    perturbations = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != FORMAT_HEADER:
            raise FormatError(path, 1, f"missing header {FORMAT_HEADER!r}")
        for line_no, raw in enumerate(fh, start=2):
            raw = raw.rstrip("\n")
            if not raw:
                raise FormatError(path, line_no, "blank line in perturbation file")
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise FormatError(path, line_no, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(rec, dict) or set(rec) != _PERT_KEYS:
                raise FormatError(path, line_no, f"record keys must be {sorted(_PERT_KEYS)}")
            for key in ("adds", "requires", "forbids"):
                vals = rec[key]
                if not isinstance(vals, list) or any(
                    isinstance(i, bool) or not isinstance(i, int) for i in vals
                ):
                    raise FormatError(path, line_no, f"{key} must be a list of integers")
            if rec["id"] in seen:
                raise FormatError(path, line_no, f"duplicate perturbation id {rec['id']!r}")
            seen.add(rec["id"])
            try:
                perturbations.append(
                    Perturbation(
                        id=rec["id"],
                        kind=rec["kind"],
                        adds=frozenset(rec["adds"]),
                        requires=frozenset(rec["requires"]),
                        forbids=frozenset(rec["forbids"]),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise FormatError(path, line_no, str(exc)) from exc
    return perturbations
