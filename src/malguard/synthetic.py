"""Synthetic detection benchmark with a planted perturbable-space ground truth.

Every sample carries a latent state: its class plus a mode drawn for the
imperturbable half. With probability ``alpha`` the latent also drives the
perturbable half; otherwise that half is a generic surface independent of
everything else. A driven benign sample commits its perturbable mode block to
the same mode as its imperturbable half, a driven malicious sample to the
opposite mode, and a driven malicious sample additionally suppresses its
evasion markers (the perturbable bits that benign apps light up). An undriven
perturbable half draws a uniform mode and benign-rate markers, the way a
repackaged app keeps its host's surface.

At alpha=0 the perturbable half is therefore independent of both the class
and the imperturbable half; at alpha=0.9 most samples betray their class by
how the two halves are matched. Because attacks only ever add perturbable
bits, a committed pairing survives any evasion attempt: that is the signal
the incompatibility encoders are meant to find. Malware-marker bits in the
imperturbable half give a plain detector a weak class signal of its own; the
detector's main lever is the marker gap in the perturbable half, which is
exactly what makes additive evasion possible. The rest is uniform background
noise plus a single main-activity bit, always imperturbable.

The perturbation grammar partitions the non-marker perturbable bits into
disjoint payloads, sprinkles evasion markers on top so attacks have teeth,
and gates a reserved payload slice behind the main-activity bit. The union of
all payloads is exactly the planted perturbable set, and the reserved slice
is unreachable from an activity-free app, so probing with one app provably
under-recovers the space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from malguard.data import BENIGN, MALICIOUS, Dataset, FeatureSpace, FeatureVector, Sample
from malguard.problem_space import Perturbation
from malguard.quantify import SpacePartition


@dataclass(frozen=True)
class GeneratorConfig:
    dim: int = 2000
    ps_size: int = 150
    n_benign: int = 8000
    n_malicious: int = 2000
    n_modes: int = 6
    alpha: float = 0.9
    evasion_bits: int = 24
    evasion_on_benign: float = 0.35
    evasion_on_malicious: float = 0.06
    ps_mode_on: float = 0.7
    ps_mode_off: float = 0.01
    ips_mode_bits: int = 100
    ips_mode_on: float = 0.5
    ips_mode_off: float = 0.03
    malware_bits: int = 250
    malware_on_benign: float = 0.10
    malware_lift: float = 0.006
    background_on: float = 0.04
    activity_on: float = 0.95
    n_perturbations: int = 40
    evasion_per_perturbation: int = 1
    ts_range: tuple[int, int] = (0, 1_000_000)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ts_range", tuple(int(t) for t in self.ts_range))
        if len(self.ts_range) != 2 or self.ts_range[0] >= self.ts_range[1]:
            raise ValueError(f"ts_range must be a (lo, hi) pair with lo < hi, got {self.ts_range}")
        if self.n_modes < 2:
            raise ValueError("need at least two modes to express a pairing")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.n_perturbations < 2:
            raise ValueError("need at least one plain and one gated perturbation")
        n_gated = max(1, self.n_perturbations // 8)
        free = self.ps_size - self.evasion_bits
        if free < self.n_modes + 2 * n_gated:
            raise ValueError(
                "perturbable space too small for the mode blocks plus the"
                f" reserved gated payload: {free} free bits"
            )
        used = 1 + self.ps_size + self.n_modes * self.ips_mode_bits + self.malware_bits
        if self.dim < used:
            raise ValueError(f"dim={self.dim} cannot hold {used} structured bits")


@dataclass(frozen=True)
class PlantedLayout:
    """Where each flavor of feature landed in the index space."""

    partition: SpacePartition
    main_activity: int
    evasion: tuple[int, ...]
    ps_mode_blocks: tuple[tuple[int, ...], ...]
    ips_mode_blocks: tuple[tuple[int, ...], ...]
    malware: tuple[int, ...]
    background: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SyntheticBenchmark:
    dataset: Dataset
    perturbations: tuple[Perturbation, ...]
    partition: SpacePartition
    layout: PlantedLayout
    config: GeneratorConfig
    ips_modes: np.ndarray
    ps_modes: np.ndarray


def plant_layout(cfg: GeneratorConfig, rng: np.random.Generator) -> PlantedLayout:
    """Scatter the structured bits over a shuffled index space."""
    perm = rng.permutation(cfg.dim)
    act = int(perm[0])
    ps_slice = perm[1 : 1 + cfg.ps_size]
    evasion = tuple(int(v) for v in ps_slice[: cfg.evasion_bits])
    rest = ps_slice[cfg.evasion_bits :]
    ps_blocks = tuple(
        tuple(int(v) for v in block) for block in np.array_split(rest, cfg.n_modes)
    )
    cursor = 1 + cfg.ps_size
    width = cfg.n_modes * cfg.ips_mode_bits
    ips_blocks = tuple(
        tuple(int(v) for v in row)
        for row in perm[cursor : cursor + width].reshape(cfg.n_modes, cfg.ips_mode_bits)
    )
    cursor += width
    malware = tuple(int(v) for v in perm[cursor : cursor + cfg.malware_bits])
    cursor += cfg.malware_bits
    background = tuple(int(v) for v in perm[cursor:])
    return PlantedLayout(
        partition=SpacePartition.from_ps(ps_slice, cfg.dim),
        main_activity=act,
        evasion=evasion,
        ps_mode_blocks=ps_blocks,
        ips_mode_blocks=ips_blocks,
        malware=malware,
        background=background,
    )


def plant_grammar(
    layout: PlantedLayout, cfg: GeneratorConfig, rng: np.random.Generator
) -> list[Perturbation]:
    """Build perturbations whose payloads union to exactly the planted space.

    Plain perturbations carry a disjoint slice of the mode-block bits plus a
    couple of evasion markers each; every marker is dealt out at least once.
    Gated perturbations require the main-activity bit and are the only cover
    for their reserved slice.
    """
    n_gated = max(1, cfg.n_perturbations // 8)
    n_plain = cfg.n_perturbations - n_gated
    evasion = np.asarray(layout.evasion)
    pool = np.asarray([i for block in layout.ps_mode_blocks for i in block])
    reserved = rng.choice(pool, size=2 * n_gated, replace=False)
    remainder = np.setdiff1d(pool, reserved)
    rng.shuffle(remainder)
    payloads = [set(int(v) for v in c) for c in np.array_split(remainder, n_plain)]
    for j, marker in enumerate(rng.permutation(evasion)):
        payloads[j % n_plain].add(int(marker))
    perturbations = []
    for j, payload in enumerate(payloads):
        extra = rng.choice(evasion, size=min(cfg.evasion_per_perturbation, len(evasion)),
                           replace=False)
        perturbations.append(
            Perturbation(
                id=f"inject-{j:03d}",
                kind="inject",
                adds=frozenset(payload | {int(v) for v in extra}),
                requires=frozenset(),
                forbids=frozenset(),
            )
        )
    for a, chunk in enumerate(np.array_split(reserved, n_gated)):
        perturbations.append(
            Perturbation(
                id=f"activity-inject-{a:03d}",
                kind="activity-inject",
                adds=frozenset(int(v) for v in chunk),
                requires=frozenset({layout.main_activity}),
                forbids=frozenset(),
            )
        )
    return perturbations


def _templates(layout: PlantedLayout, cfg: GeneratorConfig) -> np.ndarray:
    """Bit probabilities per (class, driven flag, perturbable mode, imp. mode).

    Only a driven malicious sample suppresses its evasion markers; every
    other combination keeps the generic benign-rate surface.
    """
    L = cfg.n_modes
    tpl = np.zeros((2, 2, L, L, cfg.dim))
    for cls in (0, 1):
        base = np.zeros(cfg.dim)
        base[list(layout.background)] = cfg.background_on
        base[list(layout.malware)] = cfg.malware_on_benign + (cfg.malware_lift if cls else 0.0)
        base[layout.main_activity] = cfg.activity_on
        for driven in (0, 1):
            marker_rate = (
                cfg.evasion_on_malicious if cls and driven else cfg.evasion_on_benign
            )
            for pm in range(L):
                for im in range(L):
                    row = base.copy()
                    row[list(layout.evasion)] = marker_rate
                    for j, block in enumerate(layout.ps_mode_blocks):
                        row[list(block)] = cfg.ps_mode_on if j == pm else cfg.ps_mode_off
                    for j, block in enumerate(layout.ips_mode_blocks):
                        row[list(block)] = cfg.ips_mode_on if j == im else cfg.ips_mode_off
                    tpl[cls, driven, pm, im] = row
    return tpl


def generate(cfg: GeneratorConfig) -> SyntheticBenchmark:
    rng = np.random.default_rng(cfg.seed)
    layout = plant_layout(cfg, rng)
    grammar = plant_grammar(layout, cfg, rng)
    L = cfg.n_modes
    counts = (cfg.n_benign, cfg.n_malicious)
    ims, pms, drv = [], [], []
    for cls, n in enumerate(counts):
        im = rng.integers(0, L, size=n)
        committed = im if cls == 0 else (im + L // 2) % L
        driven = rng.random(n) < cfg.alpha
        alt = rng.integers(0, L, size=n)
        ims.append(im)
        pms.append(np.where(driven, committed, alt))
        drv.append(driven)
    ts = rng.integers(cfg.ts_range[0], cfg.ts_range[1], size=sum(counts))
    tpl = _templates(layout, cfg)
    samples = []
    pos = 0
    for cls, n in enumerate(counts):
        label = MALICIOUS if cls else BENIGN
        tag = "m" if cls else "b"
        for i in range(n):
            on = rng.random(cfg.dim) < tpl[cls, int(drv[cls][i]), pms[cls][i], ims[cls][i]]
            samples.append(
                Sample(
                    id=f"{tag}{i:05d}",
                    vector=FeatureVector(tuple(np.flatnonzero(on).tolist())),
                    label=label,
                    ts=int(ts[pos]),
                )
            )
            pos += 1
    names = [f"f{i}" for i in range(cfg.dim)]
    names[layout.main_activity] = "main_activity"
    return SyntheticBenchmark(
        dataset=Dataset(FeatureSpace(tuple(names)), tuple(samples)),
        perturbations=tuple(grammar),
        partition=layout.partition,
        layout=layout,
        config=cfg,
        ips_modes=np.concatenate(ims),
        ps_modes=np.concatenate(pms),
    )
