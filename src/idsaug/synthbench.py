"""Synthetic Gaussian-mixture datasets for desk-scale testing.

The default profile builds three overlapping classes whose counts mimic
the step-wise imbalance of real flow captures: one broad majority cloud
and two small attack clouds sitting partly inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset, _label_ids, save_dataset
from .errors import ConfigError
from .seeding import as_generator


@dataclass
class MixtureComponent:
    weight: float
    center: np.ndarray
    scale: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        if self.weight <= 0:
            raise ConfigError("component weight must be positive")
        if self.scale <= 0:
            raise ConfigError("component scale must be positive")


@dataclass
class ClassSpec:
    name: str
    count: int
    components: list[MixtureComponent]

    def __post_init__(self):
        if self.count <= 0:
            raise ConfigError(f"class {self.name!r} needs a positive count")
        if not self.components:
            raise ConfigError(f"class {self.name!r} needs at least one component")


@dataclass
class BenchSpec:
    dim: int
    seed: int
    classes: list[ClassSpec] = field(default_factory=list)

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("feature dim must be positive")
        if not self.classes:
            raise ConfigError("need at least one class")
        for cls in self.classes:
            for comp in cls.components:
                if comp.center.shape != (self.dim,):
                    raise ConfigError(
                        f"component center of class {cls.name!r} has dim "
                        f"{comp.center.shape}, expected ({self.dim},)"
                    )


def default_spec(counts=(20000, 150, 12), dim: int = 20, seed: int = 0) -> BenchSpec:
    """Overlapping-Gaussians profile with fixed geometry.

    One broad majority cloud; each minority class is a tighter cloud pushed
    out along its own direction, far enough to be learnable once balanced
    but light enough that an unbalanced classifier largely absorbs it. The
    geometry depends only on ``dim`` (drawn from a pinned stream), so
    different seeds resample points from the same populations.
    """
    if dim < len(counts):
        raise ConfigError("feature dim must be at least the number of classes")
    geometry = np.random.default_rng(np.random.SeedSequence([0x1D5A, dim]))
    base = np.full(dim, 0.5)
    raw = geometry.standard_normal((len(counts), dim))
    directions, _ = np.linalg.qr(raw.T)
    directions = directions.T  # orthonormal rows: no accidental collisions
    classes = [ClassSpec("class_0", int(counts[0]), [
        MixtureComponent(0.6, base - 0.08 * directions[0], 0.10),
        MixtureComponent(0.4, base + 0.08 * directions[0], 0.11),
    ])]
    for i, count in enumerate(counts[1:], start=1):
        offset = 0.12 + 0.03 * i
        scale = 0.07 if i == 1 else 0.04
        classes.append(ClassSpec(f"class_{i}", int(count), [
            MixtureComponent(1.0, base + offset * directions[i], scale),
        ]))
    return BenchSpec(dim=dim, seed=seed, classes=classes)


def generate_dataset(spec: BenchSpec) -> Dataset:
    """Exact per-class counts, deterministic for a given spec and seed."""
    rng = as_generator(spec.seed)
    blocks = []
    label_strings = []
    for cls in sorted(spec.classes, key=lambda c: c.name):
        weights = np.array([c.weight for c in cls.components], dtype=np.float64)
        weights /= weights.sum()
        picks = rng.choice(len(cls.components), size=cls.count, p=weights)
        rows = np.empty((cls.count, spec.dim))
        for idx, comp in enumerate(cls.components):
            mask = picks == idx
            rows[mask] = comp.center + comp.scale * rng.standard_normal((int(mask.sum()), spec.dim))
        blocks.append(rows)
        label_strings.extend([cls.name] * cls.count)
    labels, names = _label_ids(label_strings)
    return Dataset(np.concatenate(blocks), labels, names)


def write_bench_csv(path, spec: BenchSpec):
    save_dataset(path, generate_dataset(spec))
