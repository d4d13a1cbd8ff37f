"""Imbalance ratios, ample/scarce/rare leveling, and augmentation targets."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

from .errors import ConfigError, DataError, PolicyError
from .nncore.checkpoint import atomic_file

AMPLE = "ample"
SCARCE = "scarce"
RARE = "rare"

_SEVERITY = {AMPLE: 0, SCARCE: 1, RARE: 2}


@dataclass
class LevelThresholds:
    """Boundaries on the imbalance ratio separating the three levels.

    ``fixed`` mode applies the boundaries as given. ``auto-gap`` mode derives
    them from the two largest consecutive gaps in sorted log10 ratios, then
    records the derived values here.
    """

    scarce_min_ir: float = 100.0
    rare_min_ir: float = 10000.0
    mode: str = "fixed"

    def __post_init__(self):
        if self.mode not in ("fixed", "auto-gap"):
            raise ConfigError(f"unknown leveling mode {self.mode!r}")
        if self.scarce_min_ir <= 0 or self.rare_min_ir <= 0:
            raise ConfigError("level thresholds must be positive")
        if self.scarce_min_ir >= self.rare_min_ir:
            raise ConfigError("scarce_min_ir must be below rare_min_ir")


@dataclass
class LevelPartition:
    levels: dict[int, str]
    irs: dict[int, float]
    majority_class: int
    thresholds: LevelThresholds

    def classes_at(self, level: str) -> list[int]:
        return sorted(c for c, lvl in self.levels.items() if lvl == level)


@dataclass
class LevelReportRow:
    class_id: int
    name: str
    count: int
    ir: float
    level: str
    target: int


def imbalance_ratios(counts: dict[int, int]) -> dict[int, float]:
    """Majority count divided by each class count, exactly in float64."""
    if not counts:
        raise DataError("no class counts given")
    for class_id, count in counts.items():
        if count <= 0:
            raise DataError(f"class {class_id} has non-positive count {count}")
    n_max = max(counts.values())
    return {class_id: n_max / count for class_id, count in counts.items()}


def _auto_gap_thresholds(irs: dict[int, float]) -> LevelThresholds | None:
    """Boundaries at the two largest consecutive gaps of sorted log10 ratios.

    Returns None when there is no usable gap (all ratios equal). With only
    one positive gap the upper boundary is pushed past the largest ratio, so
    no class lands in the rare level.
    """
    logs = sorted(math.log10(v) for v in irs.values())
    gaps = [(logs[i + 1] - logs[i], i) for i in range(len(logs) - 1)]
    positive = [g for g in gaps if g[0] > 0.0]
    if not positive:
        return None
    ranked = sorted(positive, key=lambda g: (-g[0], g[1]))
    chosen = sorted(i for _, i in ranked[:2])
    boundaries = [10.0 ** ((logs[i] + logs[i + 1]) / 2.0) for i in chosen]
    if len(boundaries) == 1:
        scarce_min = boundaries[0]
        rare_min = 10.0 ** min(logs[-1] + 1.0, 300.0)
        warnings.warn("auto-gap found a single usable gap; no class will be rare")
    else:
        scarce_min, rare_min = boundaries
    return LevelThresholds(scarce_min, rare_min, mode="auto-gap")


def partition(irs: dict[int, float], thresholds: LevelThresholds) -> LevelPartition:
    """Assign each class a level from its imbalance ratio.

    Classes below the scarce boundary are ample, classes at or above the
    rare boundary are rare, the rest are scarce.
    """
    if not irs:
        raise DataError("no imbalance ratios given")
    effective = thresholds
    if thresholds.mode == "auto-gap":
        if len(irs) < 3:
            warnings.warn("auto-gap leveling needs at least 3 classes; treating all as ample")
            effective = None
        else:
            effective = _auto_gap_thresholds(irs)
            if effective is None:
                warnings.warn("all imbalance ratios are equal; treating all classes as ample")
    majority = min(irs, key=lambda c: (irs[c], c))
    if effective is None:
        levels = {class_id: AMPLE for class_id in irs}
        sentinel = LevelThresholds(mode="auto-gap",
                                   scarce_min_ir=1e308, rare_min_ir=float("inf"))
        return LevelPartition(levels, dict(irs), majority, sentinel)
    levels = {}
    for class_id, ir in irs.items():
        if ir < effective.scarce_min_ir:
            levels[class_id] = AMPLE
        elif ir < effective.rare_min_ir:
            levels[class_id] = SCARCE
        else:
            levels[class_id] = RARE
    return LevelPartition(levels, dict(irs), majority, effective)


def augmentation_targets(part: LevelPartition, counts: dict[int, int]) -> dict[int, int]:
    """Per-class target counts after augmentation.

    Ample classes keep their count. Scarce classes rise to the smallest
    ample count, rare classes to the smallest scarce count; a target never
    drops below the current count.
    """
    ample_counts = [counts[c] for c in part.classes_at(AMPLE)]
    scarce_classes = part.classes_at(SCARCE)
    rare_classes = part.classes_at(RARE)
    if not ample_counts:
        raise PolicyError("no ample class exists; cannot derive augmentation targets")
    scarce_target = min(ample_counts)
    if rare_classes and not scarce_classes:
        warnings.warn("rare classes exist with no scarce class; using the smallest ample count")
        rare_target = min(ample_counts)
    elif scarce_classes:
        rare_target = min(counts[c] for c in scarce_classes)
    else:
        rare_target = 0
    targets = {}
    for class_id, level in part.levels.items():
        if level == AMPLE:
            targets[class_id] = counts[class_id]
        elif level == SCARCE:
            targets[class_id] = max(scarce_target, counts[class_id])
        else:
            targets[class_id] = max(rare_target, counts[class_id])
    return targets


def severity(level: str) -> int:
    return _SEVERITY[level]


def build_level_report(counts: dict[int, int], part: LevelPartition,
                       targets: dict[int, int],
                       names: dict[int, str] | None = None) -> list[LevelReportRow]:
    names = names or {}
    rows = []
    for class_id in sorted(counts):
        rows.append(LevelReportRow(
            class_id=class_id,
            name=names.get(class_id, str(class_id)),
            count=counts[class_id],
            ir=part.irs[class_id],
            level=part.levels[class_id],
            target=targets[class_id],
        ))
    return rows


def level_report_text(rows: list[LevelReportRow]) -> str:
    width = max((len(r.name) for r in rows), default=5)
    lines = [f"{'class':<{width}}  {'count':>10}  {'IR':>14}  {'level':<6}  {'target':>10}"]
    for row in rows:
        lines.append(
            f"{row.name:<{width}}  {row.count:>10}  {row.ir:>14.2f}  {row.level:<6}  {row.target:>10}"
        )
    return "\n".join(lines) + "\n"


def write_level_report(csv_path, txt_path, rows: list[LevelReportRow]):
    with atomic_file(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "count", "imbalance_ratio", "level", "target"])
        for row in rows:
            writer.writerow([row.name, row.count, repr(row.ir), row.level, row.target])
    with atomic_file(txt_path, "w", encoding="utf-8") as fh:
        fh.write(level_report_text(rows))
