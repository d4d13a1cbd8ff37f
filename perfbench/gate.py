"""Output checks on a finished run directory, made without idsaug's own code."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import Counter

# artifacts that must be byte-identical across repeats of one seed on one commit
HASHED = ("augmented.csv", "classifier.ckpt", os.path.join("metrics", "metrics.json"))


def artifact_hashes(run_dir: str) -> dict[str, str]:
    hashes = {}
    for name in HASHED:
        digest = hashlib.sha256()
        with open(os.path.join(run_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        hashes[name] = digest.hexdigest()
    return hashes


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return next(reader), [row for row in reader if row]


def check_run(run_dir: str) -> list[str]:
    """Problems found in ``run_dir``; an empty list means the outputs are sound.

    Checks that every class in ``augmented.csv`` reached its ``levels.csv``
    target, that the rows marked original are exactly the training split, and
    that ``metrics/metrics.json`` scores every class.
    """
    try:
        _, levels = _read_csv(os.path.join(run_dir, "levels.csv"))
        header, augmented = _read_csv(os.path.join(run_dir, "augmented.csv"))
        _, train = _read_csv(os.path.join(run_dir, "split_train.csv"))
        with open(os.path.join(run_dir, "labels.json"), encoding="utf-8") as fh:
            labels = set(json.load(fh).values())
        with open(os.path.join(run_dir, "metrics", "metrics.json"), encoding="utf-8") as fh:
            metrics = json.load(fh)
        label_col, prov_col = header.index("Label"), header.index("provenance")
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return [f"unreadable run directory: {exc!r}"]

    problems = []
    targets = {row[0]: int(row[4]) for row in levels}
    counts = Counter(row[label_col] for row in augmented)
    for name in sorted(set(targets) | set(counts)):
        if counts.get(name, 0) != targets.get(name):
            problems.append(f"class {name}: {counts.get(name, 0)} augmented rows, "
                            f"levels.csv target {targets.get(name)}")
    originals = sum(1 for row in augmented if row[prov_col] == "original")
    if originals != len(train):
        problems.append(f"{originals} rows marked original, training split has {len(train)}")
    scored = set(metrics.get("names", {}).values())
    if scored != labels:
        problems.append(f"metrics.json scores {sorted(scored)}, labels are {sorted(labels)}")
    macro = metrics.get("macro", {}).get("f_beta")
    if not (isinstance(macro, float) and math.isfinite(macro) and 0.0 <= macro <= 1.0):
        problems.append(f"macro F1 {macro!r} is not a ratio")
    return problems


def macro_f1(run_dir: str) -> float:
    with open(os.path.join(run_dir, "metrics", "metrics.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["macro"]["f_beta"])
